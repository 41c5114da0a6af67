#!/usr/bin/env python3
"""Sweep the monodromy invariant Phi(t) f(z0) = f(z(t)) across switch crossings.

    python3 tools/phi_drift.py

For an autonomous field the variational flow carries the field along:
Phi(t) f(z0) = f(z(t)).  Per start the drift is the largest
|Phi(t) f(z0) - f(z(t))| over the step ends of one period's variational flow
(every column, the system's switch), divided by 1 + max |f(z0)|.  Two sweeps,
with starts fixed in advance:

* the (4, 1) asymmetric oscillator: 60 amplitudes in [0.05, 3] times the
  angles 0, 1, 2, at tol 1e-6, 1e-8, 1e-9 and 1e-10; bound 1 x tol;
* the demo config's system: at tol 1e-6 and then 1e-10, 60 starts each from
  one ``np.random.default_rng(3)``, x in [0, 2 pi), y in [-0.6, 0.6] and
  w in [-1, 1]^2; bound 100 x tol.

Prints the worst drift per sweep and tolerance, in units of tol, and exits 1
if one exceeds its bound.  Runs ``src/`` next to this directory.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hamshoot.config import load_config  # noqa: E402
from hamshoot.dynamics import integrate  # noqa: E402
from hamshoot.presets import asymmetric_field  # noqa: E402
from hamshoot.systems import CoupledSystem, assemble_field, variational  # noqa: E402


def drift(sys_, z0, tol):
    """The worst |Phi(t) f(z0) - f(z(t))| / (1 + max |f(z0)|) over the step ends."""
    n = sys_.dim
    field = assemble_field(sys_)
    traj = integrate(variational(sys_, list(range(n))), np.r_[z0, np.eye(n).ravel()],
                     0.0, sys_.T, tol, dense=False, switch=sys_.switch)
    f0 = field(0.0, z0)
    carried = traj.ys[:, n:].reshape(-1, n, n) @ f0
    return float(np.max(np.abs(carried - field(0.0, traj.ys[:, :n].T).T))
                 / (1.0 + np.max(np.abs(f0))))


def sweeps():
    """(name, tol, bound in units of tol, starts) of both sweeps."""
    osc = CoupledSystem(M=0, F=asymmetric_field(4.0, 1.0)[0], T=np.pi / 2 + np.pi)
    starts = [a * np.array([np.cos(th), np.sin(th)])
              for a in np.linspace(0.05, 3.0, 60) for th in (0.0, 1.0, 2.0)]
    for tol in (1e-6, 1e-8, 1e-9, 1e-10):
        yield "oscillator", osc, tol, 1.0, starts
    demo = load_config(ROOT / "demos" / "configs" / "pendulum_oscillator.yaml").system
    rng = np.random.default_rng(3)
    for tol in (1e-6, 1e-10):
        starts = [np.r_[rng.uniform(0.0, 2 * np.pi), rng.uniform(-0.6, 0.6),
                        rng.uniform(-1.0, 1.0, 2)] for _ in range(60)]
        yield "demo", demo, tol, 100.0, starts


def main():
    failed = False
    print(f"{'sweep':<11}{'tol':>8}{'worst/tol':>12}{'bound':>8}  worst start")
    for name, sys_, tol, bound, starts in sweeps():
        worst, z0 = max((drift(sys_, z, tol), " ".join(f"{v:+.6f}" for v in z))
                        for z in starts)
        failed |= worst > bound * tol
        print(f"{name:<11}{tol:>8.0e}{worst / tol:>12.4g}{bound:>8g}  {z0}")
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
