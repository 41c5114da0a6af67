#!/usr/bin/env python3
"""Neumann-type boundary conditions: y(a) = y(b) = 0, v(a) = v(b) = 0.

The shooting unknowns shrink to (x(a), u(a)); the flow is integrated over
[a, b] and the boundary residual (y(b), v(b)) is rooted.  The role of the
minimal period is taken by the half-periods tau+ (time between consecutive
zeros of v): the interval length b - a is measured against multiples of the
half-period, and when it hits one exactly, a whole family of solutions
appears.  The solver's minimum-norm Newton steps have no component along the
family, which J sees only as integration noise, so it keeps the start's
member instead of failing.
"""

import numpy as np

from hamshoot import (CoupledSystem, NeumannStartSpec, asymmetric, half_periods,
                      classify_resonance, isotropic, multistart_neumann,
                      shoot_neumann)


def oscillator_system(interval, mu=1.0, nu=1.0):
    H = asymmetric(mu, nu)
    return CoupledSystem(M=1, F=lambda t, w: np.asarray(H.grad(w), dtype=float),
                         grad_H=lambda t, x, y: (np.array([np.sin(x[0])]),
                                                 np.array([y[0]])),
                         interval=interval, w_kink=(mu != nu))


def main():
    hp = half_periods(isotropic())
    print(f"=== harmonic oscillator: tau+ = tau- = {hp.tau_plus:.6f} ===")

    print("\n--- interval [0, pi] = one half-period: a solution family ---")
    fam = oscillator_system((0.0, np.pi))
    for ua in (0.8, -0.5, 2.0):
        rec = shoot_neumann(fam, (np.array([0.2]), ua))
        print(f"  start u(a) = {ua:+.2f} -> kept u(a) = {rec.w0[0]:+.6f}, "
              f"residual {rec.residual:.1e}, iterations {rec.iterations}")
    print("  (every amplitude solves: u = c cos t has v(0) = v(pi) = 0)")

    print("\n--- interval [0, 1]: nonresonant, only u = 0 survives ---")
    iso_sys = oscillator_system((0.0, 1.0))
    result = multistart_neumann(iso_sys, NeumannStartSpec(x_points=6, u_points=5))
    print(f"  {result.stats['attempted']} starts, "
          f"{result.stats['converged']} converged, "
          f"worst |u(a)| = {max(abs(r.w0[0]) for r in result.all_records):.1e}")
    print(f"  distinct classes (x(a) mod 2 pi): {result.partition.n_classes}")
    for r in result.records[:6]:
        print(f"    x(a) = {r.x0_normalized[0]:.6f}  u(a) = {r.w0[0]:+.1e}  "
              f"residual {r.residual:.1e}")

    print("\n--- half-period window for an asymmetric pair ---")
    hp1 = half_periods(asymmetric(4.0, 1.0))
    hp2 = half_periods(asymmetric(9.0, 4.0))
    for span in (1.0, hp2.tau_plus * 2, 2.2):
        rc = classify_resonance(hp1.tau_plus, hp2.tau_plus, span)
        print(f"  b - a = {span:8.5f}: tau1+ = {hp1.tau_plus:.5f}, "
              f"tau2+ = {hp2.tau_plus:.5f} -> {rc}")


if __name__ == "__main__":
    main()
