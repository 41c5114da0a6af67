"""Output checks computed apart from hamshoot.

Every reference below is written out here from the workload's equations:
the vector fields by hand, flows by ``scipy.integrate.solve_ivp`` (DOP853),
periods and Landesman-Lazer (LL) limits in closed form.  Nothing is taken
from ``hamshoot`` except the outputs under test.

All workloads use M = 1, the pendulum angle block H = y^2/2 - cos x, the
coupling P = eps sin(x) sin(u) and the planar stiffness pair
(mu, nu) = (4, 1); the Neumann workload adds the forcing c atan(u)
(primitive Q = c (u atan u - ln(1 + u^2)/2)).
"""

from __future__ import annotations

import re

import numpy as np
from scipy.integrate import quad, solve_ivp

EPS = 0.1
MU, NU = 4.0, 1.0
C_ATAN = 0.5                 # Neumann workload forcing c
# LL amplitudes logspace(2, 6, 9) (the cli default): smallest of the tail
# half and largest
LAMBDA_TAIL_MIN, LAMBDA_MAX = 1e4, 1e6
NEWTON_TOL = 1e-9
# a record re-integrated independently must close to this; the program
# accepts below NEWTON_TOL, and the reference flow adds its own ~1e-11
RESIDUAL_BOUND = 1e-8
PERTURBATION = 1e-4          # self-test: a record shifted by this must fail
# failed starts accepted as the integration-noise-floor stall (the fault of
# solvers.py: integration_tol = 0.1 * newton_tol): LM stalls close to the
# target residual on a well-conditioned Jacobian
STALL_MAX_RESIDUAL = 1e-6
STALL_MAX_COND = 1e6
_STALL = re.compile(r"stalled at residual ([0-9.eE+-]+) \(cond ~ ([0-9.eE+-]+)\)")


def _restoring(u):
    return MU * max(u, 0.0) - NU * max(-u, 0.0)


def periodic_field(t, z):
    x, y, u, v = z
    return [y,
            -np.sin(x) - EPS * np.cos(x) * np.sin(u),
            v,
            -(_restoring(u) + EPS * np.sin(x) * np.cos(u))]


def neumann_field(t, z):
    x, y, u, v = z
    return [y,
            -np.sin(x) - EPS * np.cos(x) * np.sin(u),
            v,
            -(_restoring(u) + C_ATAN * np.arctan(u) + EPS * np.sin(x) * np.cos(u))]


def _flow(field, z0, t0, t1):
    sol = solve_ivp(field, (t0, t1), np.asarray(z0, dtype=float), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def periodic_residual(z0, T):
    """|wrap(z(T) - z0)| with the angle component wrapped to (-pi, pi]."""
    d = _flow(periodic_field, z0, 0.0, T) - z0
    d[0] = (d[0] + np.pi) % (2 * np.pi) - np.pi
    return float(np.linalg.norm(d))


def neumann_residual(z0, a, b):
    """|(y(a), v(a), y(b), v(b))|: both Neumann boundary conditions."""
    zb = _flow(neumann_field, z0, a, b)
    return float(np.linalg.norm([z0[1], z0[3], zb[1], zb[3]]))


# --------------------------------------------------------------------------
# closed forms for the (mu, nu) oscillator
# --------------------------------------------------------------------------

def period(mu=MU, nu=NU):
    return np.pi / np.sqrt(mu) + np.pi / np.sqrt(nu)


def orbit(s, mu=MU, nu=NU):
    """Energy-1/2 orbit of H = (mu u+^2 + nu u-^2 + v^2)/2 from the +u axis,
    turning clockwise: a quarter wave at frequency sqrt(mu), a half wave at
    sqrt(nu), then the closing quarter at sqrt(mu)."""
    sm, sn = np.sqrt(mu), np.sqrt(nu)
    s = np.mod(np.asarray(s, dtype=float), period(mu, nu))
    s1 = np.pi / (2 * sm)
    s2 = s1 + np.pi / sn
    u = np.where(s < s1, np.cos(sm * s) / sm,
                 np.where(s < s2, -np.sin(sn * (s - s1)) / sn, np.sin(sm * (s - s2)) / sm))
    v = np.where(s < s1, -np.sin(sm * s),
                 np.where(s < s2, -np.cos(sn * (s - s1)), np.cos(sm * (s - s2))))
    return u, v


def _integral(f, a, b, shift=0.0):
    """int_a^b f(t) dt for f built from orbit(t + shift), split where the
    orbit's pieces join and where |u| or |v| has its kink."""
    tau = period()
    s1 = np.pi / (2 * np.sqrt(MU))
    marks = (0.0, s1, s1 + np.pi / (2 * np.sqrt(NU)), s1 + np.pi / np.sqrt(NU))
    pts = sorted({m - shift + k * tau for m in marks
                  for k in range(-2, int((b + abs(shift)) / tau) + 3)
                  if a < m - shift + k * tau < b})
    val, _ = quad(f, a, b, points=pts or None, limit=400, epsabs=1e-12, epsrel=1e-12)
    return val


def abs_u_integral(theta, a, b):
    return _integral(lambda t: abs(float(orbit(t + theta)[0])), a, b, theta)


def norm_integral(a, b):
    return _integral(lambda t: float(np.hypot(*orbit(t))), a, b)


# --------------------------------------------------------------------------
# checks; each returns a list of failure messages (empty = pass)
# --------------------------------------------------------------------------

def check_periods(out, span_):
    """Periods, half-periods and resonance tag against pi/sqrt(mu) + pi/sqrt(nu)."""
    bad = []
    tau = period()
    for key in ("tau1", "tau2"):
        if abs(out[key] - tau) > 1e-9 * tau:
            bad.append(f"{key} = {out[key]!r}, closed form {tau!r}")
    for key in ("tau_plus", "tau_minus"):
        if abs(out[key] - tau / 2) > 1e-9 * tau:   # H is even in v
            bad.append(f"{key} = {out[key]!r}, closed form {tau / 2!r}")
    # every workload sits inside a window T/(N+1) < tau' < T/N, tau' the
    # period (periodic mode) or the half period (Neumann mode)
    basis = tau if out["mode"] == "periodic" else tau / 2
    want = ("Nonresonant", int(np.floor(span_ / basis)))
    if (out["tag"], out["N"]) != want:
        bad.append(f"resonance {out['tag']}(N={out['N']}), expected {want}")
    return bad


def check_mbar(mbar):
    # sup |grad_w P| = eps sup |sin x cos u| = eps on the sampled box
    if not 0.98 * EPS <= mbar <= EPS * (1 + 1e-12):
        return [f"mbar {mbar!r} outside [0.98 eps, eps]"]
    return []


def check_records(records, residual_fn):
    """Every converged record must close under the reference flow."""
    bad = []
    for i, z0 in enumerate(records):
        r = residual_fn(np.asarray(z0, dtype=float))
        if not r < RESIDUAL_BOUND:
            bad.append(f"record {i}: reference residual {r:.3e} >= {RESIDUAL_BOUND:.0e}")
    return bad


def self_test(record, residual_fn):
    """The record check must reject the first record shifted by PERTURBATION."""
    shifted = np.asarray(record, dtype=float) + PERTURBATION
    if not check_records([shifted], residual_fn):
        return [f"record check accepted a record shifted by {PERTURBATION:g}"]
    return []


def check_distinct(records, M=1):
    """At least M + 1 classes, pairwise distinct modulo 2 pi in x."""
    bad = []
    if len(records) < M + 1:
        bad.append(f"{len(records)} distinct classes < M + 1 = {M + 1}")
    for i in range(len(records)):
        for j in range(i):
            d = np.asarray(records[i], dtype=float) - np.asarray(records[j], dtype=float)
            d[0] = (d[0] + np.pi) % (2 * np.pi) - np.pi
            if np.max(np.abs(d)) <= 1e-6:
                bad.append(f"classes {j} and {i} coincide")
    return bad


def classify_failures(outcomes):
    """Split start outcomes into (failed-by-the-known-stall, other failures)."""
    stalls, other = 0, []
    for ok, err, msg in outcomes:
        if ok:
            continue
        m = _STALL.search(msg or "")
        if err == "SingularJacobianError" and m and float(m.group(1)) <= STALL_MAX_RESIDUAL \
                and float(m.group(2)) <= STALL_MAX_COND:
            stalls += 1
        else:
            other.append(f"{err}: {msg}")
    return stalls, other


def ll_tolerance(span_, c):
    """Allowed gap between an LL integral and its large-amplitude limit.

    Per t the integrand is c x atan(lambda x) with x = phi_u(t + s):
    * s-window: the minimum over s in theta +- tau/64 moves it by at most
      (tau/64) times its t-Lipschitz constant c (pi/2 + 1/2) |phi_u'| with
      |phi_u'| = |v| <= 1 on the energy-1/2 orbit;
    * lambda tail: 0 <= (pi/2)|x| - x atan(lambda x) <= 1/lambda;
    * quadrature: 1e-3 for the program's 513-node trapezoid rule across the
      kinks of |phi_u|.
    With c = 0 the integrand is lambda (2 H(phi(t+s)) - 2 H(phi(t))), bounded
    by the orbit's energy error 1e-10 times 2 lambda_max.
    """
    if c == 0.0:
        return 2 * LAMBDA_MAX * 1e-10 * span_ + 1e-9
    return (c * (np.pi / 2 + 0.5) * (period() / 64) + c / LAMBDA_TAIL_MIN) * span_ + 1e-3


def check_ll(rows_by_side, mbar, a, b, c):
    """LL rows (theta, lhs, rhs, margin) against their closed-form limits.

    lower: lhs -> c (pi/2) int_a^b |phi_u(t + theta)| dt, upper: the negative
    of it; rhs = mbar int_a^b |phi| dt and margin = lhs - rhs.
    """
    bad = []
    rhs_ref = mbar * norm_integral(a, b)
    tol = ll_tolerance(b - a, c)
    for side, rows in rows_by_side.items():
        sign = 1.0 if side == "lower" else -1.0
        if not rows:
            bad.append(f"{side}: no LL rows")
        for theta, lhs, rhs, margin in rows:
            ref = sign * c * (np.pi / 2) * abs_u_integral(theta, a, b) if c else 0.0
            if abs(lhs - ref) > tol:
                bad.append(f"{side} theta={theta:.4f}: lhs {lhs:.6f} vs limit {ref:.6f} "
                           f"(tol {tol:.3e})")
            if abs(rhs - rhs_ref) > 1e-4 * rhs_ref:
                bad.append(f"{side} theta={theta:.4f}: rhs {rhs!r} vs {rhs_ref!r}")
            if abs(margin - (lhs - rhs)) > 1e-12 * (1 + abs(lhs) + abs(rhs)):
                bad.append(f"{side} theta={theta:.4f}: margin != lhs - rhs")
    return bad
