#!/usr/bin/env python3
"""Minimal periods of positively 2-homogeneous planar Hamiltonians.

Every nontrivial orbit of J w' = grad H(w) shares one minimal period when H
is positive and positively 2-homogeneous (the origin is an isochronous
center).  The period is the unit-circle integral of 1/(2H); for the
asymmetric oscillator H = (mu (u+)^2 + nu (u-)^2 + v^2)/2 it collapses to
the closed form pi/sqrt(mu) + pi/sqrt(nu).

This script tabulates quadrature vs closed form, splits the period into the
two half-turns between zeros of v, and samples a reference orbit.
"""

import numpy as np

from hamshoot import (AsymmetricParams, angle_to_orbit_time, asym_period,
                      asymmetric, check_homogeneous, half_periods, isotropic,
                      minimal_period, reference_orbit)


def main():
    print("=== structural check: Euler identity and 2-homogeneity ===")
    for H in (isotropic(), asymmetric(4, 1), asymmetric(9, 4)):
        rep = check_homogeneous(H, 1000, 1e-8)
        print(f"  {H.label:28s} euler {rep.max_euler_residual:.1e}  "
              f"homog {rep.max_homogeneity_residual:.1e}  "
              f"{'ok' if rep.passed else 'VIOLATED'}")

    print("\n=== minimal periods: quadrature vs closed form ===")
    print(f"  {'mu':>6} {'nu':>6} {'tau (quad)':>18} {'tau (formula)':>18} {'rel err':>10}")
    for mu in (0.25, 1.0, 4.0, 9.0):
        for nu in (1.0, 4.0):
            tq = minimal_period(asymmetric(mu, nu))
            tc = asym_period(AsymmetricParams(mu, nu))
            print(f"  {mu:6.2f} {nu:6.2f} {tq:18.12f} {tc:18.12f} {abs(tq - tc) / tc:10.1e}")

    print("\n=== half periods (times between zeros of v) ===")
    for mu, nu in ((1, 1), (4, 1), (9, 4)):
        hp = half_periods(asymmetric(mu, nu))
        print(f"  (mu, nu) = ({mu}, {nu}): tau+ = {hp.tau_plus:.10f},  "
              f"tau- = {hp.tau_minus:.10f},  sum = {hp.total:.10f}")
    print("  (these Hamiltonians are even in v, so tau+ = tau-)")

    print("\n=== reference orbit of H(4,1): energy 1/2, clockwise ===")
    orb = reference_orbit(asymmetric(4, 1), tol=1e-10)
    print(f"  start {orb.point(0.0)} (the scaling rule gives (1/2, 0): H(1,0) = 2)")
    print(f"  period tau = {orb.tau:.12f} = 3 pi / 2")
    ts = np.linspace(0.0, orb.tau, 7)
    for t in ts:
        p = orb.point(t)
        print(f"    phi({t:6.3f}) = ({p[0]:+.6f}, {p[1]:+.6f})   "
              f"H = {float(orb.H.value(p)):.12f}")

    print("\n=== the arc integral of 1/(2H) inverts the polar angle ===")
    for ang_deg in (0, -45, -90, -180, -270):
        s = angle_to_orbit_time(orb, np.deg2rad(ang_deg))
        p = orb.point(s)
        back = np.rad2deg(np.arctan2(p[1], p[0]))
        print(f"  angle {ang_deg:+5d} deg -> s = {s:8.5f} -> phi(s) points at {back:+8.3f} deg")


if __name__ == "__main__":
    main()
