"""Ready-made building blocks for the coupled-system examples.

The pendulum-type block and the asymmetric-oscillator planar block cover the
showcase systems; expression-backed builders handle everything else.
Expression variables: the angular block uses (t, x1..xM, y1..yM), planar
expressions use (t, u, v); for M = 1 the aliases x, y are accepted.
"""

from __future__ import annotations

import numpy as np

from . import expr as xp
from .errors import ValidationError
from .homogeneous import asymmetric, hamiltonian_from_expr
from .systems import DecompositionData

__all__ = [
    "pendulum_hamiltonian", "free_rotator", "hamiltonian_block_from_expr",
    "coupling_from_expr", "asymmetric_field", "planar_field_from_expr",
    "xy_names",
]


def xy_names(M):
    return [f"x{i + 1}" for i in range(M)], [f"y{i + 1}" for i in range(M)]


def _resolve_aliases(ast, M):
    # for M = 1 the short names x, y stand for x1, y1
    if M == 1:
        return xp.substitute(ast, {"x": "x1", "y": "y1"})
    return ast


def _parsed(src):
    return xp.parse_expr(src) if isinstance(src, str) else src


def _uv(w):
    # one point as Python floats, on which scalar arithmetic is faster than
    # on numpy scalars; points of shape (2, n) as their two rows
    return w.tolist() if w.ndim == 1 else w


def pendulum_hamiltonian(A=1.0, E_src="0", params=None):
    """Pendulum-type block: grad of H(t, q, p) = p^2/2 + E(t) p - A cos q (M = 1).

    ``E_src`` is the T-periodic primitive of the forcing (E' = e), entering
    the equations as q' = p + E(t), p' = -A sin q.
    """
    E = xp.compile_expr(_parsed(E_src), ("t",), params=params)

    def grad_H(t, x, y):
        return (np.array([A * np.sin(x[0])]), np.array([y[0] + E(t)]))

    return grad_H


def free_rotator(M):
    """Gradient of H = |y|^2 / 2: x drifts at rate y, y is conserved."""

    def grad_H(t, x, y):
        return (np.zeros(M), np.asarray(y, dtype=float).copy())

    return grad_H


def hamiltonian_block_from_expr(src, M, params=None):
    """grad_H(t, x, y), x and y arrays, of an expression in (t, x1.., y1..)."""
    xn, yn = xy_names(M)
    names = tuple(xn + yn)
    grad = xp.compile_expr(_resolve_aliases(_parsed(src), M), ("t",) + names, names, params)

    def grad_H(t, x, y):
        g = grad(t, *x.tolist(), *y.tolist())
        return g[:M], g[M:]

    return grad_H


def coupling_from_expr(src, M, params=None):
    """grad_P(t, x, y, w), x, y and w arrays, of an expression in (t, x1.., y1.., u, v)."""
    xn, yn = xy_names(M)
    names = tuple(xn + yn + ["u", "v"])
    grad = xp.compile_expr(_resolve_aliases(_parsed(src), M), ("t",) + names, names, params)

    def grad_P(t, x, y, w):
        g = grad(t, *x.tolist(), *y.tolist(), *w.tolist())
        return g[:M], g[M:2 * M], g[2 * M:]

    return grad_P


def asymmetric_field(mu1, nu1, mu2=None, nu2=None, h_src="0", params=None):
    """Planar block of the asymmetric oscillator u'' + f(u) + h(t, u) = 0.

    The restoring force interpolates between the stiffness pairs,

        f(u) = ((mu1+mu2)/2 + (mu2-mu1)/2 cos u) u+
             - ((nu1+nu2)/2 + (nu2-nu1)/2 sin(u^3)) u-,

    so mu1 <= f(u)/u <= mu2 on u > 0 and nu1 <= -f(-u)/u <= nu2, and h is a
    bounded remainder.  Returns (F, DecompositionData, w_kink) with
    F(t, w) = (f(u) + h(t, u), v) and Q the primitive of h.
    """
    mu2 = mu1 if mu2 is None else mu2
    nu2 = nu1 if nu2 is None else nu2
    problems = [name for name, val in
                (("mu1", mu1), ("nu1", nu1), ("mu2", mu2), ("nu2", nu2)) if not val > 0]
    if problems:
        raise ValidationError([f"{p} must be positive" for p in problems])
    if mu2 < mu1 or nu2 < nu1:
        raise ValidationError(["stiffness ordering requires mu1 <= mu2 and nu1 <= nu2"])
    h = xp.compile_expr(_parsed(h_src), ("t", "u"), params=params)

    def f(u):
        up = np.maximum(u, 0.0)
        um = np.maximum(-u, 0.0)
        z1 = 0.5 * (mu1 + mu2) + 0.5 * (mu2 - mu1) * np.cos(u)
        z2 = 0.5 * (nu1 + nu2) + 0.5 * (nu2 - nu1) * np.sin(u ** 3)
        return z1 * up - z2 * um

    def F(t, w):
        return np.stack([f(w[0]) + h(t, w[0]), np.asarray(w[1], dtype=float)])

    H1 = asymmetric(mu1, nu1)
    H2 = asymmetric(mu2, nu2)

    def grad_Q(t, w):
        hv = h(t, w[0])
        return np.stack([np.asarray(hv, dtype=float),
                         np.zeros_like(np.asarray(hv, dtype=float))])

    mode = "global" if (mu1 == mu2 and nu1 == nu2) else "quadrant"
    dec = DecompositionData(H1, H2, grad_Q, mode=mode)
    w_kink = (mu1 != nu1) or (mu2 != nu2)
    return F, dec, w_kink


def planar_field_from_expr(K_src=None, components=None, params=None,
                           H1_src=None, H2_src=None, Q_src=None):
    """Planar block from a Hamiltonian expression K(t, u, v) or components.

    With ``K_src`` the field is F = grad_w K (the natural gradient form);
    ``components`` gives (F_u_src, F_v_src) directly.  Optional H1/H2/Q
    expressions attach a decomposition.  Returns (F, dec_or_None, w_kink).
    """
    if (K_src is None) == (components is None):
        raise ValidationError(["planar expr block needs exactly one of K or components"])
    tuv = ("t", "u", "v")
    if K_src is not None:
        ast = _parsed(K_src)
        kinky = xp.has_kinks(ast)
        grad_K = xp.compile_expr(ast, tuv, ("u", "v"), params)

        def F(t, w):
            return grad_K(t, *_uv(w))
    else:
        asts = [_parsed(c) for c in components]
        kinky = any(xp.has_kinks(a) for a in asts)
        fns = [xp.compile_expr(a, tuv, params=params) for a in asts]

        def F(t, w):
            return np.stack([np.asarray(f(t, *_uv(w)), dtype=float) for f in fns])

    dec = None
    if H1_src is not None and H2_src is not None:
        H1 = hamiltonian_from_expr(H1_src, params=params)
        H2 = hamiltonian_from_expr(H2_src, params=params)
        grad_Q_uv = xp.compile_expr(xp.parse_expr(Q_src if Q_src is not None else "0"),
                                    tuv, ("u", "v"), params)

        def grad_Q(t, w):
            return grad_Q_uv(t, *_uv(w))

        dec = DecompositionData(H1, H2, grad_Q)
        kinky = kinky or H1.kink_on_u_axis or H2.kink_on_u_axis
    return F, dec, kinky
