"""Ready-made building blocks for the coupled-system examples.

Every block is an :class:`hamshoot.expr.ExprBlock` that
:func:`hamshoot.expr.compile_blocks` compiles into a function of (t, z),
which carries it as ``expr_block`` for a system's fused field to compile.
The pendulum-type block, the free rotator and the asymmetric-oscillator
planar block are expression templates with their parameters spliced in; the
expression-backed builders take any source.  Expression variables: the
angular block uses (t, x1..xM, y1..yM), planar expressions use (t, u, v);
for M = 1 the aliases x, y are accepted.  Like the planar callables, grad_H
and grad_P take one point or a column per point.
"""

from __future__ import annotations

import numpy as np

from . import expr as xp
from .errors import UnboundVariableError, ValidationError
from .homogeneous import asymmetric, hamiltonian_from_expr
from .systems import DecompositionData, xy_names

__all__ = [
    "pendulum_hamiltonian", "free_rotator", "hamiltonian_block_from_expr",
    "coupling_from_expr", "asymmetric_field", "planar_field_from_expr",
    "xy_names",
]

_TUV = ("t", "u", "v")


def _parsed(src):
    return src if isinstance(src, xp.Expr) else xp.parse_expr(str(src))


def _compiled(srcs, args, wrt, params):
    """The block of the expressions ``srcs`` in ``args``, t and then the
    state, compiled into a function of (t, z) that carries it as ``expr_block``."""
    block = xp.ExprBlock(tuple(map(_parsed, srcs)), args, wrt, params)
    fn = xp.compile_blocks([block], args[1:], lambda outputs: outputs[0])
    fn.expr_block = block
    return fn


def _part(name, src, allowed, params):
    """A template's part ``name``, parsed; it may use only ``allowed`` and params."""
    ast = _parsed(src)
    extra = sorted(xp.free_variables(ast) - set(allowed) - set(params or ()))
    if extra:
        raise UnboundVariableError(f"{name} may use only {', '.join(allowed)} and params, "
                                   f"found {', '.join(extra)}")
    return ast


def _template(src, **parts):
    """Parse ``src`` and splice in ``parts``: an Expr as a subtree, a number as a literal."""
    return xp.substitute(xp.parse_expr(src), {
        name: part if isinstance(part, xp.Expr) else xp.Num(float(part))
        for name, part in parts.items()})


def pendulum_hamiltonian(A=1.0, E_src="0", params=None):
    """Pendulum-type block: grad of H(t, q, p) = p^2/2 + E(t) p - A cos q (M = 1).

    ``E_src`` is the T-periodic primitive of the forcing (E' = e), entering
    the equations as q' = p + E(t), p' = -A sin q.
    """
    if not A > 0:
        raise ValidationError([f"A must be positive, got {A!r}"])
    H = _template("0.5*y1^2 + E*y1 - A*cos(x1)", A=A, E=_part("E", E_src, ("t",), params))
    return hamiltonian_block_from_expr(H, 1, params)


def free_rotator(M):
    """Gradient of H = |y|^2 / 2: x drifts at rate y, y is conserved."""
    return hamiltonian_block_from_expr(
        " + ".join(f"0.5*{y}^2" for y in xy_names(M)[1]) or "0", M)


def _angular_gradient(src, M, planar, params):
    # gradient in (x1.., y1..) and, if ``planar``, (u, v); x, y alias x1, y1 for M = 1
    xn, yn = xy_names(M)
    names = tuple(xn + yn + ["u", "v"] * planar)
    ast = _parsed(src)
    if M == 1:
        ast = xp.substitute(ast, {"x": "x1", "y": "y1"})
    return _compiled([ast], ("t",) + names, names, params)


# One point is joined as Python floats, which the compiled function unpacks
# as they are; a column per point is joined as one array of columns.

def hamiltonian_block_from_expr(src, M, params=None):
    """grad_H(t, x, y), at one point or a column per point, of an expression in (t, x1.., y1..)."""
    grad = _angular_gradient(src, M, False, params)

    def grad_H(t, x, y):
        g = grad(t, [*x.tolist(), *y.tolist()] if x.ndim == 1 else np.concatenate((x, y)))
        return g[:M], g[M:]

    grad_H.expr_block = grad.expr_block
    return grad_H


def coupling_from_expr(src, M, params=None):
    """grad_P(t, x, y, w), at one point or a column per point, of an expression in
    (t, x1.., y1.., u, v)."""
    grad = _angular_gradient(src, M, True, params)

    def grad_P(t, x, y, w):
        g = grad(t, [*x.tolist(), *y.tolist(), *w.tolist()] if w.ndim == 1
                 else np.concatenate((x, y, w)))
        return g[:M], g[M:2 * M], g[2 * M:]

    grad_P.expr_block = grad.expr_block
    return grad_P


def asymmetric_field(mu1, nu1, mu2=None, nu2=None, h_src="0", params=None):
    """Planar block of the asymmetric oscillator u'' + f(u) + h(t, u) = 0.

    The restoring force interpolates between the stiffness pairs,

        f(u) = ((mu1+mu2)/2 + (mu2-mu1)/2 cos u) u+
             - ((nu1+nu2)/2 + (nu2-nu1)/2 sin(u^3)) u-,

    so mu1 <= f(u)/u <= mu2 on u > 0 and nu1 <= -f(-u)/u <= nu2, and h is a
    bounded remainder.  Returns (F, DecompositionData) with F(t, w) =
    (f(u) + h(t, u), v) and Q the primitive of h.  Unless all four stiffnesses
    agree, the source has pos/neg, and F's ``switch`` the surface u = 0.
    """
    mu2 = mu1 if mu2 is None else mu2
    nu2 = nu1 if nu2 is None else nu2
    problems = [f"{name} must be positive, got {val!r}" for name, val in
                (("mu1", mu1), ("nu1", nu1), ("mu2", mu2), ("nu2", nu2)) if not val > 0]
    if mu2 < mu1 or nu2 < nu1:
        problems.append(f"mu2 >= mu1 and nu2 >= nu1 are required, got mu = ({mu1}, {mu2}), "
                        f"nu = ({nu1}, {nu2})")
    if problems:
        raise ValidationError(problems)
    if mu1 == mu2 == nu1 == nu2:
        f = "mu1*u"
    else:
        f = (("mu1" if mu1 == mu2 else "(a + b*cos(u))") + "*pos(u) - "
             + ("nu1" if nu1 == nu2 else "(c + d*sin(u^3))") + "*neg(u)")
    h = _part("h", h_src, ("t", "u"), params)
    F_u = _template(f"{f} + h", mu1=mu1, nu1=nu1, a=0.5 * (mu1 + mu2), b=0.5 * (mu2 - mu1),
                    c=0.5 * (nu1 + nu2), d=0.5 * (nu2 - nu1), h=h)
    F, _ = planar_field_from_expr(components=(F_u, "v"), params=params)
    dec = DecompositionData(asymmetric(mu1, nu1), asymmetric(mu2, nu2),
                            _compiled((h, "0"), _TUV, None, params))
    return F, dec


def planar_field_from_expr(K_src=None, components=None, params=None,
                           H1_src=None, H2_src=None, Q_src=None):
    """Planar block from a Hamiltonian expression K(t, u, v) or components.

    With ``K_src`` the field is F = grad_w K (the natural gradient form);
    ``components`` gives (F_u_src, F_v_src) directly.  Optional H1/H2/Q
    expressions attach a decomposition.  Returns (F, dec_or_None).
    """
    if (K_src is None) == (components is None):
        raise ValidationError(["preset expr needs exactly one of K or components"])
    if components is not None and not (isinstance(components, (list, tuple))
                                       and len(components) == 2):
        raise ValidationError([f"components must be a list [F_u, F_v], got {components!r}"])
    if (H1_src is None) != (H2_src is None):
        raise ValidationError(["H1 and H2 make a decomposition only together"])
    F = _compiled([K_src] if components is None else components, _TUV,
                  None if K_src is None else ("u", "v"), params)
    dec = None
    if H1_src is not None:
        H1 = hamiltonian_from_expr(H1_src, params=params)
        H2 = hamiltonian_from_expr(H2_src, params=params)
        dec = DecompositionData(H1, H2, _compiled(["0" if Q_src is None else Q_src], _TUV,
                                                  ("u", "v"), params))
    return F, dec
