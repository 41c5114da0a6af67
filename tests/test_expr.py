import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hamshoot.errors import DomainError, ExprSyntaxError, UnboundVariableError
from hamshoot.expr import (ExprBlock, compile_blocks, eval_expr, free_variables, grad_expr,
                           parse_expr, substitute, unparse)

ASYM = "0.5*(mu*pos(u)^2 + nu*neg(u)^2 + v^2)"


def test_parse_asymmetric_hamiltonian():
    e = parse_expr(ASYM)
    assert eval_expr(e, {"mu": 1.0, "nu": 1.0, "u": 0.6, "v": 0.8}) == pytest.approx(0.5)


def test_identity_and_pos_neg():
    assert eval_expr(parse_expr("u"), {"u": 3.0}) == 3.0
    assert eval_expr(parse_expr("pos(u)-neg(u)"), {"u": -2.5}) == -2.5


def test_power_right_associative():
    assert eval_expr(parse_expr("2^3^2"), {}) == 512.0


def test_unary_minus_below_power():
    assert eval_expr(parse_expr("-2^2"), {}) == -4.0
    assert eval_expr(parse_expr("2^-2"), {}) == 0.25


def test_sin_at_zero():
    assert eval_expr(parse_expr("sin(t)"), {"t": 0.0}) == 0.0


def test_gradient_asymmetric_branches():
    e = parse_expr(ASYM)
    g = grad_expr(e, ("u", "v"), {"mu": 4.0, "nu": 1.0, "u": 1.0, "v": 1.0})
    assert np.allclose(g, [4.0, 1.0])
    g = grad_expr(e, ("u", "v"), {"mu": 4.0, "nu": 1.0, "u": -1.0, "v": 1.0})
    assert np.allclose(g, [-1.0, 1.0])


def test_quotient_rule_divides_by_the_divisor_alone():
    # d(x/y) = (dx - (x/y) dy) / y, where 1e-200 squared would underflow to 0
    g = grad_expr(parse_expr("x/y"), ("x", "y"), {"x": 1e-100, "y": 1e-200})
    assert g.tolist() == [1e200, -1e300]


def test_euler_identity_on_homogeneous_expr():
    e = parse_expr(ASYM)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u, v = rng.uniform(-3, 3, 2)
        b = {"mu": 4.0, "nu": 1.0, "u": u, "v": v}
        g = grad_expr(e, ("u", "v"), b)
        assert g @ np.array([u, v]) == pytest.approx(2 * eval_expr(e, b), abs=1e-12)


def test_kink_subgradient_is_zero():
    for src in ("pos(u)", "neg(u)", "abs(u)"):
        g = grad_expr(parse_expr(src), ("u",), {"u": 0.0})
        assert g[0] == 0.0


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_expr(parse_expr("a+b"), {"a": 1.0})


@pytest.mark.parametrize("src,binding", [
    ("ln(u)", {"u": -1.0}),
    ("ln(u)", {"u": 0.0}),
    ("sqrt(u)", {"u": -0.5}),
    ("1/u", {"u": 0.0}),
    ("u^0.5", {"u": -2.0}),
    ("0^u", {"u": -1.0}),
])
def test_domain_errors(src, binding):
    with pytest.raises(DomainError):
        eval_expr(parse_expr(src), binding)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr("1 + * 2")
    assert ei.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(1, 2)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("fancy(1)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("2 x")  # no implicit multiplication


def test_array_evaluation_broadcasts():
    e = parse_expr(ASYM)
    u = np.array([1.0, -1.0, 0.5])
    v = np.ones(3)
    out = eval_expr(e, {"mu": 4.0, "nu": 1.0, "u": u, "v": v})
    assert out.shape == (3,)
    g = grad_expr(e, ("u", "v"), {"mu": 4.0, "nu": 1.0, "u": u, "v": v})
    assert g.shape == (2, 3)
    assert np.allclose(g[:, 0], [4.0, 1.0])
    assert np.allclose(g[:, 1], [-1.0, 1.0])


def test_passive_array_binding():
    g = grad_expr(parse_expr("sin(t)*u"), ("u",),
                  {"t": np.array([0.0, np.pi / 2]), "u": 2.0})
    assert np.allclose(g, [[0.0, 1.0]])


def test_gradient_in_t():
    # t is seeded like any bound name, at one point and on arrays
    e = parse_expr("t*t*u")
    assert grad_expr(e, ("t", "u"), {"t": 2.0, "u": 3.0}).tolist() == [12.0, 4.0]
    g = grad_expr(e, ("t", "u"), {"t": np.array([1.0, 2.0]), "u": 3.0})
    assert g.tolist() == [[6.0, 12.0], [1.0, 4.0]]


def _switch(*srcs, wrt=None, state=("u", "v"), tangents=0):
    """The switch of ``srcs`` in (t, *state) compiled as one block."""
    block = ExprBlock(tuple(map(parse_expr, srcs)), ("t",) + state, wrt)
    return compile_blocks([block], state, lambda o: o[0], tangents).switch


def test_switch_is_none_without_a_kink_on_a_state():
    assert _switch("sin(u)*exp(v)") is None
    assert _switch("0.5*(u^2 + v^2)", wrt=("u", "v")) is None
    # arguments on literals alone never change sign
    assert _switch("pos(2.0)*u + abs(-1.5)*v + max(1.0, 3.0) + min(0.5, 0.25)") is None


def test_switch_has_one_surface_per_kink_argument():
    # pos(u) and neg(u) are one surface u = 0, in the value and in the gradient
    for wrt in (None, ("u", "v")):
        g = _switch("0.5*(4*pos(u)^2 + neg(u)^2 + v^2)", wrt=wrt)
        assert g(0.0, np.array([-0.3, 2.0])) == (-0.3,)
    g = _switch("pos(u - v)^2 + abs(u)", "neg(u)")
    assert g(0.0, np.array([0.5, 2.0])) == (0.5 - 2.0, 0.5)


def test_switch_of_min_and_max_is_the_difference_of_their_arguments():
    g = _switch("min(u, 0.2) + max(2*v, u^2)")
    u, v = 0.7, -0.4
    assert g(0.0, np.array([u, v])) == (u - 0.2, 2 * v - u * u)


def test_switch_reads_t_and_the_state_only():
    g = _switch("pos(u - sin(t)) + v", state=("u", "v"), tangents=2)
    # on a variational state z continues with Phi, which the switch ignores
    z = np.array([0.5, 9.0, 1.0, 0.0, 0.0, 1.0])
    assert g(1.0, z) == (0.5 - np.sin(1.0),)
    assert g(0.0, z) == (0.5,)
    # the domain checks are left out: the switch of sqrt(u) * pos(v) reads v alone
    g = _switch("sqrt(u)*pos(v)")
    assert "_DomainError" not in g.source
    assert g(0.0, np.array([4.0, -1.0])) == (-1.0,)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_SMOOTH_FUNCS = ["sin", "cos", "exp", "atan"]


def _random_smooth_expr(rng, depth=0):
    """Random expression over smooth nodes only, safe to finite-difference."""
    r = rng.random()
    if depth >= 3 or r < 0.25:
        if rng.random() < 0.5:
            return f"{rng.uniform(0.2, 2.0):.6f}"
        return rng.choice(["a", "b", "c"])
    if r < 0.5:
        fn = rng.choice(_SMOOTH_FUNCS)
        return f"{fn}({_random_smooth_expr(rng, depth + 1)})"
    if r < 0.62:
        return f"({_random_smooth_expr(rng, depth + 1)})^{rng.integers(1, 4)}"
    op = rng.choice(["+", "-", "*"])
    return f"({_random_smooth_expr(rng, depth + 1)} {op} {_random_smooth_expr(rng, depth + 1)})"


def test_gradient_matches_central_differences():
    """100 random smooth expressions, relative agreement < 1e-6."""
    rng = np.random.default_rng(42)
    names = ("a", "b", "c")
    checked = 0
    while checked < 100:
        src = _random_smooth_expr(rng)
        e = parse_expr(src)
        vals = rng.uniform(-1.5, 1.5, 3)
        b = dict(zip(names, vals))
        g = grad_expr(e, names, b)
        h = 1e-6
        fd = np.empty(3)
        for i, nm in enumerate(names):
            bp = dict(b)
            bp[nm] = b[nm] + h
            bm = dict(b)
            bm[nm] = b[nm] - h
            fd[i] = (eval_expr(e, bp) - eval_expr(e, bm)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - fd)) / scale < 1e-6, src
        checked += 1


def test_second_derivatives_match_central_differences():
    """Hessians from compile_blocks (forward over forward, three tangents at
    Phi = I) against central differences of the compiled gradient, which the
    same function returns first, 100 random smooth expressions."""
    rng = np.random.default_rng(7)
    names = ("a", "b", "c")
    for _ in range(100):
        src = _random_smooth_expr(rng)
        block = ExprBlock((parse_expr(src),), ("t",) + names, names)
        grad = compile_blocks([block], names, lambda o: o[0])
        both = compile_blocks([block], names, lambda o: o[0], tangents=3)
        z = rng.uniform(-1.5, 1.5, 3)
        fd = np.empty((3, 3))
        for j in range(3):
            d = np.zeros(3)
            d[j] = 1e-6
            fd[:, j] = (grad(0.3, z + d) - grad(0.3, z - d)) / 2e-6
        out = both(0.3, np.r_[z, np.eye(3).ravel()])
        assert np.array_equal(out[:3], grad(0.3, z)), src
        H = out[3:].reshape(3, 3)
        assert np.max(np.abs(H - fd)) / max(1.0, float(np.max(np.abs(H)))) < 1e-6, src


def test_compile_blocks_takes_an_empty_state():
    """A block over no state variable (the gradient of an M = 0 angular block)
    compiles, and gives no rows at one point, on a list and on columns."""
    block = ExprBlock((parse_expr("0.5*t"),), ("t",), ())
    fn = compile_blocks([block], (), lambda o: o[0])
    for z, shape in ((np.zeros(0), (0,)), ([], (0,)), (np.zeros((0, 3)), (0, 3))):
        out = fn(0.3, z)
        assert out.shape == shape and out.dtype == np.float64


def test_unread_values_keep_their_domain_checks():
    """Compiled code drops values no output reads, but not the checks on them."""
    block = ExprBlock((parse_expr("x + 0*ln(y) + sqrt(y - 1)"),), ("t", "x", "y"), ("x",))
    fn = compile_blocks([block], ("x", "y"), lambda o: o[0])
    assert "_log" not in fn.source and "_sqrt" not in fn.source
    assert fn(0.0, np.array([2.0, 3.0])).tolist() == [1.0]
    for y in (0.0, 0.5):
        with pytest.raises(DomainError):
            fn(0.0, np.array([2.0, y]))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_pos_neg_identities(s):
    pos = eval_expr(parse_expr("pos(s)"), {"s": s})
    neg = eval_expr(parse_expr("neg(s)"), {"s": s})
    assert pos - neg == pytest.approx(s, rel=1e-15, abs=0.0)
    assert pos * neg == 0.0


@st.composite
def _expr_sources(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return repr(draw(st.floats(min_value=0.0, max_value=9.0,
                                       allow_nan=False, allow_infinity=False)))
        return draw(st.sampled_from(["a", "b", "zz_1"]))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        fn = draw(st.sampled_from(["sin", "cos", "exp", "atan", "pos", "neg", "abs", "sqrt", "ln"]))
        return f"{fn}({draw(_expr_sources(depth + 1))})"
    if kind == 1:
        fn = draw(st.sampled_from(["min", "max"]))
        return f"{fn}({draw(_expr_sources(depth + 1))}, {draw(_expr_sources(depth + 1))})"
    if kind == 2:
        return f"-({draw(_expr_sources(depth + 1))})"
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    return f"({draw(_expr_sources(depth + 1))}) {op} ({draw(_expr_sources(depth + 1))})"


@given(_expr_sources())
@settings(max_examples=200)
def test_parse_unparse_roundtrip(src):
    ast = parse_expr(src)
    assert parse_expr(unparse(ast)) == ast


def test_free_variables():
    assert free_variables(parse_expr("sin(x1)*y1 + t - mu")) == {"x1", "y1", "t", "mu"}


# ---------------------------------------------------------------------------
# compiled code
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src,u,v,expected", [
    # derivative 0 at the kinks of pos/neg/abs
    ("pos(u)", 0.0, 0.0, [0.0, 0.0]),
    ("neg(u)", 0.0, 0.0, [0.0, 0.0]),
    ("abs(u)", 0.0, 0.0, [0.0, 0.0]),
    ("pos(u)", 2.0, 0.0, [1.0, 0.0]),
    ("neg(u)", -2.0, 0.0, [-1.0, 0.0]),
    ("abs(u)", -2.0, 0.0, [-1.0, 0.0]),
    # min/max ties follow the second argument
    ("min(u, v)", 1.0, 1.0, [0.0, 1.0]),
    ("max(u, v)", 1.0, 1.0, [0.0, 1.0]),
    ("min(2*u, v)", 0.5, 1.0, [0.0, 1.0]),
    ("max(v, 3*u)", 1.0, 3.0, [3.0, 0.0]),
    ("min(u, v)", 0.5, 1.0, [1.0, 0.0]),
    ("max(u, v)", 0.5, 1.0, [0.0, 1.0]),
])
def test_kink_and_tie_conventions(src, u, v, expected):
    e = parse_expr(src)
    assert grad_expr(e, ("u", "v"), {"u": u, "v": v}).tolist() == expected
    # the same conventions hold elementwise on columns
    block = ExprBlock((e,), ("t", "u", "v"), ("u", "v"))
    g = compile_blocks([block], ("u", "v"), lambda o: o[0])(0.0, np.array([[u] * 3, [v] * 3]))
    assert g.tolist() == [[d] * 3 for d in expected]


@pytest.mark.parametrize("src,binding,wrt", [
    ("ln(u)", {"u": 0.0}, ()),
    ("ln(u)", {"u": 0.0}, ("u",)),
    ("1/u", {"u": 0.0}, ()),
    ("1/u", {"u": 0.0}, ("u",)),
    ("2/u", {"u": 0.0, "v": 1.0}, ("v",)),
    ("u^0.5", {"u": -1.0}, ()),
    ("u^0.5", {"u": -1.0}, ("u",)),
    ("u^-1", {"u": 0.0}, ()),
    ("u^-1", {"u": 0.0}, ("u",)),
    ("sqrt(u)", {"u": 0.0}, ("u",)),
    ("sqrt(u*v)", {"u": 0.0, "v": 2.0}, ("v",)),
    ("u^v", {"u": 0.0, "v": 2.0}, ("v",)),
    ("u^v", {"u": -1.0, "v": 2.0}, ("v",)),
    ("u^v", {"u": -1.0, "v": 2.0}, ("u", "v")),
])
def test_domain_error_table(src, binding, wrt):
    e = parse_expr(src)
    with pytest.raises(DomainError):
        if wrt:
            grad_expr(e, wrt, binding)
        else:
            eval_expr(e, binding)


def test_domain_checks_follow_what_is_differentiated():
    # sqrt is differentiable only away from 0, but its value at 0 is fine;
    # x^y with x <= 0 is fine while y stays passive
    assert eval_expr(parse_expr("sqrt(u)"), {"u": 0.0}) == 0.0
    assert grad_expr(parse_expr("sqrt(u) + v"), ("v",), {"u": 0.0, "v": 1.0}).tolist() == [1.0]
    g = grad_expr(parse_expr("u^v"), ("u",), {"u": -1.0, "v": 2.0})
    assert g.tolist() == [-2.0]


def test_compile_checks_names_up_front():
    with pytest.raises(UnboundVariableError):
        eval_expr(parse_expr("a + b"), {"a": 1.0})
    with pytest.raises(UnboundVariableError):
        grad_expr(parse_expr("a + b"), ("a",), {"a": 1.0})
    with pytest.raises(UnboundVariableError):
        grad_expr(parse_expr("a"), ("b",), {"a": 1.0})


_POINT = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def _call_or_raise(fn, *args):
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(*args), dtype=float)
    except DomainError:
        return None


@given(_expr_sources(), st.lists(st.tuples(_POINT, _POINT, _POINT), min_size=1, max_size=5))
# np.power with an array exponent is not always correctly rounded
@example("(4.416015625) ^ (-((a) ^ (a)))", [(0.0, 0.0, 0.0)])
# a divisor with partials, whose square pow() and a product once rounded apart
@example("(a) / ((b) + (1))", [(2.174, 1.759, 2.649)])
@settings(max_examples=300, deadline=None)
def test_array_evaluation_matches_scalar_evaluation(src, points):
    """The column form of a compiled block gives bit for bit what its float
    form gives at each point, values and gradients alike, or both raise."""
    e = parse_expr(src)
    names = ("a", "b", "zz_1")
    for wrt in (None, names):
        try:
            fn = compile_blocks([ExprBlock((e,), ("t",) + names, wrt)], names, lambda o: o[0])
        except DomainError:  # outside its domain at every point: nothing to evaluate
            continue
        whole = _call_or_raise(fn, 0.0, np.array(list(zip(*points))))
        each = [_call_or_raise(fn, 0.0, list(p)) for p in points]
        if whole is None:
            assert any(r is None for r in each), src
            continue
        assert all(r is not None for r in each), src
        np.testing.assert_array_equal(whole, np.stack(each, axis=-1))


_HOSTILE = ("lambda", "if", "np", "None", "__import__", "compiled", "x0", "a1", "d2_0",
            "_DomainError", "sin")


def test_hostile_names_as_variables_and_params():
    src = " + ".join(f"{k + 1}*{name}^2" for k, name in enumerate(_HOSTILE))
    e = parse_expr(src)
    vals = {name: 0.5 + k for k, name in enumerate(_HOSTILE)}
    expected = sum((k + 1) * vals[name] ** 2 for k, name in enumerate(_HOSTILE))
    assert eval_expr(e, vals) == pytest.approx(expected)
    g = grad_expr(e, _HOSTILE, vals)
    assert g.tolist() == pytest.approx([2 * (k + 1) * vals[n] for k, n in enumerate(_HOSTILE)])
    # the same names as folded-in params of a block, differentiating one of them
    params = {n: v for n, v in vals.items() if n != "np"}
    fn = compile_blocks([ExprBlock((e,), ("t", "np"), ("np",), params)], ("np",), lambda o: o[0])
    assert fn(0.0, [vals["np"]]).tolist() == pytest.approx([2 * 3 * vals["np"]])
    fn = compile_blocks([ExprBlock((e,), ("t",), None, vals)], (), lambda o: o[0])
    assert fn(0.0, []).tolist() == pytest.approx([expected])


def test_substitute_renames_and_splices_once():
    e = substitute(parse_expr("E*y - cos(x)"), {"E": parse_expr("x + y"), "x": "x1"})
    # the spliced subtree keeps its own names
    assert unparse(e) == "(x + y) * y - cos(x1)"
