import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hamshoot.config import load_config

from hamshoot.dynamics import integrate
from hamshoot.errors import (DimensionMismatchError, MissingDecompositionError,
                             RhoTooSmallError)
from hamshoot.homogeneous import asymmetric, isotropic
from hamshoot.presets import (asymmetric_field, coupling_from_expr, free_rotator,
                              hamiltonian_block_from_expr, pendulum_hamiltonian,
                              planar_field_from_expr)
from hamshoot.systems import (CoupledSystem, CutoffModification, DecompositionData,
                              _compiled_field, assemble_field, build_cutoff, field_jacobian, halton,
                              modify_system, validate_decomposition, validate_periodicity,
                              variational)


DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "configs" / "pendulum_oscillator.yaml"


def _grad_pendulum(A=1.0):
    return lambda t, x, y: (np.array([A * np.sin(x[0])]), np.array([y[0]]))


def _iso_field():
    iso = isotropic()
    return lambda t, w: np.asarray(iso.grad(w), dtype=float)


def test_assemble_zero_blocks():
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.zeros(2), T=1.0)
    f = assemble_field(sys_)
    assert np.array_equal(f(0.0, np.zeros(4)), np.zeros(4))


def test_assemble_decoupled_pendulum_plus_rotation():
    sys_ = CoupledSystem(M=1, F=_iso_field(), grad_H=_grad_pendulum(), T=2 * np.pi)
    f = assemble_field(sys_)
    z = np.array([0.3, -0.2, 0.5, 0.7])
    out = f(0.0, z)
    # pendulum block: q' = p, p' = -A sin q; w block: u' = v, v' = -u
    assert out[0] == pytest.approx(-0.2)
    assert out[1] == pytest.approx(-np.sin(0.3))
    assert out[2] == pytest.approx(0.7)
    assert out[3] == pytest.approx(-0.5)


def test_assemble_pendulum_with_forcing_matches_first_order_form():
    from hamshoot.presets import pendulum_hamiltonian
    grad_H = pendulum_hamiltonian(A=2.0, E_src="0.3*sin(t)")
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.zeros(2), grad_H=grad_H, T=2 * np.pi)
    f = assemble_field(sys_)
    for t in (0.0, 0.7, 2.0):
        z = np.array([0.4, -0.1, 0.0, 0.0])
        out = f(t, z)
        assert out[0] == pytest.approx(-0.1 + 0.3 * np.sin(t))  # q' = p + E(t)
        assert out[1] == pytest.approx(-2.0 * np.sin(0.4))      # p' = -A sin q


def test_dimension_mismatch():
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.zeros(2), T=1.0)
    with pytest.raises(DimensionMismatchError):
        assemble_field(sys_)(0.0, np.zeros(3))


def test_energy_conservation_decoupled():
    grad_H = _grad_pendulum()
    iso = isotropic()
    sys_ = CoupledSystem(M=1, F=_iso_field(), grad_H=grad_H, T=2 * np.pi)
    f = assemble_field(sys_)
    z0 = np.array([0.7, 0.0, 0.3, 0.4])
    tol = 1e-10
    traj = integrate(f, z0, 0.0, 2 * np.pi, tol)
    energy = lambda z: (0.5 * z[1] ** 2 - np.cos(z[0])) + float(iso.value(z[2:]))
    drift = max(abs(energy(y) - energy(z0)) for y in traj.ys)
    assert drift < 100 * tol


# ---------------------------------------------------------------------------
# the compiled field of expression-built systems
# ---------------------------------------------------------------------------

_PARAMS = {"k": 0.7, "eps": 0.1, "c": 0.5, "mu": 3.0}

_HAMILTONIANS = {
    "pendulum": lambda M: pendulum_hamiltonian(2.0, "0.3*sin(t)", _PARAMS),
    "expr": lambda M: hamiltonian_block_from_expr(
        "0.5*y^2 - k*cos(x) + 0.2*sin(t)*y" if M == 1 else
        "0.5*y1^2 + 0.5*y2^2 - k*cos(x1 - x2) - cos(x2) + 0.2*sin(t)*y1", M, _PARAMS),
    "free_rotator": free_rotator,
    "none": lambda M: None,
}
_COUPLINGS = {
    "none": lambda M: None,
    "P": lambda M: coupling_from_expr(
        "eps*sin(x)*sin(u) + 0.1*cos(t)*v" if M == 1 else
        "eps*sin(x1)*sin(u) + eps*cos(x2)*v*y1", M, _PARAMS),
}
_PLANARS = {
    "asymmetric_kink": lambda: asymmetric_field(1.0, 1.0, 4.0, 4.0, "0.1*sin(t)*atan(u)"),
    "asymmetric_smooth": lambda: asymmetric_field(2.0, 2.0),
    "K": lambda: planar_field_from_expr(
        K_src="0.5*(4*pos(u)^2 + neg(u)^2 + v^2) + c*(u*atan(u) - 0.5*ln(1 + u^2))",
        params=_PARAMS),
    "components": lambda: planar_field_from_expr(
        components=["mu*pos(u) - neg(u) + 0.1*cos(t)", "v"], params=_PARAMS),
}


def _expr_system(ham, coupling, planar, M):
    F, dec, w_kink = _PLANARS[planar]()
    return CoupledSystem(M=M, F=F, grad_H=_HAMILTONIANS[ham](M), grad_P=_COUPLINGS[coupling](M),
                         T=2 * np.pi, decomposition=dec, w_kink=w_kink)


def _plain(fn):
    # the same block as a plain callable, which assemble_field assembles generically
    return None if fn is None else (lambda *args: fn(*args))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("ham, coupling, planar, M", [
    (ham, coupling, planar, M) for ham in _HAMILTONIANS for coupling in _COUPLINGS
    for planar in _PLANARS for M in (1, 2) if not (ham == "pendulum" and M == 2)])
def test_compiled_field_bitwise_equals_generic_assembly(ham, coupling, planar, M):
    sys_ = _expr_system(ham, coupling, planar, M)
    assert _compiled_field(sys_) is not None
    generic = replace(sys_, F=_plain(sys_.F), grad_H=_plain(sys_.grad_H),
                      grad_P=_plain(sys_.grad_P))
    assert _compiled_field(generic) is None
    f, g = assemble_field(sys_), assemble_field(generic)
    rng = np.random.default_rng(11)
    states = [rng.standard_normal(sys_.dim) * 10.0 ** rng.uniform(-3, 2) for _ in range(200)]
    for u in (0.0, -0.0):  # both signs of zero at the kink, and zeros of either sign
        for v in (0.3, -0.0):
            states += [np.r_[xy, u, v] for xy in
                       (rng.standard_normal(2 * M), np.zeros(2 * M), -np.zeros(2 * M))]
    for z in states:
        t = rng.uniform(0.0, 7.0)
        assert np.array_equal(_bits(f(t, z)), _bits(g(t, z))), (t, z)


def test_compiled_field_is_compiled_once_per_system():
    sys_ = _expr_system("pendulum", "P", "asymmetric_kink", 1)
    assert assemble_field(sys_).f is assemble_field(sys_).f


def test_compiled_field_dimension_mismatch():
    f = assemble_field(_expr_system("expr", "P", "K", 2))
    for size in (5, 7):
        with pytest.raises(DimensionMismatchError):
            f(0.0, np.zeros(size))


NEUMANN_CONFIG = DEMO_CONFIG.parents[2] / "bench" / "configs" / "neumann_expr_ll.yaml"


def _columns_system(name):
    if name == "plain":  # the demo's blocks as plain callables: assembled column by column
        sys_ = load_config(DEMO_CONFIG).system
        return replace(sys_, F=_plain(sys_.F), grad_H=_plain(sys_.grad_H),
                       grad_P=_plain(sys_.grad_P))
    return load_config({"demo": DEMO_CONFIG, "neumann": NEUMANN_CONFIG}[name]).system


@pytest.mark.parametrize("name", ["demo", "neumann", "plain"])
def test_field_on_columns_is_the_field_at_each_column(name):
    sys_ = _columns_system(name)
    f = assemble_field(sys_)
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((sys_.dim, 40)) * 10.0 ** rng.uniform(-3, 1, 40)
    Z[2 * sys_.M, :3] = (0.0, -0.0, 1e-300)  # on and next to the kink u = 0
    for t in (0.0, 0.7, 5.1):
        out = f(t, Z)
        assert out.shape == Z.shape
        columns = np.array([f(t, Z[:, j].copy()) for j in range(Z.shape[1])]).T
        assert np.array_equal(_bits(out), _bits(columns))
    if name != "plain":  # the compiled field, array form included, is compiled once
        assert assemble_field(sys_).f is f.f
    for shape in ((sys_.dim + 1, 3), (sys_.dim - 1, sys_.dim), (sys_.dim, 2, 2)):
        with pytest.raises(DimensionMismatchError):
            f(0.0, np.zeros(shape))


def test_field_on_columns_broadcasts_components_that_read_no_state():
    from hamshoot.errors import DomainError
    # x' = 0 and u' = 0.5 are literals, v' reads t and u; sqrt(u) needs u >= 0
    F, _, _ = planar_field_from_expr(components=["sqrt(u) + 0.1*cos(t)", "0.5"])
    f = assemble_field(CoupledSystem(M=1, F=F, T=1.0))
    Z = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [0.0, 4.0, 9.0], [1.0, 1.0, 1.0]])
    out = f(0.3, Z)
    assert np.array_equal(_bits(out), _bits(np.array([f(0.3, z.copy()) for z in Z.T]).T))
    assert out[0].tolist() == [0.0] * 3 and out[2].tolist() == [0.5] * 3
    Z[2, 1] = -1.0  # one column outside the domain
    with pytest.raises(DomainError):
        f(0.3, Z)


def test_modified_system_assembles_F_rho():
    sys_ = _expr_system("pendulum", "none", "asymmetric_kink", 1)
    mod = modify_system(sys_, 3.0)
    assert _compiled_field(mod) is None
    z = np.array([0.4, -0.2, 30.0, -25.0])  # |w| beyond rho^3 = 27
    w = z[2:]
    F_rho = mod.F(0.5, w)
    out = assemble_field(mod)(0.5, z)
    assert np.array_equal(out[2:], [F_rho[1], -F_rho[0]])
    assert not np.array_equal(out[2:], assemble_field(sys_)(0.5, z)[2:])


_GRID = [(ham, coupling, planar, M) for ham in _HAMILTONIANS for coupling in _COUPLINGS
         for planar in _PLANARS for M in (1, 2) if not (ham == "pendulum" and M == 2)]


def _fused_jacobian(sys_, t, z):
    """(f, D_z f) from the system's fused variational function at Phi = I."""
    n = sys_.dim
    out = variational(sys_, range(n)).f(t, np.r_[z, np.eye(n).ravel()])
    return out[:n], out[n:].reshape(n, n)


@pytest.mark.parametrize("ham, coupling, planar, M", _GRID)
def test_compiled_jacobian_matches_central_differences(ham, coupling, planar, M):
    """D_z f of the fused function against central differences of the compiled field,
    off the kink."""
    sys_ = _expr_system(ham, coupling, planar, M)
    f = assemble_field(sys_)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.standard_normal(sys_.dim) * 2.0
        z[2 * M] = np.copysign(rng.uniform(0.1, 2.0), z[2 * M])  # |u| well off the kink
        t = rng.uniform(0.0, 7.0)
        J = _fused_jacobian(sys_, t, z)[1]
        C = np.empty_like(J)
        for j in range(sys_.dim):
            d = np.zeros(sys_.dim)
            d[j] = 1e-6 * (1.0 + abs(z[j]))
            C[:, j] = (f(t, z + d) - f(t, z - d)) / (2 * d[j])
        assert np.allclose(J, C, rtol=1e-6, atol=1e-8), (t, z, J - C)


def _problem_cols(M):
    # the sensitivity columns of periodic mode (all) and of Neumann mode (x and u)
    return {"periodic": list(range(2 * M + 2)), "neumann": list(range(M)) + [2 * M]}


@pytest.mark.parametrize("ham, coupling, planar, M", _GRID)
@pytest.mark.parametrize("mode", ["periodic", "neumann"])
def test_fused_variational_function(ham, coupling, planar, M, mode):
    """The fused function returns f bitwise as the compiled field, and D_z f Phi
    within 1e-14 relative of (its D_z f at Phi = I) @ Phi; a state of the wrong
    size raises."""
    sys_ = _expr_system(ham, coupling, planar, M)
    n, cols = sys_.dim, _problem_cols(M)[mode]
    k = len(cols)
    fused = variational(sys_, cols)
    assert fused.f is variational(sys_, cols).f and fused.n == n + n * k and fused.state_n == n
    f = assemble_field(sys_)
    rng = np.random.default_rng(23)
    for _ in range(40):
        z = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 1)
        if rng.uniform() < 0.3:
            z[2 * M] = rng.choice([0.0, -0.0])
        t = rng.uniform(0.0, 7.0)
        phi = rng.standard_normal((n, k))
        out = fused.f(t, np.r_[z, phi.ravel()])
        assert np.array_equal(_bits(out[:n]), _bits(f(t, z))), (t, z)
        ref = _fused_jacobian(sys_, t, z)[1] @ phi
        tangent = out[n:].reshape(n, k)
        assert np.max(np.abs(tangent - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(ref))))
    for size in (n, n + n * k - 1, n + n * k + 1):
        with pytest.raises(DimensionMismatchError):
            fused.f(0.0, np.zeros(size))


@pytest.mark.parametrize("planar", ["components", "K"])
def test_jacobian_kink_convention(planar):
    """D_u F_u of 4 pos(u) - neg(u): 4 for u > 0, 1 for u < 0, 0 at u = 0 of either sign."""
    if planar == "components":
        F, _, _ = planar_field_from_expr(components=["4*pos(u) - neg(u)", "v"])
    else:
        F, _, _ = planar_field_from_expr(K_src="0.5*(4*pos(u)^2 + neg(u)^2 + v^2)")
    sys_ = CoupledSystem(M=0, F=F, T=1.0)
    for u, expected in ((0.0, 0.0), (-0.0, 0.0), (1e-12, 4.0), (-1e-12, 1.0), (0.5, 4.0)):
        J = _fused_jacobian(sys_, 0.0, np.array([u, 0.3]))[1]
        # v' = -F_u, so the (v, u) entry is -D_u F_u
        assert J[1, 0] == -expected
        assert J[0].tolist() == [0.0, 1.0]


def test_plain_callable_jacobian_agrees_with_compiled():
    """Forward differences of the generic field against the fused function's D_z f
    (demo system)."""
    sys_ = load_config(DEMO_CONFIG).system
    plain = replace(sys_, F=_plain(sys_.F), grad_H=_plain(sys_.grad_H), grad_P=_plain(sys_.grad_P))
    assert _compiled_field(plain) is None
    fd = field_jacobian(plain)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(4)
        z[2] = np.copysign(rng.uniform(0.05, 1.0), z[2])
        t = rng.uniform(0.0, 7.0)
        assert np.allclose(fd(t, z)[1], _fused_jacobian(sys_, t, z)[1], rtol=1e-5, atol=1e-6)


def test_plain_callable_jacobian_is_one_sided_at_the_kink():
    """Forward differences step away from u = 0, so they never straddle the kink;
    u = +0.0 and -0.0 step to opposite sides."""
    osc = asymmetric(4.0, 1.0)
    sys_ = CoupledSystem(M=0, F=lambda t, w: np.asarray(osc.grad(w), dtype=float), T=1.0,
                         w_kink=True)
    jac = field_jacobian(sys_)
    for u, expected in ((1e-12, -4.0), (-1e-12, -1.0), (1e-9, -4.0), (-1e-9, -1.0),
                        (0.0, -4.0), (-0.0, -1.0)):
        z = np.array([u, 0.3])
        assert jac(0.0, z)[1][1, 0] == pytest.approx(expected, rel=1e-6)


def _numpy_system(M, H=True, P=True):
    """A plain-callable system with numpy blocks: F the asymmetric (4, 1)
    oscillator plus a forcing, grad_H and grad_P present or not.  F and grad_Q
    take w of shape (2,) or (2, n), as CoupledSystem documents."""
    osc = asymmetric(4.0, 1.0)

    def F(t, w):
        g = np.asarray(osc.grad(w), dtype=float)
        forcing = np.zeros_like(g)
        forcing[0] = 0.1 * np.sin(t)
        return g + forcing

    def grad_H(t, x, y):
        return np.sin(x) * np.cos(t), y * np.arange(1.0, M + 1.0)

    def grad_P(t, x, y, w):
        return (0.1 * np.cos(x) * np.sin(w[0]), 0.05 * y * w[1],
                np.array([0.1 * np.sum(np.sin(x)) * np.cos(w[0]), 0.05 * np.sum(y * y) + 0.2 * w[1]]))

    return CoupledSystem(M=M, F=F, grad_H=grad_H if H else None, grad_P=grad_P if P else None,
                         T=2 * np.pi, w_kink=True,
                         decomposition=DecompositionData(osc, asymmetric(1.0, 4.0),
                                                         lambda t, w: np.zeros(np.shape(w))))


def test_numpy_system_forcing_broadcasts_over_points():
    """The helper's F keeps its point values bit for bit (the forcing added as
    (0.1 sin t, 0.0), so -0.0 + 0.0 stays +0.0) and, like every F, takes w of
    shape (2, n), t a scalar or one per point, one column at a time; so does
    its F_rho on points that straddle the cutoff regions."""
    osc = asymmetric(4.0, 1.0)
    F = _numpy_system(1).F
    rng = np.random.default_rng(5)
    W = rng.standard_normal((2, 3))
    W[1, 1] = -0.0
    ts = rng.uniform(0.0, 7.0, 3)
    for t, w in zip(ts, W.T):
        old = np.asarray(osc.grad(w), dtype=float) + np.array([0.1 * np.sin(t), 0.0])
        assert np.array_equal(_bits(F(t, w)), _bits(old))
    F_rho = modify_system(_numpy_system(1), 3.0).F
    W_rho = W * np.array([0.5, 5.0, 40.0]) / np.hypot(*W)   # |w| <= 3, the band, >= 27
    for f, pts in ((F, W), (F_rho, W_rho)):
        for n in (1, 2, 3):
            for t in (ts[0], ts[:n]):
                cols = [f(np.broadcast_to(t, n)[j], pts[:, j]) for j in range(n)]
                out = f(t, pts[:, :n])
                assert out.shape == (2, n)
                assert np.array_equal(_bits(out), _bits(np.column_stack(cols)))


def _forward_differences(f, t, z):
    """Reference: (f(t, z), D_z f) by forward differences of the assembled field,
    z_j stepped by copysign(1e-7 (1 + |z_j|), z_j)."""
    fz = f(t, z)
    J = np.empty((len(z), len(z)))
    for j in range(len(z)):
        zj = z.copy()
        h = np.copysign(1e-7 * (1.0 + abs(z[j])), z[j])
        zj[j] += h
        J[:, j] = (f(t, zj) - fz) / h
    return fz, J


_FD_SYSTEMS = {
    "M0": lambda: _numpy_system(0),
    "M0_no_P": lambda: _numpy_system(0, H=False, P=False),
    "M1": lambda: _numpy_system(1),
    "M2": lambda: _numpy_system(2),
    "M1_no_H": lambda: _numpy_system(1, H=False),
    "M2_no_P": lambda: _numpy_system(2, P=False),
    "F_rho": lambda: modify_system(_numpy_system(1), 3.0),
}


@pytest.mark.parametrize("name", list(_FD_SYSTEMS))
def test_block_forward_differences_bitwise_equal_differences_of_the_field(name):
    """The block-structured Jacobian and field equal forward differences of the
    assembled field bit for bit, on and off the kink u = 0 and, for F_rho, in
    each cutoff region (|w| <= rho = 3, the band, |w| >= rho^3 = 27)."""
    sys_ = _FD_SYSTEMS[name]()
    M = sys_.M
    f = assemble_field(sys_)
    fjac = field_jacobian(sys_)
    rng = np.random.default_rng(17)
    states = []
    for radius in (0.5, 2.0, 5.0, 15.0, 60.0):
        for u in (None, 0.0, -0.0, 1e-12, -1e-12):
            z = rng.standard_normal(sys_.dim)
            ang = rng.uniform(0.0, 2 * np.pi)
            z[2 * M:] = radius * np.cos(ang), radius * np.sin(ang)
            if u is not None:
                z[2 * M] = u
            states.append(z)
    for z in states:
        t = rng.uniform(0.0, 7.0)
        fz, J = fjac(t, z)
        ref_fz, ref_J = _forward_differences(f, t, z)
        assert np.array_equal(_bits(fz), _bits(ref_fz)), (t, z)
        assert np.array_equal(_bits(J), _bits(ref_J)), (t, z)
        assert J.flags.c_contiguous


@pytest.mark.parametrize("M", [0, 1, 2])
def test_block_forward_differences_call_counts(M):
    """One evaluation calls F 3 times, grad_H 1 + 2M times and grad_P n + 1 times."""
    sys_ = _numpy_system(M)
    calls = {"F": 0, "grad_H": 0, "grad_P": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    counted_sys = replace(sys_, F=counted("F", sys_.F), grad_H=counted("grad_H", sys_.grad_H),
                          grad_P=counted("grad_P", sys_.grad_P))
    fjac = field_jacobian(counted_sys)
    fjac(0.3, np.linspace(-0.5, 0.7, sys_.dim))
    assert calls == {"F": 3, "grad_H": 1 + 2 * M, "grad_P": sys_.dim + 1}


def test_demo_field_source_reads_every_assignment():
    """The compiled field and the fused variational function keep no assignment
    that nothing reads and none whose value depends on literals alone, directly
    or through such a line; the fused one computes no operation of two
    structural zeros and each sine and cosine once."""
    sys_ = load_config(DEMO_CONFIG).system
    fused = variational(sys_, range(sys_.dim)).f
    for fn in (_compiled_field(sys_), fused):
        lines = fn.source.splitlines()
        fed = {"x0", "z"}  # the arguments, then every name computed from them
        for k, line in enumerate(lines):
            m = re.fullmatch(r"\s*(\w+(?:, \w+)*),? = (.*)", line)
            if m is None:
                continue
            assert fed & set(re.findall(r"\w+", m.group(2))), (line, fn.source)
            fed.update(m.group(1).split(", "))
            if "," not in m.group(1):  # not the unpacking of the state
                later = "\n".join(lines[k + 1:])
                assert re.search(rf"\b{m.group(1)}\b", later), (m.group(1), fn.source)
    assert not re.search(r"(?<![\w.])-?0\.0 [-+] 0\.0\b", fused.source), fused.source
    for call in ("_sin(x1)", "_cos(x1)", "_sin(x3)", "_cos(x3)"):
        assert fused.source.count(call) == 1, (call, fused.source)


@pytest.mark.parametrize("d", [4, 5, 7])
def test_halton_bitwise_equals_scipy(d):
    """The in-repo scrambled Halton points are scipy's, bit for bit."""
    from scipy.stats import qmc
    for seed in (0, 1, 7):
        ref = qmc.Halton(d=d, scramble=True, seed=seed).random(1000)
        assert np.array_equal(_bits(halton(1000, d, seed)), _bits(ref)), seed


def test_mode_exclusivity():
    with pytest.raises(ValueError):
        CoupledSystem(M=1, F=lambda t, w: np.zeros(2))
    with pytest.raises(ValueError):
        CoupledSystem(M=1, F=lambda t, w: np.zeros(2), T=1.0, interval=(0, 1))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def _dec_system(F, H1, H2, mode="global"):
    return CoupledSystem(M=0, F=F, T=2 * np.pi,
                         decomposition=DecompositionData(
                             H1, H2, lambda t, w: np.zeros_like(w), mode=mode))


def test_decomposition_pure_h1():
    H1, H2 = asymmetric(4, 1), asymmetric(9, 4)
    rep = validate_decomposition(_dec_system(
        lambda t, w: np.asarray(H1.grad(w), dtype=float), H1, H2))
    assert rep.passed
    assert rep.gamma_min == pytest.approx(0.0, abs=1e-12)
    assert rep.gamma_max == pytest.approx(0.0, abs=1e-12)


def test_decomposition_even_mix():
    H1, H2 = asymmetric(4, 1), asymmetric(9, 4)
    F = lambda t, w: 0.5 * (np.asarray(H1.grad(w), dtype=float)
                            + np.asarray(H2.grad(w), dtype=float))
    rep = validate_decomposition(_dec_system(F, H1, H2))
    assert rep.passed
    assert rep.gamma_min == pytest.approx(0.5, abs=1e-12)
    assert rep.gamma_max == pytest.approx(0.5, abs=1e-12)


def test_decomposition_quadrantwise_interpolated_stiffness():
    mu1, mu2, nu1, nu2 = 1.0, 4.0, 1.0, 9.0

    def F(t, w):
        u = w[0]
        z1 = 0.5 * (mu1 + mu2) + 0.5 * (mu2 - mu1) * np.cos(u)
        z2 = 0.5 * (nu1 + nu2) + 0.5 * (nu2 - nu1) * np.sin(u ** 3)
        return np.array([z1 * np.maximum(u, 0.0) - z2 * np.maximum(-u, 0.0), w[1]])

    rep = validate_decomposition(
        _dec_system(F, asymmetric(mu1, nu1), asymmetric(mu2, nu2), mode="quadrant"),
        n_samples=512)
    assert rep.passed
    # gamma on u > 0 equals (zeta1(u) - mu1)/(mu2 - mu1)
    rows = rep.gamma_samples
    upos = rows[rows[:, 1] > 0]
    z1 = 0.5 * (mu1 + mu2) + 0.5 * (mu2 - mu1) * np.cos(upos[:, 1])
    assert np.max(np.abs(upos[:, 3] - (z1 - mu1) / (mu2 - mu1))) < 1e-10


def test_decomposition_detects_violation():
    H1, H2 = asymmetric(1, 1), asymmetric(4, 4)
    F = lambda t, w: 3.0 * np.asarray(H2.grad(w), dtype=float)  # gamma* = 11/3 > 1
    rep = validate_decomposition(_dec_system(F, H1, H2))
    assert not rep.passed
    assert rep.range_violations > 0


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [3.0, 10.0, 100.0])
def test_cutoff_boundary_values_exact(rho):
    prof = build_cutoff(rho)
    assert prof.eta(rho) == 1.0
    assert prof.eta(rho ** 3) == 0.0
    assert prof.eta(0.5 * rho) == 1.0
    assert prof.eta(2.0 * rho ** 3) == 0.0


@pytest.mark.parametrize("rho", [3.0, 10.0, 100.0])
def test_cutoff_derivative_bound_with_margin(rho):
    prof = build_cutoff(rho)
    xi = np.exp(np.linspace(np.log(rho), np.log(rho ** 3), 1000))
    d = prof.eta_prime(xi)
    assert np.all(d <= 0.0)
    assert np.all(d - (-1.0 / (xi * np.log(xi))) >= 0.0)


def test_cutoff_loglog_midpoint_near_half():
    for rho in (3.0, 10.0, 100.0):
        prof = build_cutoff(rho)
        assert abs(prof.eta(rho ** np.sqrt(3.0)) - 0.5) < 0.02


def test_cutoff_interior_slope_close_to_core_profile():
    # the constant decline rate deviates from the ideal 1/(xi ln xi ln 3)
    # only by the mass the 1% end ramps absorb (sub-percent)
    for rho in (3.0, 10.0, 100.0):
        prof = build_cutoff(rho)
        xi = rho ** 2
        core = -1.0 / (xi * np.log(xi) * np.log(3.0))
        assert abs(prof.eta_prime(xi) - core) / abs(core) < 0.01


def test_cutoff_is_c1_at_seams():
    prof = build_cutoff(3.0)
    for xi0 in (3.0, 27.0):
        h = 1e-7 * xi0
        slope_out = (prof.eta(xi0 + h) - prof.eta(xi0 - h)) / (2 * h)
        assert abs(slope_out - prof.eta_prime(xi0)) < 1e-6
    # derivative vanishes at both seams
    assert prof.eta_prime(3.0) == 0.0
    assert prof.eta_prime(27.0) == 0.0


def test_cutoff_derivative_matches_finite_difference():
    prof = build_cutoff(5.0)
    xi = np.exp(np.linspace(np.log(5.0) + 0.01, 3 * np.log(5.0) - 0.01, 200))
    h = 1e-6 * xi
    fd = (prof.eta(xi + h) - prof.eta(xi - h)) / (2 * h)
    assert np.max(np.abs(fd - prof.eta_prime(xi))) < 1e-7


def test_cutoff_rejects_small_rho():
    with pytest.raises(RhoTooSmallError):
        build_cutoff(np.e)
    with pytest.raises(RhoTooSmallError):
        build_cutoff(1.5)


# ---------------------------------------------------------------------------
# modified system
# ---------------------------------------------------------------------------

def _modifiable_system():
    H1, H2 = asymmetric(4, 1), asymmetric(9, 4)
    F = lambda t, w: np.asarray(H1.grad(w), dtype=float)
    return _dec_system(F, H1, H2), H1, H2


def test_modify_requires_decomposition():
    sys_ = CoupledSystem(M=0, F=lambda t, w: np.zeros(2), T=1.0)
    with pytest.raises(MissingDecompositionError):
        modify_system(sys_, 5.0)


def test_modified_field_identity_inside_rho():
    sys_, H1, H2 = _modifiable_system()
    mod_sys = modify_system(sys_, 5.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        ang, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.01, 5.0)
        w = np.array([r * np.cos(ang), r * np.sin(ang)])
        assert np.array_equal(mod_sys.F(0.3, w),
                              np.asarray(sys_.F(0.3, w), dtype=float))


def test_modified_field_averaged_outside_rho_cubed():
    sys_, H1, H2 = _modifiable_system()
    mod_sys = modify_system(sys_, 5.0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        ang, r = rng.uniform(0, 2 * np.pi), rng.uniform(125.0, 1000.0)
        w = np.array([r * np.cos(ang), r * np.sin(ang)])
        avg = 0.5 * (np.asarray(H1.grad(w), dtype=float)
                     + np.asarray(H2.grad(w), dtype=float))
        assert np.max(np.abs(mod_sys.F(0.0, w) - avg)) <= 1e-12 * max(1.0, np.max(np.abs(avg)))


def test_correction_field_band_bound():
    sys_, H1, H2 = _modifiable_system()
    rho = 5.0
    mod = CutoffModification(sys_, rho)
    ang_grid = np.linspace(0, 2 * np.pi, 721)
    C1 = 2 * max(float(H1.value(np.array([np.cos(a), np.sin(a)]))) for a in ang_grid)
    C2 = 2 * max(float(H2.value(np.array([np.cos(a), np.sin(a)]))) for a in ang_grid)
    C3 = C1 + C2
    rng = np.random.default_rng(2)
    for _ in range(200):
        ang, r = rng.uniform(0, 2 * np.pi), rng.uniform(rho, rho ** 3)
        w = np.array([r * np.cos(ang), r * np.sin(ang)])
        eta = mod.profile.eta(r)
        base = (eta * np.asarray(H1.grad(w), dtype=float)
                + (1 - eta) * 0.5 * (np.asarray(H1.grad(w), dtype=float)
                                     + np.asarray(H2.grad(w), dtype=float)))
        v_rho = mod.F_rho(0.0, w) - base
        assert np.hypot(*v_rho) <= C3 * r / (2 * np.log(rho)) + 1e-12


def test_phi_rho_between_h1_and_h2():
    sys_, H1, H2 = _modifiable_system()
    mod = CutoffModification(sys_, 5.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        ang, r = rng.uniform(0, 2 * np.pi), np.exp(rng.uniform(np.log(0.1), np.log(500)))
        w = np.array([r * np.cos(ang), r * np.sin(ang)])
        phi = mod.phi(0.0, w)
        assert float(H1.value(w)) - 1e-9 <= phi <= float(H2.value(w)) + 1e-9


def _points_in_every_region(rho, n=60, seed=4):
    """Points with |w| inside rho, in the band and beyond rho^3, interleaved."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(0.1), np.log(2 * rho ** 3), n))
    r[:3] = rho, rho ** 3, 0.0
    ang = rng.uniform(0, 2 * np.pi, n)
    return rng.uniform(0, 2 * np.pi, n), np.stack([r * np.cos(ang), r * np.sin(ang)])


def test_F_rho_and_phi_on_arrays_equal_their_columns():
    sys_, H1, H2 = _modifiable_system()
    sys_ = replace(sys_, F=lambda t, w: np.asarray(H1.grad(w), dtype=float)
                   + 0.1 * np.cos(t) * np.asarray(w, dtype=float) / (1.0 + np.hypot(*w)))
    mod = CutoffModification(sys_, 5.0)
    ts, w = _points_in_every_region(5.0)
    r = np.hypot(*w)
    assert np.any(r <= 5.0) and np.any((r > 5.0) & (r < 125.0)) and np.any(r >= 125.0)
    for t in (ts, 0.7):
        tk = np.broadcast_to(t, ts.shape)
        F_cols = np.stack([mod.F_rho(tk[k], w[:, k]) for k in range(w.shape[1])], axis=1)
        phi_cols = np.array([mod.phi(tk[k], w[:, k]) for k in range(w.shape[1])])
        assert np.array_equal(mod.F_rho(t, w), F_cols)
        assert np.array_equal(mod.phi(t, w), phi_cols)
    # a single region takes the array whole
    inner = w[:, r <= 5.0]
    assert np.array_equal(mod.F_rho(0.3, inner), sys_.F(0.3, inner))


def test_F_rho_never_evaluates_F_beyond_rho_cubed():
    from hamshoot.errors import DomainError
    sys_, H1, H2 = _modifiable_system()

    def F(t, w):
        if np.any(np.hypot(*w) >= 125.0):
            raise DomainError("F is not defined this far out")
        return np.asarray(H1.grad(w), dtype=float)

    mod = CutoffModification(replace(sys_, F=F), 5.0)
    _, w = _points_in_every_region(5.0)
    far = np.hypot(*w) >= 125.0
    avg = 0.5 * (np.asarray(H1.grad(w), dtype=float) + np.asarray(H2.grad(w), dtype=float))
    assert np.array_equal(mod.F_rho(0.0, w)[:, far], avg[:, far])
    assert np.array_equal(mod.F_rho(0.0, w[:, 1]), avg[:, 1])
    assert mod.phi(0.0, w[:, 1]) == 0.5 * (H1.value(w[:, 1]) + H2.value(w[:, 1]))


@pytest.mark.parametrize("rho", [3.0, 10.0])
def test_cutoff_profile_on_arrays_equals_scalar_calls(rho):
    xi = np.concatenate([[0.0, rho, rho ** 3, np.nextafter(rho, 0.0)],
                         np.exp(np.linspace(0.0, 4 * np.log(rho), 97))])
    prof = build_cutoff(rho)
    for fn in (prof.eta, prof.eta_prime):
        assert np.array_equal(fn(xi), [fn(float(x)) for x in xi])
        assert np.ndim(fn(rho ** 2)) == 0


def test_periodicity_certificate():
    from hamshoot.presets import coupling_from_expr
    grad_P = coupling_from_expr("0.1*sin(x)*sin(u)", 1)
    sys_ = CoupledSystem(M=1, F=_iso_field(), grad_H=_grad_pendulum(),
                         grad_P=grad_P, T=2 * np.pi)
    assert validate_periodicity(sys_).passed
    # a t-aperiodic field fails
    bad = CoupledSystem(M=1, F=lambda t, w: np.array([np.sin(0.77 * t), 0.0]),
                        grad_H=_grad_pendulum(), T=2 * np.pi)
    assert not validate_periodicity(bad).passed
