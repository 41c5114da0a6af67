import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import hamshoot
from hamshoot import cli, config
from hamshoot.config import loads_config
from hamshoot.errors import ConfigParseError, ValidationError

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "configs" / "pendulum_oscillator.yaml"


def _edited(where, values, text=None):
    """The demo config (or ``text``) with ``values`` set in the block at YAML
    path ``where`` ("" for the top level)."""
    raw = yaml.safe_load(text or DEMO_CONFIG.read_text())
    section = raw
    for key in filter(None, where.split(".")):
        section = section.setdefault(key, {})
    section.update(values)
    return raw


def _rejected(tmp_path, capsys, raw, subcommand="full"):
    """Run the CLI in process on ``raw``; its stderr, once it exited 2 and wrote nothing."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "o"
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    return capsys.readouterr().err


MINIMAL = """
mode: periodic
M: 1
T: 6.283185307179586
hamiltonian: {preset: pendulum, A: 1.0}
planar: {preset: asymmetric, mu1: 4.0, nu1: 1.0}
coupling: {expr: "0.1*sin(x)*sin(u)"}
"""


def test_minimal_config_loads():
    cfg = loads_config(MINIMAL)
    assert cfg.mode == "periodic"
    assert cfg.M == 1
    sys_ = cfg.system
    assert sys_.dim == 4
    assert sys_.w_kink
    assert sys_.decomposition is not None


def test_system_field_matches_hand_written():
    cfg = loads_config(MINIMAL)
    from hamshoot.systems import assemble_field
    f = assemble_field(cfg.system)
    z = np.array([0.3, -0.2, 0.5, 0.7])
    out = f(0.4, z)
    # q' = p, p' = -sin q - dP/dq, u' = v, v' = -(4 u+)- dP/du
    assert out[0] == pytest.approx(-0.2)
    assert out[1] == pytest.approx(-np.sin(0.3) - 0.1 * np.cos(0.3) * np.sin(0.5))
    assert out[2] == pytest.approx(0.7)
    assert out[3] == pytest.approx(-4 * 0.5 - 0.1 * np.sin(0.3) * np.cos(0.5))


def test_unknown_variable_rejected():
    bad = MINIMAL.replace("sin(x)*sin(u)", "sin(x3)*sin(u)")
    with pytest.raises(ValidationError) as ei:
        loads_config(bad)
    assert any("x3" in p for p in ei.value.problems)


def test_stiffness_ordering_rejected():
    bad = MINIMAL.replace("mu1: 4.0", "mu1: 4.0, mu2: 1.0")
    with pytest.raises(ValidationError) as ei:
        loads_config(bad)
    assert any("mu2" in p for p in ei.value.problems)


def test_all_violations_collected():
    bad = """
mode: sideways
M: -2
hamiltonian: {preset: pendulum, A: -1.0}
planar: {preset: asymmetric, mu1: -3.0, nu1: 1.0}
"""
    with pytest.raises(ValidationError) as ei:
        loads_config(bad)
    assert len(ei.value.problems) >= 4


def test_mode_shape_validation():
    with pytest.raises(ValidationError):
        loads_config("mode: periodic\nM: 1\ninterval: [0, 1]\n"
                     "planar: {preset: asymmetric}")
    with pytest.raises(ValidationError):
        loads_config("mode: neumann\nM: 1\nT: 5.0\nplanar: {preset: asymmetric}")
    cfg = loads_config("mode: neumann\nM: 1\ninterval: [0.0, 1.0]\n"
                       "planar: {preset: asymmetric, mu1: 1.0, nu1: 1.0}")
    assert cfg.system.mode == "neumann"


def test_invalid_yaml_is_parse_error():
    with pytest.raises(ConfigParseError):
        loads_config("mode: [unclosed")
    with pytest.raises(ConfigParseError):
        loads_config("- just\n- a list\n")


def test_expr_planar_block_with_decomposition():
    cfg = loads_config("""
mode: periodic
M: 0
T: 6.283185307179586
hamiltonian: {preset: free_rotator}
planar:
  preset: expr
  K: "0.5*(u^2 + v^2) + ln(1 + u^2)"
  H1: "0.5*(u^2 + v^2)"
  H2: "1.0*(u^2 + v^2)"
  Q: "ln(1 + u^2)"
""")
    sys_ = cfg.system
    w = np.array([0.4, -0.3])
    expect = np.array([0.4 + 2 * 0.4 / (1 + 0.16), -0.3])
    assert np.allclose(sys_.F(0.0, w), expect)
    assert sys_.decomposition is not None


def test_problems_are_named_by_yaml_path():
    bad = """
mode: periodic
M: 1
T: 6.283185307179586
hamiltonian: {preset: pendulum, A: "stiff", E: "0"}
coupling: {expr: "sin(x"}
planar: {preset: asymmetric, mu1: "abc", nu1: 1.0}
"""
    with pytest.raises(ValidationError) as ei:
        loads_config(bad)
    problems = ei.value.problems
    assert "hamiltonian.A must be a number, got 'stiff'" in problems
    assert "planar.mu1 must be a number, got 'abc'" in problems
    assert any(p.startswith("coupling: expected ')'") for p in problems)
    assert len(problems) == 3


def test_non_numeric_param_is_a_problem():
    with pytest.raises(ValidationError) as ei:
        loads_config(MINIMAL.replace("0.1*sin", "eps*sin") + "params: {eps: small}\n")
    assert ei.value.problems == ["params.eps must be a number, got 'small'",
                                 "coupling: variable 'eps' is not bound"]


def test_template_parts_are_checked_at_load():
    # E is a function of t alone and h of (t, u): a state variable there is an error
    bad = MINIMAL.replace("A: 1.0}", 'A: 1.0, E: "0.1*x"}').replace(
        "nu1: 1.0}", 'nu1: 1.0, h: "v"}')
    with pytest.raises(ValidationError) as ei:
        loads_config(bad)
    assert ei.value.problems == [
        "hamiltonian: E may use only t and params, found x",
        "planar: h may use only t, u and params, found v"]
    with pytest.raises(ValidationError) as ei:
        loads_config(MINIMAL.replace("nu1: 1.0}", 'nu1: 1.0, h: "eps*u"}'))
    assert any(p.endswith("found eps") for p in ei.value.problems)
    assert loads_config(MINIMAL.replace("nu1: 1.0}", 'nu1: 1.0, h: "eps*u"}')
                        + "params: {eps: 0.2}\n").system.w_kink


def test_planar_expr_block_problems():
    base = "mode: periodic\nM: 0\nT: 6.0\nhamiltonian: {preset: free_rotator}\n"
    cases = {
        'planar: {preset: expr, K: "u", components: ["u", "v"]}':
            "planar.preset expr needs exactly one of K or components",
        'planar: {preset: expr, components: ["u"]}':
            "planar.components must be a list [F_u, F_v], got ['u']",
        'planar: {preset: expr, K: "u^2 + v^2", H1: "u^2 + v^2"}':
            "planar.H1 and H2 make a decomposition only together",
        "planar: {preset: elliptic}": "planar.preset 'elliptic' is unknown",
    }
    for planar, problem in cases.items():
        with pytest.raises(ValidationError) as ei:
            loads_config(base + planar)
        assert ei.value.problems == [problem]


def test_seed_and_params():
    cfg = loads_config(MINIMAL.replace("0.1*sin", "eps*sin") + "seed: 7\nparams: {eps: 0.25}\n")
    assert cfg.seed == 7
    # grad_u P = eps cos(u) sin(x) at x = pi/2, u = 0
    assert cfg.system.grad_P(0.0, np.array([np.pi / 2]), np.zeros(1), np.zeros(2))[2][0] == 0.25


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

FAST_CONFIG = """
mode: periodic
M: 1
T: 6.283185307179586
seed: 0
hamiltonian: {preset: pendulum, A: 1.0}
planar: {preset: asymmetric, mu1: 4.0, nu1: 1.0}
coupling: {expr: "0.1*sin(x)*sin(u)"}
solver:
  newton_tol: 1.0e-9
  multistart:
    x_points: 2
    y_ranges: [[-0.5, 0.5]]
    y_points: 1
    w_radii: [0.2]
    w_angles: 2
conditions:
  twist:
    enabled: true
    D: [[-8.0, 8.0]]
    sigma: [1]
    x_points: 3
    y_points: 1
    ensemble:
      constants: [[0.0, 0.0]]
"""


@pytest.mark.parametrize("old, new, problem", [
    ("D: [[-8.0, 8.0]]", "D: [[8.0, -8.0]]",
     "conditions.twist.D must be M=1 ranges [a_i, b_i] with a_i < b_i"),
    ("D: [[-8.0, 8.0]]", "D: [[-8.0, 8.0], [0, 1]]",
     "conditions.twist.D must be numbers in shape (1, 2), got [[-8.0, 8.0], [0, 1]]"),
    ("sigma: [1]", "sigma: [2]", "conditions.twist.sigma must be M=1 entries of +-1"),
    ("    D: [[-8.0, 8.0]]\n", "", "conditions.twist.D must be numbers in shape (1, 2), got None"),
])
def test_twist_box_problems(old, new, problem):
    with pytest.raises(ValidationError) as ei:
        loads_config(FAST_CONFIG.replace(old, new))
    assert ei.value.problems == [problem]


def _cli_env():
    # the CLI subprocess imports the hamshoot this test process imported
    src = str(Path(hamshoot.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "hamshoot.cli"] + args,
                          capture_output=True, text=True, env=_cli_env())


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "exp.yaml"
    cfg.write_text(FAST_CONFIG)
    out = tmp_path_factory.mktemp("out")
    proc = _run_cli(["full", "--config", str(cfg), "--out", str(out)])
    return cfg, out, proc


def test_cli_full_runs_clean(cli_run):
    cfg, out, proc = cli_run
    assert proc.returncode == 0, proc.stderr
    assert "distinct_classes >= 2: PASS" in proc.stdout
    for name in ("results.json", "solutions.csv", "periods.csv", "conditions.csv"):
        assert (out / name).exists()


def test_cli_results_json_contents(cli_run):
    _, out, _ = cli_run
    data = json.loads((out / "results.json").read_text())
    assert data["resonance"]["tag"] == "Nonresonant"
    assert data["resonance"]["N"] == 1
    assert data["summary"]["meets_bound"] is True
    assert data["conditions"]["twist"]["passed"] is True
    assert data["metadata"]["config_hash"]
    assert data["periods"]["H1"]["tau"] == pytest.approx(1.5 * np.pi, rel=1e-12)


def test_cli_csv_headers_and_roundtrip_floats(cli_run):
    _, out, _ = cli_run
    lines = (out / "solutions.csv").read_text().splitlines()
    assert lines[0].startswith("mode,class,x0_1,y0_1,u0,v0,residual")
    val = lines[1].split(",")[6]
    assert float(val) == float(f"{float(val):.17g}")  # 17 sig digits round-trip
    assert (out / "periods.csv").read_text().splitlines()[0] == \
        "block,label,tau,tau_plus,tau_minus"


def test_cli_determinism(cli_run, tmp_path):
    cfg, out, _ = cli_run
    out2 = tmp_path / "again"
    proc = _run_cli(["full", "--config", str(cfg), "--out", str(out2)])
    assert proc.returncode == 0
    assert (out / "solutions.csv").read_bytes() == (out2 / "solutions.csv").read_bytes()
    a = json.loads((out / "results.json").read_text())
    b = json.loads((out2 / "results.json").read_text())
    for d in (a, b):
        d["metadata"].pop("wall_time_s")
        d["metadata"].pop("timestamp_utc")
    assert a == b


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: periodic\nM: 1\nT: -3\nplanar: {preset: asymmetric}\n"
                   "conditions: {twist: {x_points: 0}}\n")
    proc = _run_cli(["periods", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "conditions.twist.x_points must be a positive integer, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand, block, values", [
    ("check-conditions", "avoiding_rays", {"enabled": True, "radius": "abc"}),
    ("check-conditions", "twist", {"x_points": "four"}),
    ("check-conditions", "mbar", {"n_samples": "many"}),
    ("ll", "ll", {"theta_points": "x"}),
    ("check-conditions", "indefinite_twist", {"enabled": True, "center": [0, 0]}),
    ("check-conditions", "twist", {"D": [["a", 8.0]]}),
    ("solve-periodic", "solver", {"newton_tol": "tight"}),
    ("solve-periodic", "solver", {"max_iter": "many"}),
    ("solve-periodic", "solver.multistart", {"x_pts": 3}),
    ("solve-periodic", "solver.multistart", {"w_radii": [[0.25]]}),
    ("solve-periodic", "solver.neumann_multistart", {"u_points": "few"}),
])
def test_cli_malformed_conditions_exit_code(tmp_path, capsys, subcommand, block, values):
    # ``block`` is a path below ``conditions``, or one from the top for ``solver``
    where = block if block.startswith("solver") else f"conditions.{block}"
    err = _rejected(tmp_path, capsys, _edited(where, values), subcommand)
    assert f"{where}.{next(k for k in values if k != 'enabled')} must be" in err


def test_cli_empty_start_grid_is_a_config_error(tmp_path, capsys):
    # refused at load, not reported as a solve that found nothing (exit 4)
    raw = _edited("solver.multistart", {"x_points": 0})
    err = _rejected(tmp_path, capsys, raw, "solve-periodic")
    assert "solver.multistart.x_points must be a positive integer, got 0" in err


def test_cli_no_converged_start_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(_edited("solver", {"max_iter": 1})))
    out = tmp_path / "o"
    assert cli.main(["full", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NO_SOLUTIONS
    assert "distinct_classes >= 2: FAIL (found 0)" in capsys.readouterr().out
    stats = json.loads((out / "results.json").read_text())["solutions"]["stats"]
    assert stats["attempted"] == stats["max_iterations"] == 8
    assert (out / "solutions.csv").read_text().count("\n") == 1  # the header alone


M2_CONFIG = """
mode: periodic
M: 2
T: 6.0
hamiltonian: {preset: free_rotator}
planar: {preset: asymmetric}
"""


# What each kind of number in config._FORMAT must be, and values that are not
# one: no boolean is a number, no integer is truncated and no count is 0.
_NUMBER_RULE = {int: ("a nonnegative integer", (2.5, True)),
                config._COUNT: ("a positive integer", (0, 2.5, True)),
                float: ("a number", (True,)), config._POSITIVE: ("a positive number", (0, True)),
                bool: ("true or false", (0, 2.5))}


def _numbers_refused(table=config._FORMAT, where=""):
    """(block path, {key: value}, problem) for every key of ``table`` read as a
    number, a boolean or an array of numbers, and each value it must refuse."""
    for key, entry in table.items():
        kind = entry if isinstance(entry, dict) else entry[0]
        path = f"{where}.{key}" if where else key
        if isinstance(kind, dict):
            yield from _numbers_refused(kind, path)
            continue
        if isinstance(kind, tuple):  # the demo config has M = 1
            shape = str(tuple(1 if k == "M" else k for k in kind)).replace("None", "n")
            what, values = f"numbers in shape {shape}", (0, 2.5, True)
        elif kind in _NUMBER_RULE:
            what, values = _NUMBER_RULE[kind]
        else:
            continue
        # interval is read in neumann mode, where it is needed and T is not
        mode = {"mode": "neumann", "T": None} if key == "interval" else {}
        for value in values:
            yield where, {**mode, key: value}, f"{path} must be {what}, got {value!r}"


@pytest.mark.parametrize("where, values, problem", [
    *_numbers_refused(),
    ("", {"T": None}, "periodic mode requires T"),
    ("", {"mode": "neumann", "T": None}, "neumann mode requires interval"),
    ("", {"M": -1}, "M must be a nonnegative integer, got -1"),
    ("", {"seed": -1}, "seed must be a nonnegative integer, got -1"),
    ("", {"T": float("inf")}, "T must be a positive number, got inf"),
    ("", {"mode": "neumann", "T": None, "interval": [0.0, float("nan")]},
     "interval must be numbers in shape (2,), got [0.0, nan]"),
    ("", {"mode": "neumann", "T": None, "interval": [1.0, 0.0]},
     "interval must be [a, b] with a < b, got [1.0, 0.0]"),
    ("params", {"k": True}, "params.k must be a number, got True"),
    ("solver", {"newton_tol": -1.0}, "solver.newton_tol must be a positive number, got -1.0"),
    ("conditions.twist", {"enabled": "false"},
     "conditions.twist.enabled must be true or false, got 'false'"),
    ("conditions.avoiding_rays", {"radius": 0},
     "conditions.avoiding_rays.radius must be a positive number, got 0"),
    ("conditions.indefinite_twist", {"radius": -1.0},
     "conditions.indefinite_twist.radius must be a positive number, got -1.0"),
    ("conditions.avoiding_rays", {"sigma": 0},
     "conditions.avoiding_rays.sigma must be +1 or -1, got 0"),
    ("conditions.avoiding_rays", {"sigma": 1.5},
     "conditions.avoiding_rays.sigma must be +1 or -1, got 1.5"),
    ("conditions.ll", {"lambda_min": 0},
     "conditions.ll.lambda_min must be a positive number, got 0"),
    ("conditions.twist.ensemble", {"constants": [[0.0, "a"]]},
     "conditions.twist.ensemble.constants must be numbers in shape (n, 2), got [[0.0, 'a']]"),
    ("conditions.twist.ensemble", {"constants": [[0.0, 0.0, 1.0]]}, "conditions.twist."
     "ensemble.constants must be numbers in shape (n, 2), got [[0.0, 0.0, 1.0]]"),
])
def test_no_check_runs_on_values_it_cannot_use(tmp_path, capsys, where, values, problem):
    # a check must not pass on zero samples, or on a sigma or path it cannot use,
    # and no number is read from a boolean or truncated
    raw = _edited(where, values)
    with pytest.raises(ValidationError) as ei:
        loads_config(yaml.safe_dump(raw))
    assert ei.value.problems == [problem]
    assert problem in _rejected(tmp_path, capsys, raw)


@pytest.mark.parametrize("text, A, problem", [
    (None, [[0.0]], "regular (nonzero determinant)"),
    (M2_CONFIG, [[1.0, 2.0], [0.0, 1.0]], "symmetric"),
    (M2_CONFIG, [[1.0, 2.0], [2.0, 4.0]], "regular (nonzero determinant)"),
])
def test_indefinite_twist_matrix_is_checked_at_load(tmp_path, capsys, text, A, problem):
    # by conditions.check_twist_matrix, the check the library runs
    raw = _edited("conditions.indefinite_twist", {"A": A}, text)
    problem = f"conditions.indefinite_twist.A must be {problem}"
    with pytest.raises(ValidationError) as ei:
        loads_config(yaml.safe_dump(raw))
    assert ei.value.problems == [problem]
    assert problem in _rejected(tmp_path, capsys, raw)


def test_conditions_are_read_at_load_with_defaults():
    cond = loads_config(MINIMAL).conditions
    assert cond["resonance_tol"] == 1e-9
    assert cond["mbar"] == {"n_samples": 10000, "y_box": ((-1.0, 1.0),),
                            "w_box": ((-2.0, 2.0), (-2.0, 2.0))}
    assert cond["ll"] == {"enabled": False, "theta_points": 64, "lambda_min": 1e2,
                          "lambda_max": 1e6, "lambda_points": 9, "s_points": 5,
                          "t_nodes": 512, "mbar": None}
    ensemble = {"constants": ((0.0, 0.0),), "fourier": None}
    assert cond["twist"] == {"enabled": False, "x_points": 3, "ensemble": ensemble,
                             "y_points": 3, "D": None, "sigma": None}
    ball = {"enabled": False, "x_points": 3, "ensemble": ensemble, "center": (0.0,),
            "radius": 1.0, "boundary_points": 16}
    assert cond["avoiding_rays"] == {**ball, "sigma": 1}
    assert cond["indefinite_twist"] == {**ball, "A": ((1.0,),)}
    twist = loads_config(DEMO_CONFIG.read_text()).conditions["twist"]
    assert twist["ensemble"]["fourier"] == {"count": 2, "amplitude": 1.0, "modes": 3}
    assert (twist["D"], twist["sigma"], twist["x_points"]) == (((-8.0, 8.0),), (1.0,), 4)
    assert loads_config(M2_CONFIG).conditions["indefinite_twist"]["A"] == ((1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize("key, value", [("hamiltonian", "pendulum"), ("conditions", [1]),
                                        ("solver", 3), ("coupling", "0.1*sin(x)*sin(u)")])
def test_top_level_block_must_be_a_mapping(key, value):
    raw = yaml.safe_load(DEMO_CONFIG.read_text())
    raw[key] = value
    with pytest.raises(ValidationError) as ei:
        loads_config(yaml.safe_dump(raw))
    assert ei.value.problems == [f"{key} must be a mapping, got {value!r}"]


def test_cli_top_level_block_not_a_mapping_exit_code(tmp_path, capsys):
    raw = yaml.safe_load(DEMO_CONFIG.read_text().replace("hamiltonian:",
                                                         "hamiltonian: pendulum\nold:"))
    err = _rejected(tmp_path, capsys, raw, "periods")
    assert "hamiltonian must be a mapping, got 'pendulum'" in err


def test_solver_block_is_read_at_load():
    cfg = loads_config(DEMO_CONFIG.read_text())
    assert (cfg.newton_tol, cfg.max_iter) == (1e-9, 40)
    assert cfg.multistart.y_ranges == ((-0.6, 0.6),) and cfg.multistart.w_radii == (0.25,)
    assert cfg.multistart.w_angles == 2 and cfg.neumann_multistart.u_points == 5
    raw = yaml.safe_load(DEMO_CONFIG.read_text())
    raw["solver"]["multistart"]["y_ranges"] = [[-1, 1], [0, 1]]
    with pytest.raises(ValidationError) as ei:
        loads_config(yaml.safe_dump(raw))
    assert ei.value.problems == ["solver.multistart.y_ranges must have 1 (shared) or M=1 rows"]


@pytest.mark.parametrize("value", ["abc", 0, -0.1, [1]])
def test_trajectory_stride_is_read_at_load(value):
    with pytest.raises(ValidationError) as ei:
        loads_config(MINIMAL + yaml.safe_dump({"output": {"trajectory_stride": value}}))
    assert len(ei.value.problems) == 1
    assert ei.value.problems[0].startswith("output.trajectory_stride must be")


def test_trajectory_stride_default_and_value():
    assert loads_config(MINIMAL).trajectory_stride == 6.283185307179586 / 1000.0
    assert loads_config(MINIMAL + "output: {trajectory_stride: 0.5}\n").trajectory_stride == 0.5


@pytest.mark.parametrize("where", [
    "", "hamiltonian", "coupling", "planar", "output", "conditions", "conditions.mbar",
    "conditions.ll", "conditions.twist", "conditions.avoiding_rays",
    "conditions.indefinite_twist", "conditions.twist.ensemble",
    "conditions.twist.ensemble.fourier"])
def test_unknown_keys_are_named_by_yaml_path(where):
    with pytest.raises(ValidationError) as ei:
        loads_config(yaml.safe_dump(_edited(where, {"typo": 1})))
    assert len(ei.value.problems) == 1
    assert ei.value.problems[0].startswith(f"{where}.typo".lstrip(".") + " must be one of the keys ")


@pytest.mark.parametrize("where, values", [
    ("planar", {"mu_1": 4.0}), ("conditions.mbar", {"n_sample": 10}),
    ("conditions.twist", {"x_point": 7}), ("conditions", {"lll": {"enabled": True}})])
def test_cli_unknown_key_exit_code(tmp_path, capsys, where, values):
    err = _rejected(tmp_path, capsys, _edited(where, values), "periods")
    assert f"{where}.{next(iter(values))} must be one of the keys" in err


def test_dumped_orbits_close_to_the_newton_tolerance(tmp_path):
    cfg = loads_config(DEMO_CONFIG.read_text())
    out = tmp_path / "dump"
    assert cli.main(["solve-periodic", "--config", str(DEMO_CONFIG), "--out", str(out),
                     "--dump-trajectories"]) == cli.EXIT_OK
    dumps = sorted((out / "trajectories").glob("class_*.csv"))
    assert len(dumps) == len((out / "solutions.csv").read_text().splitlines()) - 1 >= 2
    for path in dumps:
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        gap = rows[-1, 1:] - rows[0, 1:]
        gap[:cfg.M] = hamshoot.solvers.wrap_angle_diff(gap[:cfg.M])
        assert np.max(np.abs(gap)) <= cfg.newton_tol, path.name


@pytest.mark.parametrize("subcommand", ["classify", "check-conditions"])
def test_cli_negative_seed_exit_code(tmp_path, capsys, subcommand):
    # refused with the arguments, by the config's rule for seed
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main([subcommand, "--config", str(DEMO_CONFIG), "--out", str(out), "--seed", "-1"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_huge_M_exit_code(tmp_path, capsys):
    err = _rejected(tmp_path, capsys, _edited("", {"M": 10 ** 400}), "periods")
    assert f"M must be at most 256, got {10 ** 400}" in err


def test_largest_M_loads():
    # the bound is an M that the default blocks still build at
    assert loads_config("mode: periodic\nM: 256\nT: 6.0\n").system.dim == 514


def test_cli_missing_file_exit_code(tmp_path):
    proc = _run_cli(["periods", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_cli_mode_mismatch(tmp_path, cli_run):
    cfg, _, _ = cli_run
    proc = _run_cli(["solve-neumann", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "config is periodic mode but solve-neumann was requested" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_cli_periods_subcommand(tmp_path, cli_run):
    cfg, _, _ = cli_run
    out = tmp_path / "p"
    proc = _run_cli(["periods", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0
    rows = (out / "periods.csv").read_text().splitlines()
    assert len(rows) == 3  # header + H1 + H2
    tau = float(rows[1].split(",")[2])
    assert tau == pytest.approx(1.5 * np.pi, rel=1e-12)


def test_cli_classify_subcommand(tmp_path, cli_run):
    cfg, _, _ = cli_run
    out = tmp_path / "c"
    proc = _run_cli(["classify", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0
    assert "Nonresonant(N=1)" in proc.stdout


def test_cli_dump_trajectories(tmp_path, cli_run):
    cfg, _, _ = cli_run
    out = tmp_path / "t"
    proc = _run_cli(["solve-periodic", "--config", str(cfg), "--out", str(out),
                     "--dump-trajectories"])
    assert proc.returncode == 0
    dumps = sorted((out / "trajectories").glob("class_*.csv"))
    assert dumps
    header = dumps[0].read_text().splitlines()[0]
    assert header == "t,z_1,z_2,z_3,z_4"


def test_cli_neumann_solve(tmp_path):
    cfg = tmp_path / "neu.yaml"
    cfg.write_text("""
mode: neumann
M: 1
interval: [0.0, 1.0]
hamiltonian: {preset: free_rotator}
planar: {preset: asymmetric, mu1: 1.0, nu1: 1.0}
solver:
  neumann_multistart: {x_points: 4, u_points: 3}
""")
    out = tmp_path / "o"
    proc = _run_cli(["solve-neumann", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = (out / "solutions.csv").read_text().splitlines()
    assert lines[0] == "mode,class,xa_1,u_a,residual,iterations"
    assert len(lines) >= 3  # several distinct x_a classes
    assert all(abs(float(l.split(",")[3])) < 1e-9 for l in lines[1:])


@pytest.mark.parametrize("u_range, u_points, code, converged", [
    ([-3.0, 1.0], 3, cli.EXIT_OK, 2), ([-3.0, -2.5], 2, cli.EXIT_NO_SOLUTIONS, 0)])
def test_cli_start_leaving_the_domain_is_a_failed_start(tmp_path, u_range, u_points, code,
                                                        converged):
    # grad_u of (u + 2)^1.5 is undefined for u < -2: such a start fails, the
    # others still solve, and only a solve with no converged start exits 4
    cfg = tmp_path / "neu.yaml"
    cfg.write_text(f"""
mode: neumann
M: 1
interval: [0.0, 3.0]
hamiltonian: {{preset: expr, expr: "0.5*y^2 - cos(x)"}}
planar: {{preset: expr, K: "0.5*(u^2 + v^2) + 0.1*(u + 2)^1.5"}}
solver:
  neumann_multistart: {{x_points: 1, u_range: {u_range}, u_points: {u_points}}}
""")
    out = tmp_path / "o"
    assert cli.main(["solve-neumann", "--config", str(cfg), "--out", str(out)]) == code
    stats = json.loads((out / "results.json").read_text())["solutions"]["stats"]
    assert (stats["converged"], stats["domain_error"]) == (converged, u_points - converged)


SMALL_NEUMANN_LL = """
mode: neumann
M: 1
interval: [0.0, 1.0]
seed: 3
hamiltonian: {preset: free_rotator}
planar: {preset: asymmetric, mu1: 4.0, nu1: 1.0}
coupling: {expr: "0.1*sin(x)*sin(u)"}
solver:
  neumann_multistart: {x_points: 1, u_points: 1}
conditions:
  mbar: {n_samples: 200}
  ll: {enabled: true, theta_points: 2, lambda_points: 3, s_points: 3, t_nodes: 16}
"""


def test_cli_ll_alone_estimates_mbar_like_full(tmp_path):
    cfg = tmp_path / "neu.yaml"
    cfg.write_text(SMALL_NEUMANN_LL)
    rhs = {}
    for sub in ("ll", "full"):
        out = tmp_path / sub
        assert cli.main([sub, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "ll_margins.csv").read_text().splitlines()
        col = lines[0].split(",").index("rhs")
        rhs[sub] = [line.split(",")[col] for line in lines[1:]]
    assert len(rhs["ll"]) == 4
    assert rhs["ll"] == rhs["full"]
    assert float(rhs["ll"][0]) > 0.0


@pytest.mark.parametrize("subcommand", ["check-conditions", "full"])
def test_cli_domain_error_in_a_stage_exit_code(tmp_path, capsys, subcommand):
    # (u + 2)^1.5 is defined for u >= -2 only, and the periodicity check samples beyond
    raw = _edited("", {"planar": {"preset": "expr", "K": "0.5*(4*pos(u)^2 + neg(u)^2 + v^2)"
                                  " + 0.1*(u + 2)^1.5"}})
    cfg = tmp_path / "dom.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code = cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "domain error: negative base with non-integer exponent\n"


def test_domain_violation_at_every_point_is_a_config_error(tmp_path, capsys):
    # refused at load, not reported as a solve in which every start fails (exit 4)
    raw = _edited("coupling", {"expr": "eps*sin(x)*sin(u)/(1 - 1)"})
    err = _rejected(tmp_path, capsys, raw, "solve-periodic")
    assert "coupling: division by zero at every point" in err


def test_long_expression_loads_and_deep_nesting_is_a_config_error(tmp_path, capsys):
    # a sum is a tree as deep as it has terms
    long = "0.5*y^2 - cos(x)" + 600 * " + 0.001*x"
    cfg = tmp_path / "long.yaml"
    cfg.write_text(yaml.safe_dump(_edited("hamiltonian", {"preset": "expr", "expr": long})))
    assert cli.main(["periods", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    deep = "0.5*y^2 - cos(" + 300 * "(" + "x" + 300 * ")" + ")"
    err = _rejected(tmp_path, capsys, _edited("hamiltonian", {"preset": "expr", "expr": deep}),
                    "periods")
    assert "hamiltonian: expression nests too deeply" in err


NEUMANN_ALL_EXPR = """
mode: neumann
M: 1
interval: [0.0, 3.0]
seed: 0
params: {eps: 0.1, c: 0.5}
hamiltonian: {preset: expr, expr: "0.5*y^2 - cos(x)"}
coupling: {expr: "eps*sin(x)*sin(u)"}
planar:
  preset: expr
  K: "0.5*(4*pos(u)^2 + neg(u)^2 + v^2) + c*(u*atan(u) - 0.5*ln(1 + u^2))"
  H1: "0.5*(4*pos(u)^2 + neg(u)^2 + v^2)"
  H2: "0.5*(4*pos(u)^2 + neg(u)^2 + v^2)"
  Q: "c*(u*atan(u) - 0.5*ln(1 + u^2))"
solver:
  neumann_multistart: {x_points: 2, u_points: 2}
conditions:
  mbar: {n_samples: 200}
  ll: {enabled: true}
"""

_SCIPY_MODULES = """
import sys
import hamshoot
before = sorted(m for m in sys.modules if m.startswith("scipy"))
from hamshoot import cli
code = cli.main(["full", "--config", sys.argv[1], "--out", sys.argv[2]])
after = sorted(m for m in sys.modules if m.startswith("scipy"))
print(code, before, after)
"""


@pytest.mark.parametrize("config", ["demo", "neumann"])
def test_no_scipy_at_runtime(tmp_path, config):
    # a fresh process: this one has loaded scipy for the reference checks
    cfg = DEMO_CONFIG if config == "demo" else tmp_path / "neumann.yaml"
    if config == "neumann":
        cfg.write_text(NEUMANN_ALL_EXPR)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_MODULES, str(cfg), str(tmp_path / "o")],
                          capture_output=True, text=True, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [] []"


def _stage_failure(tmp_path, capsys, raw):
    """Run ``full`` in process on ``raw``: its exit code, stderr and results.json keys."""
    cfg = tmp_path / "fail.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "o"
    code = cli.main(["full", "--config", str(cfg), "--out", str(out)])
    return code, capsys.readouterr().err, sorted(json.loads((out / "results.json").read_text()))


def test_cli_ll_overflow_exit_code(tmp_path, capsys):
    # exp(u) overflows at the LL stage's largest amplitudes; the stages before it stay
    bench = Path(__file__).resolve().parents[1] / "bench" / "configs" / "neumann_expr_ll.yaml"
    raw = yaml.safe_load(bench.read_text())
    raw["planar"]["K"] += " + exp(u)"
    code, err, keys = _stage_failure(tmp_path, capsys, raw)
    assert code == cli.EXIT_INTEGRATION
    assert err == "integration failure: field evaluation overflowed at amplitude 10000\n"
    assert keys == ["conditions", "metadata", "periods", "resonance"]


def test_cli_indefinite_planar_hamiltonian_exit_code(tmp_path, capsys):
    # H1 = (v^2 - u^2) / 2 is not positive on the unit circle, so no period exists
    H1 = "0.5*(v^2 - u^2)"
    raw = _edited("", {"planar": {"preset": "expr", "K": H1, "H1": H1, "H2": H1, "Q": "0"}})
    code, err, keys = _stage_failure(tmp_path, capsys, raw)
    assert code == cli.EXIT_CONFIG
    assert err == ("nonpositive Hamiltonian: H(cos t, sin t) = -5.000e-01 <= 0 "
                   "at theta = 0.00539679\n")
    assert keys == ["metadata"]
