"""Command-line interface.

Checked here:
  * critical prints the exact threshold lines and no-transition sentinel,
    the linear root at kappa = 0 with xi1 != 0 included, and exits 1 with
    ZeroKappaError's message at kappa = xi1 = 0
  * exactly-one-of --lambda/--delta is enforced (exit 1 either way)
  * critical with --chi != 0 exits 1 for --delta and --lambda, with the
    refusal on stderr and nothing on stdout
  * meanfield output parses back to the closed-form equilibrium; --numeric
    agrees with the closed form; a zero iteration budget and a lone start on
    the origin saddle exit 2, a negative budget exits 1
  * non-finite model, ED and measurement input exits 1 with an error on stderr,
    and so does a lambda whose 4 lambda^2 underflows to 0 or overflows; an
    alpha^2 that overflows (tiny f1) exits 1 and tags its sweep row; an ED
    displacement d_m whose square overflows, a Hamiltonian too large for the
    eigensolver to resolve 1e-8 per atom (huge omega) and a cutoff beyond the
    Gauss-Hermite quadrature exit 1 without a numpy warning
  * config files merge under flags, unknown or ill-typed keys exit 1 (a
    boolean for a number, a non-integral number for an integer or an --n
    item, a non-string for a string, a non-boolean for a switch, a value
    outside the choices) and write no file, integral floats and
    numeric strings are accepted, and a
    config-driven run is byte-identical to the flag-driven one, a true
    numeric or full_qubit key included; as a property
    over random splits of the options between config and flags, a flag wins
    over the config and the config over the default
  * the retired settings (n_atoms, include_chi, convergence_factor,
    solver_tol) exit 1 as flags and as config keys
  * deriv emits the documented CSV with empty edge cells and shows the
    curvature jump at the transition; a non-finite scan edge or step, a
    (stop - start)/step that overflows, a step whose square underflows to 0
    and a grid whose differences of E0 overflow exit 1 with an error on stderr,
    and a point's own refusal outranks a difference that is not finite at an
    earlier point; a delta scan given --delta (flag or config) exits 1 with no
    output and derivative_scan's own message; a scan range that leaves the
    domain of delta or lambda exits 1 with the error of its first point
    outside it, before the grid is walked (spies on the per-point kernels see
    no other point); a negative lambda is refused before chi != 0, index 0's
    own refusal before the first point outside the domain, and that point's
    before an earlier one that is never solved, each without creating its
    --output; deriv solves each point twice (a checking pass before
    --output is opened, then the write) where derivative_scan solves it
    once (tests/test_meanfield.py); a 20,001-point deriv to a file peaks
    under 512 KB (tracemalloc)
  * meanfield prints nu = undefined at lambda = 0, and nu = inf with the
    normal phase where f1 f2 / (4 lambda^2) exceeds the float range
  * sweep emits CSV/JSON lines, honors --output, and repeated runs are
    byte-identical
  * ed emits one JSON record per atom number with parity exactly +-1, runs
    at N = 100 without --n and refuses N = 0 anywhere in the list before the
    first solve, in both impurity modes; --full-qubit rejects --delta; each
    record's keys are EDResult's fields in order and its values those of the
    API's result (FixedDelta and FullQubit)
  * an --output that cannot be opened (a directory, a missing parent) on
    sweep, deriv and ed exits 1 with open()'s error line before the run (a
    spy on the computation sees no call) and creates no file; a stdout pipe
    that the reader closes, mid-run or before the first write, exits 1 with
    an error line and no traceback
  * measure solves --target and reports the collapsed state; its stdout is
    pinned to the last digit on four runs, rho_10 printing rho_01's text
  * non-finite sweep axis edges, and edges whose span overflows, exit 1
  * an f1 or f2 that overflows to +-inf exits 1 naming the frequency, from
    meanfield, critical, ed and spectrum, and tags its sweep row
    invalid_parameter
  * README and the cli docstring list exactly the command table's
    subcommands, in its order
  * the module entry point works end to end, and importing the package does
    not load scipy.optimize; neither the package import nor any subcommand,
    ed included, loads scipy at all, the ED names resolve on use, and no
    module of the package imports scipy
  * numpy stays unloaded by `import iddm`, `import iddm.cli`, sweep (CSV and
    JSON lines), meanfield (closed form and --numeric), critical, deriv
    (lambda and delta scans), spectrum and measure (with --theta and with
    --target); the modules they load but measurement.py import numpy
    nowhere, not even inside a function; IDDM_THREADS=1 has set
    OPENBLAS_NUM_THREADS when numpy is first imported (by ed)
  * the numpy-free runs above, the JSON-lines sweep included, add none of
    dataclasses, inspect and json to sys.modules, and the runs after numpy
    has loaded (ed with FixedDelta and --full-qubit, spectrum) none of
    dataclasses, json and numpy.polynomial
  * every name in each module's __all__ resolves, the package's eager names
    are exactly the error classes and the __all__ of model, meanfield and
    sweep (ZeroProbabilityOutcomeError is gone), the lazy names of
    fluctuations, measurement and ed are exactly each module's exports, and
    each lazy name is its module's object
"""

import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import iddm
from iddm import ModelParams, equilibrium_closed_form, normal_phase_spectrum
from iddm.cli import main

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_critical_lambda_exact_line(capsys):
    code, out, _ = run_cli(capsys, "critical", "--delta", "0")
    assert code == 0
    assert out == "lambda_c = 7.0710678118654755\n"


def test_critical_delta_exact_line(capsys):
    code, out, _ = run_cli(capsys, "critical", "--lambda", "5")
    assert code == 0
    assert out == "delta_c = 0.5\n"


def test_critical_delta_at_kappa_zero(capsys):
    # f1 = omega + xi1 delta still moves the boundary: (400 - 300 delta) * 1 = 4 * 36 at 256/300
    code, out, _ = run_cli(capsys, "critical", "--lambda", "6", "--kappa", "0", "--xi1=-300")
    assert code == 0
    assert out == "delta_c = 0.85333333333333339\n"
    code, out, err = run_cli(capsys, "critical", "--lambda", "6", "--kappa", "0")
    assert code == 1
    assert out == ""
    assert err == "error: critical_delta needs kappa != 0 or xi1 != 0\n"


def test_critical_no_transition(capsys):
    code, out, _ = run_cli(capsys, "critical", "--lambda", "20")
    assert code == 0 and out == "no-transition\n"
    code, out, _ = run_cli(capsys, "critical", "--delta", "1")
    assert code == 0 and out == "no-transition\n"


@pytest.mark.parametrize("flag, value", [("--delta", "0.2"), ("--lambda", "5")])
def test_critical_refuses_chi(capsys, flag, value):
    # with chi = 0.3 the threshold moves to sqrt(f1 (f2 - chi))/2; the chi = 0 line would be wrong
    code, out, err = run_cli(capsys, "critical", "--chi", "0.3", flag, value)
    assert code == 1
    assert out == ""
    assert err == "error: mean-field routines require chi = 0\n"


def test_critical_requires_exactly_one(capsys):
    code, _, err = run_cli(capsys, "critical")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "critical", "--lambda", "5", "--delta", "0.2")
    assert code == 1 and "error:" in err


def test_meanfield_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "meanfield", "--delta", "0.75")
    assert code == 0
    kv = parse_kv(out)
    sol = equilibrium_closed_form(FIG2, 0.75)
    assert kv["phase"] == "superradiant"
    assert math.isclose(float(kv["alpha2"]), sol.alpha2, rel_tol=1e-15)
    assert math.isclose(float(kv["beta2"]), 0.25, rel_tol=1e-15)
    assert math.isclose(float(kv["e0"]), -0.015625, rel_tol=1e-15)
    assert math.isclose(float(kv["nu"]), 0.5, rel_tol=1e-15)
    assert math.isclose(float(kv["jz_over_n"]), -0.25, rel_tol=1e-15)
    assert math.isclose(float(kv["i_over_n"]), sol.alpha2, rel_tol=1e-15)


def test_meanfield_numeric_agrees(capsys):
    _, closed, _ = run_cli(capsys, "meanfield", "--delta", "0.75")
    code, numeric, _ = run_cli(capsys, "meanfield", "--delta", "0.75", "--numeric")
    assert code == 0
    a, b = parse_kv(closed), parse_kv(numeric)
    assert a["phase"] == b["phase"]
    assert abs(float(a["e0"]) - float(b["e0"])) <= 1e-8
    assert abs(float(a["beta"]) - float(b["beta"])) <= 1e-6


def test_meanfield_zero_budget_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "meanfield", "--delta", "1", "--numeric", "--solver-maxiter", "0"
    )
    assert code == 2
    assert "error:" in err


def test_meanfield_negative_budget_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "meanfield", "--delta", "0.75", "--numeric", "--solver-maxiter", "-1"
    )
    assert code == 1 and out == "" and "error:" in err


def test_meanfield_origin_saddle_exits_2(capsys):
    code, out, err = run_cli(capsys, "meanfield", "--numeric", "--seeds", "1", "--delta", "0.9")
    assert code == 2 and out == "" and "error:" in err


def test_meanfield_invalid_population_exits_1(capsys):
    code, _, err = run_cli(capsys, "meanfield", "--delta", "1.5")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["meanfield", "--delta", "0.1", "--lambda", "nan"],
    ["critical", "--xi1", "nan", "--lambda", "5"],
    ["meanfield", "--delta", "0.1", "--kappa", "inf"],
    ["ed", "--lambda", "nan", "--n", "4"],
])
def test_non_finite_model_input_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ["meanfield", "--delta", "0"],
    ["spectrum", "--delta", "0"],
    ["ed", "--n", "2", "--delta", "0"],
], ids=["meanfield", "spectrum", "ed"])
def test_underflowing_lambda_exits_1(capsys, argv):
    # 4 lambda^2 underflows to 0 here, and nu = f1 f2 / (4 lambda^2) would divide by it
    code, out, err = run_cli(capsys, *argv, "--lambda", "1e-200")
    assert code == 1 and out == "" and "error:" in err and "underflows" in err


@pytest.mark.parametrize("argv", [
    ["meanfield", "--delta", "0"],
    ["spectrum", "--delta", "0"],
    ["critical"],
    ["sweep", "--delta-count", "1", "--delta-max", "-1", "--lambda-count", "1", "--lambda-max", "0"],
], ids=["meanfield", "spectrum", "critical", "sweep"])
def test_overflowing_lambda_exits_1(capsys, argv):
    # 4 lambda^2 overflows to inf here, and lambda^2 itself raised OverflowError
    code, out, err = run_cli(capsys, *argv, "--lambda", "1e200")
    assert code == 1 and out == "" and "error:" in err and "overflows" in err


def test_overflowing_alpha_is_refused(capsys):
    # f1 = 1e-300 puts alpha near 1e300 in the superradiant phase; alpha^2 overflows
    model = ["--omega", "1e-300", "--lambda", "1"]
    code, out, err = run_cli(capsys, "meanfield", *model, "--delta", "0")
    assert code == 1 and out == "" and "overflows" in err
    code, out, _ = run_cli(capsys, "sweep", *model, "--lambda-count", "1", "--lambda-min", "1",
                           "--lambda-max", "1", "--delta-count", "1", "--delta-min", "0",
                           "--delta-max", "0", "--format", "json-lines")
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["phase"] == "error" and record["error"] == "invalid_parameter"


_F1_OVERFLOW = ["--omega", "1e308", "--xi1", "1e308", "--delta", "1"]
_F2_OVERFLOW = ["--omega0", "1e308", "--kappa", "1e308", "--delta", "1"]


@pytest.mark.parametrize("argv, frequency", [
    (["meanfield", *_F1_OVERFLOW, "--lambda", "1"], "f1"),
    (["critical", *_F1_OVERFLOW], "f1"),
    (["meanfield", *_F2_OVERFLOW, "--lambda", "1"], "f2"),
    (["ed", *_F1_OVERFLOW, "--lambda", "1", "--n", "2"], "f1"),
    (["spectrum", "--omega0", "1e308", "--kappa=-1e308", "--delta", "1", "--lambda", "1"], "f2"),
], ids=["meanfield-f1", "critical-f1", "meanfield-f2", "ed-f1", "spectrum-f2"])
def test_overflowing_frequency_exits_1(capsys, argv, frequency):
    # f1 = omega + xi1*delta or f2 = omega0 + kappa*(1 + delta) overflows to +-inf
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {frequency} = ") and "overflows" in err


def test_overflowing_frequency_tags_sweep_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--omega", "1e308", "--xi1", "1e308",
                           "--delta-count", "1", "--delta-min", "1", "--lambda-count", "1",
                           "--lambda-min", "1", "--lambda-max", "1", "--format", "json-lines")
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["phase"] == "error" and record["error"] == "invalid_parameter"


_BEYOND_SOLVER = "beyond the eigensolver"


@pytest.mark.parametrize("argv, message", [
    # f1 = 1e-300 puts d_m = -g_m/f1 near 1e300; d_m^2 overflows before any numpy work
    (["ed", "--full-qubit", "--omega", "1e-300", "--lambda", "1", "--n", "2"], "d_m^2 overflows"),
    (["ed", "--omega", "1e-300", "--lambda", "0", "--xi2", "1", "--delta", "0.5", "--n", "2"],
     "d_m^2 overflows"),
    # a huge f1: machine epsilon times ||H|| is above 1e-8 per atom; these used to report
    # E/N = -0.0398 (exact -0.05), -8e-31 (exact -0.25) and 2e200 as converged, and the
    # 1e12 run to exit 2 after 5,520 restarts
    (["ed", "--omega", "1e15", "--lambda", "2", "--kappa", "-0.5", "--delta", "0.8", "--n", "64"],
     _BEYOND_SOLVER),
    (["ed", "--omega", "1e30", "--lambda", "1", "--n", "2"], _BEYOND_SOLVER),
    (["ed", "--omega", "1e200", "--lambda", "1", "--n", "2"], _BEYOND_SOLVER),
    (["ed", "--omega", "1e12", "--lambda", "2", "--kappa", "-0.5", "--delta", "0.8", "--n", "64"],
     _BEYOND_SOLVER),
    # the check at cutoff 400 needs Gauss-Hermite weights w exp(y^2) = 0 * inf
    (["ed", "--omega", "4", "--lambda", "1", "--n", "2", "--cutoff", "200"], "Gauss-Hermite"),
], ids=["coupling", "drive", "omega-1e15", "omega-1e30", "omega-1e200", "omega-1e12", "cutoff-400"])
def test_overflowing_ed_displacement_is_refused(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and message in err
    assert caught == []


@pytest.mark.parametrize("argv", [
    ["measure", "--z", "0.5", "--theta", "nan"],
    ["measure", "--z", "0.5", "--target", "nan"],
    ["measure", "--z", "0.5", "--theta", "inf"],
], ids=["theta-nan", "target-nan", "theta-inf"])
def test_non_finite_ed_and_measure_input_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "must be finite" in err


_GRID_EDGE_CASES = [
    pytest.param([f"--{edge}={value}"], "must be finite", id=f"{value}-{edge}")
    for value in ("nan", "inf", "-inf")
    for edge in ("delta-min", "delta-max", "lambda-min", "lambda-max")
] + [
    pytest.param([f"--{axis}-min=-1.7e308", f"--{axis}-max=1.7e308"], "overflows",
                 id=f"{axis}-span-overflow")
    for axis in ("delta", "lambda")
]


@pytest.mark.parametrize("edges, message", _GRID_EDGE_CASES)
def test_non_finite_grid_edge_exits_1(capsys, edges, message):
    # --flag=value, so that argparse does not read -inf as an option
    code, out, err = run_cli(capsys, "sweep", "--delta-count", "3", "--lambda-count", "2", *edges)
    assert code == 1 and out == "" and message in err


def test_nu_undefined_at_zero_coupling(capsys):
    code, out, _ = run_cli(capsys, "meanfield", "--delta", "0.2", "--lambda", "0")
    assert code == 0
    assert parse_kv(out)["nu"] == "undefined"


def test_nu_prints_inf_where_it_exceeds_the_float_range(capsys):
    # f1 f2 / (4 lambda^2) overflows although 4 lambda^2 does not underflow: nu prints inf, the rest is exact
    code, out, err = run_cli(capsys, "meanfield", "--lambda", "1e-160", "--delta", "0.2")
    fields = parse_kv(out)
    assert code == 0 and err == ""
    assert fields["nu"] == "inf" and fields["phase"] == "normal"


def test_config_equivalent_to_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"omega": 4, "lambda": 2, "kappa": -0.5, "delta": 0.6}))
    code, from_config, _ = run_cli(capsys, "meanfield", "--config", str(cfg))
    assert code == 0
    _, from_flags, _ = run_cli(
        capsys, "meanfield", "--omega", "4", "--lambda", "2", "--kappa", "-0.5",
        "--delta", "0.6",
    )
    assert from_config == from_flags


@pytest.mark.parametrize("argv, key", [
    (["meanfield", "--delta", "0.75"], "numeric"),
    (["ed", "--n", "4", "--omega-q-prime", "0.3"], "full_qubit"),
])
def test_config_switch_equals_its_flag(tmp_path, capsys, argv, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: True}))
    from_flag = run_cli(capsys, *argv, "--" + key.replace("_", "-"))
    assert run_cli(capsys, *argv, "--config", str(cfg)) == from_flag
    assert from_flag[0] == 0 and from_flag != run_cli(capsys, *argv)  # the switch changes the run


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"delta": 0.2}))
    _, overridden, _ = run_cli(
        capsys, "meanfield", "--config", str(cfg), "--delta", "0.6"
    )
    _, direct, _ = run_cli(capsys, "meanfield", "--delta", "0.6")
    assert overridden == direct


def test_config_fills_required_option(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"delta": 0.5}))
    code, out, _ = run_cli(capsys, "critical", "--config", str(cfg))
    assert code == 0
    assert out == "lambda_c = 5\n"


def test_config_rejections(tmp_path, capsys, monkeypatch):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"lam": 2}))
    assert run_cli(capsys, "meanfield", "--delta", "0.5", "--config", str(bad_key))[0] == 1

    bad_type = tmp_path / "bad_type.json"
    bad_type.write_text(json.dumps({"delta": "wide"}))
    assert run_cli(capsys, "meanfield", "--config", str(bad_type))[0] == 1

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert run_cli(capsys, "meanfield", "--delta", "0.5", "--config", str(not_object))[0] == 1

    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    assert run_cli(capsys, "meanfield", "--delta", "0.5", "--config", str(not_json))[0] == 1

    assert run_cli(capsys, "meanfield", "--delta", "0.5", "--config", str(tmp_path / "absent.json"))[0] == 1

    # a JSON value of the wrong type is refused, not cast, and no output file appears
    monkeypatch.chdir(tmp_path)
    point = ["--delta-count", "1", "--delta-min", "0", "--delta-max", "0",
             "--lambda-count", "1", "--lambda-min", "1", "--lambda-max", "1"]
    for argv, data in [
        (["meanfield", "--delta", "0.5"], {"omega": True}),
        (["meanfield", "--delta", "0.5", "--numeric"], {"seeds": 2.7}),
        (["ed"], {"n": True, "output": "ed.jsonl"}),
        (["ed", "--n", "2"], {"cutoff": 8.9, "output": "ed.jsonl"}),
        (["ed", "--n", "2"], {"cutoff": math.inf, "output": "ed.jsonl"}),  # was an OverflowError
        (["sweep", *point], {"output": 5}),
        (["sweep", *point], {"output": None}),
        (["meanfield", "--delta", "0.5"], {"numeric": 1}),  # a switch takes only a boolean
        (["sweep", *point], {"format": "xml"}),  # outside the option's choices
    ]:
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(data))
        before = sorted(os.listdir(tmp_path))
        code, out, err = run_cli(capsys, *argv, "--config", str(typed))
        assert (code, out) == (1, ""), data
        assert "error:" in err and sorted(os.listdir(tmp_path)) == before, data


def test_config_accepts_integral_floats_and_numeric_strings(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": [2, 3.0, "4"], "cutoff": 8.0, "lambda": "2"}))
    from_config = run_cli(capsys, "ed", "--config", str(cfg))
    from_flags = run_cli(capsys, "ed", "--n", "2", "--n", "3", "--n", "4", "--cutoff", "8",
                         "--lambda", "2")
    assert from_config == from_flags and from_config[0] == 0


# model options and their draws; every value is accepted by ModelParams
_PRECEDENCE_OPTIONS = {
    "omega": st.floats(0.5, 500.0),
    "omega0": st.floats(0.5, 2.0),
    "lambda": st.floats(0.0, 10.0),
    "kappa": st.floats(-1.0, 1.0),
    "xi1": st.floats(-0.4, 0.4),
    "xi2": st.floats(-1.0, 1.0),
    "omega_q_prime": st.floats(-1.0, 1.0),
    "delta": st.floats(-1.0, 1.0),
}
# settings that no longer exist, each with a value the old code accepted
_RETIRED = {"n_atoms": 5, "include_chi": True, "convergence_factor": 2.0, "solver_tol": 0.0}


def _flag(key, value):
    flag = "--" + key.replace("_", "-")
    return flag if value is True else f"{flag}={value!r}"


def _retired_use(path, key, where):
    """The argv that names the retired setting key as a flag or in a config file at path."""
    if where == "flag":
        return [_flag(key, _RETIRED[key])]
    path.write_text(json.dumps({key: _RETIRED[key]}))
    return ["--config", str(path)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["meanfield", "ed"]), data=st.data())
def test_flags_win_over_config_and_config_over_defaults(tmp_path, capsys, command, data):
    # each option comes from the default, the config, a flag or both; the run
    # must equal one that passes the winning values as flags alone
    config, flags, winners = {}, [], {}
    for key, values in _PRECEDENCE_OPTIONS.items():
        source = data.draw(st.sampled_from(["default", "config", "flag", "both"]), label=key)
        if source in ("config", "both"):
            config[key] = winners[key] = data.draw(values, label=f"config {key}")
        if source in ("flag", "both"):
            winners[key] = data.draw(values, label=f"flag {key}")
            flags.append(_flag(key, winners[key]))
    extra = ["--n", "2"] if command == "ed" else []
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    want = run_cli(capsys, command, *[_flag(k, v) for k, v in winners.items()], *extra)
    assert run_cli(capsys, command, "--config", str(path), *flags, *extra) == want
    retired = data.draw(st.sampled_from([None, *_RETIRED]), label="retired")
    if retired is not None:
        where = data.draw(st.sampled_from(["flag", "config"]), label="where")
        code, out, err = run_cli(capsys, command, *_retired_use(tmp_path / "retired.json", retired, where),
                                 *flags, *extra)
        assert code == 1 and out == "" and "error:" in err


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("key", sorted(_RETIRED))
def test_retired_settings_exit_1(tmp_path, capsys, key, where):
    code, out, err = run_cli(capsys, "ed", "--n", "2", *_retired_use(tmp_path / "run.json", key, where))
    assert code == 1 and out == "" and "error:" in err


def test_deriv_csv_shape_and_jump(capsys):
    code, out, _ = run_cli(
        capsys, "deriv", "--wrt", "delta", "--from", "0.4", "--to", "0.6",
        "--step", "0.01",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,value,e0,d1,d2"
    assert len(lines) == 1 + 21
    assert lines[1].endswith(",,") and lines[-1].endswith(",,")
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[0] == "delta" for r in rows)
    by_value = {round(float(r[1]), 6): r for r in rows}
    assert abs(float(by_value[0.41][4])) <= 1e-9          # flat normal side
    assert abs(float(by_value[0.59][4]) + 0.5) <= 1e-3    # curvature jump


def test_deriv_lambda_scan_requires_delta(capsys):
    code, _, err = run_cli(
        capsys, "deriv", "--wrt", "lambda", "--from", "1", "--to", "2", "--step", "0.1"
    )
    assert code == 1 and "error:" in err


def test_deriv_delta_scan_rejects_fixed_delta(tmp_path, capsys):
    # derivative_scan's own refusal, from a flag or from the config file
    scan = ["deriv", "--wrt", "delta", "--from", "0.4", "--to", "0.6", "--step", "0.01"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"delta": 0.5}))
    for extra in (["--delta", "0.5"], ["--config", str(cfg)]):
        assert run_cli(capsys, *scan, *extra) == (
            1, "", "error: delta scans take no separate delta argument\n")


@pytest.mark.parametrize("grid, message", [
    (["--from", "0", "--to", "inf", "--step", "0.1"], "stop must be finite"),
    (["--from=-inf", "--to", "1", "--step", "0.1"], "start must be finite"),
    (["--from", "nan", "--to", "1", "--step", "0.1"], "start must be finite"),
    (["--from", "0", "--to", "nan", "--step", "0.1"], "stop must be finite"),
    (["--from", "0", "--to", "1", "--step", "inf"], "step must be finite"),
    (["--from", "0", "--to", "1", "--step", "nan"], "step must be finite"),
    (["--from", "0", "--to", "1e300", "--step", "1e-300"], "overflows"),
    (["--from=-1e308", "--to", "1e308", "--step", "1"], "overflows"),
    # h*h = 1e-324 rounds to 0
    (["--wrt", "delta", "--from", "0", "--to", "1e-160", "--step", "1e-162", "--lambda", "9"],
     "step^2 underflows to 0"),
    # the second difference at the kink next to delta = -1 overflows to -inf
    (["--wrt", "delta", "--from=-1", "--to=-0.9999999999999858", "--step", "8.881784197001252e-16",
      "--kappa", "1e300", "--lambda", "1e143"], "differences of E0 are not finite"),
    # d2 at index 1 is -inf, but a point's own refusal outranks it wherever on the grid it lies
    (["--wrt", "delta", "--from=-1", "--to=-0.9999999999999858", "--step", "8.881784197001252e-16",
      "--kappa=-1e300", "--lambda", "6e143"],
     "error: delta = -0.9999999999999956 (grid index 5): nu = -1.2335811384723963 <= -1: no interior minimum\n"),
], ids=["stop-inf", "start-minus-inf", "start-nan", "stop-nan", "step-inf", "step-nan",
        "count-overflow", "span-overflow", "step-squared-underflow", "d2-overflow",
        "point-error-after-d2-overflow"])
def test_deriv_non_finite_or_overflowing_grid_exits_1(capsys, grid, message):
    # --flag=value, so that argparse does not read -inf as an option; a grid
    # without --wrt scans lambda at delta = 0
    scan = [] if "--wrt" in grid else ["--wrt", "lambda", "--delta", "0"]
    code, out, err = run_cli(capsys, "deriv", *scan, *grid)
    assert code == 1 and out == "" and "error:" in err and message in err


@pytest.mark.parametrize("grid, message", [
    (["--wrt", "delta", "--from=-2", "--to=1", "--step", "1e-9"],
     "error: delta = -2.0 (grid index 0): impurity population must lie in [-1, 1], got -2.0\n"),
    (["--wrt", "delta", "--from=-5.9e66", "--to=-5e-324", "--step", "0.0207"],
     "error: delta = -5.9e+66 (grid index 0): impurity population must lie in [-1, 1], got -5.9e+66\n"),
    (["--wrt", "delta", "--from=0", "--to=2", "--step", "1e-9"],
     "error: delta = 1.000000001 (grid index 1000000001): impurity population must lie in [-1, 1],"
     " got 1.000000001\n"),
    (["--wrt", "lambda", "--delta", "0", "--from=-1", "--to=1", "--step", "1e-9"],
     "error: lambda = -1.0 (grid index 0): lambda must be >= 0, got -1.0\n"),
    (["--wrt", "lambda", "--delta", "0", "--from=0", "--to=1e200", "--step", "1e150"],
     "error: lambda = 6.704e+153 (grid index 6704): lambda = 6.704e+153 is too large:"
     " 4 lambda^2 overflows\n"),
], ids=["delta-below", "delta-far-below", "delta-above", "lambda-negative", "lambda-overflows"])
def test_deriv_refuses_a_range_outside_the_domain_before_building_the_grid(monkeypatch, capsys, grid, message):
    # the grids hold 1e9 to 3e68 points: the per-point kernel of the scan may see only the two
    # points the refusal ranks, index 0 and the named one
    start = next(float(arg.partition("=")[2]) for arg in grid if arg.startswith("--from="))
    allowed = {start, float(message.split(" = ")[1].split(" (")[0])}
    # equilibrium_closed_form(params, delta) solves a delta scan, _closed_form(f1, f2, lam) a lambda scan
    name, at = ("equilibrium_closed_form", 1) if grid[1] == "delta" else ("_closed_form", 2)
    kernel = getattr(iddm.meanfield, name)

    def spy(*args):
        if args[at] not in allowed:
            raise AssertionError(f"solved at {args[at]}")
        return kernel(*args)

    monkeypatch.setattr(iddm.meanfield, name, spy)
    assert run_cli(capsys, "deriv", *grid) == (1, "", message)


@pytest.mark.parametrize("grid, message", [
    # lambda's own check comes before the chi refusal of the frequencies
    (["--wrt", "lambda", "--delta", "0", "--chi", "0.3", "--from=-0.5", "--to", "0.5", "--step", "0.25"],
     "error: lambda = -0.5 (grid index 0): lambda must be >= 0, got -0.5\n"),
    # index 0's own refusal outranks the first point outside the domain (delta = 1.1)
    (["--wrt", "delta", "--chi", "0.3", "--from", "0.3", "--to", "1.3", "--step", "0.1"],
     "error: delta = 0.3 (grid index 0): mean-field routines require chi = 0\n"),
    # the first point outside the domain outranks index 1, whose f1 = 0 is never solved
    (["--wrt", "delta", "--from", "0.5", "--to", "1.5", "--step", "0.5", "--xi1=-400"],
     "error: delta = 1.5 (grid index 2): impurity population must lie in [-1, 1], got 1.5\n"),
], ids=["lambda-before-chi", "index-0-before-domain", "domain-before-index-1"])
def test_deriv_refusal_order(tmp_path, capsys, grid, message):
    target = tmp_path / "scan.csv"
    assert run_cli(capsys, "deriv", *grid, "--output", str(target)) == (1, "", message)
    assert not target.exists()


def test_deriv_memory_does_not_grow_with_the_scan(tmp_path):
    # a scan held as lists of its grid, E0 and differences peaked at 3.1 MB here; one write chunk
    # of 256 lines takes about 30 KB
    target = tmp_path / "scan.csv"
    argv = ["deriv", "--wrt", "lambda", "--from", "0", "--to", "12", "--step", "0.0006", "--delta", "0",
            "--output", str(target)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(target.read_text().splitlines()) == 1 + 20_001
    assert peak < 512 * 1024


def test_sweep_json_lines_tagged_row(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kappa", "-2", "--delta-min", "1", "--delta-max", "1",
        "--delta-count", "1", "--lambda-min", "0", "--lambda-max", "0",
        "--lambda-count", "1", "--format", "json-lines",
    )
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["phase"] == "error"
    assert record["error"] == "unbounded_phase"
    assert record["alpha2"] is None and record["e0"] is None


def test_sweep_output_file_byte_identical(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    argv = [
        "sweep", "--delta-min", "-1", "--delta-max", "1", "--delta-count", "5",
        "--lambda-min", "0", "--lambda-max", "12", "--lambda-count", "7",
        "--output", str(target),
    ]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    text = first.decode("utf-8")
    assert text.startswith("delta,lambda,")
    assert b"\r" not in first
    assert len(text.splitlines()) == 1 + 5 * 7
    capsys.readouterr()


def test_sweep_stdout_deterministic(capsys):
    argv = [
        "sweep", "--delta-min", "0", "--delta-max", "1", "--delta-count", "3",
        "--lambda-min", "0", "--lambda-max", "8", "--lambda-count", "5",
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_spectrum_output(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--delta", "0")
    assert code == 0
    kv = parse_kv(out)
    lo, hi = normal_phase_spectrum(FIG2, 0.0)
    assert math.isclose(float(kv["eps_minus"]), lo, rel_tol=1e-9)
    assert math.isclose(float(kv["eps_plus"]), hi, rel_tol=1e-9)
    assert kv["stable"] == "true"


def test_ed_records(capsys):
    code, out, _ = run_cli(
        capsys, "ed", "--omega", "4", "--lambda", "2", "--delta", "0.8",
        "--n", "4", "--n", "6",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["n_atoms"] for r in records] == [4, 6]
    for r in records:
        assert r["converged"] is True
        assert r["mean_field_deviation"] > 0
        assert r["parity"] in (1.0, -1.0)
        assert r["photon_cutoff"] >= 1
        assert r["cutoff_shift"] >= 0
        assert isinstance(r["sector_gap"], float)
        assert r["cutoff_raises"] == 0


@pytest.mark.parametrize("argv, api", [
    (["--delta", "0.8", "--n", "8"],
     lambda p: iddm.finite_size_scan(p, 0.8, [8])[0]),
    (["--full-qubit", "--n", "4"],
     lambda p: iddm.ground_state(p, iddm.EDConfig(n_atoms=4, impurity_mode=iddm.FullQubit()))),
], ids=["fixed-delta", "full-qubit"])
def test_ed_record_is_ed_result(capsys, argv, api):
    # the record is EDResult's fields in order, valued as the API's result
    code, out, _ = run_cli(capsys, "ed", "--omega", "4", "--lambda", "2", *argv)
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert list(record) == list(iddm.EDResult._fields)
    assert record == api(ModelParams(omega=4.0, lam=2.0, kappa=-0.5))._asdict()


@pytest.mark.parametrize("mode", [[], ["--full-qubit"]], ids=["fixed-delta", "full-qubit"])
def test_ed_refuses_bad_atom_number_before_solving(capsys, monkeypatch, mode):
    import iddm.ed

    calls = []
    monkeypatch.setattr(iddm.ed, "ground_state", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "ed", *mode, "--n", "8", "--n", "0")
    assert code == 1 and out == "" and "n_atoms must be >= 1" in err
    assert calls == []


# the computation each command runs before it writes
_RUN = {"sweep": "iddm.cli.run_grid", "deriv": "iddm.cli._derivative_rows", "ed": "iddm.ed.ground_state"}


@pytest.mark.parametrize("argv", [
    ["sweep", "--delta-count", "3", "--lambda-count", "3"],
    ["deriv", "--wrt", "lambda", "--from", "0", "--to", "1", "--step", "0.5", "--delta", "0"],
    ["ed", "--omega", "4", "--lambda", "2", "--n", "4"],
], ids=["sweep", "deriv", "ed"])
@pytest.mark.parametrize("where", ["directory", "missing-parent", "file-parent"])
def test_unwritable_output_exits_1(tmp_path, capsys, monkeypatch, argv, where):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    target = {"directory": tmp_path, "missing-parent": tmp_path / "missing" / "out.txt",
              "file-parent": afile / "out.txt"}[where]
    with pytest.raises(OSError) as opened:
        open(target, "w")
    calls = []
    monkeypatch.setattr(_RUN[argv[0]], lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 1 and out == ""
    assert err == f"error: {opened.value}\n"
    assert calls == []  # refused before the run
    assert sorted(tmp_path.iterdir()) == [afile] and afile.read_text() == "kept\n"


# a child whose stdout is block buffered, as it is under a shell pipe
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_closed_stdout_pipe_exits_1_quietly():
    # `iddm sweep | head -1`: the default grid is far larger than a pipe buffer
    proc = subprocess.Popen([sys.executable, "-m", "iddm", "sweep"], env=_BUFFERED,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("delta,lambda,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err.startswith("error: ") and "Traceback" not in err and "Exception ignored" not in err


def test_stdout_pipe_closed_before_start_exits_1_quietly():
    # one short line fails only when stdout is flushed, which main does itself
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "iddm", "critical", "--delta", "0"],
                              env=_BUFFERED, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_ed_atom_number(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "ed", "--omega", "4", "--lambda", "1")
    assert code == 0 and json.loads(out)["n_atoms"] == 100
    code, out, err = run_cli(capsys, "ed", "--n", "0")
    assert code == 1 and out == "" and "n_atoms must be >= 1" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": []}))
    code, out, err = run_cli(capsys, "ed", "--config", str(cfg))
    assert code == 1 and out == "" and "nonempty" in err


def test_ed_cutoff_raises_recorded(capsys):
    code, out, _ = run_cli(
        capsys, "ed", "--omega", "4", "--lambda", "2", "--delta", "0.8",
        "--n", "32", "--cutoff", "1",
    )
    assert code == 0
    record = json.loads(out)
    assert record["converged"] is True
    assert record["cutoff_raises"] >= 1
    assert record["photon_cutoff"] == 2 ** record["cutoff_raises"]


def test_ed_full_qubit_rejects_delta(capsys):
    code, _, err = run_cli(capsys, "ed", "--full-qubit", "--delta", "0.5", "--n", "4")
    assert code == 1 and "error:" in err


def test_ed_full_qubit_record(capsys):
    code, out, _ = run_cli(
        capsys, "ed", "--omega", "4", "--lambda", "1", "--omega-q-prime", "2",
        "--full-qubit", "--n", "4",
    )
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["parity"] is None
    assert record["sector_gap"] is None
    assert record["mean_field_deviation"] is None
    assert record["converged"] is True


def test_measure_target(capsys):
    code, out, _ = run_cli(capsys, "measure", "--z", "0.8", "--target", "0.4")
    assert code == 0
    kv = parse_kv(out)
    assert kv["sign"] == "plus"
    assert math.isclose(float(kv["theta"]), 0.5 * math.acos(0.5), rel_tol=1e-12)
    assert math.isclose(float(kv["probability"]), 0.5, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(float(kv["delta"]), 0.4, rel_tol=0, abs_tol=1e-12)
    rho_00, rho_11 = float(kv["rho_00"]), float(kv["rho_11"])
    assert math.isclose(rho_00 + rho_11, 1.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(rho_00 - rho_11, 0.4, rel_tol=0, abs_tol=1e-12)
    assert kv["rho_10"] == kv["rho_01"]


# Whole stdout, the digits as the 4x4 contraction printed them, but for rho_10,
# which is now rho_01's text: the contraction gave 0.19762486568826232 and
# 0.43874821936960606 on the first two.  On the third, rho_00 / p would end in
# ...0671 (the entries are scaled by 1/p); on the fourth, v0 * (half * v1)
# without + 0.0 would print rho_01 = -0.
_MEASURE_STDOUT = {
    "--z 0.7 --theta 0.3": (
        "theta = 0.29999999999999999\nsign = plus\nprobability = 0.5\ndelta = 0.57773493043677471\n"
        "rho_00 = 0.78886746521838735\nrho_01 = 0.19762486568826235\nrho_10 = 0.19762486568826235\n"
        "rho_11 = 0.21113253478161259\n"),
    "--z 0.9 --target 0.2": (
        "theta = 0.67335161724676285\nsign = plus\nprobability = 0.5\ndelta = 0.20000000000000018\n"
        "rho_00 = 0.60000000000000009\nrho_01 = 0.43874821936960617\nrho_10 = 0.43874821936960617\n"
        "rho_11 = 0.39999999999999991\n"),
    "--z 0.3 --theta 0.8": (
        "theta = 0.80000000000000004\nsign = plus\nprobability = 0.49999999999999994\n"
        "delta = -0.0087598566903867043\nrho_00 = 0.4956200716548067\nrho_01 = 0.1499360404562258\n"
        "rho_10 = 0.1499360404562258\nrho_11 = 0.50437992834519341\n"),
    "--z 0 --theta 2": (
        "theta = 2\nsign = plus\nprobability = 0.5\ndelta = 0\n"
        "rho_00 = 0.5\nrho_01 = 0\nrho_10 = 0\nrho_11 = 0.5\n"),
}


@pytest.mark.parametrize("args", _MEASURE_STDOUT)
def test_measure_prints_a_symmetric_state_to_the_last_digit(capsys, args):
    code, out, err = run_cli(capsys, "measure", *args.split())
    assert (code, err) == (0, "")
    assert out == _MEASURE_STDOUT[args]


def test_measure_explicit_angle(capsys):
    code, out, _ = run_cli(capsys, "measure", "--z", "0.8", "--theta", "0", "--sign", "minus")
    assert code == 0
    kv = parse_kv(out)
    assert math.isclose(float(kv["delta"]), -0.8, rel_tol=0, abs_tol=1e-14)


def test_measure_argument_conflicts(capsys):
    assert run_cli(capsys, "measure", "--z", "0.8", "--target", "0.1", "--theta", "0.2")[0] == 1
    assert run_cli(capsys, "measure", "--z", "0.8")[0] == 1
    assert run_cli(capsys, "measure", "--z", "0.5", "--target", "0.9")[0] == 1
    assert run_cli(capsys, "measure", "--z", "1.2", "--theta", "0")[0] == 1


def test_unknown_command_exits_1(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_subcommand_lists_name_the_command_table():
    # _COMMANDS is the one home of each subcommand; the two prose lists follow it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Subcommands\n", 1)[1].split("\n## ", 1)[0]
    from_readme = [line.split()[1] for line in section.splitlines() if line.startswith("    iddm ")]
    listing = iddm.cli.__doc__.split("Subcommands\n-----------\n", 1)[1].split("\n\n", 1)[0]
    from_docstring = [line.split()[0] for line in listing.splitlines()]
    assert from_readme == from_docstring == list(iddm.cli._COMMANDS)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "iddm", "critical", "--delta", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "lambda_c = 7.0710678118654755\n"


def test_import_leaves_scipy_optimize_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import iddm, sys; assert 'scipy.optimize' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


_NO_SCIPY = """
import contextlib, io, sys
import iddm
assert "scipy" not in sys.modules, "import iddm"
from iddm.cli import main
for argv in [
    ["sweep", "--delta-count", "1", "--delta-max", "-1", "--lambda-count", "1", "--lambda-max", "0"],
    ["deriv", "--wrt", "lambda", "--from", "0", "--to", "1", "--step", "0.5", "--delta", "0"],
    ["meanfield", "--delta", "0.1"],
    ["meanfield", "--delta", "0.1", "--numeric"],
    ["critical", "--delta", "0.1"],
    ["spectrum", "--delta", "0.1"],
    ["measure", "--z", "0.5", "--theta", "0.3"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
"""


def test_non_ed_runs_leave_scipy_unloaded():
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# numpy never loads; dataclasses, inspect and json are checked against what the
# interpreter held before iddm, since a site hook may load them first.
_NO_NUMPY = """
import contextlib, io, sys
before = set(sys.modules)
unloaded = {"dataclasses", "inspect", "json"}
def check(what):
    added = unloaded & (set(sys.modules) - before)
    assert "numpy" not in sys.modules and not added, (what, added)
import iddm, iddm.cli
check("import iddm, iddm.cli")
for argv in [
    ["sweep", "--delta-count", "3", "--lambda-count", "2"],
    ["meanfield", "--delta", "0.1"],
    ["meanfield", "--delta", "0.1", "--numeric"],
    ["critical", "--delta", "0.1"],
    ["deriv", "--wrt", "lambda", "--from", "6", "--to", "8", "--step", "0.01", "--delta", "0"],
    ["deriv", "--wrt", "delta", "--from", "0", "--to", "1", "--step", "0.01"],
    ["sweep", "--delta-count", "3", "--lambda-count", "2", "--format", "json-lines"],
    ["spectrum", "--delta", "0.1"],
    ["measure", "--z", "0.7", "--theta", "0.3"],
    ["measure", "--z", "0.9", "--target", "0.2"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert iddm.cli.main(argv) == 0, argv
    check(argv)
"""


# ed, and spectrum after it, add neither dataclasses nor json, and ed no numpy.polynomial.
_NUMPY_COMMANDS = """
import contextlib, io, sys
before = set(sys.modules)
import iddm.cli
for argv in [
    ["ed", "--n", "4"],
    ["ed", "--n", "4", "--full-qubit"],
    ["spectrum", "--delta", "0.1"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert iddm.cli.main(argv) == 0, argv
    added = {"numpy.polynomial", "dataclasses", "json"} & (set(sys.modules) - before)
    assert "numpy" in sys.modules and not added, (argv, added)
"""


def test_numpy_commands_leave_dataclasses_and_json_unloaded():
    proc = subprocess.run([sys.executable, "-c", _NUMPY_COMMANDS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_mean_field_commands_leave_numpy_unloaded():
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Records the thread setting the environment holds when numpy is first imported.
_THREADS_AT_NUMPY_IMPORT = """
import contextlib, io, os, sys
class Probe:
    seen = []
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None
sys.meta_path.insert(0, Probe())
from iddm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["ed", "--n", "2", "--cutoff", "2"]) == 0
assert "numpy" in sys.modules and Probe.seen == ["1"], Probe.seen
"""


def test_iddm_threads_is_set_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["IDDM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", _THREADS_AT_NUMPY_IMPORT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_ed_names_resolve_on_use():
    code = ("import sys, iddm\n"
            "from iddm import FixedDelta, EDConfig\n"
            "import iddm.ed\n"
            "assert 'scipy' not in sys.modules\n"
            "assert iddm.ground_state is iddm.ed.ground_state and FixedDelta is iddm.ed.FixedDelta\n"
            "assert EDConfig is iddm.ed.EDConfig\n"
            "assert not hasattr(iddm, 'no_such_name')\n"
            "import iddm.fluctuations, iddm.measurement\n"
            "for module in (iddm.fluctuations, iddm.measurement):\n"
            "    names = [n for n, m in iddm._LAZY_NAMES.items() if m == module.__name__[5:]]\n"
            "    assert names and all(getattr(iddm, n) is getattr(module, n) for n in names)\n"
            "assert iddm.excitation_spectrum is iddm.fluctuations.excitation_spectrum\n"
            "assert iddm.Sign is iddm.measurement.Sign and iddm.measure is iddm.measurement.measure\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-m", "iddm", "ed", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_atoms"] == 2
    # the same run as `python -m iddm ed --n 2`, with sys.modules read after it
    code = ("import contextlib, io, runpy, sys\n"
            "sys.argv = ['iddm', 'ed', '--n', '2']\n"
            "try:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        runpy.run_module('iddm', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "assert 'scipy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _imported_packages(path):
    """The top-level packages that the module at path imports anywhere, inside functions too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_package_source_imports_no_scipy():
    modules = sorted(Path(iddm.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        assert "scipy" not in _imported_packages(path), path.name


# The modules that `import iddm` and the mean-field subcommands load.  measurement.py,
# which measure also loads, is not among them: CollapsedImpurity.density_matrix imports numpy.
_NUMPY_FREE_MODULES = ("__init__.py", "errors.py", "model.py", "meanfield.py", "sweep.py", "cli.py",
                       "fluctuations.py")


def test_numpy_free_modules_never_import_numpy():
    src = Path(iddm.__file__).parent
    for filename in _NUMPY_FREE_MODULES:
        assert "numpy" not in _imported_packages(src / filename), filename


def test_exported_names_resolve():
    for info in pkgutil.iter_modules(iddm.__path__):
        module = importlib.import_module(f"iddm.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
    # the eager names are the numpy-free modules' exports and the error classes, nothing else
    errors = {name for name, obj in vars(iddm.errors).items()
              if isinstance(obj, type) and issubclass(obj, Exception)}
    eager = errors.union(*(m.__all__ for m in (iddm.model, iddm.meanfield, iddm.sweep)))
    public = {name for name, obj in vars(iddm).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == eager and len(errors) == 12
    assert "ZeroProbabilityOutcomeError" not in dir(iddm) and not hasattr(iddm.errors, "ZeroProbabilityOutcomeError")
    for lazy in ("fluctuations", "measurement", "ed"):  # each lazy module's whole __all__
        names = {name for name, module in iddm._LAZY_NAMES.items() if module == lazy}
        assert names == set(importlib.import_module(f"iddm.{lazy}").__all__), lazy
    for name, module in iddm._LAZY_NAMES.items():
        module = importlib.import_module(f"iddm.{module}")
        assert name in module.__all__ and getattr(iddm, name) is getattr(module, name)
