"""Command-line interface.

Checked here:
  * critical prints the exact threshold lines and no-transition sentinel
  * exactly-one-of --lambda/--delta is enforced (exit 1 either way)
  * meanfield output parses back to the closed-form equilibrium; --numeric
    agrees with the closed form; a zero iteration budget and a lone start on
    the origin saddle exit 2
  * non-finite model, ED and measurement input exits 1 with an error on stderr
  * config files merge under flags, unknown or ill-typed keys exit 1, and a
    config-driven run is byte-identical to the flag-driven one
  * deriv emits the documented CSV with empty edge cells and shows the
    curvature jump at the transition
  * sweep emits CSV/JSON lines, honors --output, and repeated runs are
    byte-identical
  * ed emits one JSON record per atom number with parity exactly +-1;
    --full-qubit rejects --delta
  * measure solves --target and reports the collapsed state
  * non-finite sweep axis edges exit 1
  * the module entry point works end to end, and importing the package does
    not load scipy.optimize; neither the package import nor any subcommand
    but ed loads scipy at all, while the ED names and ed still work
"""

import json
import math
import subprocess
import sys

import pytest

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


def test_critical_no_transition(capsys):
    code, out, _ = run_cli(capsys, "critical", "--lambda", "20")
    assert code == 0 and out == "no-transition\n"
    code, out, _ = run_cli(capsys, "critical", "--delta", "1")
    assert code == 0 and out == "no-transition\n"


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
    ["ed", "--n", "4", "--solver-tol", "nan"],
    ["ed", "--n", "4", "--convergence-factor", "inf"],
    ["measure", "--z", "0.5", "--theta", "nan"],
    ["measure", "--z", "0.5", "--target", "nan"],
    ["measure", "--z", "0.5", "--theta", "inf"],
], ids=["solver-tol-nan", "convergence-factor-inf", "theta-nan", "target-nan", "theta-inf"])
def test_non_finite_ed_and_measure_input_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "must be finite" in err


@pytest.mark.parametrize("edge", ["delta-min", "delta-max", "lambda-min", "lambda-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_grid_edge_exits_1(capsys, edge, value):
    # --flag=value, so that argparse does not read -inf as an option
    code, out, err = run_cli(capsys, "sweep", "--delta-count", "3", "--lambda-count", "2",
                             f"--{edge}={value}")
    assert code == 1 and out == "" and "must be finite" in err


def test_nu_undefined_at_zero_coupling(capsys):
    code, out, _ = run_cli(capsys, "meanfield", "--delta", "0.2", "--lambda", "0")
    assert code == 0
    assert parse_kv(out)["nu"] == "undefined"


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


def test_config_rejections(tmp_path, capsys):
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


def test_deriv_delta_scan_rejects_fixed_delta(capsys):
    code, _, err = run_cli(
        capsys, "deriv", "--wrt", "delta", "--from", "0.4", "--to", "0.6",
        "--step", "0.01", "--delta", "0.3",
    )
    assert code == 1 and "error:" in err


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


def test_ed_names_resolve_on_use():
    code = ("import sys, iddm\n"
            "from iddm import FixedDelta, EDConfig\n"
            "import iddm.ed\n"
            "assert 'scipy' in sys.modules\n"
            "assert iddm.ground_state is iddm.ed.ground_state and FixedDelta is iddm.ed.FixedDelta\n"
            "assert EDConfig is iddm.ed.EDConfig\n"
            "assert not hasattr(iddm, 'no_such_name')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-m", "iddm", "ed", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_atoms"] == 2
