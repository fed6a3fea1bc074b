"""Tests of the benchmark itself: every correctness gate passes a real output
and fires on a deliberately corrupted one; the tracer and the import-time
parser read what they should.

    python3 -m pytest perfbench/test_workloads.py -q
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from iddm.cli import main as iddm_main  # noqa: E402

FIG2_AXES = ((-1.0, 1.0, 21), (0.0, 12.0, 25))
UNBOUNDED_AXES = ((-1.0, 1.0, 11), (0.0, 6.0, 13))


def _cli_output(tmp_path, args) -> bytes:
    out = tmp_path / "out"
    assert iddm_main([*args, "--output", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def phase_csv(tmp_path_factory):
    return _cli_output(tmp_path_factory.mktemp("csv"), w._sweep_args(w.FIG2, FIG2_AXES))


@pytest.fixture(scope="module")
def grid_jsonl(tmp_path_factory):
    return _cli_output(tmp_path_factory.mktemp("jsonl"),
                       w._sweep_args(w.UNBOUNDED, UNBOUNDED_AXES) + ["--format", "json-lines"])


def _replace_line(data: bytes, index: int, edit) -> bytes:
    lines = data.decode().split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines).encode()


def _csv_row(data: bytes, phase: str) -> int:
    return next(i for i, line in enumerate(data.decode().split("\n")) if line.endswith(f",{phase},"))


def test_phase_csv_gate_passes_real_output(phase_csv):
    assert w.phase_csv_gate(FIG2_AXES, seed=1)(phase_csv, {}) == []


def test_phase_label_gate_fires(phase_csv):
    i = _csv_row(phase_csv, "superradiant")
    bad = _replace_line(phase_csv, i, lambda line: line.replace(",superradiant,", ",normal,"))
    assert any("expected superradiant" in m for m in w.phase_csv_gate(FIG2_AXES, 1)(bad, {}))


def test_superradiant_e0_gate_fires(phase_csv):
    i = _csv_row(phase_csv, "superradiant")

    def edit(line):
        cells = line.split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-6))
        return ",".join(cells)

    bad = _replace_line(phase_csv, i, edit)
    assert any("e0 =" in m for m in w.phase_csv_gate(FIG2_AXES, 1)(bad, {}))


def test_amplitude_gate_fires(phase_csv):
    i = _csv_row(phase_csv, "superradiant")

    def swap(line):
        cells = line.split(",")
        cells[2], cells[3] = cells[3], cells[2]
        return ",".join(cells)

    bad = _replace_line(phase_csv, i, swap)
    assert any("alpha2 =" in m for m in w.phase_csv_gate(FIG2_AXES, 1)(bad, {}))


def test_digest_gate_fires_at_the_canonical_seed(phase_csv):
    golden = dict(w.GOLDEN_SHA256)
    try:
        w.GOLDEN_SHA256["phase.csv"] = hashlib.sha256(phase_csv).hexdigest()
        gate = w.phase_csv_gate(FIG2_AXES, w.CANONICAL_SEED)
        assert gate(phase_csv, {}) == []
        flipped = phase_csv.replace(b"e-", b"E-", 1)
        assert any("sha256" in m for m in gate(flipped, {}))
    finally:
        w.GOLDEN_SHA256.update(golden)


def test_golden_digests_match_the_program(tmp_path, monkeypatch):
    """The canonical-seed outputs, made in-process, have the recorded digests and pass every gate."""
    monkeypatch.chdir(tmp_path)
    ctx: dict = {}
    for proc in w.meanfield_grid(w.CANONICAL_SEED):
        assert iddm_main(proc.iddm_args) == 0
        data = (tmp_path / proc.output).read_bytes()
        assert hashlib.sha256(data).hexdigest() == w.GOLDEN_SHA256[proc.output]
        assert proc.gate(data, ctx) == []


def test_error_tag_gates_fire(grid_jsonl):
    gate = w.grid_jsonl_gate(UNBOUNDED_AXES, seed=1)
    assert gate(grid_jsonl, {}) == []
    rows = [json.loads(line) for line in grid_jsonl.decode().splitlines()]
    tagged = next(i for i, r in enumerate(rows) if r["error"])
    clean = next(i for i, r in enumerate(rows) if not r["error"] and r["lambda"] > 0)

    def encode(rs):
        return "".join(json.dumps(r) + "\n" for r in rs).encode()

    untagged = copy.deepcopy(rows)
    untagged[tagged].update(error="", phase="normal", e0=0.0)
    assert any("not tagged" in m for m in gate(encode(untagged), {}))
    spurious = copy.deepcopy(rows)
    spurious[clean].update(error="unbounded_phase", phase="error", e0=None)
    assert any("tagged 'unbounded_phase'" in m for m in gate(encode(spurious), {}))
    assert any("rows, expected" in m for m in gate(encode(rows[:-1]), {}))


def test_deriv_gate(tmp_path):
    args = ["deriv", *w._model_flags({**w.FIG2, "lambda": 5.0}), "--wrt", "lambda",
            "--from", "0.0", "--to", "12.0", "--step", "0.5", "--delta", "0.25"]
    data = _cli_output(tmp_path, args)
    gate = w.deriv_gate(0.0, 12.0, 0.5, 0.25, seed=1)
    assert gate(data, {}) == []

    def bump(col):
        def edit(line):
            cells = line.split(",")
            cells[col] = repr(float(cells[col]) - 1e-3)
            return ",".join(cells)
        return edit

    assert any("e0 =" in m for m in gate(_replace_line(data, 20, bump(2)), {}))
    assert any("differences" in m for m in gate(_replace_line(data, 20, bump(4)), {}))


# Records as `iddm ed` printed them at (omega 4, lambda 2, kappa -0.5).
SCAN = [
    {"n_atoms": 64, "photon_cutoff": 50, "energy_per_atom": -1.0006299483389105,
     "parity": 1.6009034571669734e-06, "converged": True, "cutoff_shift": 3.96e-12,
     "mean_field_deviation": 4.948338910848449e-06},
    {"n_atoms": 128, "photon_cutoff": 76, "energy_per_atom": -1.000627457899164,
     "parity": -5.9e-11, "converged": True, "cutoff_shift": 9.29e-12,
     "mean_field_deviation": 2.4578991644208514e-06},
    {"n_atoms": 256, "photon_cutoff": 122, "energy_per_atom": -1.0006262249165059,
     "parity": -9.5e-12, "converged": True, "cutoff_shift": 1.67e-11,
     "mean_field_deviation": 1.224916506226137e-06},
]
QUBIT = {"n_atoms": 64, "energy_per_atom": -1.0633958312889016, "parity": None,
         "converged": True, "cutoff_shift": 2.5e-13, "mean_field_deviation": None}
UPPER = {"n_atoms": 64, "energy_per_atom": -0.999999999998728, "parity": 1.2e-06,
         "converged": True, "cutoff_shift": 1.27e-12, "mean_field_deviation": 1.27e-12}
LOWER = {"n_atoms": 64, "energy_per_atom": -1.0630052062865722, "parity": 7.2e-4,
         "converged": True, "cutoff_shift": 2.58e-12, "mean_field_deviation": 5.05e-4}
WQ = 0.05


def test_ed_gates_pass_real_records():
    assert w.check_ed_records(SCAN, [64, 128, 256]) == []
    assert w.check_deviation_falls(SCAN) == []
    assert w.check_qubit_blocks(QUBIT, UPPER, LOWER, WQ) == []


@pytest.mark.parametrize("field,value,needle", [
    ("converged", False, "not converged"),
    ("cutoff_shift", 2e-8, "cutoff shift"),
])
def test_ed_record_gates_fire(field, value, needle):
    bad = copy.deepcopy(SCAN)
    bad[1][field] = value
    assert any(needle in m for m in w.check_ed_records(bad, [64, 128, 256]))


def test_ed_deviation_gate_fires():
    bad = copy.deepcopy(SCAN)
    bad[2]["mean_field_deviation"] = bad[1]["mean_field_deviation"]
    assert w.check_deviation_falls(bad)


def test_ed_qubit_block_gate_fires():
    assert w.check_qubit_blocks({**QUBIT, "energy_per_atom": QUBIT["energy_per_atom"] + 1e-7},
                                UPPER, LOWER, WQ)
    assert w.check_qubit_blocks(QUBIT, UPPER, LOWER, 0.0)


def test_parity_defect_is_counted_not_gated():
    assert w.parity_mixed(SCAN + [QUBIT, UPPER, LOWER]) == 5
    assert w.parity_mixed([{**UPPER, "parity": -1.0 + 1e-9}]) == 0


@pytest.fixture(scope="module")
def oracle_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("oracle") / "oracle.json"
    assert oracle.main(["--seed", "7", "--draws", "4", "--spectra", "10",
                        "--measures", "10", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_oracle_gate_passes_real_output(oracle_doc):
    assert w.check_oracle(oracle_doc, 4, 10, 10) == []


@pytest.mark.parametrize("section,column,needle", [
    ("draws", 5, "minimizer gap"),
    ("spectra", 0, "normal-phase"),
    ("measures", 4, "measurement identities"),
])
def test_oracle_gates_fire(oracle_doc, section, column, needle):
    bad = copy.deepcopy(oracle_doc)
    bad[section][2][column] += 1e-6
    assert any(needle in m for m in w.check_oracle(bad, 4, 10, 10))


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter() + 60)
    proc = w.Proc(tag="boom", argv=["-c", "raise SystemExit(3)"], output="none",
                  gate=lambda data, ctx: [])
    try:
        runner.run(proc, {})
    finally:
        runner.close()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "exit code 3" in runner.messages[0]


def test_tracer_spans_nest_and_reach_from_imports(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = w._sweep_args(w.FIG2, ((0.0, 1.0, 3), (4.0, 8.0, 5))) + ["--output", str(tmp_path / "x")]
    subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args],
                   env=env, check=True)
    doc = json.loads(spans.read_text())
    table = layers.SpanTable([layers.TracedProc(None, doc, b"", 0)])
    assert table.calls["cli.main"] == 1
    assert table.calls["sweep.run_grid"] == 1  # cli's own `from .sweep import run_grid`
    assert table.calls["meanfield.equilibrium_closed_form"] == 15  # sweep's own binding
    assert table.notes["sweep.run_grid"] == [{"rows": 15, "errors": 0}]
    names = doc["names"]
    for name_index, parent, start, end, _ in doc["spans"]:
        if names[name_index] == "meanfield.equilibrium_closed_form":
            assert names[doc["spans"][parent][0]] == "sweep.run_grid"
        assert end >= start
    assert 0 < table.self_time["cli.main"] < table.total["cli.main"]
    assert 0 < layers.tracing_overhead(doc) < table.total["cli.main"]


def test_importtime_parser():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       400 |        450 |   numpy",
        "import time:       300 |        300 |     scipy.optimize._x",
        "import time:       100 |        400 |   scipy.optimize",
        "import time:        10 |       1160 | iddm",
    ])
    total, scipy = layers.parse_importtime(sample)
    assert total == pytest.approx(1160e-6)
    assert scipy == pytest.approx(700e-6)
