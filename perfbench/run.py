"""Benchmark of the iddm toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload meanfield-grid --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py for inputs and gates):

  meanfield-grid  `iddm sweep` to CSV on the default 201x121 FIG2 grid, `sweep
                  --format json-lines` on a grid where ~15 % of the rows are
                  unbounded_phase errors, and one `iddm deriv` scan.  The
                  closed form, grid assembly and both writers do the work;
                  ED and the minimizer are bypassed.
  ed-scan         `iddm ed` at delta = 0.8 over N = 64, 128, a separate
                  process at N = 256, and a FullQubit N = 64 run checked
                  against its two FixedDelta(+-1) blocks.  The Hamiltonian
                  build and the sparse solves do the work.
  oracle-check    perfbench/oracle.py: 150 minimizer-vs-closed-form draws,
                  1000 spectrum checks, 500 measurement round trips.  The
                  minimizer calls the closed form one scalar point at a time.

Every process is a fresh `python` started one at a time with IDDM_THREADS=1
and timed from outside; its peak RSS comes from wait4.  Every output passes
through the workload's correctness gates; a nonzero exit or a failed gate
counts as a failed operation.  Wall times are scaled by a calibration
process to take out the speed drift of a shared host (see CALIBRATION
below); the raw times are printed too.

--trace 0 runs rounds of a set-up probe, a workload cycle and a calibration
for --seconds (a new round starts only if it should end inside the window;
probes are topped up to SETUP_STARTS afterwards), so set-up and cycles
sample the same stretch of a shared host's drifting speed, and reports the
end-to-end metrics (scaled):
  wall_s       one cycle's wall time: the sum over its processes of each
               process's median over the cycles;
  main_proc_s  the median wall time of the main process (the CSV sweep,
               the N = 256 ED run, the oracle driver);
  peak_rss_mb  the largest peak RSS of any process of any cycle;
  setup_s      the median cold start of the workload's entry point on a
               trivial input (a 1x1 sweep, `ed --n 2`, the oracle with 0 draws).
It also prints fail_frac, the workload's own rate (grid_points_per_s,
ed_largest_n_s or oracle_draws_per_s), the raw (unscaled) wall_s,
main_proc_s and setup_s, and the raw median wall time of each process; they
are not in the JSON line.

--trace 1 reports the per-layer metrics: a `-X importtime` import probe,
then one traced cycle of every workload (spans recorded by tracer.py in the
child processes), so each layer is measured in every traced run.  The
tracing overhead of the selected workload's cycle is accounted inside the
traced processes (layers.tracing_overhead): the wall-time difference of a
traced and an untraced cycle is smaller than the run-to-run spread.

The last line of stdout is one JSON object with correct, attempted, failed
and metrics.  The lines before it give the environment stamp and every
metric by name and unit.  Exit code 0 when every gate passed, 1 when one
failed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = str(HERE / "oracle.py")
TRACER = str(HERE / "tracer.py")

SETUP_STARTS = 8
# On a shared host the CPU speed drifts: on a 2-core VM the raw wall times
# of ten runs spread (quartile distance) by up to half of their median, well
# past the bounds in BENCHMARK.json.  So a fixed calibration process, which
# runs no iddm code, runs before the first round and after every round, and
# the round's wall times are scaled by
# CALIBRATION_REF_S / (the mean of the calibrations just before and after
# it): the figures read in seconds at the speed where the calibration takes
# CALIBRATION_REF_S.  One reference scales every process, and its work is a
# fixed mix of interpreter start, numpy import, a pure-Python loop and numpy
# kernels, so the correction does not depend on what the program is bound
# by.  The raw wall times are printed as raw.* and kept in the baseline.
CALIBRATION = ["-c", "import numpy as np\n"
                     "s = 0\nfor i in range(1000000):\n    s += i * i\n"
                     "a = np.random.default_rng(0).random(400000)\n"
                     "for _ in range(30):\n    a = np.sqrt(a * a + 1.0) - 0.5\n    a.sort()"]
CALIBRATION_REF_S = 0.5
# A run must end within 180 s; a child still running at this point is killed
# and counts as a failed operation.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

class Runner:
    """Starts the benchmark's child processes one at a time and counts operations."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.env.update(IDDM_THREADS="1", PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._count = 0
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=work, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()

    def launch(self, argv: list[str]) -> tuple[float, int, int, Path, Path]:
        """Run `python argv...` in the work directory: (wall s, peak RSS KB, exit code, stdout, stderr)."""
        self._count += 1
        out_path = self.work / f"{self._count}.out"
        err_path = self.work / f"{self._count}.err"
        timeout = max(1.0, self.deadline - time.perf_counter())
        request = {"argv": [sys.executable, *argv], "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": timeout}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher died")
        reply = json.loads(reply)
        return reply["wall"], reply["maxrss_kb"], reply["code"], out_path, err_path

    def run(self, proc: workloads.Proc, ctx: dict, argv: list[str] | None = None) -> dict:
        """Run one Proc (or the same work under another argv) and pass its output through the gate."""
        output = self.work / proc.output
        if output.exists():
            output.unlink()
        wall, rss_kb, code, out_path, err_path = self.launch(argv or proc.argv)
        stdout_bytes = out_path.stat().st_size
        if code != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            failures = [f"exit code {code}: {tail[0]}"]
            data = b""
        else:
            data = output.read_bytes() if output.exists() else b""
            failures = proc.gate(data, ctx)
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages += [f"{proc.tag}: {m}" for m in failures]
        return {"tag": proc.tag, "wall": wall, "rss_kb": rss_kb, "data": data,
                "stdout_bytes": stdout_bytes}

    def cycle(self, procs: list[workloads.Proc]) -> list[dict]:
        ctx: dict = {}
        return [self.run(p, ctx) for p in procs]


def environment_stamp(runner: Runner, seed: int) -> dict:
    probe = ("import json, numpy, scipy\n"
             "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
             " 'blas': cfg.get('name', '?') + ' ' + str(cfg.get('version', ''))}))")
    _, _, code, out_path, _ = runner.launch(["-c", probe])
    libs = json.loads(out_path.read_text()) if code == 0 else {}
    commit = None  # a checkout without git metadata; src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **libs,
        "IDDM_THREADS": runner.env["IDDM_THREADS"],
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _median_walls(cycles: list[list[dict]], key: str) -> dict:
    """Tag -> median wall time (key "wall" raw, "scaled") of that process over the cycles."""
    walls: dict[str, list[float]] = {}
    for c in cycles:
        for r in c:
            walls.setdefault(r["tag"], []).append(r[key])
    return {tag: statistics.median(ws) for tag, ws in walls.items()}


def calibrate(runner: Runner) -> float:
    """Wall time of one run of the CALIBRATION process."""
    wall, _, code, _, _ = runner.launch(CALIBRATION)
    if code != 0:
        raise RuntimeError(f"calibration process exited {code}")
    return wall


def measure_end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    calibrations = [calibrate(runner)]

    def scaled(results: list[dict]) -> list[dict]:
        """Adds "scaled" to each result: its wall time at the speed of the calibrations around it."""
        calibrations.append(calibrate(runner))
        scale = CALIBRATION_REF_S / statistics.fmean(calibrations[-2:])
        for r in results:
            r["scaled"] = r["wall"] * scale
        return results

    def probe() -> dict:
        return runner.run(workloads.setup_proc(workload, ORACLE), {})

    setup, cycles = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        first, *rest = scaled([probe(), *runner.cycle(workloads.cycle(workload, seed, ORACLE))])
        setup.append(first)
        cycles.append(rest)
        now = time.perf_counter()
        # Stop unless one more round of the same length still ends inside the window.
        if now - start + (now - began) > seconds or now >= runner.deadline:
            break
    if len(setup) < SETUP_STARTS:
        setup += scaled([probe() for _ in range(SETUP_STARTS - len(setup))])
    medians, raw = _median_walls(cycles, "scaled"), _median_walls(cycles, "wall")
    main_tag = workloads.MAIN_PROC[workload]
    main_s = medians[main_tag]
    metrics = {
        "wall_s": sum(medians.values()),
        "main_proc_s": main_s,
        "peak_rss_mb": max(r["rss_kb"] for c in cycles for r in c) / 1024.0,
        "setup_s": statistics.median(r["scaled"] for r in setup),
    }
    main_proc = next(p for p in workloads.cycle(workload, seed, ORACLE) if p.tag == main_tag)
    derived = {
        "cycles": (len(cycles), "count"),
        "raw.wall_s": (sum(raw.values()), "s"),
        "raw.main_proc_s": (raw[main_tag], "s"),
        "raw.setup_s": (statistics.median(r["wall"] for r in setup), "s"),
        "calibration_s": (statistics.median(calibrations), "s"),
    }
    if workload == "meanfield-grid":
        derived["grid_points_per_s"] = (main_proc.points / main_s, "1/s")
    elif workload == "ed-scan":
        derived["ed_largest_n_s"] = (main_s, "s")
    else:
        derived["oracle_draws_per_s"] = (main_proc.points / main_s, "1/s")
    for tag, median in raw.items():
        derived[f"raw.{tag}_s"] = (median, "s")
    return metrics, derived


def _traced_argv(proc: workloads.Proc, spans: str) -> list[str]:
    if proc.iddm_args is None:
        return [*proc.argv, "--spans", spans]
    return [TRACER, spans, "--", *proc.iddm_args]


def import_probe(runner: Runner) -> dict:
    """A fresh `python -X importtime -c "import iddm"`: import time and module count."""
    _, _, code, out_path, err_path = runner.launch(
        ["-X", "importtime", "-c", "import sys, iddm; print(len(sys.modules))"])
    runner.attempted += 1
    total_s, scipy_s = layers.parse_importtime(err_path.read_text())
    if code != 0 or total_s <= 0:
        runner.failed += 1
        runner.messages.append(f"import-probe: exit code {code}, iddm import time {total_s}")
        return {"total_s": total_s, "scipy_s": scipy_s, "modules": 0}
    return {"total_s": total_s, "scipy_s": scipy_s, "modules": int(out_path.read_text())}


def measure_layers(runner: Runner, workload: str, seed: int) -> tuple[dict, dict]:
    probe = import_probe(runner)
    traced: list[layers.TracedProc] = []
    overhead_s = traced_wall = 0.0
    for name in workloads.WORKLOADS:
        ctx: dict = {}
        for proc in workloads.cycle(name, seed, ORACLE):
            spans = runner.work / f"{proc.tag}.spans.json"
            result = runner.run(proc, ctx, _traced_argv(proc, str(spans)))
            if not spans.exists():
                continue  # it exited nonzero, a failure already counted
            doc = json.loads(spans.read_text())
            if name == workload:
                traced_wall += result["wall"]
                overhead_s += layers.tracing_overhead(doc)
            traced.append(layers.TracedProc(proc, doc, result["data"], result["stdout_bytes"]))
    if runner.failed:
        return {}, {}
    derived = {"traced_cycle_s": (traced_wall, "s")}
    return layers.layer_metrics(traced, probe, overhead_s), derived


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.CANONICAL_SEED)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="length of the measuring window (--trace 0 only)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "iddm" / "__init__.py").is_file():
        print(f"error: no iddm sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch))
    runner = Runner(work, time.perf_counter() + RUN_BUDGET_S)
    try:
        env = environment_stamp(runner, args.seed)
        # Unmeasured warm-up: byte-compiles the sources and fills the file cache,
        # which users pay once, not per run.
        runner.launch(["-c", "import iddm.cli"])
        if args.trace:
            metrics, derived = measure_layers(runner, args.workload, args.seed)
        else:
            metrics, derived = measure_end_to_end(runner, args.workload, args.seed, args.seconds)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units(args.trace)
    if metrics and set(metrics) != set(units):
        runner.failed += 1
        runner.messages.append(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units.get(name, '?')}")
    for name, (value, unit) in derived.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_frac = {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted!r}")
    for message in runner.messages[:20]:
        print(f"# FAILED {message}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
