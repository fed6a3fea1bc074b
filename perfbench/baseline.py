"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py --runs 10 --first-seed 0 --traced --out perfbench/baseline.json

For each workload, runs `run.py --trace 0` once per seed and reports each
end-to-end metric's median, quartiles and spread, (q3 - q1) / median with
statistics.quantiles(values, n=4), against the metric's bound in
BENCHMARK.json; the same summary of the unscaled raw.* wall times is stored
next to them.  With --traced it adds one `--trace 1` run per workload for
the per-layer breakdown and the tracing overhead.  The summary, with the
environment stamp of the first run, is written to --out; a spread above a
third of its bound is flagged on stderr and makes the exit code 1.  Seed 0
(workloads.CANONICAL_SEED) also checks the outputs' recorded digests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """(the JSON result, the environment stamp, the printed raw.* wall times) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    raw = {}
    for line in lines:
        if line.startswith("raw."):
            name, value = line.split(" = ")
            raw[name] = float(value.split()[0])
    return json.loads(lines[-1]), env, raw


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs, "env": None, "workloads": {}}
    steady = True
    for workload in names:
        values: dict[str, list[float]] = {}
        raw_values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env, raw = run_once(workload, seed, spec["run_seconds"], 0)
            summary["env"] = summary["env"] or env
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in raw.items():
                raw_values.setdefault(name, []).append(value)
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {},
                 "raw": {name: summarise(vals) for name, vals in raw_values.items()}}
        for name, vals in values.items():
            stats = entry["end_to_end"][name] = summarise(vals)
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            steady &= not flag
            raw_spread = entry["raw"].get(f"raw.{name}", {}).get("spread", float("nan"))
            print(f"{workload:15s} {name:12s} median {stats['median']:.4f} spread {stats['spread']:.4f} "
                  f"(raw {raw_spread:.4f}) bound {bounds[name]}{flag}", file=sys.stderr)
        if args.traced:
            result, _, _ = run_once(workload, args.first_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
        summary["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
