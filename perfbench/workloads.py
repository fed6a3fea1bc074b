"""Benchmark workloads: inputs made from the seed, the processes that run them,
and the correctness gates that check every output.

A workload cycle is a list of Proc entries, run one at a time as fresh
processes.  Each Proc carries a gate: a function of the process's output
bytes and a per-cycle context dict that returns a list of failure messages
(empty when the output is correct).  Gates that compare several processes
(the ED N-scan, the FullQubit block check) read what earlier gates of the
same cycle stored in the context.

Only the standard library is used here, so the benchmark's own process stays
light and never imports the program it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("meanfield-grid", "ed-scan", "oracle-check")

# At this seed the grids are the fixed reference grids below, and the sweep
# and deriv outputs must match the digests recorded from the unoptimised
# program byte for byte.  Other seeds move the grid edges (never the point
# counts, so the work per run stays the same) and only the analytic gates apply.
CANONICAL_SEED = 0
GOLDEN_SHA256 = {
    "phase.csv": "08eb88085db05eec6ded12a110616b6d0cdf2fcb232d59403a66a7d6f4353555",
    "grid.jsonl": "04925b6b84b0d112500023f09fa916ec88d0bdf3e94a244a833ee680694de21d",
    "deriv.csv": "3ef51fb4094491b38b7209b8596ce7d5978e446633f0110fc918beb2f60f0a93",
}

# FIG2 reference parameters (omega = 400, omega0 = 1, kappa = -0.5).  There
# nu = 50 (1 - delta) / lambda^2, so the phase is sign(lambda^2 + 50 delta - 50).
FIG2 = {"omega": 400.0, "omega0": 1.0, "kappa": -0.5}
# (omega = 4, kappa = -2): nu = -(1 + 2 delta) / lambda^2 reaches -1 inside
# the grid, so about 15 % of the rows of a lambda <= 6 grid are error rows.
UNBOUNDED = {"omega": 4.0, "omega0": 1.0, "kappa": -2.0}
# ED point: delta = 0.8 gives f2 = 0.1 != 0, so E/N really converges in N.
ED_PARAMS = {"omega": 4.0, "omega0": 1.0, "kappa": -0.5, "lambda": 2.0}
ED_DELTA = 0.8
ED_SCAN_N = (64, 128)
ED_LARGEST_N = 256
ED_QUBIT_N = 64

ORACLE_DRAWS = 150
ORACLE_SPECTRA = 1000
ORACLE_MEASURES = 500

# Band around the phase boundary nu = 1 inside which the label may read
# critical, normal or superradiant: the grids hit nu = 1 up to roundoff.
BOUNDARY_BAND = 1e-9
VALUE_RTOL = 1e-10
ED_SHIFT_MAX = 1e-8
ED_QUBIT_TOL = 1e-8
ORACLE_GAP_MAX = 1e-8
SPECTRUM_RTOL = 1e-9
MEASURE_TOL = 1e-12
PARITY_TOL = 1e-6


@dataclass
class Proc:
    """One fresh process of a workload cycle.

    argv follows the interpreter: ["-m", "iddm", ...] for the CLI, or a
    driver script path.  output names the file the process writes into the
    work directory; the gate reads it.  iddm_args is the CLI argument list
    (None for the oracle driver), used to re-run the same command traced.
    """

    tag: str
    argv: list[str]
    output: str
    gate: Callable[[bytes, dict], list[str]]
    iddm_args: list[str] | None = None
    points: int = 0


def _num(x: float) -> str:
    return repr(float(x))


def _model_flags(params: dict) -> list[str]:
    flags = []
    for key in ("omega", "omega0", "kappa", "lambda"):
        if key in params:
            flags += [f"--{key}", _num(params[key])]
    return flags


def _sweep_args(params: dict, axes) -> list[str]:
    (dlo, dhi, dn), (llo, lhi, ln) = axes
    return ["sweep", *_model_flags({**params, "lambda": 5.0}),
            "--delta-min", _num(dlo), "--delta-max", _num(dhi), "--delta-count", str(dn),
            "--lambda-min", _num(llo), "--lambda-max", _num(lhi), "--lambda-count", str(ln)]


def _cli(tag: str, args: list[str], output: str, gate, **kw) -> Proc:
    args = args + ["--output", output]
    return Proc(tag=tag, argv=["-m", "iddm", *args], output=output, gate=gate,
                iddm_args=args, **kw)


# --------------------------------------------------------------------------
# Inputs from the seed


def meanfield_inputs(seed: int) -> dict:
    """Grid edges and the deriv population.

    The seed moves each edge by at most 1 % of its axis, so the outputs
    differ from seed to seed while the point counts and the share of each
    phase, and with them the work per run, stay the same.
    """
    if seed == CANONICAL_SEED:
        return {
            "csv": ((-1.0, 1.0, 201), (0.0, 12.0, 121)),
            "jsonl": ((-1.0, 1.0, 121), (0.0, 6.0, 61)),
            "deriv_delta": 0.0,
        }
    rng = random.Random(seed)
    return {
        "csv": ((-1.0 + 0.02 * rng.random(), 1.0 - 0.02 * rng.random(), 201),
                (0.12 * rng.random(), 12.0 - 0.12 * rng.random(), 121)),
        "jsonl": ((-1.0 + 0.02 * rng.random(), 1.0 - 0.02 * rng.random(), 121),
                  (0.06 * rng.random(), 6.0 - 0.06 * rng.random(), 61)),
        "deriv_delta": 0.02 * rng.random() - 0.01,
    }


def ed_inputs(seed: int) -> dict:
    """The seed sets the FullQubit run's impurity splitting omega_q'.

    omega_q' only shifts the two sigma_z blocks by -+omega_q'/2, so the
    Hilbert-space sizes, cutoffs and nonzero counts are the same at every seed.
    """
    if seed == CANONICAL_SEED:
        return {"omega_q_prime": 0.0}
    return {"omega_q_prime": 0.1 * random.Random(seed).random()}


# --------------------------------------------------------------------------
# Mean-field grid gates


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def _nu(params: dict, delta: float, lam: float) -> tuple[float, float | None]:
    """(f2, nu) with the program's own operation order; nu is None at lambda = 0."""
    f1 = params["omega"] + 0.0 * delta
    f2 = params["omega0"] + params["kappa"] * (1.0 + delta)
    if lam == 0:
        return f2, None
    return f2, f1 * f2 / (4.0 * lam * lam)


def check_grid_rows(rows: list[tuple], params: dict, axes) -> list[str]:
    """Analytic gates on phase-diagram rows (CSV or JSON lines).

    Each row is (delta, lambda, values, phase, error) with values the
    columns (alpha2, beta2, e0, jz_over_n, i_over_n), None for nan.  Checks:
    the grid order and coordinates; error tags exactly where nu <= -1 (or
    lambda = 0 with f2 < 0); the phase label is sign(1 - nu) outside the
    boundary band; the values of the closed-form branches (superradiant
    e0 = -(lambda^2/f1)(1 - nu)^2, beta2 = (1 - nu)/2, alpha2 =
    lambda^2 (1 - nu^2)/f1^2; all zero but jz_over_n = -1/2 otherwise).
    """
    (dlo, dhi, dn), (llo, lhi, ln) = axes
    if len(rows) != dn * ln:
        return [f"{len(rows)} rows, expected {dn * ln}"]
    deltas, lams = _linspace(dlo, dhi, dn), _linspace(llo, lhi, ln)
    f1 = params["omega"]
    failures = []
    for i, (delta, lam, values, phase, error) in enumerate(rows):
        where = f"row {i} (delta={delta!r}, lambda={lam!r})"
        if abs(delta - deltas[i // ln]) > 1e-12 or abs(lam - lams[i % ln]) > 1e-12:
            failures.append(f"{where}: off the requested grid")
        else:
            f2, nu = _nu(params, delta, lam)
            failures += _row_failures(where, f1, f2, nu, lam, values, phase, error)
        if len(failures) >= 5:
            break
    return failures


GRID_COLUMNS = ("alpha2", "beta2", "e0", "jz_over_n", "i_over_n")


def _row_failures(where, f1, f2, nu, lam, values, phase, error) -> list[str]:
    if (f2 < 0) if nu is None else (nu <= -1.0):
        if error != "unbounded_phase" or phase != "error" or values != (None,) * 5:
            return [f"{where}: nu <= -1 but not tagged unbounded_phase"]
        return []
    if error or phase == "error":
        return [f"{where}: tagged {error!r} but nu = {nu}"]
    if nu is None or nu > 1.0 + BOUNDARY_BAND:
        label = "normal"
    elif nu < 1.0 - BOUNDARY_BAND:
        label = "superradiant"
    else:
        label = phase if phase in ("normal", "superradiant", "critical") else "a phase"
    if phase != label:
        return [f"{where}: phase {phase!r}, expected {label}"]
    if phase == "superradiant":
        alpha2 = lam * lam * (1.0 - nu * nu) / (f1 * f1)
        beta2 = (1.0 - nu) / 2.0
        expected = (alpha2, beta2, -(lam * lam / f1) * (1.0 - nu) ** 2, beta2 - 0.5, alpha2)
    else:
        expected = (0.0, 0.0, 0.0, -0.5, 0.0)
    for name, got, want in zip(GRID_COLUMNS, values, expected):
        if got is None or abs(got - want) > VALUE_RTOL * max(1.0, abs(want)):
            return [f"{where}: {name} = {got}, expected {want}"]
    return []


def _float_or_none(text: str) -> float | None:
    x = float(text)
    return None if math.isnan(x) else x


CSV_HEADER = "delta,lambda,alpha2,beta2,e0,jz_over_n,i_over_n,phase,error"


def parse_phase_csv(data: bytes) -> list[tuple]:
    lines = data.decode("utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("CSV header or final newline missing")
    rows = []
    for line in lines[1:-1]:
        d, l, *values, phase, error = line.split(",")
        rows.append((float(d), float(l), tuple(_float_or_none(v) for v in values), phase, error))
    return rows


def parse_grid_jsonl(data: bytes) -> list[tuple]:
    rows = []
    for line in data.decode("utf-8").splitlines():
        r = json.loads(line)
        rows.append((r["delta"], r["lambda"], tuple(r[c] for c in GRID_COLUMNS),
                     r["phase"], r["error"]))
    return rows


def _digest_gate(name: str, data: bytes, seed: int) -> list[str]:
    if seed != CANONICAL_SEED:
        return []
    digest = hashlib.sha256(data).hexdigest()
    if digest != GOLDEN_SHA256[name]:
        return [f"{name}: sha256 {digest[:16]}... differs from the recorded output"]
    return []


def _guard(parse, check):
    """Gate from a parser and a check(parsed, data, ctx); unreadable output fails the gate."""

    def gate(data: bytes, ctx: dict) -> list[str]:
        try:
            parsed = parse(data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        return check(parsed, data, ctx)

    return gate


def phase_csv_gate(axes, seed: int):
    return _guard(parse_phase_csv, lambda rows, data, ctx:
                  check_grid_rows(rows, FIG2, axes) + _digest_gate("phase.csv", data, seed))


def grid_jsonl_gate(axes, seed: int):
    return _guard(parse_grid_jsonl, lambda rows, data, ctx:
                  check_grid_rows(rows, UNBOUNDED, axes) + _digest_gate("grid.jsonl", data, seed))


def deriv_gate(lo: float, hi: float, step: float, delta: float, seed: int):
    """Header, grid, e0 on the closed-form branch and the central differences."""
    count = int(round((hi - lo) / step)) + 1
    h = (hi - lo) / (count - 1)

    def check(lines, data, ctx):
        if lines[0] != "param,value,e0,d1,d2" or len(lines) != count + 1:
            return [f"deriv: bad header or {len(lines) - 1} rows, expected {count}"]
        recs = [line.split(",") for line in lines[1:]]
        e0 = [float(r[2]) for r in recs]
        failures = []
        for i, rec in enumerate(recs):
            lam = float(rec[1])
            _, nu = _nu(FIG2, delta, lam)
            target = 0.0 if nu is None or nu >= 1.0 else -(lam * lam / FIG2["omega"]) * (1.0 - nu) ** 2
            if rec[0] != "lambda" or abs(e0[i] - target) > VALUE_RTOL * max(1.0, abs(target)):
                failures.append(f"deriv row {i}: e0 = {e0[i]}, expected {target}")
            elif 0 < i < count - 1:
                d1 = (e0[i + 1] - e0[i - 1]) / (2.0 * h)
                d2 = (e0[i + 1] - 2.0 * e0[i] + e0[i - 1]) / (h * h)
                if abs(float(rec[3]) - d1) > 1e-9 * max(1.0, abs(d1)) or \
                        abs(float(rec[4]) - d2) > 1e-6 * max(1.0, abs(d2)):
                    failures.append(f"deriv row {i}: differences off")
            elif rec[3:] != ["", ""]:
                failures.append(f"deriv row {i}: edge row has differences")
            if len(failures) >= 5:
                break
        return failures + _digest_gate("deriv.csv", data, seed)

    return _guard(lambda data: data.decode("utf-8").splitlines(), check)


def meanfield_grid(seed: int) -> list[Proc]:
    inp = meanfield_inputs(seed)
    csv_axes, jsonl_axes = inp["csv"], inp["jsonl"]
    deriv = (0.0, 12.0, 0.002)
    (dlo, dhi, dn), (llo, lhi, ln) = csv_axes
    return [
        _cli("sweep-csv", _sweep_args(FIG2, csv_axes), "phase.csv",
             phase_csv_gate(csv_axes, seed), points=dn * ln),
        _cli("sweep-jsonl", _sweep_args(UNBOUNDED, jsonl_axes) + ["--format", "json-lines"],
             "grid.jsonl", grid_jsonl_gate(jsonl_axes, seed)),
        _cli("deriv", ["deriv", *_model_flags({**FIG2, "lambda": 5.0}), "--wrt", "lambda",
                       "--from", _num(deriv[0]), "--to", _num(deriv[1]), "--step", _num(deriv[2]),
                       "--delta", _num(inp["deriv_delta"])],
             "deriv.csv", deriv_gate(*deriv, inp["deriv_delta"], seed)),
    ]


# --------------------------------------------------------------------------
# ED gates


def parse_ed(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def check_ed_records(records: list[dict], n_list) -> list[str]:
    """Every record: the requested N, converged, cutoff shift <= 1e-8."""
    if [r["n_atoms"] for r in records] != list(n_list):
        return [f"ed: records for N = {[r['n_atoms'] for r in records]}, expected {list(n_list)}"]
    failures = []
    for r in records:
        if r["converged"] is not True:
            failures.append(f"ed N={r['n_atoms']}: not converged")
        if not r["cutoff_shift"] <= ED_SHIFT_MAX:
            failures.append(f"ed N={r['n_atoms']}: cutoff shift {r['cutoff_shift']:.3e} > {ED_SHIFT_MAX}")
    return failures


def check_deviation_falls(records: list[dict]) -> list[str]:
    devs = [r["mean_field_deviation"] for r in records]
    if any(d is None for d in devs) or not all(a > b for a, b in zip(devs, devs[1:])):
        return [f"ed: mean-field deviation not strictly falling with N: {devs}"]
    return []


def check_qubit_blocks(qubit: dict, upper: dict, lower: dict, omega_q_prime: float) -> list[str]:
    """FullQubit E/N is the lower of the two sigma_z blocks, FixedDelta(+1) and (-1).

    The blocks carry +-omega_q'/2 on the whole block, i.e. +-omega_q'/(2N) per atom.
    """
    n = qubit["n_atoms"]
    expected = min(upper["energy_per_atom"] + omega_q_prime / (2 * n),
                   lower["energy_per_atom"] - omega_q_prime / (2 * n))
    if abs(qubit["energy_per_atom"] - expected) > ED_QUBIT_TOL:
        return [f"ed full-qubit E/N {qubit['energy_per_atom']!r} != lower block {expected!r}"]
    return []


def parity_mixed(records: list[dict]) -> int:
    """Records whose parity is more than PARITY_TOL away from +-1 (reported, not gated)."""
    return sum(1 for r in records
               if r.get("parity") is not None and abs(abs(r["parity"]) - 1.0) > PARITY_TOL)


def _ed_gate(key: str, n_list, cross=None):
    def check(records, data, ctx):
        ctx.setdefault("ed", {})[key] = records
        failures = check_ed_records(records, n_list)
        if not failures and cross is not None:
            failures = cross(ctx["ed"])
        return failures

    return _guard(parse_ed, check)


def ed_scan(seed: int) -> list[Proc]:
    inp = ed_inputs(seed)
    base = ["ed", *_model_flags(ED_PARAMS)]
    wq = inp["omega_q_prime"]

    def scan_falls(ed):
        if "scan" not in ed:
            return ["ed: N-scan records missing"]
        return check_deviation_falls(ed["scan"] + ed["largest"])

    def blocks_agree(ed):
        if "upper" not in ed or "lower" not in ed:
            return ["ed: FixedDelta(+-1) block records missing"]
        return check_qubit_blocks(ed["qubit"][0], ed["upper"][0], ed["lower"][0], wq)

    n_scan = [a for n in ED_SCAN_N for a in ("--n", str(n))]
    return [
        _cli("ed-scan", base + ["--delta", _num(ED_DELTA), *n_scan], "ed_scan.jsonl",
             _ed_gate("scan", ED_SCAN_N)),
        _cli("ed-largest", base + ["--delta", _num(ED_DELTA), "--n", str(ED_LARGEST_N)],
             "ed_largest.jsonl", _ed_gate("largest", [ED_LARGEST_N], scan_falls)),
        _cli("ed-upper", base + ["--delta", "1.0", "--n", str(ED_QUBIT_N)], "ed_upper.jsonl",
             _ed_gate("upper", [ED_QUBIT_N])),
        _cli("ed-lower", base + ["--delta", "-1.0", "--n", str(ED_QUBIT_N)], "ed_lower.jsonl",
             _ed_gate("lower", [ED_QUBIT_N])),
        _cli("ed-qubit", base + ["--full-qubit", "--omega-q-prime", _num(wq), "--n", str(ED_QUBIT_N)],
             "ed_qubit.jsonl", _ed_gate("qubit", [ED_QUBIT_N], blocks_agree)),
    ]


# --------------------------------------------------------------------------
# Oracle gates


def check_oracle(doc: dict, draws: int, spectra: int, measures: int) -> list[str]:
    """Closed form vs minimizer, Hessian vs normal-phase spectrum, measurement identities."""
    failures = []
    if (len(doc["draws"]), len(doc["spectra"]), len(doc["measures"])) != (draws, spectra, measures):
        return ["oracle: record counts differ from the request"]
    gap = max((max(abs(c - n) for c, n in zip(rec[:3], rec[3:])) for rec in doc["draws"]),
              default=0.0)
    if not gap <= ORACLE_GAP_MAX:
        failures.append(f"oracle: worst closed-form/minimizer gap {gap:.3e} > {ORACLE_GAP_MAX}")
    for em, ep, rm, rp in doc["spectra"]:
        if max(abs(em - rm), abs(ep - rp)) > SPECTRUM_RTOL * max(1.0, rp):
            failures.append(f"oracle: spectrum ({em}, {ep}) != normal-phase ({rm}, {rp})")
            break
    for z, target, theta, sign, prob, delta, r00, r01, r10, r11 in doc["measures"]:
        identities = (
            prob - 0.5,
            delta - target,
            delta - sign * z * math.cos(2.0 * theta),
            r00 + r11 - 1.0,
            r00 - r11 - delta,
            r01 - r10,
        )
        if max(abs(x) for x in identities) > MEASURE_TOL:
            failures.append(f"oracle: measurement identities fail at z={z}, target={target}")
            break
    return failures


def oracle_gate(draws: int, spectra: int, measures: int):
    return _guard(lambda data: json.loads(data),
                  lambda doc, data, ctx: check_oracle(doc, draws, spectra, measures))


def oracle_proc(script: str, seed: int, draws: int, spectra: int, measures: int) -> Proc:
    out = "oracle.json"
    return Proc(tag="oracle", argv=[script, "--seed", str(seed), "--draws", str(draws),
                                    "--spectra", str(spectra), "--measures", str(measures),
                                    "--out", out],
                output=out, gate=oracle_gate(draws, spectra, measures), points=draws)


def oracle_check(seed: int, script: str) -> list[Proc]:
    return [oracle_proc(script, seed, ORACLE_DRAWS, ORACLE_SPECTRA, ORACLE_MEASURES)]


# --------------------------------------------------------------------------
# Set-up probes: each workload's entry point on a trivial input


def setup_proc(workload: str, oracle_script: str) -> Proc:
    if workload == "meanfield-grid":
        axes = ((0.0, 0.0, 1), (5.0, 5.0, 1))
        return _cli("setup", _sweep_args(FIG2, axes), "setup.csv",
                    _guard(parse_phase_csv, lambda rows, data, ctx: check_grid_rows(rows, FIG2, axes)))
    if workload == "ed-scan":
        return _cli("setup", ["ed", *_model_flags(ED_PARAMS), "--delta", _num(ED_DELTA), "--n", "2"],
                    "setup.jsonl", _ed_gate("setup", [2]))
    return oracle_proc(oracle_script, CANONICAL_SEED, 0, 0, 0)


def cycle(workload: str, seed: int, oracle_script: str) -> list[Proc]:
    if workload == "meanfield-grid":
        return meanfield_grid(seed)
    if workload == "ed-scan":
        return ed_scan(seed)
    return oracle_check(seed, oracle_script)


# The process whose wall time is the workload's main_proc_s.
MAIN_PROC = {"meanfield-grid": "sweep-csv", "ed-scan": "ed-largest", "oracle-check": "oracle"}
