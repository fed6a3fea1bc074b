"""Command-line interface for the toolkit.

Subcommands
-----------
critical   locate the phase boundary in delta (given lambda) or lambda (given delta)
meanfield  equilibrium amplitudes and observables at one point
sweep      (delta, lambda) phase-diagram grid as CSV or JSON lines
deriv      ground-state-energy scan with central differences, as CSV
spectrum   collective excitation energies at one point
ed         finite-size ground states as JSON lines
measure    Werner-state projective preparation of the impurity population

Model parameters come from flags whose defaults pin the reference parameter
set (omega = 400, omega0 = 1, kappa = -0.5, lambda = 5).  A JSON config file
(--config) may supply any option under its flag name (dashes as underscores,
`lambda` spelled out); explicit flags win over the config file, and unknown
config keys are rejected.  The handlers return nothing and raise; main alone
maps a run to its exit code: 0 success, 1 invalid input or an output that
cannot be written (a closed stdout pipe among them), 2 solver convergence
failure.  Set IDDM_THREADS before launching to pin the linear algebra thread
count (it is applied when the package is first imported).
Only ed imports numpy, and only --config loads json; no subcommand loads
dataclasses (the records are NamedTuples: copy one by _replace).

ed runs N = 100 without --n, doubles its photon cutoff until converged, solves
to machine precision, and includes chi Jz^2/N whenever --chi is nonzero.

Every subcommand is deterministic: the same invocation produces byte
identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from typing import Callable, NamedTuple, Sequence

from .errors import ConvergenceFailureError, IDDMError
from .meanfield import (
    _derivative_rows,
    critical_delta,
    critical_lambda,
    equilibrium_closed_form,
    equilibrium_numeric,
    observables,
)
from .model import ModelParams
from .sweep import (GridSpec, _json_line, _write_chunks, run_grid, write_phase_diagram_csv,
                    write_phase_diagram_jsonl)

__all__ = ["main", "run"]


class CLIError(Exception):
    """Bad command line or config file; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


class _Opt(NamedTuple):
    flag: str
    dest: str
    conv: Callable | None = None
    default: object = None
    help: str = ""
    action: str = "store"  # an argparse action: store, store_const (a flag) or append
    choices: tuple | None = None
    required: bool = False

    @property
    def key(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_MODEL_OPTS = [
    _Opt("--omega", "omega", float, 400.0, "cavity frequency"),
    _Opt("--omega0", "omega0", float, 1.0, "atomic transition frequency"),
    _Opt("--lambda", "lam", float, 5.0, "collective atom-field coupling"),
    _Opt("--kappa", "kappa", float, -0.5, "impurity-condensate coupling"),
    _Opt("--chi", "chi", float, 0.0, "atomic nonlinearity"),
    _Opt("--xi1", "xi1", float, 0.0, "dispersive impurity shift of the cavity"),
    _Opt("--xi2", "xi2", float, 0.0, "impurity-induced cavity displacement"),
    _Opt("--omega-q-prime", "omega_q_prime", float, 0.0, "shifted impurity splitting"),
]


def _add_opts(parser: argparse.ArgumentParser, opts: list[_Opt]) -> None:
    for o in opts:
        kind = {"const": True} if o.action == "store_const" else {"type": o.conv, "choices": o.choices}
        parser.add_argument(o.flag, dest=o.dest, action=o.action, default=None, help=o.help, **kind)


def _build_parser(command: str | None) -> _Parser:
    """The named command's subparser alone, with its options; every subcommand, without
    options, when command names none (for --help and the usage errors)."""
    parser = _Parser(prog="iddm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, _, opts = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name == command:
            p.add_argument("--config", dest="config", default=None, help="JSON config file")
            _add_opts(p, _MODEL_OPTS + opts)
    return parser


def _convert(conv: Callable, raw):
    """conv(raw) for a config value: a string option takes only a string, a
    number no boolean, and an integer only an integral number (8.0 is 8)."""
    if isinstance(raw, bool) or (conv is str and not isinstance(raw, str)):
        raise TypeError(raw)
    if conv is int and isinstance(raw, float) and not raw.is_integer():
        raise ValueError(raw)
    return conv(raw)


def _coerce(o: _Opt, raw):
    if o.action == "store_const":
        if not isinstance(raw, bool):
            raise CLIError(f"config key {o.key!r} must be a boolean")
        return raw
    if o.action == "append":
        items = raw if isinstance(raw, list) and raw else [raw]  # [] fails _convert below
        try:
            return [_convert(o.conv, v) for v in items]
        except (TypeError, ValueError):
            raise CLIError(f"config key {o.key!r} must be an integer or a nonempty list of integers")
    try:
        value = _convert(o.conv, raw)
    except (TypeError, ValueError, OverflowError):  # float() of an integer past the float range overflows
        raise CLIError(f"config key {o.key!r}: cannot convert {raw!r}")
    if o.choices and value not in o.choices:
        raise CLIError(f"config key {o.key!r} must be one of {o.choices}")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import json  # here, so that only a run with --config loads it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise CLIError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CLIError("config file must hold a JSON object")
    return data


def _merge(ns: argparse.Namespace, opts: list[_Opt], config: dict):
    unknown = sorted(set(config) - {o.key for o in opts})
    if unknown:
        raise CLIError(f"unknown config keys: {', '.join(unknown)}")
    values, provided = {}, set()
    for o in opts:
        v = getattr(ns, o.dest)
        if v is None and o.key in config:
            v = _coerce(o, config[o.key])
        if v is not None:
            provided.add(o.key)
        elif o.required:
            raise CLIError(f"missing required option {o.flag}")
        values[o.dest] = o.default if v is None else v
    return values, provided


def _params(v: dict) -> ModelParams:
    return ModelParams(**{o.dest: v[o.dest] for o in _MODEL_OPTS})


def _fmt(x: float) -> str:
    return "%.17g" % x


def _check_output(path: str | None) -> None:
    """Raise open()'s error, creating nothing, for an --output that is a directory or has no directory parent."""
    if path in (None, "-"):
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:  # the trailing separator makes stat refuse a parent that is a regular file
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _out_stream(path: str):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_critical(v: dict, provided: set) -> None:
    has_lam = "lambda" in provided
    has_delta = "delta" in provided
    if has_lam == has_delta:
        raise CLIError("exactly one of --lambda or --delta must be given")
    params = _params(v)
    if has_delta:
        lc = critical_lambda(params, v["delta"])
        print("no-transition" if lc is None else f"lambda_c = {_fmt(lc)}")
    else:
        dc = critical_delta(params)
        print("no-transition" if dc is None else f"delta_c = {_fmt(dc)}")


def _cmd_meanfield(v: dict, provided: set) -> None:
    params = _params(v)
    if v["numeric"]:
        sol = equilibrium_numeric(params, v["delta"], seed_count=v["seeds"],
                                  max_iterations=v["solver_maxiter"])
    else:
        sol = equilibrium_closed_form(params, v["delta"])
    jz, photons = observables(sol)
    print(f"phase = {sol.phase.value}")
    print(f"alpha = {_fmt(sol.alpha)}")
    print(f"beta = {_fmt(sol.beta)}")
    print(f"alpha2 = {_fmt(sol.alpha2)}")
    print(f"beta2 = {_fmt(sol.beta2)}")
    print(f"e0 = {_fmt(sol.e0)}")
    print(f"nu = {'undefined' if sol.nu is None else _fmt(sol.nu)}")
    print(f"jz_over_n = {_fmt(jz)}")
    print(f"i_over_n = {_fmt(photons)}")


def _cmd_sweep(v: dict, provided: set) -> None:
    spec = GridSpec(
        params=_params(v),
        delta_range=(v["delta_min"], v["delta_max"], v["delta_count"]),
        lambda_range=(v["lambda_min"], v["lambda_max"], v["lambda_count"]),
    )
    rows = run_grid(spec)
    write = write_phase_diagram_csv if v["format"] == "csv" else write_phase_diagram_jsonl
    with _out_stream(v["output"]) as out:
        write(rows, out)


def _cmd_deriv(v: dict, provided: set) -> None:
    _, rows = _derivative_rows(_params(v), v["wrt"], v["start"], v["stop"], v["step"], delta=v["delta"])
    for _ in rows():  # a checking pass: a refused scan opens no --output and writes nothing
        pass
    row, edge = (v["wrt"] + tail for tail in (",%.17g,%.17g,%.17g,%.17g\n", ",%.17g,%.17g,,\n"))
    with _out_stream(v["output"]) as out:
        out.write("param,value,e0,d1,d2\n")
        _write_chunks(out, (row % r if r[2] is not None else edge % r[:2] for r in rows()))


def _cmd_spectrum(v: dict, provided: set) -> None:
    from .fluctuations import excitation_spectrum

    res = excitation_spectrum(_params(v), v["delta"])
    print(f"eps_minus = {_fmt(res.eps_minus)}")
    print(f"eps_plus = {_fmt(res.eps_plus)}")
    print(f"stable = {str(res.stable).lower()}")


def _cmd_ed(v: dict, provided: set) -> None:
    from . import ed as ed_mod

    params = _params(v)
    if v["full_qubit"] and "delta" in provided:
        raise CLIError("--delta does not apply to --full-qubit runs")
    mode = ed_mod.FullQubit() if v["full_qubit"] else ed_mod.FixedDelta(v["delta"])
    configs = [ed_mod.EDConfig(n_atoms=n, photon_cutoff=v["cutoff"], impurity_mode=mode,
                               dimension_cap=v["dimension_cap"]) for n in v["n"]]
    if v["full_qubit"]:
        results = [ed_mod.ground_state(params, c) for c in configs]
    else:
        results = ed_mod.finite_size_scan(params, v["delta"], v["n"], config=configs[0])
    with _out_stream(v["output"]) as out:
        _write_chunks(out, (_json_line(r._asdict()) for r in results))


def _cmd_measure(v: dict, provided: set) -> None:
    from .measurement import ProjectiveMeasurement, Sign, WernerState, angle_for_target_delta, measure

    z = v["z"]
    if v["target"] is not None:
        if v["theta"] is not None or v["sign"] is not None:
            raise CLIError("--target replaces --theta/--sign")
        theta, sign = angle_for_target_delta(z, v["target"])
    else:
        if v["theta"] is None:
            raise CLIError("missing required option --theta (or --target)")
        theta = v["theta"]
        sign = Sign(v["sign"]) if v["sign"] is not None else Sign.PLUS
    outcome = measure(WernerState(z), ProjectiveMeasurement(theta, sign))
    print(f"theta = {_fmt(theta)}")
    print(f"sign = {sign.value}")
    print(f"probability = {_fmt(outcome.probability)}")
    print(f"delta = {_fmt(outcome.delta)}")
    for ij, x in zip(("00", "01", "10", "11"), (outcome.rho00, outcome.rho01, outcome.rho01, outcome.rho11)):
        print(f"rho_{ij} = {_fmt(x)}")


# name -> (help, handler, options beyond the model's), in the order of --help
_COMMANDS = {
    "critical": ("locate the phase boundary", _cmd_critical, [
        _Opt("--delta", "delta", float, None, "solve for lambda_c at this population"),
    ]),
    "meanfield": ("mean-field equilibrium at one point", _cmd_meanfield, [
        _Opt("--delta", "delta", float, None, "impurity population", required=True),
        _Opt("--numeric", "numeric", None, False, "use the multistart minimizer", action="store_const"),
        _Opt("--seeds", "seeds", int, 8, "number of minimizer starts"),
        _Opt("--solver-maxiter", "solver_maxiter", int, 500, "iteration budget per start"),
    ]),
    "sweep": ("phase-diagram grid over (delta, lambda)", _cmd_sweep, [
        _Opt("--delta-min", "delta_min", float, -1.0, "lower edge of the delta axis"),
        _Opt("--delta-max", "delta_max", float, 1.0, "upper edge of the delta axis"),
        _Opt("--delta-count", "delta_count", int, 201, "points on the delta axis"),
        _Opt("--lambda-min", "lambda_min", float, 0.0, "lower edge of the lambda axis"),
        _Opt("--lambda-max", "lambda_max", float, 12.0, "upper edge of the lambda axis"),
        _Opt("--lambda-count", "lambda_count", int, 121, "points on the lambda axis"),
        _Opt("--format", "format", str, "csv", "output format", choices=("csv", "json-lines")),
        _Opt("--output", "output", str, "-", "output path, - for stdout"),
    ]),
    "deriv": ("energy scan with first/second differences", _cmd_deriv, [
        _Opt("--wrt", "wrt", str, None, "scan parameter", choices=("delta", "lambda"), required=True),
        _Opt("--from", "start", float, None, "scan start", required=True),
        _Opt("--to", "stop", float, None, "scan end", required=True),
        _Opt("--step", "step", float, None, "grid step", required=True),
        _Opt("--delta", "delta", float, None, "fixed population for lambda scans"),
        _Opt("--output", "output", str, "-", "output path, - for stdout"),
    ]),
    "spectrum": ("collective excitation energies", _cmd_spectrum, [
        _Opt("--delta", "delta", float, None, "impurity population", required=True),
    ]),
    "ed": ("finite-size exact diagonalization", _cmd_ed, [
        _Opt("--n", "n", int, (100,), "atom number, repeatable", action="append"),
        _Opt("--delta", "delta", float, 0.0, "frozen impurity population"),
        _Opt("--full-qubit", "full_qubit", None, False, "keep the impurity dynamical", action="store_const"),
        _Opt("--cutoff", "cutoff", int, 8, "first displaced-photon cutoff (raised until converged)"),
        _Opt("--dimension-cap", "dimension_cap", int, 1_000_000, "refuse larger Hilbert spaces"),
        _Opt("--output", "output", str, "-", "output path, - for stdout"),
    ]),
    "measure": ("measurement-based impurity preparation", _cmd_measure, [
        _Opt("--z", "z", float, None, "Werner mixing parameter", required=True),
        _Opt("--theta", "theta", float, None, "measurement angle in radians"),
        _Opt("--sign", "sign", str, None, "measurement outcome", choices=("plus", "minus")),
        _Opt("--target", "target", float, None, "solve for the angle reaching this population"),
    ]),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        ns = parser.parse_args(argv)
        config = _load_config(ns.config)
        _, handler, opts = _COMMANDS[ns.command]
        values, provided = _merge(ns, _MODEL_OPTS + opts, config)
        _check_output(values.get("output"))  # before the run, not after it
        handler(values, provided)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return 0
    except (CLIError, IDDMError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader has gone: what stdout still buffers goes nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConvergenceFailureError) else 1


def run() -> None:
    sys.exit(main(sys.argv[1:]))
