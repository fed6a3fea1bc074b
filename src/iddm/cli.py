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
config keys are rejected.  Exit codes: 0 success, 1 invalid input, 2 solver
convergence failure.  Set IDDM_THREADS before launching to pin the linear
algebra thread count (it is applied when the package is first imported).

Every subcommand is deterministic: the same invocation produces byte
identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .errors import ConvergenceFailureError, IDDMError
from .fluctuations import excitation_spectrum
from .meanfield import (
    critical_delta,
    critical_lambda,
    derivative_scan,
    equilibrium_closed_form,
    equilibrium_numeric,
    observables,
)
from .measurement import ProjectiveMeasurement, Sign, WernerState, angle_for_target_delta, measure
from .model import ModelParams
from .sweep import GridSpec, _fmt, run_grid, write_phase_diagram_csv

__all__ = ["main", "run"]


class CLIError(Exception):
    """Bad command line or config file; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


@dataclass(frozen=True)
class _Opt:
    flag: str
    dest: str
    conv: Callable | None = None
    default: object = None
    help: str = ""
    action: str = "value"  # value | flag | append_int
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
    _Opt("--n-atoms", "n_atoms", int, 100, "atom number"),
]

_COMMAND_OPTS = {
    "critical": [
        _Opt("--delta", "delta", float, None, "solve for lambda_c at this population"),
    ],
    "meanfield": [
        _Opt("--delta", "delta", float, None, "impurity population", required=True),
        _Opt("--numeric", "numeric", None, False, "use the multistart minimizer", action="flag"),
        _Opt("--seeds", "seeds", int, 8, "number of minimizer starts"),
        _Opt("--solver-maxiter", "solver_maxiter", int, 500, "iteration budget per start"),
    ],
    "sweep": [
        _Opt("--delta-min", "delta_min", float, -1.0, "lower edge of the delta axis"),
        _Opt("--delta-max", "delta_max", float, 1.0, "upper edge of the delta axis"),
        _Opt("--delta-count", "delta_count", int, 201, "points on the delta axis"),
        _Opt("--lambda-min", "lambda_min", float, 0.0, "lower edge of the lambda axis"),
        _Opt("--lambda-max", "lambda_max", float, 12.0, "upper edge of the lambda axis"),
        _Opt("--lambda-count", "lambda_count", int, 121, "points on the lambda axis"),
        _Opt("--format", "format", str, "csv", "output format", choices=("csv", "json-lines")),
        _Opt("--output", "output", str, "-", "output path, - for stdout"),
    ],
    "deriv": [
        _Opt("--wrt", "wrt", str, None, "scan parameter", choices=("delta", "lambda"), required=True),
        _Opt("--from", "start", float, None, "scan start", required=True),
        _Opt("--to", "stop", float, None, "scan end", required=True),
        _Opt("--step", "step", float, None, "grid step", required=True),
        _Opt("--delta", "delta", float, None, "fixed population for lambda scans"),
        _Opt("--output", "output", str, "-", "output path, - for stdout"),
    ],
    "spectrum": [
        _Opt("--delta", "delta", float, None, "impurity population", required=True),
    ],
    "ed": [
        _Opt("--n", "n", None, None, "atom number, repeatable", action="append_int"),
        _Opt("--delta", "delta", float, 0.0, "frozen impurity population"),
        _Opt("--full-qubit", "full_qubit", None, False, "keep the impurity dynamical", action="flag"),
        _Opt("--cutoff", "cutoff", int, 8, "first displaced-photon cutoff (raised until converged)"),
        _Opt("--include-chi", "include_chi", None, False, "include the chi Jz^2 term", action="flag"),
        _Opt("--convergence-factor", "convergence_factor", float, 2.0, "cutoff enlargement factor"),
        _Opt("--solver-tol", "solver_tol", float, 0.0, "eigensolver residual tolerance"),
        _Opt("--dimension-cap", "dimension_cap", int, 1_000_000, "refuse larger Hilbert spaces"),
        _Opt("--output", "output", str, "-", "output path, - for stdout"),
    ],
    "measure": [
        _Opt("--z", "z", float, None, "Werner mixing parameter", required=True),
        _Opt("--theta", "theta", float, None, "measurement angle in radians"),
        _Opt("--sign", "sign", str, None, "measurement outcome", choices=("plus", "minus")),
        _Opt("--target", "target", float, None, "solve for the angle reaching this population"),
    ],
}

_COMMAND_HELP = {
    "critical": "locate the phase boundary",
    "meanfield": "mean-field equilibrium at one point",
    "sweep": "phase-diagram grid over (delta, lambda)",
    "deriv": "energy scan with first/second differences",
    "spectrum": "collective excitation energies",
    "ed": "finite-size exact diagonalization",
    "measure": "measurement-based impurity preparation",
}


def _add_opts(parser: argparse.ArgumentParser, opts: list[_Opt]) -> None:
    for o in opts:
        if o.action == "flag":
            parser.add_argument(o.flag, dest=o.dest, action="store_const", const=True,
                                default=None, help=o.help)
        elif o.action == "append_int":
            parser.add_argument(o.flag, dest=o.dest, action="append", type=int,
                                default=None, help=o.help)
        else:
            kwargs = {"dest": o.dest, "type": o.conv, "default": None, "help": o.help}
            if o.choices:
                kwargs["choices"] = o.choices
            parser.add_argument(o.flag, **kwargs)


def _build_parser() -> _Parser:
    parser = _Parser(prog="iddm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)
    for name, opts in _COMMAND_OPTS.items():
        p = sub.add_parser(name, help=_COMMAND_HELP[name])
        p.add_argument("--config", dest="config", default=None, help="JSON config file")
        _add_opts(p, _MODEL_OPTS)
        _add_opts(p, opts)
    return parser


def _coerce(o: _Opt, raw):
    if o.action == "flag":
        if not isinstance(raw, bool):
            raise CLIError(f"config key {o.key!r} must be a boolean")
        return raw
    if o.action == "append_int":
        items = raw if isinstance(raw, list) else [raw]
        try:
            return [int(v) for v in items]
        except (TypeError, ValueError):
            raise CLIError(f"config key {o.key!r} must be an integer or list of integers")
    try:
        value = o.conv(raw)
    except (TypeError, ValueError):
        raise CLIError(f"config key {o.key!r}: cannot convert {raw!r}")
    if o.choices and value not in o.choices:
        raise CLIError(f"config key {o.key!r} must be one of {o.choices}")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
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
    known = {o.key for o in opts}
    unknown = sorted(set(config) - known)
    if unknown:
        raise CLIError(f"unknown config keys: {', '.join(unknown)}")
    values, provided = {}, set()
    for o in opts:
        v = getattr(ns, o.dest)
        if v is not None:
            provided.add(o.key)
        elif o.key in config:
            v = _coerce(o, config[o.key])
            provided.add(o.key)
        else:
            v = o.default
        if v is None and o.required:
            raise CLIError(f"missing required option {o.flag}")
        values[o.dest] = v
    return values, provided


def _params(v: dict) -> ModelParams:
    return ModelParams(
        omega=v["omega"], lam=v["lam"], kappa=v["kappa"], omega0=v["omega0"],
        chi=v["chi"], xi1=v["xi1"], xi2=v["xi2"],
        omega_q_prime=v["omega_q_prime"], n_atoms=v["n_atoms"],
    )


@contextlib.contextmanager
def _out_stream(path: str):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _cmd_critical(v: dict, provided: set) -> int:
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
    return 0


def _cmd_meanfield(v: dict, provided: set) -> int:
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
    return 0


def _json_num(x: float):
    return None if math.isnan(x) else x


def _cmd_sweep(v: dict, provided: set) -> int:
    spec = GridSpec(
        params=_params(v),
        delta_range=(v["delta_min"], v["delta_max"], v["delta_count"]),
        lambda_range=(v["lambda_min"], v["lambda_max"], v["lambda_count"]),
    )
    rows = run_grid(spec)
    with _out_stream(v["output"]) as out:
        if v["format"] == "csv":
            write_phase_diagram_csv(rows, out)
        else:
            for r in rows:
                out.write(json.dumps({
                    "delta": r.delta, "lambda": r.lam,
                    "alpha2": _json_num(r.alpha2), "beta2": _json_num(r.beta2),
                    "e0": _json_num(r.e0), "jz_over_n": _json_num(r.jz_over_n),
                    "i_over_n": _json_num(r.i_over_n),
                    "phase": r.phase, "error": r.error,
                }) + "\n")
    return 0


def _cmd_deriv(v: dict, provided: set) -> int:
    params = _params(v)
    delta = v["delta"] if v["wrt"] == "lambda" else None
    if v["wrt"] == "delta" and "delta" in provided:
        raise CLIError("--delta only applies to lambda scans")
    scan = derivative_scan(params, v["wrt"], v["start"], v["stop"], v["step"], delta=delta)
    with _out_stream(v["output"]) as out:
        out.write("param,value,e0,d1,d2\n")
        last = len(scan.grid) - 1
        for i, (value, e0) in enumerate(zip(scan.grid, scan.e0_values)):
            if 0 < i < last:
                d1, d2 = _fmt(scan.d1_values[i - 1]), _fmt(scan.d2_values[i - 1])
            else:
                d1 = d2 = ""  # central differences have no edge values
            out.write(f"{scan.parameter_name},{_fmt(value)},{_fmt(e0)},{d1},{d2}\n")
    return 0


def _cmd_spectrum(v: dict, provided: set) -> int:
    res = excitation_spectrum(_params(v), v["delta"])
    print(f"eps_minus = {_fmt(res.eps_minus)}")
    print(f"eps_plus = {_fmt(res.eps_plus)}")
    print(f"stable = {str(res.stable).lower()}")
    return 0


def _cmd_ed(v: dict, provided: set) -> int:
    from . import ed as ed_mod  # here, so that only ED runs load scipy

    params = _params(v)
    n_list = v["n"] if v["n"] else [params.n_atoms]
    if v["full_qubit"] and "delta" in provided:
        raise CLIError("--delta does not apply to --full-qubit runs")
    mode = ed_mod.FullQubit() if v["full_qubit"] else ed_mod.FixedDelta(v["delta"])
    base = ed_mod.EDConfig(
        n_atoms=n_list[0], photon_cutoff=v["cutoff"], impurity_mode=mode,
        include_chi=v["include_chi"], convergence_factor=v["convergence_factor"],
        solver_tolerance=v["solver_tol"], dimension_cap=v["dimension_cap"],
    )
    records = []
    if v["full_qubit"]:
        for n in n_list:
            res = ed_mod.ground_state(params, replace(base, n_atoms=n))
            records.append((n, res, None))
    else:
        for entry in ed_mod.finite_size_scan(params, v["delta"], n_list, config=base):
            records.append((entry.n_atoms, entry.result, entry.mean_field_deviation))
    with _out_stream(v["output"]) as out:
        for n, r, dev in records:
            out.write(json.dumps({
                "n_atoms": n, "photon_cutoff": r.photon_cutoff,
                "energy_per_atom": r.energy_per_atom,
                "jz_over_n": r.jz_over_n, "photons_over_n": r.photons_over_n,
                "parity": r.parity, "converged": r.converged,
                "cutoff_shift": r.cutoff_shift, "mean_field_deviation": dev,
                "sector_gap": r.sector_gap, "cutoff_raises": r.cutoff_raises,
            }) + "\n")
    return 0


def _cmd_measure(v: dict, provided: set) -> int:
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
    rho = outcome.density_matrix
    print(f"theta = {_fmt(theta)}")
    print(f"sign = {sign.value}")
    print(f"probability = {_fmt(outcome.probability)}")
    print(f"delta = {_fmt(outcome.delta)}")
    for i in range(2):
        for j in range(2):
            print(f"rho_{i}{j} = {_fmt(rho[i, j].real)}")
    return 0


_DISPATCH = {
    "critical": _cmd_critical,
    "meanfield": _cmd_meanfield,
    "sweep": _cmd_sweep,
    "deriv": _cmd_deriv,
    "spectrum": _cmd_spectrum,
    "ed": _cmd_ed,
    "measure": _cmd_measure,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        config = _load_config(ns.config)
        opts = _MODEL_OPTS + _COMMAND_OPTS[ns.command]
        values, provided = _merge(ns, opts, config)
        return _DISPATCH[ns.command](values, provided)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IDDMError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main(sys.argv[1:]))
