"""Phase-diagram sweeps over the (delta, lambda) plane and their serialization.

run_grid evaluates the closed-form equilibrium on a rectangular grid and
never aborts on a bad point: rows where the equilibrium is refused (for
instance nu <= -1) are kept, tagged in the error column, with the numeric
columns set to nan.  The CSV layout is part of the contract:

    delta,lambda,alpha2,beta2,e0,jz_over_n,i_over_n,phase,error

with floats at 17 significant digits, LF line endings and UTF-8 encoding, so
repeated runs of the same grid are byte-identical.  The JSON-lines layout
holds one object per row with the same keys (lam written as "lambda"),
byte-identical to json.dumps of that dict with the nan numerics as null.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, NamedTuple, TextIO

from .errors import (
    ChiUnsupportedError,
    IDDMError,
    InvalidParameterError,
    NonPositiveF1Error,
    UnboundedPhaseError,
)
from .meanfield import _SUPERRADIANT, _linspace, _new_tuple, critical_lambda, equilibrium_closed_form
from .model import ModelParams, _checked, check_count

__all__ = [
    "GridSpec",
    "PhaseDiagramRow",
    "CSV_HEADER",
    "run_grid",
    "trace_critical_curve",
    "write_phase_diagram_csv",
    "write_phase_diagram_jsonl",
]

CSV_HEADER = "delta,lambda,alpha2,beta2,e0,jz_over_n,i_over_n,phase,error"
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s\n"
_CSV_CHUNK = 2048  # lines per write: the document is never held as one string
# phase and error are Phase values or error tags: ASCII words that JSON quotes as they are
_JSON_ROW = ('{"delta": %s, "lambda": %s, "alpha2": %s, "beta2": %s, "e0": %s, '
             '"jz_over_n": %s, "i_over_n": %s, "phase": "%s", "error": "%s"}\n')

# alpha2, beta2, e0, jz_over_n, i_over_n at alpha = beta = 0: every normal and critical row
_ORIGIN_COLUMNS = (0.0, 0.0, 0.0, -0.5, 0.0)

_ERROR_TAGS = {
    UnboundedPhaseError: "unbounded_phase",
    NonPositiveF1Error: "non_positive_f1",
    ChiUnsupportedError: "chi_unsupported",
}


@_checked
class GridSpec(NamedTuple):
    """Rectangular sweep grid; each range is (min, max, count), its span finite."""

    params: ModelParams
    delta_range: tuple[float, float, int] = (-1.0, 1.0, 201)
    lambda_range: tuple[float, float, int] = (0.0, 12.0, 121)

    def _check(self):
        for name, (lo, hi, count) in (("delta", self.delta_range), ("lambda", self.lambda_range)):
            check_count(f"{name} count", count)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidParameterError(f"{name} range edges must be finite, got ({lo}, {hi})")
            if lo > hi:
                raise InvalidParameterError(f"{name} range must have min <= max")
            if hi - lo == math.inf:
                raise InvalidParameterError(f"{name} range span {hi} - {lo} overflows")
            if count == 1 and lo != hi:
                raise InvalidParameterError(f"single-point {name} range needs min == max")


class PhaseDiagramRow(NamedTuple):
    """One grid point; numeric fields are nan when error is nonempty."""

    delta: float
    lam: float
    alpha2: float
    beta2: float
    e0: float
    jz_over_n: float
    i_over_n: float
    phase: str
    error: str = ""


def _error_tag(exc: IDDMError) -> str:
    for cls, tag in _ERROR_TAGS.items():
        if isinstance(exc, cls):
            return tag
    return "invalid_parameter"


def run_grid(spec: GridSpec) -> list[PhaseDiagramRow]:
    """Closed-form equilibrium on the full grid, delta outer, lambda inner."""
    columns = []  # one ModelParams per lambda; a refused lambda tags its whole column
    for lam in _linspace(*spec.lambda_range):
        try:
            columns.append((lam, spec.params._replace(lam=lam), ""))
        except IDDMError as exc:
            columns.append((lam, None, _error_tag(exc)))
    rows = []
    nan = math.nan
    for delta in _linspace(*spec.delta_range):
        for lam, params, error in columns:
            if not error:
                try:
                    alpha, beta, e0, _, phase = equilibrium_closed_form(params, delta)
                except IDDMError as exc:
                    error = _error_tag(exc)
            if error:
                rows.append(PhaseDiagramRow(delta, lam, nan, nan, nan, nan, nan, "error", error))
            elif phase is _SUPERRADIANT:
                alpha2, beta2 = alpha**2, beta**2
                rows.append(_new_tuple(PhaseDiagramRow, (delta, lam, alpha2, beta2, e0, beta2 - 0.5, alpha2,
                                                         "superradiant", "")))
            else:  # _value_ skips the Enum's `value` property
                rows.append(_new_tuple(PhaseDiagramRow, (delta, lam, *_ORIGIN_COLUMNS, phase._value_, "")))
    return rows


def trace_critical_curve(
    params: ModelParams, delta_range: tuple[float, float] = (-1.0, 1.0), count: int = 201
) -> list[tuple[float, float | None]]:
    """lambda_c(delta) along a delta grid; None where no finite threshold exists."""
    check_count("count", count)
    lo, hi = delta_range
    return [(d, critical_lambda(params, d)) for d in _linspace(lo, hi, count)]


def _json_float(x: float, nan: str) -> str:
    """x as json.dumps writes it, with `nan` written for nan."""
    if x != x:
        return nan
    return float.__repr__(x) if abs(x) != math.inf else ("Infinity" if x > 0 else "-Infinity")


def _json_value(x) -> str:
    """x, None or a bool, int or float, as json.dumps writes it."""
    if x is None or isinstance(x, bool):
        return "null" if x is None else ("true" if x else "false")
    return int.__repr__(x) if isinstance(x, int) else _json_float(x, "NaN")


def _json_line(record: dict) -> str:
    """One line of json.dumps(record) for a record keyed by identifiers."""
    return "{%s}\n" % ", ".join(f'"{key}": {_json_value(value)}' for key, value in record.items())


def _write_chunks(stream: TextIO, lines: Iterable[str]) -> None:
    """Write the nonempty strings of lines to stream, _CSV_CHUNK of them per write."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, _CSV_CHUNK)):
        stream.write(chunk)


def write_phase_diagram_csv(rows: Iterable[PhaseDiagramRow], stream: TextIO) -> None:
    """Write the CSV contract described in the module docstring."""
    stream.write(CSV_HEADER + "\n")
    _write_chunks(stream, map(_CSV_ROW.__mod__, rows))


def write_phase_diagram_jsonl(rows: Iterable[PhaseDiagramRow], stream: TextIO) -> None:
    """Write the JSON-lines layout described in the module docstring."""
    _write_chunks(stream, (
        _JSON_ROW % (_json_float(r.delta, "NaN"), _json_float(r.lam, "NaN"),
                     *[_json_float(x, "null") for x in r[2:7]],  # alpha2 .. i_over_n
                     r.phase, r.error)
        for r in rows
    ))
