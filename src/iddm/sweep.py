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

run_grid returns a read-only collections.abc.Sequence, not a list: it builds
each PhaseDiagramRow when it is read, so two reads give equal rows that are
not the same objects, and it has no equality and no mutation.

Given run_grid's sequence, both writers format each lambda text and each
shared tail (normal, critical, one per error tag) once per write, each delta
text once per grid line and only a superradiant point's numbers per point;
any other iterable of rows is formatted row by row.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, TextIO

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
_CSV_CHUNK = 2048  # lines per write: the document is never held as one string
# phase and error are Phase values or error tags: ASCII words that JSON quotes as they are
_JSON_TAIL = ('"alpha2": %s, "beta2": %s, "e0": %s, "jz_over_n": %s, "i_over_n": %s, '
              '"phase": "%s", "error": "%s"}\n')

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


# the tail of every row outside the superradiant phase, by its code ~i;
# _TAIL_CODES maps the phase or error tag to that code
_TAILS = [(*_ORIGIN_COLUMNS, phase, "") for phase in ("normal", "critical")] + [
    (math.nan,) * 5 + ("error", tag) for tag in (*_ERROR_TAGS.values(), "invalid_parameter")]
_TAIL_CODES = {tail[-1] or tail[-2]: ~i for i, tail in enumerate(_TAILS)}


class _Grid(Sequence):
    """run_grid's rows, built when read from a code per point."""

    def __init__(self, deltas, lams, codes, values):
        self._deltas, self._lams, self._codes, self._values = deltas, lams, codes, values

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        di, li = divmod(range(len(self))[i], len(self._lams))  # IndexError past either end
        return _new_tuple(PhaseDiagramRow, (self._deltas[di], self._lams[li]) + self._tail(self._codes[i]))

    def __iter__(self) -> Iterator[PhaseDiagramRow]:
        codes, tail = iter(self._codes), self._tail
        for delta in self._deltas:
            for lam, code in zip(self._lams, codes):
                yield _new_tuple(PhaseDiagramRow, (delta, lam) + tail(code))

    def _tail(self, code: int) -> tuple:
        """A point's alpha2 .. error: the shared _TAILS entry, or a superradiant point's from values."""
        if code < 0:
            return _TAILS[~code]
        values = self._values  # a superradiant point's i_over_n is its alpha2 object
        alpha2, beta2 = values[code], values[code + 1]
        return alpha2, beta2, values[code + 2], beta2 - 0.5, alpha2, "superradiant", ""


def run_grid(spec: GridSpec) -> Sequence[PhaseDiagramRow]:
    """Closed-form equilibrium on the full grid, delta outer, lambda inner, one call per point made here.

    The returned read-only sequence builds each row anew on every read: equal rows, not the same objects.
    """
    from array import array  # imported here: only a sweep needs it

    columns = []  # one ModelParams per lambda; a refused lambda tags its whole column
    for lam in _linspace(*spec.lambda_range):
        try:
            columns.append((lam, spec.params._replace(lam=lam), ""))
        except IDDMError as exc:
            columns.append((lam, None, _error_tag(exc)))
    deltas = _linspace(*spec.delta_range)
    # per point: the offset of a superradiant point's alpha2, beta2, e0 in values, else its _TAIL_CODES entry
    codes, values = array("q"), array("d")
    for delta in deltas:
        for lam, params, error in columns:
            if not error:
                try:
                    alpha, beta, e0, _, phase = equilibrium_closed_form(params, delta)
                except IDDMError as exc:
                    error = _error_tag(exc)
            if error or phase is not _SUPERRADIANT:  # _value_ skips the Enum's `value` property
                codes.append(_TAIL_CODES[error or phase._value_])
            else:
                codes.append(len(values))
                values.extend((alpha**2, beta**2, e0))
    return _Grid(deltas, [lam for lam, _, _ in columns], codes, values)


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


def _lines(rows: Iterable[PhaseDiagramRow], delta_text, lam_text, tail_text) -> Iterator[str]:
    """delta_text(delta) + lam_text(lam) + tail_text(row[2:]) per row; a _Grid formats each repeat once."""
    if not isinstance(rows, _Grid):
        for r in rows:
            yield delta_text(r[0]) + lam_text(r[1]) + tail_text(r[2:])
        return
    lams, tails, codes = [*map(lam_text, rows._lams)], [*map(tail_text, _TAILS)], iter(rows._codes)
    for delta in rows._deltas:
        d = delta_text(delta)
        for lam, code in zip(lams, codes):
            yield d + lam + (tails[~code] if code < 0 else tail_text(rows._tail(code)))


def write_phase_diagram_csv(rows: Iterable[PhaseDiagramRow], stream: TextIO) -> None:
    """Write the CSV contract described in the module docstring."""
    stream.write(CSV_HEADER + "\n")
    _write_chunks(stream, _lines(rows, "%.17g,".__mod__, "%.17g,".__mod__, _csv_tail))


def _csv_tail(tail: tuple) -> str:
    alpha2 = "%.17g" % tail[0]  # a superradiant row's i_over_n is its alpha2 object
    i_over_n = alpha2 if tail[4] is tail[0] else "%.17g" % tail[4]
    return "%s,%.17g,%.17g,%.17g,%s,%s,%s\n" % (alpha2, tail[1], tail[2], tail[3], i_over_n, tail[5], tail[6])


def _json_tail(tail: tuple) -> str:
    # a finite sum means five finite numbers, which json.dumps writes as float.__repr__ does
    number = float.__repr__ if math.isfinite(sum(tail[:5])) else lambda x: _json_float(x, "null")
    alpha2 = number(tail[0])  # a superradiant row's i_over_n is its alpha2 object
    return _JSON_TAIL % (alpha2, number(tail[1]), number(tail[2]), number(tail[3]),
                         alpha2 if tail[4] is tail[0] else number(tail[4]), *tail[5:])


def write_phase_diagram_jsonl(rows: Iterable[PhaseDiagramRow], stream: TextIO) -> None:
    """Write the JSON-lines layout described in the module docstring."""
    _write_chunks(stream, _lines(rows, lambda x: '{"delta": %s, ' % _json_float(x, "NaN"),
                                 lambda x: '"lambda": %s, ' % _json_float(x, "NaN"), _json_tail))
