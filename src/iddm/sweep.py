"""Phase-diagram sweeps over the (delta, lambda) plane and their serialization.

run_grid evaluates the closed-form equilibrium on a rectangular grid and
never aborts on a bad point: rows where the equilibrium is refused (for
instance nu <= -1) are kept, tagged in the error column, with the numeric
columns set to nan.  The CSV layout is part of the contract:

    delta,lambda,alpha2,beta2,e0,jz_over_n,i_over_n,phase,error

with floats at 17 significant digits, LF line endings and UTF-8 encoding, so
repeated runs of the same grid are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import (
    ChiUnsupportedError,
    IDDMError,
    InvalidParameterError,
    NonPositiveF1Error,
    UnboundedPhaseError,
)
from .meanfield import critical_lambda, equilibrium_closed_form, observables
from .model import ModelParams

__all__ = [
    "GridSpec",
    "PhaseDiagramRow",
    "CSV_HEADER",
    "run_grid",
    "trace_critical_curve",
    "write_phase_diagram_csv",
]

CSV_HEADER = "delta,lambda,alpha2,beta2,e0,jz_over_n,i_over_n,phase,error"

_ERROR_TAGS = {
    UnboundedPhaseError: "unbounded_phase",
    NonPositiveF1Error: "non_positive_f1",
    ChiUnsupportedError: "chi_unsupported",
}


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sweep grid; each range is (min, max, count)."""

    params: ModelParams
    delta_range: tuple[float, float, int] = (-1.0, 1.0, 201)
    lambda_range: tuple[float, float, int] = (0.0, 12.0, 121)

    def __post_init__(self):
        for name, (lo, hi, count) in (("delta", self.delta_range), ("lambda", self.lambda_range)):
            if count < 1:
                raise InvalidParameterError(f"{name} count must be >= 1, got {count}")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidParameterError(f"{name} range edges must be finite, got ({lo}, {hi})")
            if lo > hi:
                raise InvalidParameterError(f"{name} range must have min <= max")
            if count == 1 and lo != hi:
                raise InvalidParameterError(f"single-point {name} range needs min == max")


@dataclass(frozen=True)
class PhaseDiagramRow:
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


def _axis(lo: float, hi: float, count: int) -> np.ndarray:
    return np.linspace(lo, hi, count)


def _error_tag(exc: IDDMError) -> str:
    for cls, tag in _ERROR_TAGS.items():
        if isinstance(exc, cls):
            return tag
    return "invalid_parameter"


def run_grid(spec: GridSpec) -> list[PhaseDiagramRow]:
    """Closed-form equilibrium on the full grid, delta outer, lambda inner."""
    columns = []  # one ModelParams per lambda; a refused lambda tags its whole column
    for lam in _axis(*spec.lambda_range).tolist():
        try:
            columns.append((lam, replace(spec.params, lam=lam), ""))
        except IDDMError as exc:
            columns.append((lam, None, _error_tag(exc)))
    rows = []
    nan = math.nan
    for delta in _axis(*spec.delta_range).tolist():
        for lam, params, error in columns:
            if not error:
                try:
                    sol = equilibrium_closed_form(params, delta)
                except IDDMError as exc:
                    error = _error_tag(exc)
            if error:
                rows.append(PhaseDiagramRow(delta=delta, lam=lam, alpha2=nan, beta2=nan, e0=nan,
                                            jz_over_n=nan, i_over_n=nan, phase="error", error=error))
                continue
            jz, photons = observables(sol)
            rows.append(
                PhaseDiagramRow(
                    delta=delta, lam=lam,
                    alpha2=sol.alpha2, beta2=sol.beta2, e0=sol.e0,
                    jz_over_n=jz, i_over_n=photons,
                    phase=sol.phase.value,
                )
            )
    return rows


def trace_critical_curve(
    params: ModelParams, delta_range: tuple[float, float] = (-1.0, 1.0), count: int = 201
) -> list[tuple[float, float | None]]:
    """lambda_c(delta) along a delta grid; None where no finite threshold exists."""
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    lo, hi = delta_range
    return [(float(d), critical_lambda(params, float(d))) for d in np.linspace(lo, hi, count)]


def _fmt(x: float) -> str:
    return "%.17g" % x


def format_rows_csv(rows: Iterable[PhaseDiagramRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.delta), _fmt(r.lam), _fmt(r.alpha2), _fmt(r.beta2), _fmt(r.e0),
                    _fmt(r.jz_over_n), _fmt(r.i_over_n), r.phase, r.error,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_phase_diagram_csv(rows: Sequence[PhaseDiagramRow], stream: TextIO) -> None:
    """Write the CSV contract described in the module docstring."""
    stream.write(format_rows_csv(rows))
