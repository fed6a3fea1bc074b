"""Phase-diagram sweeps and the CSV contract.

Checked here:
  * grid phase labels agree with the sign of lam^2 + 50 delta - 50 for the
    omega = 400, kappa = -1/2 reference parameters (away from the boundary)
  * the grid point sitting exactly on the boundary is labeled critical
  * rows whose equilibrium is refused are tagged, carry nan numerics, and do
    not abort the sweep
  * the traced critical curve satisfies lambda_c^2 = 50 (1 - delta)
  * along a lambda scan the phase flip brackets critical_lambda
  * CSV: exact header, exact formatting of a known row, LF endings, and
    byte-identical output across repeated runs
  * run_grid equals a per-point reference (one ModelParams and one closed
    form per point) row for row and bit for bit, on grids that hit every
    error tag
  * grid validation errors, non-finite axis edges included
"""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from iddm import (
    CSV_HEADER,
    GridSpec,
    IDDMError,
    InvalidParameterError,
    ModelParams,
    Phase,
    critical_lambda,
    equilibrium_closed_form,
    observables,
    run_grid,
    trace_critical_curve,
    write_phase_diagram_csv,
)
from iddm.sweep import _error_tag, format_rows_csv

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)


def test_phase_labels_match_boundary_sign():
    spec = GridSpec(FIG2, delta_range=(-1.0, 1.0, 21), lambda_range=(0.0, 12.0, 25))
    rows = run_grid(spec)
    assert len(rows) == 21 * 25
    checked = 0
    for row in rows:
        margin = row.lam**2 + 50.0 * row.delta - 50.0
        if abs(margin) <= 1e-6:
            continue
        checked += 1
        assert row.error == ""
        if margin > 0:
            assert row.phase == Phase.SUPERRADIANT.value
            assert row.alpha2 > 0 or row.beta2 > 0
        else:
            assert row.phase == Phase.NORMAL.value
            assert row.alpha2 == 0.0 and row.beta2 == 0.0
    assert checked > 500


def test_boundary_grid_point_labeled_critical():
    spec = GridSpec(FIG2, delta_range=(0.5, 0.5, 1), lambda_range=(5.0, 5.0, 1))
    (row,) = run_grid(spec)
    assert row.phase == Phase.CRITICAL.value
    assert row.alpha2 == 0.0 and row.beta2 == 0.0 and row.e0 == 0.0


def test_refused_rows_are_tagged_not_fatal():
    params = ModelParams(omega=400.0, lam=5.0, kappa=-2.0)
    spec = GridSpec(params, delta_range=(1.0, 1.0, 1), lambda_range=(0.0, 20.0, 11))
    rows = run_grid(spec)
    assert len(rows) == 11
    for row in rows:
        if row.lam**2 <= 300.0:  # nu = -1200 / (4 lam^2) <= -1: no ground state
            assert row.phase == "error"
            assert row.error == "unbounded_phase"
            assert math.isnan(row.alpha2) and math.isnan(row.e0)
        else:
            assert row.phase == Phase.SUPERRADIANT.value
            assert row.error == ""
            assert row.e0 < 0.0


def _reference_rows(spec):
    """run_grid's rows, built one point at a time with a fresh ModelParams each."""
    rows = []
    for delta in np.linspace(*spec.delta_range):
        for lam in np.linspace(*spec.lambda_range):
            try:
                sol = equilibrium_closed_form(replace(spec.params, lam=float(lam)), float(delta))
            except IDDMError as exc:
                rows.append((float(delta), float(lam)) + (math.nan,) * 5 + ("error", _error_tag(exc)))
                continue
            jz, photons = observables(sol)
            rows.append((float(delta), float(lam), sol.alpha2, sol.beta2, sol.e0, jz, photons,
                         sol.phase.value, ""))
    return rows


def _bits(row):
    # float.hex is exact, keeps the sign of zero and reads "nan" for every nan.
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


# (params, delta range, lambda range, the error tags the grid must produce);
# together the grids hit every tag, and a negative lambda column meets chi
# and out-of-range delta rows, where the lambda refusal must win.
REFERENCE_GRIDS = {
    "negative-lambda": (FIG2, (-1.5, 1.5, 13), (-2.0, 12.0, 15), {"", "invalid_parameter"}),
    "chi": (replace(FIG2, chi=0.3), (-1.0, 1.0, 5), (-1.0, 3.0, 5),
            {"invalid_parameter", "chi_unsupported"}),
    "f1-non-positive": (replace(FIG2, xi1=-500.0), (-1.0, 1.0, 11), (0.0, 9.0, 10),
                        {"", "non_positive_f1"}),
    # nu <= -1 at small lambda, and f2 < 0 in the lambda = 0 column
    "unbounded": (ModelParams(omega=4.0, lam=5.0, kappa=-2.0), (-1.0, 1.0, 21), (0.0, 6.0, 13),
                  {"", "unbounded_phase"}),
}


@pytest.mark.parametrize("name", REFERENCE_GRIDS)
def test_run_grid_matches_per_point_reference(name):
    params, delta_range, lambda_range, tags = REFERENCE_GRIDS[name]
    spec = GridSpec(params, delta_range=delta_range, lambda_range=lambda_range)
    rows = [(r.delta, r.lam, r.alpha2, r.beta2, r.e0, r.jz_over_n, r.i_over_n, r.phase, r.error)
            for r in run_grid(spec)]
    assert [_bits(r) for r in rows] == [_bits(r) for r in _reference_rows(spec)]
    assert all(type(v) is float for r in rows for v in r[:7])
    assert {r[-1] for r in rows} == tags


def test_critical_curve_identity():
    curve = trace_critical_curve(FIG2, delta_range=(-1.0, 1.0), count=41)
    assert len(curve) == 41
    for delta, lam_c in curve:
        want_sq = 50.0 * (1.0 - delta)
        if delta >= 1.0:
            assert lam_c is None
        else:
            assert lam_c is not None
            assert abs(lam_c**2 - want_sq) <= 1e-9 * max(1.0, want_sq)


def test_phase_flip_brackets_threshold():
    spec = GridSpec(FIG2, delta_range=(0.2, 0.2, 1), lambda_range=(0.0, 12.0, 121))
    rows = run_grid(spec)
    lam_c = critical_lambda(FIG2, 0.2)
    normal = [r.lam for r in rows if r.phase == Phase.NORMAL.value]
    superradiant = [r.lam for r in rows if r.phase == Phase.SUPERRADIANT.value]
    assert max(normal) < lam_c < min(superradiant)
    assert max(normal) + 0.1 + 1e-12 >= min(superradiant)


def test_csv_exact_row():
    spec = GridSpec(FIG2, delta_range=(0.0, 0.0, 1), lambda_range=(2.0, 2.0, 1))
    text = format_rows_csv(run_grid(spec))
    assert text == CSV_HEADER + "\n" + "0,2,0,0,0,-0.5,0,normal,\n"


def test_csv_error_row():
    params = ModelParams(omega=400.0, lam=5.0, kappa=-2.0)
    spec = GridSpec(params, delta_range=(1.0, 1.0, 1), lambda_range=(0.0, 0.0, 1))
    text = format_rows_csv(run_grid(spec))
    assert text.splitlines()[1] == "1,0,nan,nan,nan,nan,nan,error,unbounded_phase"


def test_csv_byte_identical_reruns():
    spec = GridSpec(FIG2, delta_range=(-1.0, 1.0, 11), lambda_range=(0.0, 12.0, 13))
    first = io.StringIO()
    second = io.StringIO()
    write_phase_diagram_csv(run_grid(spec), first)
    write_phase_diagram_csv(run_grid(spec), second)
    a = first.getvalue()
    assert a.encode("utf-8") == second.getvalue().encode("utf-8")
    assert "\r" not in a
    assert a.startswith(CSV_HEADER + "\n")
    assert a.endswith("\n")
    assert len(a.splitlines()) == 1 + 11 * 13


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        GridSpec(FIG2, delta_range=(-1.0, 1.0, 0))
    with pytest.raises(InvalidParameterError):
        GridSpec(FIG2, delta_range=(1.0, -1.0, 5))
    with pytest.raises(InvalidParameterError):
        GridSpec(FIG2, lambda_range=(0.0, 12.0, 1))
    with pytest.raises(InvalidParameterError):
        trace_critical_curve(FIG2, count=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            GridSpec(FIG2, delta_range=(bad, 1.0, 3))
        with pytest.raises(InvalidParameterError, match="must be finite"):
            GridSpec(FIG2, lambda_range=(0.0, bad, 3))
