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
  * the CSV and JSON-lines writers: a one-pass generator and a list of 0, 1,
    chunk - 1, chunk, chunk + 1 and 3 chunk rows give the same bytes (the
    CSV header alone, or nothing, for 0 rows), and on the default grid the
    CSV header goes out alone and no write holds more than one chunk of
    rows; neither does a deriv run on the benchmark's lambda scan, after its
    header
  * run_grid equals a per-point reference (one ModelParams and one closed
    form per point) row for row and bit for bit, on grids that hit every
    error tag
  * grid validation errors, non-finite axis edges included
  * numpy integer counts give the same JSON lines as int counts, and plain
    float axis points (trace_critical_curve included)
  * hypothesis: the axes' _linspace equals np.linspace(...).tolist() bit
    for bit (any two nans equal) at 1, 2 and more points, on equal edges,
    +-0, subnormal spans whose step rounds to 0, spans near the float
    maximum and non-finite edges
  * run_grid's rows read as a sequence: len, two iterations, indexing from
    either end and slices (lists) agree bit for bit on every reference grid,
    error and critical rows included; an index past either end raises
    IndexError; rows share their delta objects along a grid line and their
    tail objects outside the superradiant rows, whose i_over_n is alpha2
  * run_grid holds the default 201 x 121 grid in under 1 MB (tracemalloc)
  * run_grid calls the closed form through the sweep module's own binding
    exactly once per grid point, error rows included, and every row carries
    .error (the benchmark's span tracer counts on both)
  * hypothesis: on rows with nan, +-0, +-inf, 5e-324 and 1e308 in any field,
    with and without an error tag, the CSV equals the per-field
    "%.17g"-and-join output, the JSON lines equal json.dumps of each row's
    dict, both parse back to the same float bits, and a nan numeric reads
    back as nan from the CSV and as null from the JSON lines; the tags come
    from the sweep's own error map, and one example holds every phase and
    error string
  * both writers give the per-field CSV and the json.dumps lines on rows
    sharing one float object across fields and rows, consecutive rows with
    equal but distinct +-0 or distinct nans in each field, numpy floats, a
    finite tail whose sum overflows and a one-pass generator of new floats
    on every row, and on each reference grid's run_grid sequence whole,
    which together carry every tail: normal, critical, superradiant and
    every error tag
  * 100,000 rows of distinct lambdas from a generator keep each writer's
    traced peak under 256 KB (it holds one chunk of 256 lines, not every
    lambda text)
  * the JSON scalar formatter that `iddm ed` writes with equals json.dumps
    on ED records holding None, bools, ints, nan, +-inf and a numpy float
"""

import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    write_phase_diagram_jsonl,
)
import iddm.sweep
from iddm.cli import main
from iddm.sweep import PhaseDiagramRow, _error_tag, _json_line, _json_value, _linspace

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
                sol = equilibrium_closed_form(spec.params._replace(lam=float(lam)), float(delta))
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
    "chi": (FIG2._replace(chi=0.3), (-1.0, 1.0, 5), (-1.0, 3.0, 5),
            {"invalid_parameter", "chi_unsupported"}),
    "f1-non-positive": (FIG2._replace(xi1=-500.0), (-1.0, 1.0, 11), (0.0, 9.0, 10),
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


@pytest.mark.parametrize("name", REFERENCE_GRIDS)
def test_run_grid_reads_as_a_sequence(name):
    params, delta_range, lambda_range, _ = REFERENCE_GRIDS[name]
    rows = run_grid(GridSpec(params, delta_range=delta_range, lambda_range=lambda_range))
    listed = list(rows)
    bits = [_bits(r) for r in listed]
    n = len(rows)
    assert n == len(listed) == delta_range[2] * lambda_range[2]
    assert [_bits(r) for r in rows] == bits  # a second read builds equal rows
    assert [_bits(rows[i]) for i in range(n)] == [_bits(rows[i - n]) for i in range(n)] == bits
    for past_the_end in (n, -n - 1, 10 * n):
        with pytest.raises(IndexError):
            rows[past_the_end]
    for part in (slice(None), slice(3, -2), slice(None, None, -3), slice(n + 5, None), slice(-n - 5, 7, 2)):
        assert type(rows[part]) is list and [_bits(r) for r in rows[part]] == bits[part]
    assert {type(r) for r in rows} == {PhaseDiagramRow}
    # the rows share objects as the grid stores them: one delta object per grid line, one tail
    # object per phase and error outside the superradiant rows, i_over_n is alpha2 inside
    tails = {}
    for prev, r in zip(listed, listed[1:]):
        assert (r.delta is prev.delta) == (r.delta == prev.delta)
    for r in listed:
        if r.phase == "superradiant":
            assert r.i_over_n is r.alpha2
        else:
            first = tails.setdefault(r.error or r.phase, r)
            assert all(a is b for a, b in zip(r[2:], first[2:]))
    if name in ("negative-lambda", "unbounded"):  # critical rows too
        tag = "invalid_parameter" if name == "negative-lambda" else "unbounded_phase"
        assert {"normal", "critical", tag} <= set(tails)


def test_run_grid_holds_the_default_grid_in_under_1_mb():
    # a list of 24,321 PhaseDiagramRow tuples and their floats held 4.2 MB; codes and doubles take 0.5 MB
    tracemalloc.start()
    try:
        rows = run_grid(GridSpec(FIG2))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 201 * 121
    assert held < 1_000_000


@pytest.mark.parametrize("name", ["tracer-self-test", "unbounded"])
def test_run_grid_calls_closed_form_once_per_point(monkeypatch, name):
    params, delta_range, lambda_range = {
        "tracer-self-test": (FIG2, (0.0, 1.0, 3), (4.0, 8.0, 5)),
        "unbounded": REFERENCE_GRIDS["unbounded"][:3],
    }[name]
    calls = []
    closed_form = iddm.sweep.equilibrium_closed_form

    def counted(*args, **kwargs):
        calls.append(args)
        return closed_form(*args, **kwargs)

    monkeypatch.setattr(iddm.sweep, "equilibrium_closed_form", counted)
    rows = run_grid(GridSpec(params, delta_range=delta_range, lambda_range=lambda_range))
    assert len(calls) == len(rows) == delta_range[2] * lambda_range[2]
    assert all(type(r.error) is str for r in rows)
    errors = sum(1 for r in rows if r.error)
    assert errors == 0 if name == "tracer-self-test" else errors > 0


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


def _written(write, rows):
    out = io.StringIO()
    write(rows, out)
    return out.getvalue()


def _csv_text(rows):
    return _written(write_phase_diagram_csv, rows)


def test_csv_exact_row():
    spec = GridSpec(FIG2, delta_range=(0.0, 0.0, 1), lambda_range=(2.0, 2.0, 1))
    text = _csv_text(run_grid(spec))
    assert text == CSV_HEADER + "\n" + "0,2,0,0,0,-0.5,0,normal,\n"


def test_csv_error_row():
    params = ModelParams(omega=400.0, lam=5.0, kappa=-2.0)
    spec = GridSpec(params, delta_range=(1.0, 1.0, 1), lambda_range=(0.0, 0.0, 1))
    text = _csv_text(run_grid(spec))
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


_CHUNK = iddm.sweep._CSV_CHUNK


@pytest.fixture(scope="module")
def default_rows():
    rows = run_grid(GridSpec(FIG2))  # 201 x 121
    assert len(rows) >= 3 * _CHUNK
    return rows


# The edges of one chunk and three chunks, plus fixed counts around 2048 lines
# and at 6144 lines that stay cases whatever _CHUNK is set to.
_COUNTS = sorted({0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK, 2047, 2048, 2049, 6144})


@pytest.mark.parametrize("fmt, count", [pytest.param("csv", n, id=str(n)) for n in _COUNTS]
                         + [pytest.param("json-lines", n, id=f"json-lines-{n}") for n in _COUNTS])
def test_csv_from_a_generator_equals_csv_from_a_list(default_rows, fmt, count):
    write, reference, header = _WRITERS[fmt]
    rows = default_rows[:count]
    text = _written(write, rows)
    assert _written(write, (r for r in rows)) == text == reference(rows)
    assert len(text.splitlines()) == header.count("\n") + count  # 0 rows: the header alone


class _WriteLog:
    """A text stream that records the length and the row count of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append((len(text), text.count("\n")))
        return len(text)

    def flush(self):
        pass


def _assert_chunked(writes, header, row_count):
    """header went out alone, then row_count rows, at most one chunk per write."""
    if header:
        assert writes[0] == (len(header), 1)
        writes = writes[1:]
    assert sum(lines for _, lines in writes) == row_count
    assert all(0 < lines <= _CHUNK for _, lines in writes)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_csv_writes_at_most_one_chunk_of_rows_at_a_time(default_rows, fmt):
    write, reference, header = _WRITERS[fmt]
    log = _WriteLog()
    write(default_rows, log)
    assert sum(length for length, _ in log.writes) == len(reference(default_rows))
    _assert_chunked(log.writes, header, len(default_rows))


def test_deriv_writes_at_most_one_chunk_of_rows_at_a_time(monkeypatch):
    # the meanfield-grid benchmark's deriv argv at its canonical seed: 6,001 rows
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(["deriv", "--omega", "400.0", "--omega0", "1.0", "--kappa", "-0.5",
                 "--lambda", "5.0", "--wrt", "lambda", "--from", "0.0", "--to", "12.0",
                 "--step", "0.002", "--delta", "0.0"]) == 0
    _assert_chunked(log.writes, "param,value,e0,d1,d2\n", 6001)


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


def test_numpy_integer_counts_give_the_same_output():
    # a numpy count made every axis point a numpy float, written as np.float64(-1.0) in JSON lines
    documents = []
    for counts in ((3, 2), (np.int64(3), np.int32(2))):
        out = io.StringIO()
        spec = GridSpec(FIG2, delta_range=(-1.0, 1.0, counts[0]), lambda_range=(0.0, 12.0, counts[1]))
        write_phase_diagram_jsonl(run_grid(spec), out)
        documents.append(out.getvalue())
    assert documents[0] == documents[1]
    assert {type(d) for d, _ in trace_critical_curve(FIG2, count=np.int64(3))} == {float}


_HALF_MAX = 8.988465674311579e307  # a span from -_HALF_MAX to _HALF_MAX is the largest finite one
_EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 2.2e-308, _HALF_MAX, -_HALF_MAX,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(),
)
_SUBNORMAL_EDGES = st.integers(-40, 40).map(lambda k: k * 5e-324)


@st.composite
def _linspace_args(draw):
    count = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 400)))
    kind = draw(st.sampled_from(["any", "equal", "subnormal"]))
    edges = _SUBNORMAL_EDGES if kind == "subnormal" else _EDGES
    lo = draw(edges)
    return lo, lo if kind == "equal" else draw(edges), count


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_linspace_args())
@example((0.0, 1e-322, 100))  # step = 1e-322/99 rounds to 0
def test_linspace_matches_numpy_bit_for_bit(args):
    with np.errstate(all="ignore"):  # inf - inf and friends
        expected = np.linspace(*args).tolist()
    got = _linspace(*args)
    assert all(type(x) is float for x in got)
    # float.hex is exact, keeps the sign of zero and reads "nan" for every nan
    assert [x.hex() for x in got] == [x.hex() for x in expected], args


def _csv_by_field(rows):
    """The CSV writer as it was first written: one "%.17g" per field and a join."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(["%.17g" % x for x in r[:7]] + [r.phase, r.error]))
    return "\n".join(lines) + "\n"


def _jsonl_by_dict(rows):
    """The JSON-lines writer as it was first written: json.dumps of one dict per row."""
    def num(x):
        return None if math.isnan(x) else x
    return "".join(json.dumps({
        "delta": r.delta, "lambda": r.lam, "alpha2": num(r.alpha2), "beta2": num(r.beta2),
        "e0": num(r.e0), "jz_over_n": num(r.jz_over_n), "i_over_n": num(r.i_over_n),
        "phase": r.phase, "error": r.error,
    }) + "\n" for r in rows)


# format -> (writer, the writer as first written, header)
_WRITERS = {
    "csv": (write_phase_diagram_csv, _csv_by_field, CSV_HEADER + "\n"),
    "json-lines": (write_phase_diagram_jsonl, _jsonl_by_dict, ""),
}


_EDGE_FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# every string a row can carry: the phase values and "error", and the error tags
_PHASES = [p.value for p in Phase] + ["error"]
_ERRORS = ["", *iddm.sweep._ERROR_TAGS.values(), "invalid_parameter"]
_ROWS = st.lists(st.builds(
    PhaseDiagramRow, *[_FLOATS] * 7, phase=st.sampled_from(_PHASES), error=st.sampled_from(_ERRORS),
), max_size=6)
_EVERY_TAG = [PhaseDiagramRow(0.5, 1.0, *[math.nan] * 5, phase, error) for phase in _PHASES for error in _ERRORS]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_ROWS)
@example(_EVERY_TAG)
def test_csv_and_json_lines_round_trip(rows):
    csv_text, jsonl_text = _csv_text(rows), _written(write_phase_diagram_jsonl, rows)
    assert csv_text == _csv_by_field(rows)
    assert jsonl_text == _jsonl_by_dict(rows)

    csv_rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    json_rows = [json.loads(line) for line in jsonl_text.splitlines()]
    assert len(csv_rows) == len(json_rows) == len(rows)
    for row, fields, record in zip(rows, csv_rows, json_rows):
        values = list(record.values())
        assert list(record) == ["delta", "lambda", *PhaseDiagramRow._fields[2:]]
        assert fields[7:] == values[7:] == [row.phase, row.error]
        for i, x in enumerate(row[:7]):
            from_json = math.nan if values[i] is None else values[i]
            assert float(fields[i]).hex() == from_json.hex() == x.hex()
            if math.isnan(x):
                assert fields[i] == "nan"
                assert (values[i] is None) == (i >= 2)  # delta and lambda are written NaN


def _fresh(x):
    """A new float object equal to x: float(x) would return x itself."""
    return float(repr(x))


def _aliased_rows():
    shared = 0.1 + 0.2  # one object in several fields and rows
    rows = [PhaseDiagramRow(*[shared] * 7, "superradiant", ""),
            PhaseDiagramRow(shared, 1.0, shared, 0.5, shared, shared, shared, "superradiant", "")] * 2
    base = [0.25, 2.0, *iddm.sweep._ORIGIN_COLUMNS]
    for k in range(7):  # in field k of consecutive rows: equal but distinct +-0, then distinct nans
        for x in (0.0, -0.0, 0.0, -0.0, math.nan, -math.nan, math.nan):
            fields = base.copy()  # every other field stays the same object
            fields[k] = _fresh(x)
            rows.append(PhaseDiagramRow(*fields, "normal", ""))
    rows.append(PhaseDiagramRow(*map(np.float64, (0.5, -0.0, 1 / 3, 0.1, -1e-300, 0.0, 1 / 3)),
                                "superradiant", ""))
    rows.append(PhaseDiagramRow(0.5, 2.0, 1e308, 1e308, 1e308, 1e308, 1e308, "superradiant", ""))
    return rows


def _fresh_rows(count):
    """One pass over rows whose floats are all new objects, so a freed row's ids come back."""
    values = (0.0, -0.0, math.nan, 1.5, -0.0)
    for i in range(count):  # each pair of rows is equal field for field, the next pair is not
        yield PhaseDiagramRow(*[_fresh(values[(i // 2 + k) % len(values)]) for k in range(7)],
                              _PHASES[i % len(_PHASES)], _ERRORS[i % len(_ERRORS)])


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_writers_format_by_object_not_by_value(fmt):
    write, reference, _ = _WRITERS[fmt]
    rows = _aliased_rows()
    assert _written(write, rows) == reference(rows)
    assert _written(write, _fresh_rows(200)) == reference(list(_fresh_rows(200)))
    tails = set()
    for params, delta_range, lambda_range, _ in REFERENCE_GRIDS.values():  # the run_grid sequence whole
        grid = run_grid(GridSpec(params, delta_range=delta_range, lambda_range=lambda_range))
        assert _written(write, grid) == reference(grid)
        tails |= {r[-2:] for r in grid}
    assert tails == {("superradiant", "")} | {t[-2:] for t in iddm.sweep._TAILS}


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_writers_memory_stays_bounded_on_distinct_lambdas(fmt):
    # Rows that are not run_grid's are formatted one by one: 100,000 lambda texts held at once
    # would peak near 20 MB, and one chunk's worth of lines stays near 68 KB (CSV) and 146 KB (JSON).
    # Plain tuples: the writers index rows, and a NamedTuple per row only slows the traced run.
    write = _WRITERS[fmt][0]
    rows = ((0.5, i / 7, *iddm.sweep._ORIGIN_COLUMNS, "normal", "") for i in range(100_000))
    tracemalloc.start()
    try:
        write(rows, _WriteLog())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256_000


def test_json_line_matches_json_dumps_on_ed_records():
    # None, bools, ints, nan, +-inf, -0.0, extreme floats and a numpy float in every value slot
    from iddm.ed import EDResult

    records = [
        EDResult(4, 8, -1.25, -0.5, 1e-17, 1.0, True, 0.0, None, 2.5e-13, 0),
        EDResult(256, 16, math.nan, math.inf, -math.inf, -1.0, False, 5e-324, math.nan, None, 3),
        EDResult(2, 1, np.float64(-0.3), -0.0, 1e308, None, True, math.inf, 0.1, -math.inf, 2**70),
    ]
    for record in records:
        assert _json_line(record._asdict()) == json.dumps(record._asdict()) + "\n"
    for value in (None, True, False, 0, -7, 2**70, 0.1, -0.0, math.nan, math.inf, -math.inf,
                  np.float64(1e-300)):
        assert _json_value(value) == json.dumps(value)
