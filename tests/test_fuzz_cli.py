"""Boundary fuzz of the commands, run in process through cli.main.

Checked here, on meanfield (closed form and --numeric), spectrum and critical
(with --delta and with --lambda), with the command's delta or lambda and up to
three other model fields drawn from +-10^[-300, 300], +-10^[-3, 3] and the edge
values +-0, 5e-324, 1e-308, 1e154, 1e308 and 1.7e308, the rest left at their
defaults, and every warning an error:
  * a run exits 0 with an empty stderr and every printed value a finite float
    or a documented word (undefined, no-transition, a phase name, true, or inf
    on the nu line only), or
  * it exits 1 (2 also for --numeric, a solver that did not converge) with one
    error: line on stderr and nothing on stdout.
No other exit code, exception or warning may reach the caller.  Two runs at
omega = 5e-324, lambda = 0 are pinned as examples, because each divides by a
float that rounds to 0 unless guarded: critical, where omega kappa underflows,
and spectrum at delta = 1, where the fluctuation Hessian is 0.

The same values and the same invariant, exit 1 being the only refusal, cover
three more families, each with its own reading of a successful run:
  * measure, with --z and then --target, or --theta and an optional --sign:
    every printed value is a finite float but sign's, which is plus or minus;
  * sweep on a 2x2 grid, as CSV and as JSON lines, with drawn axis edges
    (each axis's two in order) and up to three model fields: a row's numbers
    are finite unless its error column is set, and then they are nan (CSV)
    or null (JSON);
  * deriv along delta or lambda (at a drawn --delta), with a drawn --from, a
    drawn magnitude as --step, --to set 2, 3 or 4 steps past --from (so that
    no grid holds more than a handful of points) and up to three model
    fields: every value is finite, and d1 and d2 are empty on the first and
    last rows only;
  * ed at N from 1 to 8 and a first cutoff from 1 to 4, with FixedDelta (and
    --delta among the drawn fields) or, in about 30 % of runs, --full-qubit,
    and up to three model fields: every value of every JSON record is a
    finite number, a bool or null.  Two runs are pinned as examples: omega =
    1e308, whose diagonal overflows to inf, and a FullQubit run with
    chi = -1.7e308 on top, whose diagonal holds inf - inf = nan; both are
    refused before the solve.

A last family runs every subcommand from a --config file.  It holds the
command's required keys, up to three of its other keys and up to three model
fields (critical gets --delta or --lambda, measure --theta or --target), each
a value that fits its option in about 9 draws of 10: a number from the values
above or [-1, 1], as a float, its text, padded text or an integer; a count
as an integer, float, text or (for n) a list, at most 3 sweep points per
axis, 3 starts, 40 iterations, N = 8 and a first cutoff of 4; a choice or a
boolean; an output of - (or, rarely, "", null or 1.0: no path is written).
The rest are odd: booleans, null, junk and numeric text, lists, objects,
NaN, Infinity and 10**400, which overflows float() and is pinned as an
example (never a count, which it would pass).  deriv's range spans 2 to 4 steps as above, sweep without a
count in the file runs 2 points on that axis, and ed without n runs N = 2.
About one run in ten also sets bogus, z, n or delta, a key that the command
may not have, to 1.0.  A run exits 0 with the
output its command's family reads above, or exits 1 (2 also for meanfield)
with one error: line and nothing on stdout.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iddm import CSV_HEADER, Phase
from iddm.cli import _COMMANDS as _CLI_COMMANDS
from iddm.cli import _MODEL_OPTS, main

_EDGES = [0.0, 5e-324, 1e-308, 1e154, 1e308, 1.7e308]
_MAGNITUDES = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(-300, 300).map(lambda e: 10.0**e),
    st.floats(-3, 3).map(lambda e: 10.0**e),
)
_VALUES = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), _MAGNITUDES)
_WORDS = {"undefined", "true", *(p.value for p in Phase)}
_MODEL = ["--omega", "--omega0", "--kappa", "--chi", "--xi1", "--xi2", "--omega-q-prime"]

# name: (argv head, flags always drawn, flags of which up to 3 are drawn, refusal exit codes)
_COMMANDS = {
    "meanfield": (["meanfield"], ["--delta"], _MODEL + ["--lambda"], {1}),
    "meanfield-numeric": (["meanfield", "--numeric"], ["--delta"], _MODEL + ["--lambda"], {1, 2}),
    "spectrum": (["spectrum"], ["--delta"], _MODEL + ["--lambda"], {1}),
    "critical-delta": (["critical"], ["--delta"], _MODEL, {1}),
    "critical-lambda": (["critical"], ["--lambda"], _MODEL, {1}),
}


@st.composite
def _runs(draw):
    head, required, optional, refusals = _COMMANDS[draw(st.sampled_from(sorted(_COMMANDS)))]
    flags = required + draw(st.lists(st.sampled_from(optional), max_size=3, unique=True))
    # --flag=value, so that argparse reads a negative value such as -1e-05 as a value
    return head + [f"{flag}={draw(_VALUES)!r}" for flag in flags], refusals


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _documented(line: str) -> bool:
    if line == "no-transition":
        return True
    key, sep, value = line.partition(" = ")
    return bool(sep) and (value in _WORDS or (key == "nu" and value == "inf") or _finite(value))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_runs())
@example((["critical", "--lambda=0.0", "--omega=5e-324"], {1}))  # omega kappa underflows to 0
@example((["spectrum", "--delta=1.0", "--lambda=0.0", "--omega=5e-324"], {1}))  # the Hessian is 0
def test_one_point_commands_print_finite_values_or_refuse(run):
    argv, refusals = run
    _check_run(argv, refusals, lambda out: all(_documented(line) for line in out.splitlines()))


def _check_run(argv, refusals, valid):
    """Run argv: exit 0 with valid(stdout) and no stderr, or a refusal with one error line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "", argv
        assert out and valid(out), (argv, out)
    else:
        assert code in refusals, (argv, code, err)
        assert out == "", (argv, out)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


def _flag(draw, flag):
    return f"{flag}={draw(_VALUES)!r}"


def _model_flags(draw, fields):
    return [_flag(draw, flag) for flag in draw(st.lists(st.sampled_from(fields), max_size=3, unique=True))]


@st.composite
def _measure_runs(draw):
    argv = ["measure", _flag(draw, "--z")]
    if draw(st.booleans()):
        return argv + [_flag(draw, "--target")]
    argv.append(_flag(draw, "--theta"))
    if draw(st.booleans()):
        argv.append("--sign=" + draw(st.sampled_from(["plus", "minus"])))
    return argv


def _measure_output(out: str) -> bool:
    lines = [line.partition(" = ") for line in out.splitlines()]
    return all(sep and (value in ("plus", "minus") if key == "sign" else _finite(value))
               for key, sep, value in lines)


@st.composite
def _sweep_runs(draw):
    argv = ["sweep", "--delta-count=2", "--lambda-count=2",
            "--format=" + draw(st.sampled_from(["csv", "json-lines"]))]
    for axis in ("delta", "lambda"):
        lo, hi = sorted(draw(st.lists(_VALUES, min_size=2, max_size=2)))
        argv += [f"--{axis}-min={lo!r}", f"--{axis}-max={hi!r}"]
    return argv + _model_flags(draw, _MODEL)


_PHASES = {p.value for p in Phase}


def _all_finite(values) -> bool:
    return all(isinstance(x, float) and math.isfinite(x) for x in values)


def _sweep_row(row: dict) -> bool:
    """Finite numbers on a phase's row; None (nan in CSV, null in JSON) on an error row."""
    numbers = [row[key] for key in CSV_HEADER.split(",")[2:7]]
    if row["error"]:
        ok = row["phase"] == "error" and numbers == [None] * 5
    else:
        ok = row["phase"] in _PHASES and _all_finite(numbers)
    return ok and _all_finite([row["delta"], row["lambda"]])


def _sweep_output(out: str, points: int = 4) -> bool:
    keys, lines = CSV_HEADER.split(","), out.splitlines()
    if lines[0] == CSV_HEADER:  # a CSV nan reads as None, as a JSON null does
        lines = lines[1:]
        fields = [line.split(",") for line in lines]
        rows = [dict(zip(keys, [None if x == "nan" else float(x) for x in f[:7]] + f[7:]))
                for f in fields if len(f) == len(keys)]
    else:
        rows = [row for row in map(json.loads, lines) if list(row) == keys]
    return len(lines) == len(rows) == points and all(map(_sweep_row, rows))


@st.composite
def _deriv_runs(draw):
    wrt = draw(st.sampled_from(["delta", "lambda"]))
    start, step = draw(_VALUES), draw(_MAGNITUDES)  # a step <= 0 is refused before anything is run
    stop = start + draw(st.sampled_from([2, 3, 4])) * step  # never drawn freely: the grid stays small
    argv = ["deriv", f"--wrt={wrt}", f"--from={start!r}", f"--to={stop!r}", f"--step={step!r}"]
    if wrt == "lambda":
        return argv + [_flag(draw, "--delta")] + _model_flags(draw, _MODEL)
    return argv + _model_flags(draw, _MODEL + ["--lambda"])


def _deriv_output(out: str) -> bool:
    header, *rows = out.splitlines()
    rows = [row.split(",") for row in rows]
    edges = (0, len(rows) - 1)
    return header == "param,value,e0,d1,d2" and 3 <= len(rows) <= 9 and all(
        len(row) == 5 and row[0] in ("delta", "lambda") and _finite(row[1]) and _finite(row[2])
        and all(x == "" if i in edges else _finite(x) for x in row[3:])
        for i, row in enumerate(rows))


_FAMILIES = {
    "measure": (_measure_runs(), _measure_output),
    "sweep": (_sweep_runs(), _sweep_output),
    "deriv": (_deriv_runs(), _deriv_output),
}


@settings(max_examples=110, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_FAMILIES)).flatmap(
    lambda name: _FAMILIES[name][0].map(lambda argv: (argv, _FAMILIES[name][1]))))
def test_measure_sweep_and_deriv_print_finite_values_or_refuse(run):
    argv, valid = run
    _check_run(argv, {1}, valid)


@st.composite
def _ed_runs(draw):
    argv = ["ed", f"--n={draw(st.integers(1, 8))}", f"--cutoff={draw(st.integers(1, 4))}"]
    if draw(st.integers(0, 9)) < 3:
        return argv + ["--full-qubit"] + _model_flags(draw, _MODEL + ["--lambda"])
    return argv + _model_flags(draw, _MODEL + ["--lambda", "--delta"])


def _ed_output(out: str) -> bool:
    return all(
        value is None or isinstance(value, bool) or (isinstance(value, (int, float)) and math.isfinite(value))
        for line in out.splitlines() for value in json.loads(line).values())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ed_runs())
@example(["ed", "--n=2", "--cutoff=4", "--omega=1e308"])  # the diagonal overflows to inf
@example(["ed", "--full-qubit", "--n=8", "--cutoff=2", "--omega=1e308", "--chi=-1.7e308"])  # inf - inf
def test_ed_prints_finite_records_or_refuses(argv):
    _check_run(argv, {1}, _ed_output)


# --config: any value JSON can hold, under each subcommand's own keys.  Each
# count has a bound, and deriv's range spans 2 to 4 steps, so that no grid,
# minimizer or ED basis grows with a draw.
_ODD_VALUES = [True, False, None, "", "abc", [], [1.0], {"x": 1}, math.nan, math.inf, -math.inf, "1e400", "nan",
               2.5, "2.0", -1, 0, "true", "CSV"]
_ODD_COUNTS = st.sampled_from(_ODD_VALUES)
_ODD = st.sampled_from(_ODD_VALUES + [10**400])  # overflows a float, and would pass as a count
_RARELY = st.sampled_from([False] * 9 + [True])  # st.integers would favour its ends
_NUMBERS = st.one_of(_VALUES, st.floats(-1.0, 1.0))  # z, delta and target live in [-1, 1]
_NUMBER_FORMS = st.sampled_from([lambda x: x, repr, lambda x: f" {x!r} ", int])  # int(1e308) is exact
_COUNT_FORMS = st.sampled_from([lambda k: k, float, str, lambda k: [k, 1]])  # a list fits n alone
_COUNTS = {"delta_count": 3, "lambda_count": 3, "seeds": 3, "solver_maxiter": 40, "n": 8, "cutoff": 4,
           "dimension_cap": 10**6}
_FALLBACK = {"delta_count": 2, "lambda_count": 2, "n": 2}  # flags for counts whose default is large
_ONE_OF = {"critical": ("delta", "lambda"), "measure": ("theta", "target")}  # a run needs one of the two
_MODEL_KEYS = st.lists(st.sampled_from([o.key for o in _MODEL_OPTS]), max_size=3, unique=True)
# up to three of each command's own keys; deriv's range is drawn on its own
_OWN_KEYS = {name: st.lists(st.sampled_from([o.key for o in opts if o.key not in ("from", "to", "step")]),
                            max_size=3, unique=True) for name, (_, _, opts) in _CLI_COMMANDS.items()}


def _config_value(draw, opt):
    """A value that fits opt in about 9 draws of 10, else an odd one."""
    if opt.key == "output":  # any other string would name a file to write
        return draw(st.sampled_from([None, 1.0, ""])) if draw(_RARELY) else "-"
    if opt.key in _COUNTS:
        if draw(_RARELY):
            return draw(_ODD_COUNTS)
        return draw(_COUNT_FORMS)(draw(st.integers(1, _COUNTS[opt.key])))
    if draw(_RARELY):
        return draw(_ODD)
    if opt.choices:
        return draw(st.sampled_from(opt.choices))
    if opt.action == "store_const":
        return draw(st.booleans())
    return draw(_NUMBER_FORMS)(draw(_NUMBERS))


@st.composite
def _config_runs(draw):
    name = draw(st.sampled_from(list(_CLI_COMMANDS)))
    own = {o.key: o for o in _CLI_COMMANDS[name][2]}
    opts = {o.key: o for o in _MODEL_OPTS} | own
    keys = draw(_OWN_KEYS[name]) + draw(_MODEL_KEYS)
    keys += [key for key, o in own.items() if o.required and key not in keys]
    if name in _ONE_OF and not set(_ONE_OF[name]) & set(keys):
        keys.append(draw(st.sampled_from(_ONE_OF[name])))
    config = {key: _config_value(draw, opts[key]) for key in keys}
    if name == "deriv":
        start, step = draw(_VALUES), draw(_MAGNITUDES)
        stop = start + draw(st.sampled_from([2, 3, 4])) * step
        for key, x in (("from", start), ("to", stop), ("step", step)):
            config[key] = draw(_ODD) if draw(_RARELY) else draw(st.sampled_from([x, repr(x)]))
    if draw(_RARELY):
        config[draw(st.sampled_from(["bogus", "z", "n", "delta"]))] = 1.0  # unknown unless the command has it
    argv = [name] + [f"--{key.replace('_', '-')}={k}" for key, k in _FALLBACK.items()
                     if key in opts and key not in config]
    return argv, config


def _config_output(argv, config):
    """The reading of a successful run of argv with this config."""
    if argv[0] == "sweep":
        counts = _FALLBACK | config
        return lambda out: _sweep_output(out, int(counts["delta_count"]) * int(counts["lambda_count"]))
    return {"measure": _measure_output, "deriv": _deriv_output, "ed": _ed_output}.get(
        argv[0], lambda out: all(_documented(line) for line in out.splitlines()))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run=_config_runs())
@example(run=(["critical"], {"delta": 0.2, "omega": 10**400}))  # float() of the integer overflows
def test_config_values_print_finite_values_or_refuse(config_path, run):
    argv, config = run
    config_path.write_text(json.dumps(config), encoding="utf-8")  # nan and inf as NaN and Infinity
    _check_run(argv + [f"--config={config_path}"], {1, 2} if argv[0] == "meanfield" else {1},
               _config_output(argv, config))
