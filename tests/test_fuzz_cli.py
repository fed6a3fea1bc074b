"""Boundary fuzz of the one-point commands, run in process through cli.main.

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
"""

import contextlib
import io
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from iddm import Phase
from iddm.cli import main

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


def _documented(line: str) -> bool:
    if line == "no-transition":
        return True
    key, sep, value = line.partition(" = ")
    if not sep:
        return False
    if value in _WORDS or (key == "nu" and value == "inf"):
        return True
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_runs())
@example((["critical", "--lambda=0.0", "--omega=5e-324"], {1}))  # omega kappa underflows to 0
@example((["spectrum", "--delta=1.0", "--lambda=0.0", "--omega=5e-324"], {1}))  # the Hessian is 0
def test_one_point_commands_print_finite_values_or_refuse(run):
    argv, refusals = run
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "", argv
        assert out and all(_documented(line) for line in out.splitlines()), (argv, out)
    else:
        assert code in refusals, (argv, code, err)
        assert out == "", (argv, out)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
