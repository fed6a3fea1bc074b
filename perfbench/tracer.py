"""Span recorder for the benchmark's traced runs.

Recorder.install() replaces each public function named in TARGETS by a
wrapper that records a span: name, parent span, start and end
(time.perf_counter), and for a few functions a small note about the
result.  The wrapper is swapped into every loaded iddm module that holds the
function, so names bound by `from .x import name` (cli's run_grid, ed's and
sweep's equilibrium_closed_form, the package namespace) are traced too.
Spans stay in memory and are written out once, when the process ends,
together with what the tracing cost the process: the time to swap the
wrappers in, to take the notes and to serialise the spans, and the extra
cost of one traced call over an untraced one, measured on a no-op.

Run as a script it executes one traced iddm command:

    python perfbench/tracer.py SPANS.json -- sweep --delta-count 11 ...
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _grid_note(rows):
    return {"rows": len(rows), "errors": sum(1 for r in rows if r.error)}


def _matrix_note(h):
    return {"dim": h.shape[0], "nnz": int(h.nnz)}


# (module, function, note); a note summarises the return value and is taken
# after the span has ended, so it is not counted in the span's time.
TARGETS = (
    ("iddm.cli", "main", None),
    ("iddm.sweep", "run_grid", _grid_note),
    ("iddm.sweep", "write_phase_diagram_csv", None),
    ("iddm.meanfield", "equilibrium_closed_form", None),
    ("iddm.meanfield", "equilibrium_numeric", None),
    ("iddm.meanfield", "derivative_scan", None),
    ("iddm.fluctuations", "excitation_spectrum", None),
    ("iddm.ed", "ground_state", None),
    ("iddm.ed", "build_hamiltonian", _matrix_note),
    ("iddm.ed", "finite_size_scan", None),
    ("iddm.measurement", "measure", None),
)


class Recorder:
    """In-memory span list; each span is [name_index, parent, start, end, note]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.install_s = 0.0
        self.note_s = 0.0

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_index = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_index, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                begin = clock()
                span[4] = note(result)
                self.note_s += clock() - begin
            return result

        return traced

    def install(self) -> None:
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        start = time.perf_counter()
        modules = [m for n, m in sys.modules.items() if n == "iddm" or n.startswith("iddm.")]
        for module_name, func_name, note in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name[len('iddm.'):]}.{func_name}", original, note)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)
        self.install_s = time.perf_counter() - start

    def dump(self, path: str) -> None:
        start = time.perf_counter()
        spans = json.dumps(self.spans)
        overhead = {"install_s": self.install_s, "note_s": self.note_s,
                    "dump_s": time.perf_counter() - start, "per_span_s": per_span_cost()}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"names": {json.dumps(self.names)}, "overhead": {json.dumps(overhead)}, '
                     f'"spans": {spans}}}')


def per_span_cost(calls: int = 20000, repeats: int = 3) -> float:
    """Seconds a traced call of a no-op takes more than the untraced call."""

    def noop():
        return None

    def best_of(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    traced = Recorder()._wrap("noop", noop, None)
    return max(0.0, (best_of(traced) - best_of(noop)) / calls)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- IDDM-ARGS...", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    import iddm.cli

    try:
        return iddm.cli.main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
