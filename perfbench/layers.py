"""Per-layer metrics from the spans of a traced pass and the import probe.

A layer's time is the summed duration of its spans; a span's self time is
its duration minus the durations of its child spans (spans of one process
nest and never overlap, so the children's sum is the part of the interval
they cover).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import workloads


@dataclass
class TracedProc:
    """One traced process: its Proc, its span document and what it wrote."""

    proc: workloads.Proc
    spans: dict
    output: bytes
    stdout_bytes: int


class SpanTable:
    """Per-name totals over the spans of many processes."""

    def __init__(self, traced: list[TracedProc]):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.notes = defaultdict(list)
        for tp in traced:
            names, spans = tp.spans["names"], tp.spans["spans"]
            child = [0.0] * len(spans)
            for _, parent, start, end, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name_index, _, start, end, note) in enumerate(spans):
                name = names[name_index]
                self.calls[name] += 1
                self.total[name] += end - start
                self.self_time[name] += end - start - child[i]
                if note is not None:
                    self.notes[name].append(note)

    def per_call(self, name: str, scale: float) -> float:
        return self.total[name] / self.calls[name] * scale


def _children(doc: dict, parent: int, name: str) -> list[list]:
    index = doc["names"].index(name)
    return [s for s in doc["spans"] if s[1] == parent and s[0] == index]


def ed_metrics(traced: list[TracedProc]) -> dict:
    """ED layer: build and solve time, and the sizes at the largest N."""
    solve = 0.0
    for tp in traced:
        doc = tp.spans
        if "ed.ground_state" not in doc["names"]:
            continue
        gs = doc["names"].index("ed.ground_state")
        for i, span in enumerate(doc["spans"]):
            if span[0] == gs:
                builds = _children(doc, i, "ed.build_hamiltonian")
                solve += span[3] - span[2] - sum(b[3] - b[2] for b in builds)
    largest = next(tp for tp in traced if tp.proc.tag == "ed-largest")
    doc = largest.spans
    gs = doc["names"].index("ed.ground_state")
    root = next(i for i, s in enumerate(doc["spans"]) if s[0] == gs)
    base, enlarged = (b[4] for b in _children(doc, root, "ed.build_hamiltonian"))
    records = [r for tp in traced if tp.proc.tag.startswith("ed-")
               for r in workloads.parse_ed(tp.output)]
    largest_record = workloads.parse_ed(largest.output)[0]
    return {
        "ed.solve_s": solve,
        "ed.dim": base["dim"],
        "ed.dim_enlarged": enlarged["dim"],
        "ed.nnz": base["nnz"],
        "ed.cutoff": largest_record["photon_cutoff"],
        "ed.cutoff_shift_max": max(r["cutoff_shift"] for r in records),
        "ed.parity_mixed": workloads.parity_mixed(records),
    }


def tracing_overhead(doc: dict) -> float:
    """Seconds tracing added to one process: installing the wrappers, one
    wrapper cost per span, the notes and serialising the spans."""
    cost = doc["overhead"]
    return (cost["install_s"] + cost["note_s"] + cost["dump_s"]
            + len(doc["spans"]) * cost["per_span_s"])


def layer_metrics(traced: list[TracedProc], probe: dict, overhead_s: float) -> dict:
    table = SpanTable(traced)
    grids = table.notes["sweep.run_grid"]
    cli_bytes = sum(len(tp.output) + tp.stdout_bytes for tp in traced
                    if tp.proc.iddm_args is not None)
    csv_bytes = sum(len(tp.output) for tp in traced if tp.proc.tag == "sweep-csv")
    metrics = {
        "import.total_s": probe["total_s"],
        "import.scipy_s": probe["scipy_s"],
        "import.modules": probe["modules"],
        "cli.main_s": table.total["cli.main"],
        "cli.self_s": table.self_time["cli.main"],
        "cli.output_bytes": cli_bytes,
        "meanfield.closed_form_calls": table.calls["meanfield.equilibrium_closed_form"],
        "meanfield.closed_form_us_per_call": table.per_call("meanfield.equilibrium_closed_form", 1e6),
        "meanfield.numeric_calls": table.calls["meanfield.equilibrium_numeric"],
        "meanfield.numeric_ms_per_call": table.per_call("meanfield.equilibrium_numeric", 1e3),
        "meanfield.deriv_scan_s": table.total["meanfield.derivative_scan"],
        "sweep.run_grid_s": table.total["sweep.run_grid"],
        "sweep.points": sum(g["rows"] for g in grids),
        "sweep.error_points": sum(g["errors"] for g in grids),
        "sweep.write_csv_s": table.total["sweep.write_phase_diagram_csv"],
        "sweep.csv_bytes": csv_bytes,
        "ed.ground_state_s": table.total["ed.ground_state"],
        "ed.build_s": table.total["ed.build_hamiltonian"],
        "ed.build_calls": table.calls["ed.build_hamiltonian"],
        "fluctuations.spectrum_us_per_call": table.per_call("fluctuations.excitation_spectrum", 1e6),
        "measurement.measure_us_per_call": table.per_call("measurement.measure", 1e6),
        "trace.overhead_s": overhead_s,
    }
    metrics.update(ed_metrics(traced))
    return metrics


def _is_scipy(module: str) -> bool:
    return module.split(".")[0] == "scipy"


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(iddm cumulative, outermost scipy.* cumulative) in seconds from -X importtime.

    importtime prints each module after the modules it imported, indented
    two spaces per level, so a module's ancestors are the lines below it
    with smaller indentation.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(fields[1]) * 1e-6))
    total = scipy = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if depth == 0 and name == "iddm":
            total = cumulative
        if _is_scipy(name) and not any(_is_scipy(a) for _, a in ancestors):
            scipy += cumulative
        ancestors.append((depth, name))
    return total, scipy
