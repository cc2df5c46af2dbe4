"""In-memory spans around the calls into each mwmatch layer.

The program carries no instrumentation, so the traced run replaces the
module attributes that callers read (for example mwmatch.solver.lap_max)
with wrappers that open a span, and puts the originals back afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (module, attribute the caller reads, span name). lap_max is bound in
# three modules: assignment (f_score, i.e. alignment-graph scoring),
# solver (merges and coordinate updates) and syncbaseline (rounding).
TARGETS = (
    ("mwmatch.assignment", "lap_max", "assignment.lap_max"),
    ("mwmatch.solver", "lap_max", "assignment.lap_max"),
    ("mwmatch.syncbaseline", "lap_max", "assignment.lap_max"),
    ("mwmatch.solver", "build_align_graph", "spantree.build_align_graph"),
    ("mwmatch.solver", "prim_order", "spantree.prim_order"),
    ("mwmatch.solver", "max_spanning_tree", "spantree.max_spanning_tree"),
    ("mwmatch.solver", "mst_initialize", "solver.mst_initialize"),
    ("mwmatch.solver", "coordinate_ascent", "solver.coordinate_ascent"),
    ("mwmatch.solver", "_objective_perms", "matchmodel.objective"),
    ("mwmatch.syncbaseline", "sym_eigs_topk", "matrixcore.sym_eigs_topk"),
    ("mwmatch.cli", "make_instance", "matchmodel.make_instance"),
    ("mwmatch.cli", "write_instance", "fileio.write_instance"),
    ("mwmatch.cli", "read_instance", "fileio.read_instance"),
    ("mwmatch.cli", "write_solution", "fileio.write_solution"),
    ("mwmatch.cli", "read_solution", "fileio.read_solution"),
    ("mwmatch.evalbench", "avg_error_rate", "evalbench.avg_error_rate"),
)

_ID, _PARENT, _INSTANCE, _NAME, _START, _END, _COUNT = range(7)


class Tracer:
    """Spans as [id, parent, instance, name, start_ns, end_ns, count].

    parent is -1 for a root span; spans of one instance share the
    instance id. count carries a per-call work count where one exists
    (coordinate visits for coordinate_ascent).
    """

    def __init__(self):
        self.spans = []
        self.instance = -1
        self._stack = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.instance, name, time.perf_counter_ns(), 0, 0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][_END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield self.spans[sid]
        finally:
            self.end(sid)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if name == "solver.coordinate_ascent":
                    self.spans[sid][_COUNT] = result.sweeps_run * args[0].n
                return result
            finally:
                self.end(sid)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,instance,name,start_ns,end_ns,count\n")
            for s in self.spans:
                fh.write(",".join(str(v) for v in s) + "\n")


def self_times(spans) -> list:
    """Per span: duration minus the time its direct children cover.

    Children of one parent run one after another in this single-threaded
    program, so their durations add without overlap. spans may be any
    slice of a tracer's spans; parents outside it are ignored.
    """
    position = {s[_ID]: k for k, s in enumerate(spans)}
    out = [s[_END] - s[_START] for s in spans]
    for s in spans:
        if s[_PARENT] in position:
            out[position[s[_PARENT]]] -= s[_END] - s[_START]
    return out


def check_tree(spans) -> list:
    """Problems with the span tree: unknown parents, negative self time,
    children outside their parent, instance ids that differ from the
    parent's. Empty when the tree is well formed."""
    problems = []
    index = {s[_ID]: s for s in spans}
    for s, own in zip(spans, self_times(spans)):
        if own < 0:
            problems.append(f"span {s[_ID]} {s[_NAME]} has negative self time")
        if s[_PARENT] < 0:
            continue
        parent = index.get(s[_PARENT])
        if parent is None:
            problems.append(f"span {s[_ID]} {s[_NAME]} has unknown parent {s[_PARENT]}")
        elif not (parent[_START] <= s[_START] <= s[_END] <= parent[_END]):
            problems.append(f"span {s[_ID]} {s[_NAME]} lies outside its parent")
        elif parent[_INSTANCE] != s[_INSTANCE]:
            problems.append(f"span {s[_ID]} {s[_NAME]} changes instance id")
    return problems
