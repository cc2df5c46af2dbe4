"""Per-layer metrics of the traced run.

Two sources feed them:

* the workload's own traced pass, for the layers every workload calls
  (LAP, alignment graph, Kruskal order, tree merge, coordinate ascent,
  objective, instance generation). Times are medians over instances;
  counts are exact counts for the run's first instance, so they repeat
  for a seed;
* a fixed-input suite, identical on every workload, for per-call costs
  and for the layers only some workloads call (Prim order, alg2 merges,
  eigensolver, instance files, error rate). That way every layer reports
  a measured, non-zero value on every workload.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from mwmatch import (
    AlignGraph,
    SolverConfig,
    avg_error_rate,
    coordinate_update,
    lap_max,
    make_instance,
    permutation_synchronization,
    prim_order,
    solve_alg2,
)
from mwmatch.fileio import read_instance, read_solution, write_instance, write_solution

from tracing import self_times
from workloads import TOPOLOGY

ROUNDS = 7
SUITE_INSTANCE = 2016  # fixed instance for the suite: n=60, m=20, the star60 layout


def _seconds(span) -> float:
    return (span[5] - span[4]) / 1e9


def _sum(spans, name) -> float:
    return sum(_seconds(s) for s in spans if s[3] == name)


def _per_call_us(fn, inputs) -> float:
    """Median over ROUNDS of the mean microseconds per call."""
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        rounds.append((time.perf_counter() - t0) / len(inputs))
    return 1e6 * statistics.median(rounds)


# per-instance span totals reported as workload layer times: metric -> span name
SPAN_TOTALS = (
    ("spantree.build_align_graph.s", "spantree.build_align_graph"),
    ("spantree.max_spanning_tree.s", "spantree.max_spanning_tree"),
    ("solver.mst_initialize.s", "solver.mst_initialize"),
    ("solver.coordinate_ascent.s", "solver.coordinate_ascent"),
    ("matchmodel.make_instance.s", "matchmodel.make_instance"),
    ("matchmodel.objective.s", "matchmodel.objective"),
)


def _visits(spans) -> int:
    return sum(s[6] for s in spans if s[3] == "solver.coordinate_ascent")


def workload_layers(tracer) -> dict:
    by_instance = defaultdict(list)
    for s in tracer.spans:
        if s[2] >= 0:
            by_instance[s[2]].append(s)
    instances = list(by_instance.values())
    out = {metric: (statistics.median(_sum(spans, name) for spans in instances), "s")
           for metric, name in SPAN_TOTALS}
    out["solver.visit_us"] = (statistics.median(
        1e6 * _sum(spans, "solver.coordinate_ascent") / max(_visits(spans), 1)
        for spans in instances), "us")
    first = by_instance[min(by_instance)]
    calls = Counter(s[3] for s in first)
    out["assignment.lap_max.calls"] = (calls["assignment.lap_max"], "count")
    out["solver.coordinate_ascent.visits"] = (_visits(first), "count")
    out["matchmodel.objective.calls"] = (calls["matchmodel.objective"], "count")
    return out


def fixed_suite(tracer, workdir: str) -> dict:
    rng = np.random.default_rng(SUITE_INSTANCE)
    out = {}
    for m in (20, 30):
        blocks = list(rng.random((200, m, m)))
        out[f"assignment.lap_max.us_m{m}"] = (_per_call_us(lap_max, blocks), "us")
    truth, _, tensor = make_instance(60, 20, TOPOLOGY, SUITE_INSTANCE)
    update_us = _per_call_us(lambda i: coordinate_update(tensor, truth, i), range(tensor.n))
    out["solver.coordinate_update.us"] = (update_us, "us")
    out["solver.coefficient.us"] = (update_us - out["assignment.lap_max.us_m20"][0], "us")

    weights = rng.random((200, 200))
    graph = AlignGraph(n=200, weights=(weights + weights.T) / 2.0)
    t0 = time.perf_counter()
    prim_order(graph)
    out["spantree.prim_order.s"] = (time.perf_counter() - t0, "s")

    tracer.instance = -2
    first = len(tracer.spans)
    with tracer.installed():
        with tracer.span("suite.solve_alg2"):
            solution = solve_alg2(tensor, SolverConfig(order="prim")).solution
        with tracer.span("suite.permutation_synchronization"):
            permutation_synchronization(tensor)
    spans = tracer.spans[first:]
    own = self_times(spans)
    tracer.instance = -1
    alg2, sync = (next(s for s in spans if s[3] == name)
                  for name in ("suite.solve_alg2", "suite.permutation_synchronization"))
    out["solver.alg2_merge.s"] = (
        _seconds(alg2) - sum(_seconds(s) for s in spans if s[1] == alg2[0]
                             and s[3] in ("spantree.build_align_graph", "spantree.prim_order")),
        "s")
    out["matrixcore.sym_eigs_topk.s"] = (_sum(spans, "matrixcore.sym_eigs_topk"), "s")
    out["syncbaseline.self.s"] = (own[spans.index(sync)] / 1e9, "s")

    path = os.path.join(workdir, "suite-instance.json")
    sol_path = os.path.join(workdir, "suite-solution.json")
    for name, call in (
        ("fileio.write_instance.s", lambda: write_instance(path, tensor, truth)),
        ("fileio.read_instance.s", lambda: read_instance(path)),
        ("fileio.write_solution.s", lambda: write_solution(sol_path, solution)),
        ("fileio.read_solution.s", lambda: read_solution(sol_path)),
    ):
        t0 = time.perf_counter()
        call()
        out[name] = (time.perf_counter() - t0, "s")
    out["fileio.instance_bytes"] = (os.path.getsize(path), "bytes")
    out["evalbench.avg_error_rate.s"] = (
        _per_call_us(lambda s: avg_error_rate(s, truth), [solution]) / 1e6, "s")
    return out


def alg2_split(run) -> list:
    """Notes: solve_alg2 (prim) on the workload's instances split into graph,
    order and merge time, against the untraced solve time."""
    spans = run.tracer.spans
    children = defaultdict(float)
    roots = [s for s in spans if s[3] == "step.alg2-prim"]
    if not roots:
        return []
    ids = {s[0] for s in roots}
    for s in spans:
        if s[1] in ids and s[3] in ("spantree.build_align_graph", "spantree.prim_order"):
            children[s[3]] += _seconds(s)
    total = sum(_seconds(s) for s in roots)
    graph = children["spantree.build_align_graph"]
    order = children["spantree.prim_order"]
    untraced = sum(run.samples["alg2-prim"])
    return [
        f"alg2-prim split over {len(roots)} traced solves: graph {graph:.4f} s + order "
        f"{order:.4f} s + merge {total - graph - order:.4f} s = {total:.4f} s; untraced "
        f"{untraced:.4f} s; traced/untraced - 1 = {total / untraced - 1.0:+.4f}"
    ]


def per_layer(run, workdir: str):
    traced = sum(sum(v) for v in run.traced_samples.values())
    untraced = sum(sum(v) for v in run.samples.values())
    metrics = workload_layers(run.tracer)
    metrics.update(fixed_suite(run.tracer, workdir))
    metrics["trace_overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return metrics, alg2_split(run)
