"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The first test runs the benchmark twice for about a second of measuring
each (plus set-up), so the file takes roughly half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY_STAR = wl.Workload("tiny", 8, 4, wl.WORKLOADS["star60"].steps, 3)
TINY_CLI = wl.Workload("tiny_cli", 8, 4, wl.WORKLOADS["cli_io"].steps, 3)


def _bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace,key", [
    ("star60", 0, "end_to_end"),
    ("cli_io", 1, "per_layer"),
])
def test_printed_metrics_match_benchmark_json(workload, trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        if name != "trace_overhead_frac":
            assert metric["value"] > 0, name


def _answers(w, seed, workdir):
    inst = wl.prepare(w, seed, str(workdir))
    return [wl.answer(w, step, inst, wl.run_step(w, step, inst)) for step in w.steps]


def test_same_seed_same_inputs_and_answers(tmp_path):
    for w in wl.WORKLOADS.values():
        assert wl.instance_seeds(w, 11) == wl.instance_seeds(w, 11)
        assert sorted(wl.instance_seeds(w, 11)) == list(range(w.pool))
    for w in (TINY_STAR, TINY_CLI):
        assert _answers(w, 1, tmp_path) == _answers(w, 1, tmp_path)


def test_different_seed_different_instances(tmp_path):
    w = wl.WORKLOADS["star60"]
    first = {wl.instance_seeds(w, seed)[0] for seed in range(5)}
    assert len(first) > 1
    a = wl.prepare(TINY_STAR, 1, str(tmp_path)).tensor
    b = wl.prepare(TINY_STAR, 2, str(tmp_path)).tensor
    assert any((a.block(i, j) != b.block(i, j)).any() for i, j in a.pairs())


def test_answer_check_rejects_worse_answers():
    ref = (0.1, 1000.0)
    assert wl.matches_reference((0.1, 1000.0), ref)
    assert wl.matches_reference((0.0, 1000.5), ref)
    assert not wl.matches_reference((0.1 + 1e-6, 1000.0), ref)
    assert not wl.matches_reference((0.1, 1000.0 - 1e-3), ref)
    assert not wl.matches_reference(None, ref)


def test_traced_span_tree_is_well_formed(tmp_path):
    tracer = tracing.Tracer()
    for k, w in enumerate((TINY_STAR, TINY_CLI)):
        tracer.instance = k
        inst = wl.prepare(w, 0, str(tmp_path))
        with tracer.installed():
            for step in w.steps:
                with tracer.span("step." + step):
                    wl.run_step(w, step, inst)
    assert tracing.check_tree(tracer.spans) == []
    names = {s[3] for s in tracer.spans}
    assert {name for _, _, name in tracing.TARGETS} <= names
    # the wrappers are gone once the block ends
    import mwmatch.solver
    assert mwmatch.solver.lap_max.__module__ == "mwmatch.assignment"


def test_span_tree_check_reports_defects():
    spans = [
        [0, -1, 0, "root", 0, 100, 0],
        [1, 0, 0, "child", 10, 120, 0],
        [2, 5, 0, "orphan", 20, 30, 0],
    ]
    problems = tracing.check_tree(spans)
    assert any("negative self time" in p for p in problems)
    assert any("outside its parent" in p for p in problems)
    assert any("unknown parent" in p for p in problems)
