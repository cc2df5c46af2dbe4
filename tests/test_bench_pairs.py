"""tools/bench_pairs.py's summary, on canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "instance_s", "better": "lower"},
              {"name": "peak_rss_mb", "better": "lower"}]


def line(instance_s, rss, attempted=10, failed=0):
    """The last stdout line of a perfbench run, as run.py prints it."""
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"instance_s": {"value": instance_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
    })


def canned_runs():
    parent = [(1.0, 100.0), (1.2, 100.0), (0.9, 100.0), (1.1, 100.0), (1.0, 100.0)]
    change = [(0.8, 100.0), (1.3, 99.0), (0.8, 100.0), (1.0, 101.0), (0.9, 100.0)]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, (t, rss) in (("parent", p), ("change", c)):
            failed = 1 if (side, pair) == ("change", 3) else 0
            runs.append({"workload": "star60", "pair": pair, "side": side,
                         "result": json.loads(line(t, rss, failed=failed))})
    runs.append({"workload": "cli_io", "pair": 0, "side": "parent",
                 "result": json.loads(line(2.0, 150.0, attempted=3))})
    runs.append({"workload": "cli_io", "pair": 0, "side": "change",
                 "result": json.loads(line(2.0, 151.0, attempted=3))})
    return runs


def test_quartiles_and_wins_per_metric():
    star = bench_pairs.summarize(canned_runs(), END_TO_END)["star60"]
    t = star["metrics"]["instance_s"]
    assert t["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.1}
    assert t["change"] == {"q1": 0.8, "median": 0.9, "q3": 1.0}
    assert (t["change_wins"], t["pairs"]) == (4, 5)
    rss = star["metrics"]["peak_rss_mb"]
    assert rss["parent"]["median"] == rss["change"]["median"] == 100.0
    assert rss["change_wins"] == 1  # three ties count for neither side


def test_operations_summed_per_side():
    out = bench_pairs.summarize(canned_runs(), END_TO_END)
    assert out["star60"]["attempted"] == {"parent": 50, "change": 50}
    assert out["star60"]["failed"] == {"parent": 0, "change": 1}
    assert out["cli_io"]["attempted"] == {"parent": 3, "change": 3}


def test_single_pair_and_workload_order():
    out = bench_pairs.summarize(canned_runs(), END_TO_END)
    assert list(out) == ["star60", "cli_io"]
    t = out["cli_io"]["metrics"]["instance_s"]
    assert t["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert (t["change_wins"], t["pairs"]) == (0, 1)
    rss = out["cli_io"]["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0


def test_higher_is_better_metric_counts_higher_as_a_win():
    metric = [{"name": "peak_rss_mb", "better": "higher"}]
    out = bench_pairs.summarize(canned_runs(), metric)
    assert out["star60"]["metrics"]["peak_rss_mb"]["change_wins"] == 1


@pytest.mark.parametrize("side", ["parent", "change"])
def test_unpaired_run_is_left_out_of_the_pairs(side):
    runs = canned_runs() + [{"workload": "star60", "pair": 9, "side": side,
                             "result": json.loads(line(5.0, 500.0))}]
    t = bench_pairs.summarize(runs, END_TO_END)["star60"]["metrics"]["instance_s"]
    assert t["pairs"] == 5
    assert t[side]["q3"] == (1.1 if side == "parent" else 1.0)
