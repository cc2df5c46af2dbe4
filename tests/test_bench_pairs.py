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
            # alg1 carries the whole difference; sync stays put
            steps = {"solve_s.alg1": t - 0.5, "solve_s.sync": 0.5}
            runs.append({"workload": "star60", "pair": pair, "side": side,
                         "result": json.loads(line(t, rss, failed=failed)), "steps": steps,
                         "scale": 1.0})
    runs.append({"workload": "cli_io", "pair": 0, "side": "parent",
                 "result": json.loads(line(2.0, 150.0, attempted=3)),
                 "steps": {"cli_s.gen": 1.0, "cli_s.solve": 1.0}, "scale": 1.0})
    runs.append({"workload": "cli_io", "pair": 0, "side": "change",
                 "result": json.loads(line(2.0, 151.0, attempted=3)),
                 "steps": {"cli_s.gen": 1.0}, "scale": 1.0})
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
                             "result": json.loads(line(5.0, 500.0)),
                             "steps": {"solve_s.alg1": 4.5}}]
    star = bench_pairs.summarize(runs, END_TO_END)["star60"]
    t = star["metrics"]["instance_s"]
    assert t["pairs"] == 5
    assert t[side]["q3"] == (1.1 if side == "parent" else 1.0)
    assert star["steps"]["solve_s.alg1"]["pairs"] == 5


def test_step_medians_read_from_the_report():
    report = "\n".join([
        "# perfbench star60 seed=1 seconds=25 trace=0",
        "# solve_s.alg1           median 0.054321 s  tail n/a (n=8) (raw)",
        "# solve_s.alg2-prim      median 0.190000 s  p75 0.210000 s (n=40) (raw)",
        "# cli_s.gen              median 0.083093 s  tail n/a (n=4) (raw)",
        "# step_s.geomean                   0.060963 s",
        "# instance_s                       0.5 s",
        line(0.5, 100.0),
    ])
    assert bench_pairs.step_medians(report) == {
        "solve_s.alg1": 0.054321, "solve_s.alg2-prim": 0.19, "cli_s.gen": 0.083093}


def test_step_medians_summarized_per_side():
    out = bench_pairs.summarize(canned_runs(), END_TO_END)
    alg1 = out["star60"]["steps"]["solve_s.alg1"]
    assert alg1["parent"]["median"] == pytest.approx(0.5)
    assert alg1["change"]["median"] == pytest.approx(0.4)
    assert (alg1["change_wins"], alg1["pairs"]) == (4, 5)
    sync = out["star60"]["steps"]["solve_s.sync"]
    assert sync["parent"] == sync["change"] == {"q1": 0.5, "median": 0.5, "q3": 0.5}
    assert sync["change_wins"] == 0
    # a step only one side reports has no pairs to compare
    assert list(out["cli_io"]["steps"]) == ["cli_s.gen"]


def test_step_medians_scaled_by_the_speed_probe(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("PROBE_REF_S = 0.004\n")
    ref = bench_pairs.probe_ref_s(tmp_path)
    assert ref == 0.004
    runs = []
    # the change's run took twice as long on a machine running at half speed
    for side, step_s, probe_ms in (("parent", 0.25, 4.0), ("change", 0.5, 8.0)):
        report = "\n".join([
            f"# speed probe median {probe_ms:.4f} ms over 40 calls in the loop, "
            "4.0000 ms over 10 during set-up",
            f"# solve_s.alg1           median {step_s:.6f} s  tail n/a (n=8) (raw)",
            line(1.0, 100.0),
        ])
        runs.append({"workload": "star60", "pair": 0, "side": side,
                     "result": json.loads(report.splitlines()[-1]),
                     "steps": bench_pairs.step_medians(report),
                     "scale": bench_pairs.speed_scale(report, ref)})
    alg1 = bench_pairs.summarize(runs, END_TO_END)["star60"]["steps"]["solve_s.alg1"]
    assert alg1["parent"]["median"] == alg1["change"]["median"] == 0.25
    assert alg1["change_wins"] == 0
