"""tools/bench_pairs.py's summary, on canned perfbench result lines and files."""

import importlib.util
import json
import math
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", _ROOT / "tools" / "bench_pairs.py")
perfbench_run = _load("perfbench_run", _ROOT / "perfbench" / "run.py")

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
                         "result": json.loads(line(t, rss, failed=failed)), "steps": steps})
    runs.append({"workload": "cli_io", "pair": 0, "side": "parent",
                 "result": json.loads(line(2.0, 150.0, attempted=3)),
                 "steps": {"cli_s.gen": 1.0, "cli_s.solve": 1.0}})
    runs.append({"workload": "cli_io", "pair": 0, "side": "change",
                 "result": json.loads(line(2.0, 151.0, attempted=3)),
                 "steps": {"cli_s.gen": 1.0}})
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


def write_result(path, instances):
    """A perfbench result file, as run.py writes it, cut to what is read."""
    path.write_text(json.dumps({"environment": {"nproc": 2}, "instances": instances}))
    return path


def test_step_values_from_a_result_file(tmp_path):
    # the second instance ran while the machine was at half speed
    instances = [{"seed": 1, "best": {"alg1": 0.3, "sync": 0.1}, "scale": 1.0},
                 {"seed": 2, "best": {"alg1": 0.2, "sync": 0.15}, "scale": 2.0}]
    result = bench_pairs.read_result(write_result(tmp_path / "star60.json", instances))
    values = bench_pairs.step_values(result)
    assert values == {
        step: statistics.median(inst["scale"] * inst["best"][step] for inst in instances)
        for step in ("alg1", "sync")}
    assert values["alg1"] == pytest.approx(0.35)
    run = SimpleNamespace(instances=instances, w=SimpleNamespace(steps=["alg1", "sync"]))
    geomean = perfbench_run.end_to_end(run, [1.0], [0.008])["step_s.geomean"][0]
    assert math.exp(statistics.fmean(map(math.log, values.values()))) == pytest.approx(
        geomean, rel=1e-12)
    # with one step, the step value is instance_s exactly
    one = [{"seed": inst["seed"], "best": {"alg1": inst["best"]["alg1"]}, "scale": inst["scale"]}
           for inst in instances]
    values = bench_pairs.step_values(
        bench_pairs.read_result(write_result(tmp_path / "star200.json", one)))
    run = SimpleNamespace(instances=one, w=SimpleNamespace(steps=["alg1"]))
    assert values == {"alg1": perfbench_run.end_to_end(run, [1.0], [0.008])["instance_s"][0]}


@pytest.mark.parametrize("instances", [None, []], ids=["missing", "no-instances"])
def test_run_without_a_result_file_stops_the_script(tmp_path, instances):
    path = tmp_path / ".perfbench" / "star60-seed1-trace0.json"
    if instances is not None:
        path.parent.mkdir()
        write_result(path, instances)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.read_result(path)
    assert str(path) in str(stop.value)


def test_machine_block_drops_the_sha_and_the_first_runs_load():
    environment = {"nproc": 2, "python": "3.11.7", "git_sha": "unknown",
                   "loadavg_at_start": [0.5, 0.5, 0.6]}
    assert bench_pairs.machine(environment) == {"nproc": 2, "python": "3.11.7"}
    assert bench_pairs.machine({"nproc": 2}) == {"nproc": 2}
