"""Acceptance suite: ten checks, one test per criterion.

Each test prints a single PASS line (visible under pytest -s); a failed
assertion marks the criterion failed. Heavy statistical checks pin their
seeds, so results are bit-reproducible run to run.
"""

import csv
import math
import time

import numpy as np
import pytest

from mwmatch.assignment import f_score
from mwmatch.cli import BENCH_COLUMNS, main
from mwmatch.evalbench import (
    EtaTopology,
    avg_error_rate,
    make_instance,
    run_algorithm,
)
from mwmatch.matchmodel import (
    EtaGraph,
    gen_ground_truth,
    gen_noisy_tensor,
    median_heuristic_sigma,
    objective,
    tensor_from_points,
)
from mwmatch.solver import (
    IMPROVE_TOL,
    SolverConfig,
    coordinate_ascent,
    coordinate_update,
    solve_alg1,
    solve_alg2,
)
from mwmatch.spantree import AlignGraph, max_spanning_tree, min_bottleneck_weight, prim_order

import util


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_c01_lap_exactness():
    t0 = time.perf_counter()
    mismatches = 0
    for m in range(2, 7):
        rng = np.random.default_rng(1000 + m)
        for _ in range(1000):
            c = rng.random((m, m))
            if f_score(c) != util.lap_brute(c)[1]:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert _report(1, "lap-exactness", ok), (mismatches, elapsed)


def test_c02_noiseless_exact_recovery():
    rng = np.random.default_rng(2000)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(2, 9))
        seed = int(rng.integers(0, 2**31))
        truth = gen_ground_truth(n, m, seed)
        tensor = gen_noisy_tensor(truth, EtaGraph(np.zeros((n, n))), seed + 1)
        want = float(n * (n - 1) * m)
        reports = [solve_alg1(tensor),
                   solve_alg2(tensor, SolverConfig(order="prim")),
                   solve_alg2(tensor, SolverConfig(order="kruskal"))]
        for rep in reports:
            if avg_error_rate(rep.solution, truth) != 0.0:
                failures += 1
            if rep.objective_trace[-1] != want:
                failures += 1
            if objective(tensor, rep.solution) != want:
                failures += 1
    assert _report(2, "noiseless-exact-recovery", failures == 0), failures


def test_c03_coordinate_update_oracle():
    rng = np.random.default_rng(3000)
    mismatches = 0
    for case in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        seed = int(rng.integers(0, 2**31))
        if case % 2 == 0:
            t = util.uniform_tensor(n, m, seed)
        else:
            _, t = util.noisy_instance(n, m, eta=0.2, seed=seed)
        s = gen_ground_truth(n, m, seed + 1)
        i = int(rng.integers(0, n))
        best_val, winners = util.enumerate_best_slot(t, s, i, objective)
        new_map, _ = coordinate_update(t, s, i)
        achieved = objective(t, util.replace_row(s, i, new_map))
        if not math.isclose(achieved, best_val, rel_tol=0, abs_tol=1e-8):
            mismatches += 1
        elif tuple(new_map.tolist()) not in winners:
            mismatches += 1
    assert _report(3, "coordinate-update-oracle", mismatches == 0), mismatches


def test_c04_trace_never_decreases():
    violations = 0
    runs = []
    for seed in range(10):
        _, tensor = util.noisy_instance(6, 5, eta=0.25, seed=4000 + seed)
        s0 = gen_ground_truth(6, 5, seed=4100 + seed)
        runs.append(coordinate_ascent(tensor, s0, SolverConfig()))
        runs.append(solve_alg1(tensor))
        alg2 = solve_alg2(tensor, SolverConfig(order="prim"))
        runs.append(coordinate_ascent(tensor, alg2.solution, SolverConfig()))
        runs.append(solve_alg2(tensor, SolverConfig(order="kruskal")))
    for rep in runs:
        for a, b in zip(rep.objective_trace, rep.objective_trace[1:]):
            if b < a - IMPROVE_TOL:
                violations += 1
    assert _report(4, "ascent-trace-monotone", violations == 0), violations


@pytest.mark.slow
def test_c05_star_benchmark_separation():
    t0 = time.perf_counter()
    topo = EtaTopology(kind="star", eta_tree=0.01, eta_off=0.30)
    algos = ("alg2-prim", "alg2-kruskal", "pairwise", "sync")
    errs = {a: [] for a in algos}
    for seed in range(100):
        truth, _, tensor = make_instance(60, 20, topo, seed)
        for algo in algos:
            errs[algo].append(avg_error_rate(run_algorithm(algo, tensor, seed), truth))
    elapsed = time.perf_counter() - t0
    exact = {a: sum(e == 0.0 for e in es) for a, es in errs.items()}
    mean = {a: float(np.mean(es)) for a, es in errs.items()}
    ok = (
        exact["alg2-prim"] >= 95
        and exact["alg2-kruskal"] >= 95
        and exact["pairwise"] < exact["alg2-prim"]
        and mean["sync"] > mean["alg2-prim"]
        and elapsed < 300.0
    )
    assert _report(5, "star-benchmark-separation", ok), (exact, mean, elapsed)


def test_c06_noise_moment():
    eta = 0.04
    m = 30
    truth = gen_ground_truth(2, m, seed=6000)
    etas = EtaGraph(np.array([[0.0, eta], [eta, 0.0]]))
    ideal = util.perm_matrix(truth.pairwise(0, 1).map)
    total = 0.0
    count = 0
    for seed in range(1000):
        t = gen_noisy_tensor(truth, etas, seed=seed)
        dev = np.abs(t.block(0, 1) - ideal)  # |deviation| = Z^2 at every cell
        total += float(dev.sum())
        count += dev.size
    mean = total / count
    sd_mean = eta * math.sqrt(2.0 / count)  # Var[Z^2] = 2 eta^2
    ok = abs(mean - eta) < 3.0 * sd_mean
    assert _report(6, "noise-moment", ok), (mean, eta, sd_mean)


def test_c07_monotone_degradation():
    means = []
    for eta in (0.0, 0.1, 0.2, 0.3):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=eta)
        es = []
        for seed in range(100):
            truth, _, tensor = make_instance(10, 8, topo, seed)
            es.append(avg_error_rate(run_algorithm("alg2-prim", tensor, seed), truth))
        means.append(float(np.mean(es)))
    inversions = [max(a - b, 0.0) for a, b in zip(means, means[1:])]
    ok = sum(1 for v in inversions if v > 0) <= 1 and all(v <= 0.005 for v in inversions)
    assert _report(7, "monotone-degradation", ok), means


def test_c08_spanning_tree_exactness():
    mismatches = 0
    structure_faults = 0
    for n in range(2, 7):
        rng = np.random.default_rng(8000 + n)
        trees = util.all_spanning_trees(n)
        for _ in range(100):
            raw = rng.random((n, n))
            w = (raw + raw.T) / 2.0
            np.fill_diagonal(w, 0.0)
            g = AlignGraph(n=n, weights=w)
            got_edges = max_spanning_tree(g).edges
            got_total = sum(w[i, j] for i, j in got_edges)
            want_total = max(sum(w[i, j] for i, j in e) for e in trees)
            if abs(got_total - want_total) > 1e-12:
                mismatches += 1
            got_bn = min_bottleneck_weight(w)
            want_bn = min(max(w[i, j] for i, j in e) for e in trees)
            if abs(got_bn - want_bn) > 1e-12:
                mismatches += 1
            weights = [w[i, j] for i, j in got_edges]
            if any(b > a for a, b in zip(weights, weights[1:])):
                structure_faults += 1
            seen = {0}
            for i, j in prim_order(g).edges:
                if (i in seen) == (j in seen):
                    structure_faults += 1
                seen.update((i, j))
    ok = mismatches == 0 and structure_faults == 0
    assert _report(8, "spanning-tree-exactness", ok), (mismatches, structure_faults)


def test_c09_pca_alignment_gain():
    n, m, d = 50, 10, 2
    rng = np.random.default_rng(9000)
    template = rng.standard_normal((m, d))
    scale = float(np.std(template))
    truth = gen_ground_truth(n, m, seed=9001)
    pts = np.stack([template[np.argsort(row)] for row in truth.maps])
    pts = pts + 0.01 * scale * rng.standard_normal(pts.shape)
    tensor = tensor_from_points(pts, median_heuristic_sigma(pts))
    sol = solve_alg2(tensor, SolverConfig(order="prim")).solution
    from mwmatch.evalbench import pca_experiment

    rows = pca_experiment(pts, {"alg2": sol, "none": None}, [1, 2, 3, 4, 5])
    errs = {(meth, k): e for meth, k, e in rows}
    monotone = all(
        errs[(meth, k + 1)] <= errs[(meth, k)] + 1e-12
        for meth in ("alg2", "none")
        for k in range(1, 5)
    )
    factor_ok = errs[("alg2", 2)] <= errs[("none", 2)] / 2.0
    ok = monotone and factor_ok
    assert _report(9, "pca-alignment-gain", ok), errs


def test_c10_cli_determinism(tmp_path):
    from mwmatch.fileio import write_points

    rng = np.random.default_rng(10_000)
    template = rng.standard_normal((4, 2))
    truth = gen_ground_truth(6, 4, seed=10_001)
    pts = np.stack([template[np.argsort(row)] for row in truth.maps])
    pts = pts + 0.02 * rng.standard_normal(pts.shape)
    labels = np.argsort(truth.maps, axis=1).tolist()

    def run_all(tag):
        d = tmp_path / tag
        d.mkdir()
        inst = str(d / "inst.json")
        assert main(["gen", "--n", "6", "--m", "5", "--topology", "star",
                     "--eta-tree", "0.01", "--eta-off", "0.2", "--seed", "3",
                     "--out", inst]) == 0
        ppath = str(d / "points.json")
        write_points(ppath, pts, labels)
        assert main(["rbf", "--points", ppath, "--sigma", "0.6",
                     "--out", str(d / "rbf.json")]) == 0
        for algo in ("alg1", "alg2-prim"):
            assert main(["solve", "--instance", inst, "--algo", algo,
                         "--seed", "5", "--out", str(d / f"sol-{algo}.json")]) == 0
        assert main(["eval", "--solution", str(d / "sol-alg1.json"),
                     "--instance", inst]) == 0
        with pytest.warns(UserWarning):  # small n sits below the regime floor
            assert main(["bench", "--n", "5", "--m", "4", "--topology", "star,uniform",
                         "--eta-tree", "0.02", "--eta-off", "0.15",
                         "--algos", "pairwise,alg1,alg2-prim",
                         "--seeds", "3", "--out", str(d / "bench.csv")]) == 0
        assert main(["pca", "--points", ppath, "--methods", "none,alg2-prim",
                     "--k-list", "1,2", "--sigma", "0.6",
                     "--out", str(d / "pca.csv")]) == 0
        return d

    d1 = run_all("run1")
    d2 = run_all("run2")

    identical = []
    for name in ("inst.json", "rbf.json", "sol-alg1.json", "sol-alg2-prim.json", "pca.csv"):
        identical.append((d1 / name).read_bytes() == (d2 / name).read_bytes())

    # the bench CSV embeds wall-clock timing; every other cell must match
    wall = BENCH_COLUMNS.index("wall_time_ms")
    with open(d1 / "bench.csv", newline="") as fh:
        rows1 = [r[:wall] + r[wall + 1:] for r in csv.reader(fh)]
    with open(d2 / "bench.csv", newline="") as fh:
        rows2 = [r[:wall] + r[wall + 1:] for r in csv.reader(fh)]
    identical.append(rows1 == rows2)

    ok = all(identical)
    assert _report(10, "cli-determinism", ok), identical
