"""Command-line interface: gen, rbf, solve, eval, bench, pca.

Exit codes: 0 success, 2 usage (bad flags or parameter values, or an
unwritable output path), 3 invalid or unparseable input data, 4 solver
non-convergence. Diagnostics go to stderr; data goes to stdout and
output files. Every command is deterministic for a fixed seed, except
wall-clock fields.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import os
import sys
import time

from .errors import (
    ConvergenceError,
    DimensionError,
    ParameterError,
    ParseError,
    SizeError,
    ValidationError,
)
from .evalbench import (
    ALGO_NAMES,
    SOLVERS,
    BenchRecord,
    TOPOLOGY_KINDS,
    EtaTopology,
    make_instance,
    noise_sweep,
    pca_experiment,
    sort_records,
    theorem2_bound,
    theorem2_satisfied,
)
from .fileio import (
    read_instance,
    read_points,
    read_solution,
    truth_from_labels,
    write_instance,
    write_solution,
)
from .matchmodel import check_tensor_size, median_heuristic_sigma, tensor_from_points
from .solver import SolverConfig

BENCH_COLUMNS = tuple(f.name for f in dataclasses.fields(BenchRecord))

_METHODS = ("none",) + ALGO_NAMES


def _bool_str(v: bool) -> str:
    return "true" if v else "false"


def _split_list(text: str, name: str, conv):
    items = [s.strip() for s in str(text).split(",") if s.strip()]
    if not items:
        raise ParameterError(f"--{name} needs at least one value")
    try:
        return [conv(s) for s in items]
    except ValueError as exc:
        raise ParameterError(f"--{name}: {exc}") from exc


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _points_tensor(points, spec: str):
    """The Gaussian-kernel tensor of points at --sigma spec, a number or
    'median'. The size is checked before the O(n^2) median, which is echoed to stderr."""
    check_tensor_size(points.shape[0], points.shape[1])
    if spec == "median":
        sigma = median_heuristic_sigma(points)
        print(f"sigma={sigma!r}", file=sys.stderr)
    else:
        try:
            sigma = float(spec)
        except ValueError as exc:
            raise ParameterError(f"--sigma must be a number or 'median', got {spec!r}") from exc
    return tensor_from_points(points, sigma)


def cmd_gen(args) -> int:
    topology = EtaTopology(kind=args.topology, eta_tree=args.eta_tree, eta_off=args.eta_off)
    truth, etas, tensor = make_instance(args.n, args.m, topology, args.seed)
    write_instance(args.out, tensor, truth)
    print(f"theorem2_bound={theorem2_bound(args.n, args.m)!r}")
    print(f"theorem2_satisfied={_bool_str(theorem2_satisfied(args.n, args.m, etas))}")
    return 0


def cmd_rbf(args) -> int:
    points, labels = read_points(args.points)
    tensor = _points_tensor(points, args.sigma)
    truth = truth_from_labels(labels) if labels is not None else None
    write_instance(args.out, tensor, truth)
    return 0


def cmd_solve(args) -> int:
    cfg = SolverConfig(max_sweeps=args.max_sweeps, seed=args.seed)
    tensor, _ = read_instance(args.instance)
    t0 = time.perf_counter()
    report = SOLVERS[args.algo](tensor, cfg)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if not report.converged:
        raise ConvergenceError(
            f"{args.algo} did not converge within {cfg.max_sweeps} sweeps"
        )
    write_solution(args.out, report.solution)
    print(f"algo={args.algo}")
    print(f"objective={report.objective_trace[-1]!r}")
    print("objective_trace=" + ",".join(repr(v) for v in report.objective_trace))
    print(f"sweeps={report.sweeps_run}")
    print(f"converged={_bool_str(report.converged)}")
    print(f"wall_time_ms={elapsed_ms!r}")
    return 0


def cmd_eval(args) -> int:
    # looked up at call time, so a wrapper put on evalbench.avg_error_rate
    # (perfbench's tracer) sees the call
    from .evalbench import avg_error_rate

    if (args.truth is None) == (args.instance is None):
        raise ParameterError("provide exactly one of --truth or --instance")
    sol = read_solution(args.solution)
    if args.truth is not None:
        truth = read_solution(args.truth)
    else:
        _, truth = read_instance(args.instance)
        if truth is None:
            raise ValidationError(f"{args.instance}: no embedded ground truth")
    print(f"error_rate={avg_error_rate(sol, truth):.6f}")
    return 0


def cmd_bench(args) -> int:
    ns = _split_list(args.n, "n", int)
    ms = _split_list(args.m, "m", int)
    topologies = _split_list(args.topology, "topology", str)
    eta_trees = _split_list(args.eta_tree, "eta-tree", float)
    eta_offs = _split_list(args.eta_off, "eta-off", float)
    algos = _split_list(args.algos, "algos", str)
    # every topology is built, and so checked, before the first sweep runs
    cells = [EtaTopology(kind=kind, eta_tree=et, eta_off=eo)
             for kind, et, eo in itertools.product(topologies, eta_trees, eta_offs)]
    records = []
    for n, m, topology in itertools.product(ns, ms, cells):
        records.extend(noise_sweep(topology, n, m, algos, args.seeds, jobs=args.jobs))
    records = sort_records(records)
    _write_csv(args.out, BENCH_COLUMNS,
               ([_bool_str(v) if isinstance(v, bool) else v
                 for v in (getattr(r, c) for c in BENCH_COLUMNS)] for r in records))
    print(f"records={len(records)}")
    return 0


def cmd_pca(args) -> int:
    cfg = SolverConfig(seed=args.seed)
    methods = _split_list(args.methods, "methods", str)
    for meth in methods:
        if meth not in _METHODS:
            raise ParameterError(f"unknown method {meth!r}; choose from {_METHODS}")
    k_values = _split_list(args.k_list, "k-list", int)
    points, _ = read_points(args.points)
    tensor = None if set(methods) == {"none"} else _points_tensor(points, args.sigma)
    solutions = {meth: None if meth == "none" else SOLVERS[meth](tensor, cfg).solution
                 for meth in methods}
    rows = pca_experiment(points, solutions, k_values)
    _write_csv(args.out, ("method", "k", "reconstruction_error"),
               ([method, k, repr(err)] for method, k, err in rows))
    print(f"rows={len(rows)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwm",
        description="Consistent multi-way matching: generators, solvers, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded noisy instance with embedded truth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--topology", choices=TOPOLOGY_KINDS, required=True)
    p.add_argument("--eta-tree", type=float, required=True)
    p.add_argument("--eta-off", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rbf", help="Gaussian-kernel instance from a points file")
    p.add_argument("--points", required=True)
    p.add_argument("--sigma", default="median", help="bandwidth value or 'median'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rbf)

    p = sub.add_parser("solve", help="run one solver on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=ALGO_NAMES, required=True)
    p.add_argument("--max-sweeps", type=int, default=SolverConfig.max_sweeps)
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="average pairwise-map error of a solution")
    p.add_argument("--solution", required=True)
    p.add_argument("--truth", help="solution file holding ground truth")
    p.add_argument("--instance", help="instance file with embedded truth")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="seeded noise sweeps to CSV")
    p.add_argument("--n", required=True, help="comma list")
    p.add_argument("--m", required=True, help="comma list")
    p.add_argument("--topology", required=True, help="comma list")
    p.add_argument("--eta-tree", required=True, help="comma list")
    p.add_argument("--eta-off", required=True, help="comma list")
    p.add_argument("--algos", required=True, help="comma list")
    p.add_argument("--seeds", type=int, required=True, help="seed count (0..N-1)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("pca", help="reconstruction error of aligned point sets")
    p.add_argument("--points", required=True)
    p.add_argument("--methods", required=True, help="comma list; 'none' = unaligned")
    p.add_argument("--k-list", required=True, help="comma list of component counts")
    p.add_argument("--sigma", default="median", help="bandwidth value or 'median'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pca)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe on stdout fails here, not at exit
        return code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DimensionError, SizeError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # every read turns its OSError into a ParseError
        where = "standard output" if exc.filename is None else exc.filename
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    code = main(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:  # main reported it; drop the unwritten output, or exit would flush it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
