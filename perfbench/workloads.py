"""Workloads of the mwmatch benchmark: instances, timed steps, answer checks.

A workload is a fixed problem cell (n, m, star noise layout) plus the
ordered steps run on every instance of it. Instances come from a pool of
make_instance seeds whose answers were recorded in reference.json; the run
seed only picks the order in which the pool is visited.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mwmatch import (
    EtaTopology,
    Solution,
    SolverConfig,
    avg_error_rate,
    lap_max,
    make_instance,
    objective,
    pairwise_alignment,
    permutation_synchronization,
    solve_alg1,
    solve_alg2,
    sym_eigs_topk,
)
from mwmatch import cli
from mwmatch.fileio import read_solution

# The acceptance c05 noise layout: a low-noise star with its hub at n - 1.
TOPOLOGY = EtaTopology(kind="star", eta_tree=0.01, eta_off=0.30)

# mwmatch.solver.IMPROVE_TOL when the reference was recorded. A timed
# answer may fall below the reference objective by at most this much per
# unit of objective, which absorbs float summation-order changes only.
IMPROVE_TOL = 1e-9
# Error rates are sums of k/m terms; this absorbs summation-order changes.
ERROR_TOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark cell: instance size, steps per instance, seed pool."""

    name: str
    n: int
    m: int
    steps: tuple
    pool: int

    @property
    def uses_cli(self) -> bool:
        return self.steps[0].startswith("cli.")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("star60", 60, 20, ("pairwise", "alg1", "alg2-prim", "alg2-kruskal", "sync"), 40),
        Workload("star200", 200, 30, ("alg1",), 10),
        Workload("cli_io", 60, 20, ("cli.gen", "cli.solve", "cli.eval"), 40),
    )
}


def instance_seeds(w: Workload, seed: int) -> list:
    """The pool's make_instance seeds in the order this run visits them."""
    return [int(s) for s in np.random.default_rng(seed).permutation(w.pool)]


@dataclass
class Instance:
    """One instance of a workload. In-process workloads hold the tensor;
    the CLI workload holds only its file paths until the answer check."""

    seed: int
    truth: Solution | None = None
    tensor: object = None
    instance_path: str = ""
    solution_path: str = ""


def prepare(w: Workload, seed: int, workdir: str) -> Instance:
    """Build the inputs of one instance (untimed: it belongs to set-up)."""
    if w.uses_cli:
        return Instance(
            seed=seed,
            instance_path=os.path.join(workdir, "instance.json"),
            solution_path=os.path.join(workdir, "solution.json"),
        )
    truth, _, tensor = make_instance(w.n, w.m, TOPOLOGY, seed)
    return Instance(seed=seed, truth=truth, tensor=tensor)


def _cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def run_step(w: Workload, step: str, inst: Instance):
    """Run one step; the return value is what the answer check inspects.

    Solver configs are the defaults evalbench.run_algorithm uses.
    """
    t = inst.tensor
    if step == "pairwise":
        return pairwise_alignment(t)
    if step == "alg1":
        return solve_alg1(t, SolverConfig(seed=inst.seed)).solution
    if step == "alg2-prim":
        return solve_alg2(t, SolverConfig(order="prim", seed=inst.seed)).solution
    if step == "alg2-kruskal":
        return solve_alg2(t, SolverConfig(order="kruskal", seed=inst.seed)).solution
    if step == "sync":
        return permutation_synchronization(t)
    if step == "cli.gen":
        return _cli(["gen", "--n", w.n, "--m", w.m, "--topology", TOPOLOGY.kind,
                     "--eta-tree", TOPOLOGY.eta_tree, "--eta-off", TOPOLOGY.eta_off,
                     "--seed", inst.seed, "--out", inst.instance_path])
    if step == "cli.solve":
        return _cli(["solve", "--instance", inst.instance_path, "--algo", "alg1",
                     "--out", inst.solution_path])
    if step == "cli.eval":
        return _cli(["eval", "--solution", inst.solution_path,
                     "--instance", inst.instance_path])
    raise ValueError(f"unknown step {step!r}")


def _valid_solution(s, n: int, m: int) -> bool:
    if not isinstance(s, Solution) or s.n != n or s.m != m:
        return False
    return all(sorted(p.map.tolist()) == list(range(m)) for p in s.perms)


def answer(w: Workload, step: str, inst: Instance, out):
    """(error_rate, objective) of a step's output, or None if it is invalid.

    CLI steps are scored through the files they wrote. The eval step
    reports the error rate it printed, which must match the solution file.
    """
    if w.uses_cli:
        if inst.truth is None:
            inst.truth, _, inst.tensor = make_instance(w.n, w.m, TOPOLOGY, inst.seed)
        code, text = out
        if code != 0:
            return None
        if step == "cli.gen":
            return (0.0, 0.0) if os.path.getsize(inst.instance_path) > 0 else None
        sol = read_solution(inst.solution_path)
        if not _valid_solution(sol, w.n, w.m):
            return None
        err = avg_error_rate(sol, truth=inst.truth)
        if step == "cli.eval" and text.strip() != f"error_rate={err:.6f}":
            return None
        return float(err), float(objective(inst.tensor, sol))
    if not _valid_solution(out, w.n, w.m):
        return None
    return float(avg_error_rate(out, inst.truth)), float(objective(inst.tensor, out))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def matches_reference(got, ref) -> bool:
    """No higher error rate and no lower objective than the reference."""
    if got is None:
        return False
    err, obj = got
    ref_err, ref_obj = ref
    return (err <= ref_err + ERROR_TOL
            and ref_obj - obj <= IMPROVE_TOL * max(1.0, abs(ref_obj)))


def warm_up(w: Workload, workdir: str) -> None:
    """First-call costs (scipy's first assignment, LAPACK's first eigh,
    lazy code paths) paid before timing, on a tiny instance of the same
    steps."""
    lap_max(np.eye(3))
    sym_eigs_topk(np.eye(4), 2)
    tiny = Workload(w.name, 4, 3, w.steps, 1)
    inst = prepare(tiny, 0, workdir)
    for step in tiny.steps:
        run_step(tiny, step, inst)
