"""The measuring scripts under tools/ import private package names that
nothing else reads; these runs keep a rename from breaking them silently."""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from mwmatch import EtaTopology, SolverConfig, make_instance
from mwmatch import solver
from mwmatch.evalbench import SOLVERS
from mwmatch.syncbaseline import RESIDUAL_TOL, _stacked

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # the scripts set BLAS thread variables and extend sys.path on import
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


eig_timing = _load("eig_timing")
solve_timing = _load("solve_timing")


def _tensor():
    return make_instance(4, 3, EtaTopology("star", 0.01, 0.30), 0)[2]


def test_eig_timing_measures_a_stacked_matrix():
    t = _tensor()
    a = _stacked(t)
    gap, products, lapack_ms, lanczos_ms = eig_timing.measure(a, 3)
    w = np.linalg.eigvalsh(a)[::-1]
    assert gap == (w[2] - w[3]) / abs(w[0])
    assert products >= 3 and lapack_ms > 0 and lanczos_ms > 0
    sync_ms, sync_products, residual = eig_timing.measure_sync(t)
    assert sync_ms > 0 and sync_products >= 3
    assert 0 <= residual < RESIDUAL_TOL
    row = eig_timing.row("star", a, 3, t)
    assert row.count("|") == eig_timing.SYNC_HEAD.splitlines()[0].count("|")


def test_solve_timing_counts_each_solvers_laps_and_hashes_its_answer():
    t = _tensor()
    real = solver.lap_max
    for name in solve_timing.NAMES:
        ms, calls, report = solve_timing.measure(t, name, 5)
        want = SOLVERS[name](t, SolverConfig(seed=5))
        assert ms > 0 and calls >= t.n - 1
        assert solver.lap_max is real
        assert solve_timing.digest([report]) == solve_timing.digest([want])
        assert report.solution == want.solution
        # the trace's last bits are not part of the answer the hash pins
        moved = dataclasses.replace(report, objective_trace=tuple(v + 1e-9 for v in report.objective_trace))
        assert solve_timing.digest([moved]) == solve_timing.digest([report])
        other = dataclasses.replace(report, sweeps_run=report.sweeps_run + 1)
        assert solve_timing.digest([other]) != solve_timing.digest([report])
