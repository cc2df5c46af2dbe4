"""The measuring scripts under tools/ import private package names that
nothing else reads; these runs keep a rename from breaking them silently."""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from mwmatch import AlignGraph, EtaTopology, f_score, make_instance
from mwmatch.syncbaseline import _stacked

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # the scripts set BLAS thread variables and extend sys.path on import
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


eig_timing = _load("eig_timing")
seed_error = _load("seed_error")


def _tensor():
    return make_instance(4, 3, EtaTopology("star", 0.01, 0.30), 0)[2]


def test_eig_timing_measures_a_stacked_matrix():
    a = _stacked(_tensor())
    gap, products, lapack_ms, lanczos_ms = eig_timing.measure(a, 3)
    w = np.linalg.eigvalsh(a)[::-1]
    assert gap == (w[2] - w[3]) / abs(w[0])
    assert products >= 3 and lapack_ms > 0 and lanczos_ms > 0


def test_seed_error_scores_every_pair_by_its_raw_f_score():
    t = _tensor()
    g = seed_error.raw_score_graph(t)
    assert isinstance(g, AlignGraph) and g.n == t.n
    for i, j in t.pairs():
        assert g.weights[i, j] == g.weights[j, i] == f_score(t.block(i, j))
