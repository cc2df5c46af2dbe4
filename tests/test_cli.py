import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import mwmatch
from mwmatch.cli import BENCH_COLUMNS, main
from mwmatch.evalbench import ALGO_NAMES, run_algorithm
from mwmatch.fileio import (
    HEADER_LIMIT,
    read_instance,
    read_solution,
    write_instance,
    write_points,
    write_solution,
)
from mwmatch.matchmodel import Solution, gen_ground_truth

import util


def run(args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def template_points(seed, n=6, m=4, d=2, jitter=0.0):
    rng = np.random.default_rng(seed)
    template = rng.standard_normal((m, d))
    truth = gen_ground_truth(n, m, seed + 1)
    pts = np.stack([template[np.argsort(row)] for row in truth.maps])
    if jitter:
        pts = pts + jitter * rng.standard_normal(pts.shape)
    labels = np.argsort(truth.maps, axis=1).tolist()
    # row r of set i holds template row map_inv[r]; its label is that row id
    return pts, labels, truth


class TestGen:
    def test_writes_instance_with_truth(self, tmp_path, capsys):
        out = str(tmp_path / "inst.json")
        code = run(["gen", "--n", "5", "--m", "4", "--topology", "star",
                    "--eta-tree", "0.01", "--eta-off", "0.2", "--seed", "3",
                    "--out", out])
        assert code == 0
        tensor, truth = read_instance(out)
        assert tensor.n == 5 and tensor.m == 4
        assert truth is not None
        stdout = capsys.readouterr().out
        assert "theorem2_bound=" in stdout
        assert "theorem2_satisfied=" in stdout

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["gen", "--n", "4", "--m", "3", "--topology", "path",
                        "--eta-tree", "0.05", "--eta-off", "0.1", "--seed", "9",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_eta_exits_2(self, tmp_path):
        code = run(["gen", "--n", "4", "--m", "3", "--topology", "star",
                    "--eta-tree", "-0.5", "--eta-off", "0.1",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_oversized_tensor_exits_3_before_allocating(self, tmp_path, capsys):
        # 5 * 10^9 blocks of 100 x 100: refused before truth, etas or blocks exist
        with util.within_seconds(2, "gen with n=100000, m=100"):
            code = run(["gen", "--n", "100000", "--m", "100", "--topology", "star",
                        "--eta-tree", "0.01", "--eta-off", "0.3",
                        "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "cap" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_eta_breaking_the_value_rule_exits_3_naming_it(self, tmp_path, capsys):
        # the squared draws overflow; numpy's RuntimeWarning would fail this test
        out = tmp_path / "x.json"
        code = run(["gen", "--n", "10", "--m", "5", "--topology", "star",
                    "--eta-tree", "0.01", "--eta-off", "1e308", "--seed", "1",
                    "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: eta 1e+308 is too large: ")
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path):
        out = tmp_path / "x.json"
        assert run(["gen", "--n", "4", "--m", "3", "--topology", "star",
                    "--eta-tree", "0.1", "--eta-off", "0.1", "--seed", "-1",
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_topology_exits_2(self, tmp_path):
        code = run(["gen", "--n", "4", "--m", "3", "--topology", "ring",
                    "--eta-tree", "0.1", "--eta-off", "0.1",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2


class TestRbf:
    def test_labels_become_truth(self, tmp_path):
        pts, labels, truth = template_points(601)
        ppath = str(tmp_path / "pts.json")
        out = str(tmp_path / "inst.json")
        write_points(ppath, pts, labels)
        assert run(["rbf", "--points", ppath, "--sigma", "0.5", "--out", out]) == 0
        tensor, embedded = read_instance(out)
        assert embedded is not None
        for i in range(truth.n):
            for j in range(truth.n):
                if i != j:
                    assert np.array_equal(embedded.pairwise(i, j), truth.pairwise(i, j))

    def test_median_sigma_echoed(self, tmp_path, capsys):
        pts, labels, _ = template_points(602)
        ppath = str(tmp_path / "pts.json")
        write_points(ppath, pts, labels)
        assert run(["rbf", "--points", ppath, "--out", str(tmp_path / "i.json")]) == 0
        assert "sigma=" in capsys.readouterr().err

    def test_bad_sigma_exits_2(self, tmp_path):
        pts, labels, _ = template_points(603)
        ppath = str(tmp_path / "pts.json")
        write_points(ppath, pts, labels)
        assert run(["rbf", "--points", ppath, "--sigma", "zero",
                    "--out", str(tmp_path / "i.json")]) == 2

    def test_overflowing_sigma_exits_2(self, tmp_path, capsys):
        ppath = str(tmp_path / "pts.json")
        write_points(ppath, np.array([[[0.0], [1e200]], [[0.0], [-1e200]]]), None)
        assert run(["rbf", "--points", ppath, "--sigma", "1e200",
                    "--out", str(tmp_path / "i.json")]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_malformed_points_exits_3(self, tmp_path, capsys):
        ppath = tmp_path / "pts.json"
        ppath.write_text('{"n": 1,\n "m": }\n')
        code = run(["rbf", "--points", str(ppath), "--sigma", "1.0",
                    "--out", str(tmp_path / "i.json")])
        assert code == 3
        assert "line" in capsys.readouterr().err


class TestSolve:
    def gen_instance(self, tmp_path, eta_off="0.0", n="5", m="4"):
        out = str(tmp_path / "inst.json")
        assert run(["gen", "--n", n, "--m", m, "--topology", "uniform",
                    "--eta-tree", "0.0", "--eta-off", eta_off, "--seed", "7",
                    "--out", out]) == 0
        return out

    def test_all_algorithms_recover_noiseless(self, tmp_path, capsys):
        inst = self.gen_instance(tmp_path)
        for algo in ("pairwise", "coord", "alg1", "alg2-prim", "alg2-kruskal", "sync"):
            sol = str(tmp_path / f"sol-{algo}.json")
            assert run(["solve", "--instance", inst, "--algo", algo, "--out", sol]) == 0
            out = capsys.readouterr().out
            assert f"algo={algo}" in out
            assert "objective=" in out and "converged=true" in out
            assert run(["eval", "--solution", sol, "--instance", inst]) == 0
            assert capsys.readouterr().out.strip() == "error_rate=0.000000"

    def test_footer_trace_matches_objective(self, tmp_path, capsys):
        inst = self.gen_instance(tmp_path, eta_off="0.1")
        sol = str(tmp_path / "sol.json")
        assert run(["solve", "--instance", inst, "--algo", "alg1", "--out", sol]) == 0
        lines = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        trace = [float(v) for v in lines["objective_trace"].split(",")]
        assert float(lines["objective"]) == trace[-1]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert lines["sweeps"].isdigit()

    def test_deterministic_solution_files(self, tmp_path):
        inst = self.gen_instance(tmp_path, eta_off="0.15")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["solve", "--instance", inst, "--algo", "alg2-prim",
                        "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_convergence_exits_4(self, tmp_path):
        # random-start ascent cannot finish in one sweep on a scrambled instance
        inst = self.gen_instance(tmp_path, eta_off="0.2", n="6", m="5")
        code = run(["solve", "--instance", inst, "--algo", "coord",
                    "--max-sweeps", "1", "--seed", "1",
                    "--out", str(tmp_path / "s.json")])
        assert code == 4

    def test_alg2_merge_cap_exits_4(self, tmp_path):
        inst = self.gen_instance(tmp_path, eta_off="0.3", n="6", m="5")
        for algo in ("alg2-prim", "alg2-kruskal"):
            sol = str(tmp_path / f"{algo}.json")
            assert run(["solve", "--instance", inst, "--algo", algo, "--out", sol]) == 0
            assert run(["solve", "--instance", inst, "--algo", algo,
                        "--max-sweeps", "1", "--out", sol]) == 4

    def test_every_algo_matches_run_algorithm(self, tmp_path):
        inst = self.gen_instance(tmp_path, eta_off="0.25", n="8", m="5")
        tensor, _ = read_instance(inst)
        for algo in ALGO_NAMES:
            sol = str(tmp_path / f"{algo}.json")
            assert run(["solve", "--instance", inst, "--algo", algo,
                        "--seed", "3", "--out", sol]) == 0
            assert read_solution(sol) == run_algorithm(algo, tensor, 3)

    def test_hostile_n_exits_3_before_allocating(self, tmp_path, capsys):
        # n=13000, m=1 is under the cap; the tiny file's length refuses it
        inst = util.instance_file(tmp_path / "hostile.json",
                                  {"format_version": 3, "n": 13_000, "m": 1})
        with util.within_seconds(2, "instance with hostile n"), \
                mock.patch.object(np, "empty", side_effect=AssertionError("allocated")):
            code = run(["solve", "--instance", inst, "--algo", "alg1",
                        "--out", str(tmp_path / "s.json")])
        assert code == 3
        assert "payload has 0 bytes, expected 675948000" in capsys.readouterr().err

    def test_hostile_format2_header_exits_3_before_allocating(self, tmp_path, capsys):
        inst = util.instance_file(tmp_path / "hostile.json",
                                  {"format_version": 3, "n": 1_000_000, "m": 2})
        with util.within_seconds(2, "instance header with hostile n"), \
                mock.patch.object(np, "empty", side_effect=AssertionError("allocated")):
            code = run(["solve", "--instance", inst, "--algo", "alg1",
                        "--out", str(tmp_path / "s.json")])
        assert code == 3
        assert "cap is" in capsys.readouterr().err

    def test_unknown_algo_exits_2(self, tmp_path):
        inst = self.gen_instance(tmp_path)
        assert run(["solve", "--instance", inst, "--algo", "greedy",
                    "--out", str(tmp_path / "s.json")]) == 2

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--max-sweeps", "0")])
    def test_bad_solver_setting_exits_2_before_reading(self, tmp_path, flag, value):
        assert run(["solve", "--instance", str(tmp_path / "none.json"), "--algo", "alg1",
                    flag, value, "--out", str(tmp_path / "s.json")]) == 2

    def test_schedule_flag_is_gone(self, tmp_path):
        inst = self.gen_instance(tmp_path)
        assert run(["solve", "--instance", inst, "--algo", "alg1", "--schedule", "random",
                    "--out", str(tmp_path / "s.json")]) == 2

    def test_missing_instance_exits_3(self, tmp_path):
        assert run(["solve", "--instance", str(tmp_path / "none.json"),
                    "--algo", "alg1", "--out", str(tmp_path / "s.json")]) == 3


@pytest.mark.parametrize("command", ["solve", "rbf"])
def test_integer_too_large_for_a_float_exits_3(tmp_path, capsys, command):
    big = 10**400
    path = tmp_path / "in.json"
    if command == "solve":
        # an instance's only JSON numbers beyond its counts are its truth rows
        util.instance_file(path, {"format_version": 3, "n": 2, "m": 2,
                                  "truth": [[big, 0], [0, 1]]}, _GOOD)
        args = ["solve", "--instance", str(path), "--algo", "alg1"]
        message = "permutation maps must be integers"
    else:
        path.write_text(json.dumps({"n": 2, "m": 2, "d": 1,
                                    "sets": [[[big], [0.0]], [[1.0], [2.0]]]}))
        args = ["rbf", "--points", str(path), "--sigma", "1.0"]
        message = "too large for a float"
    assert run(args + ["--out", str(tmp_path / "out.json")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["rbf"], ["pca", "--methods", "alg1", "--k-list", "1"]],
                         ids=["rbf", "pca"])
def test_oversized_points_tensor_exits_3_before_the_median(tmp_path, capsys, command):
    # 30000 sets of one point need a 3.6 GB tensor; the median would print sigma= first
    ppath = str(tmp_path / "pts.json")
    write_points(ppath, np.random.default_rng(623).random((30_000, 1, 1)))
    assert run(command + ["--points", ppath, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "cap" in err and "sigma=" not in err


@pytest.mark.parametrize("command", ["gen", "rbf", "solve", "bench", "pca"])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, command):
    ppath = str(tmp_path / "pts.json")
    write_points(ppath, template_points(624)[0])
    inst = str(tmp_path / "inst.json")
    write_instance(inst, util.uniform_tensor(4, 3, seed=625))
    args = {
        "gen": ["gen", "--n", "4", "--m", "3", "--topology", "star",
                "--eta-tree", "0.01", "--eta-off", "0.1"],
        "rbf": ["rbf", "--points", ppath, "--sigma", "0.5"],
        "solve": ["solve", "--instance", inst, "--algo", "alg1"],
        "bench": ["bench", "--n", "4", "--m", "3", "--topology", "star", "--eta-tree", "0.01",
                  "--eta-off", "0.1", "--algos", "pairwise", "--seeds", "1"],
        "pca": ["pca", "--points", ppath, "--methods", "none", "--k-list", "1"],
    }[command]
    out = str(tmp_path / "missing" / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # bench's n=4 sits below the regime floor
        assert run(args + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and out in err and "Traceback" not in err


def _payload(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


# n=2, m=2: a 33-byte header line, then 32 payload bytes
_HEADER = b'{"format_version":3,"n":2,"m":2}\n'
_GOOD = _payload([[0.5, 0.25], [0.0, 1.0]])
# the same tensor as format 2 wrote it
_FORMAT2 = b'{"format_version":2,"n":2,"m":2,"packed":"AAAAAAAA4D8AAAAAAADQPwAAAAAAAAAAAAAAAAAA8D8="}\n'


# The first twelve ids name the format 2 cases that each format 3 case replaces.
@pytest.mark.parametrize("content, cause", [
    (_HEADER + _GOOD[:-1], "payload has 31 bytes, expected 32"),
    (_HEADER + _GOOD + b"\0", "payload has 33 bytes, expected 32"),
    (_HEADER[:-1], "the header line must end in a newline"),
    (b'{"format_version":3,"n":2,"m":2,}\n' + _GOOD, "header line, column 33"),
    (b'{"format_version":3,"n":2,"m":2,"x":"\xe9"}\n' + _GOOD, "header line is not UTF-8"),
    (_HEADER + _GOOD[:-8], "payload has 24 bytes, expected 32"),
    (b"[3,2,2]\n" + _GOOD, "top level must be a JSON object"),
    (b"null\n" + _GOOD, "top level must be a JSON object"),
    (_HEADER + _payload([[float("nan"), 0.0], [0.0, 1.0]]), "non-finite"),
    (_HEADER + _payload([[0.5, 0.0], [float("-inf"), 1.0]]), "non-finite"),
    (_HEADER + _payload([[1e308, 0.0], [0.0, 1.0]]), "2*n*(n-1)*m*max|T|"),
    (b'{"format_version":3,"n":2,"m":30000}\n' + _GOOD, "cap is"),
    (_HEADER, "payload has 0 bytes, expected 32"),
    (b"{" + b" " * HEADER_LIMIT + b"}\n" + _GOOD, "a format 3 instance starts with one JSON header"),
    (_FORMAT2, "unsupported format_version 2"),
    (b'{"format_version":1,"n":2,"m":2,"blocks":[]}\n', "unsupported format_version 1"),
    (b'{"format_version":3,"n":"2","m":2}\n' + _GOOD, "field 'n' must be an integer"),
], ids=["truncated", "one-char-too-many", "discontinuous-padding", "non-base64-char",
        "non-ascii-char", "short-decode", "list", "null", "nan", "inf", "over-bound", "over-cap",
        "no-payload", "header-over-limit", "format-2", "format-1", "string-count"])
def test_malformed_format2_exits_3(tmp_path, capsys, content, cause):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    assert run(["solve", "--instance", str(path), "--algo", "alg1",
                "--out", str(tmp_path / "s.json")]) == 3
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err


def test_a_large_format2_file_exits_3_naming_the_format(tmp_path, capsys):
    # at n=60, m=20 a format 2 file is one 7.6 MB line, longer than any format 3 header
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"format_version":2,"n":60,"m":20,"packed":"' + b"A" * 7_552_000 + b'"}\n')
    assert run(["solve", "--instance", str(path), "--algo", "alg1",
                "--out", str(tmp_path / "s.json")]) == 3
    err = capsys.readouterr().err
    assert "format 3 instance" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", ["eval-solution", "eval-truth", "rbf", "pca"])
def test_instance_given_as_a_json_file_exits_3_naming_it(tmp_path, capsys, entry):
    # 0.5's float64 bytes end in E0 3F, which is not UTF-8
    inst = str(tmp_path / "inst.bin")
    Path(inst).write_bytes(_HEADER + _GOOD)
    sol = str(tmp_path / "s.json")
    write_solution(sol, gen_ground_truth(2, 2, seed=0))
    out = str(tmp_path / "out")
    args = {
        "eval-solution": ["eval", "--solution", inst, "--truth", sol],
        "eval-truth": ["eval", "--solution", sol, "--truth", inst],
        "rbf": ["rbf", "--points", inst, "--sigma", "0.5", "--out", out],
        "pca": ["pca", "--points", inst, "--methods", "none", "--k-list", "1", "--out", out],
    }[entry]
    assert run(args) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {inst}: file is not UTF-8"]


@pytest.mark.parametrize("module", ["mwmatch", "mwmatch.cli"])
def test_python_dash_m_runs_the_command_line(tmp_path, module):
    # the child imports the package these tests import
    src = str(Path(mwmatch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "inst.json"
    gen = [sys.executable, "-m", module, "gen", "--m", "3", "--topology", "star",
           "--eta-tree", "0.01", "--eta-off", "0.1", "--out", str(out)]
    ok = subprocess.run(gen + ["--n", "4"], capture_output=True, env=env)
    assert ok.returncode == 0 and b"theorem2_bound=" in ok.stdout
    assert read_instance(str(out))[0].n == 4
    bad = subprocess.run(gen + ["--n", "0"], capture_output=True, env=env)
    assert bad.returncode == 2 and b"error:" in bad.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_pipe_exits_2_naming_standard_output(tmp_path, unbuffered):
    # buffered, the write fails at main's flush; unbuffered, at the print
    src = str(Path(mwmatch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mwmatch", "gen", "--n", "3", "--m", "2", "--topology", "star",
             "--eta-tree", "0.01", "--eta-off", "0.3", "--out", str(tmp_path / "x")],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == b"error: cannot write standard output: Broken pipe\n"
    assert read_instance(str(tmp_path / "x"))[0].n == 3


class TestEval:
    def test_transposition_error_rate(self, tmp_path, capsys):
        n, m = 4, 5
        truth = Solution(np.tile(np.arange(m), (n, 1)))
        tpath = str(tmp_path / "truth.json")
        spath = str(tmp_path / "sol.json")
        write_solution(tpath, truth)
        write_solution(spath, util.replace_row(truth, 1, [1, 0, 2, 3, 4]))
        assert run(["eval", "--solution", spath, "--truth", tpath]) == 0
        assert capsys.readouterr().out.strip() == "error_rate=0.200000"

    @pytest.mark.parametrize("rows", [[[0.9, 1.5, 2.2]], [[True, False, 2]], [[10**30, 0, 1]]])
    def test_non_int64_solution_entries_exit_3(self, tmp_path, capsys, rows):
        spath = tmp_path / "sol.json"
        spath.write_text(json.dumps({"format_version": 1, "n": 1, "m": 3, "perms": rows}))
        tpath = str(tmp_path / "truth.json")
        write_solution(tpath, gen_ground_truth(1, 3, seed=0))
        assert run(["eval", "--solution", str(spath), "--truth", tpath]) == 3
        assert "integers" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_non_integer_format_version_exits_3(self, tmp_path, capsys, version):
        spath = tmp_path / "sol.json"
        spath.write_text(json.dumps({"format_version": version, "n": 1, "m": 3,
                                     "perms": [[0, 1, 2]]}))
        tpath = str(tmp_path / "truth.json")
        write_solution(tpath, gen_ground_truth(1, 3, seed=0))
        assert run(["eval", "--solution", str(spath), "--truth", tpath]) == 3
        assert "format_version" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path):
        s = str(tmp_path / "sol.json")
        write_solution(s, gen_ground_truth(3, 3, seed=0))
        assert run(["eval", "--solution", s]) == 2
        assert run(["eval", "--solution", s, "--truth", s, "--instance", s]) == 2

    def test_instance_without_truth_exits_3(self, tmp_path):
        from mwmatch.fileio import write_instance

        _, tensor = util.noiseless_instance(3, 3, seed=610)
        ipath = str(tmp_path / "inst.json")
        write_instance(ipath, tensor)
        spath = str(tmp_path / "sol.json")
        write_solution(spath, gen_ground_truth(3, 3, seed=0))
        assert run(["eval", "--solution", spath, "--instance", ipath]) == 3

    def test_shape_mismatch_exits_3(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        write_solution(a, gen_ground_truth(3, 3, seed=0))
        write_solution(b, gen_ground_truth(3, 4, seed=0))
        assert run(["eval", "--solution", a, "--truth", b]) == 3


class TestBench:
    def bench_args(self, out, jobs=None):
        args = ["bench", "--n", "5", "--m", "3,4", "--topology", "star",
                "--eta-tree", "0.01", "--eta-off", "0.2",
                "--algos", "pairwise,alg2-prim", "--seeds", "3", "--out", out]
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        return args

    def test_csv_shape_and_header(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        with pytest.warns(UserWarning):
            assert run(self.bench_args(out)) == 0
        rows = read_csv(out)
        # the header comes from BenchRecord's field order; pin the file format
        assert rows[0] == list(BENCH_COLUMNS) == [
            "algo", "n", "m", "topology", "eta_tree", "eta_off", "seed",
            "error_rate", "objective", "exact_recovery", "wall_time_ms",
            "theorem2_bound", "theorem2_satisfied"]
        assert len(rows) == 1 + 2 * 2 * 3  # algos x ms x seeds
        assert capsys.readouterr().out.strip() == f"records={2 * 2 * 3}"

    def test_rows_sorted_and_typed(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        with pytest.warns(UserWarning):
            assert run(self.bench_args(out)) == 0
        rows = read_csv(out)[1:]
        keys = [(r[0], int(r[1]), int(r[2]), float(r[4]), float(r[5]), int(r[6]), r[3])
                for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r[9] in ("true", "false")
            assert r[12] in ("true", "false")
            err = float(r[7])
            assert 0.0 <= err <= 1.0
            assert (r[9] == "true") == (err == 0.0)
            float(r[8]); float(r[10]); float(r[11])  # parseable floats

    def test_deterministic_modulo_wall_time(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        with pytest.warns(UserWarning):
            assert run(self.bench_args(a)) == 0
        with pytest.warns(UserWarning):
            assert run(self.bench_args(b, jobs=2)) == 0
        wall = BENCH_COLUMNS.index("wall_time_ms")
        rows_a = [r[:wall] + r[wall + 1:] for r in read_csv(a)]
        rows_b = [r[:wall] + r[wall + 1:] for r in read_csv(b)]
        assert rows_a == rows_b

    def test_float_cells_round_trip(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        with pytest.warns(UserWarning):
            assert run(self.bench_args(out)) == 0
        for r in read_csv(out)[1:]:
            for idx in (4, 5, 7, 8, 11):
                cell = r[idx]
                assert repr(float(cell)) == cell

    def test_no_numpy_scalar_cells_for_any_algo(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        with pytest.warns(UserWarning):
            assert run(["bench", "--n", "4", "--m", "3", "--topology", "star",
                        "--eta-tree", "0.01", "--eta-off", "0.2",
                        "--algos", ",".join(ALGO_NAMES), "--seeds", "1",
                        "--out", out]) == 0
        rows = read_csv(out)[1:]
        assert sorted({r[0] for r in rows}) == sorted(ALGO_NAMES)
        for r in rows:
            assert not any("np." in cell for cell in r), r

    def test_bad_topology_exits_2(self, tmp_path):
        assert run(["bench", "--n", "4", "--m", "3", "--topology", "mesh",
                    "--eta-tree", "0", "--eta-off", "0",
                    "--algos", "alg1", "--seeds", "1",
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_count_list_exits_2(self, tmp_path):
        assert run(["bench", "--n", "4x", "--m", "3", "--topology", "star",
                    "--eta-tree", "0", "--eta-off", "0",
                    "--algos", "alg1", "--seeds", "1",
                    "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "0"), ("--seeds", "-1"), ("--jobs", "0"), ("--eta-off", "0.1,-1")])
    def test_bad_value_exits_2(self, tmp_path, flag, value):
        out = tmp_path / "x.csv"
        args = self.bench_args(str(out))
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
        assert run(args) == 2
        assert not out.exists()

    def test_eta_too_large_for_the_tensor_exits_3(self, tmp_path, capsys):
        args = ["bench", "--n", "10", "--m", "5", "--topology", "star", "--eta-tree", "1e308",
                "--eta-off", "1e308", "--algos", "alg1", "--seeds", "1",
                "--out", str(tmp_path / "bench.csv")]
        with pytest.warns(UserWarning) as caught:
            assert run(args) == 3
        assert "eta 1e+308 is too large" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestPcaCommand:
    def test_csv_output(self, tmp_path):
        pts, labels, _ = template_points(620, n=8, m=4, jitter=0.01)
        ppath = str(tmp_path / "pts.json")
        write_points(ppath, pts, labels)
        out = str(tmp_path / "pca.csv")
        assert run(["pca", "--points", ppath, "--methods", "none,alg2-prim",
                    "--k-list", "1,2", "--sigma", "0.5", "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["method", "k", "reconstruction_error"]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("none", "1"), ("none", "2"), ("alg2-prim", "1"), ("alg2-prim", "2")
        ]
        errs = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
        # aligned sets of a jittered shared template compress far better
        assert errs[("alg2-prim", "2")] < errs[("none", "2")]

    def test_none_only_skips_tensor(self, tmp_path):
        rng = np.random.default_rng(621)
        ppath = str(tmp_path / "pts.json")
        write_points(ppath, rng.standard_normal((4, 3, 2)))
        out = str(tmp_path / "pca.csv")
        assert run(["pca", "--points", ppath, "--methods", "none",
                    "--k-list", "1,2,3", "--out", out]) == 0
        errs = [float(r[2]) for r in read_csv(out)[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_unknown_method_exits_2(self, tmp_path):
        ppath = str(tmp_path / "pts.json")
        write_points(ppath, np.zeros((2, 2, 1)))
        assert run(["pca", "--points", ppath, "--methods", "magic",
                    "--k-list", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_negative_seed_exits_2(self, tmp_path):
        ppath = str(tmp_path / "pts.json")
        write_points(ppath, np.zeros((2, 2, 1)))
        out = tmp_path / "x.csv"
        assert run(["pca", "--points", ppath, "--methods", "alg1",
                    "--k-list", "1", "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_k_out_of_range_exits_2(self, tmp_path):
        rng = np.random.default_rng(622)
        ppath = str(tmp_path / "pts.json")
        write_points(ppath, rng.standard_normal((3, 2, 2)))
        assert run(["pca", "--points", ppath, "--methods", "none",
                    "--k-list", "9", "--out", str(tmp_path / "x.csv")]) == 2


class TestParser:
    def test_no_command_exits_2(self):
        assert run([]) == 2

    def test_unknown_command_exits_2(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "gen" in capsys.readouterr().out
