import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwmatch.errors import ParseError, SizeError, ValidationError
from mwmatch.fileio import (
    HEADER_LIMIT,
    read_instance,
    read_points,
    read_solution,
    truth_from_labels,
    write_instance,
    write_points,
    write_solution,
)
from mwmatch.matchmodel import TENSOR_BYTES_CAP, SimilarityTensor, Solution, check_tensor_size, gen_ground_truth

import util


class TestInstanceRoundTrip:
    def test_tensor_and_truth(self, tmp_path):
        truth, tensor = util.noisy_instance(4, 3, eta=0.15, seed=501)
        path = str(tmp_path / "inst.json")
        write_instance(path, tensor, truth)
        back_t, back_truth = read_instance(path)
        assert back_t.n == 4 and back_t.m == 3
        for i, j in tensor.pairs():
            assert np.array_equal(back_t.block(i, j), tensor.block(i, j))
        assert back_truth == truth

    def test_without_truth(self, tmp_path):
        _, tensor = util.noiseless_instance(3, 2, seed=502)
        path = str(tmp_path / "inst.json")
        write_instance(path, tensor)
        _, back_truth = read_instance(path)
        assert back_truth is None

    def test_float_values_bit_exact(self, tmp_path):
        t = util.uniform_tensor(3, 4, seed=503)
        path = str(tmp_path / "inst.json")
        write_instance(path, t)
        back, _ = read_instance(path)
        for i, j in t.pairs():
            assert np.array_equal(back.block(i, j), t.block(i, j))

    def test_write_is_deterministic(self, tmp_path):
        _, tensor = util.noisy_instance(3, 3, eta=0.1, seed=504)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_instance(str(p1), tensor)
        write_instance(str(p2), tensor)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_bytes_equal_whole_object_dump(self, tmp_path, with_truth):
        # the header line as json.dumps writes it, then the raw packed bytes
        truth, tensor = util.noisy_instance(6, 4, eta=0.2, seed=507)
        header = {"format_version": 4, "n": 6, "m": 4}
        if with_truth:
            header["truth"] = truth.maps.tolist()
        want = util.instance_file(tmp_path / "want.json", header, tensor.packed)
        got = tmp_path / "got.json"
        write_instance(str(got), tensor, truth if with_truth else None)
        assert got.read_bytes() == open(want, "rb").read()
        assert got.stat().st_size == got.read_bytes().index(b"\n") + 1 + 4 * 15 * 4 * 4

    def test_trailing_newline_and_compact(self, tmp_path):
        _, tensor = util.noiseless_instance(2, 2, seed=505)
        path = tmp_path / "inst.json"
        write_instance(str(path), tensor)
        header, _, payload = path.read_bytes().partition(b"\n")
        assert header == b'{"format_version":4,"n":2,"m":2}'
        assert payload == tensor.packed.astype("<f4").tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        _, tensor = util.noisy_instance(5, 3, eta=0.3, seed=509)
        first, second = tmp_path / "a.inst", tmp_path / "b.inst"
        write_instance(str(first), tensor)
        back, _ = read_instance(str(first))
        write_instance(str(second), back)
        assert first.read_bytes() == second.read_bytes()

    def test_format_3_is_refused(self, tmp_path):
        # the float64 layout of the last format: same header line, 8 bytes per entry
        path = util.instance_file(tmp_path / "old.inst", {"format_version": 3, "n": 2, "m": 2},
                                  np.asarray([[0.5, 0.25], [0.0, 1.0]], dtype="<f8").tobytes())
        with pytest.raises(ValidationError, match="unsupported format_version 3"):
            read_instance(path)

    def test_wrong_length_names_float32(self, tmp_path):
        path = util.instance_file(tmp_path / "short.inst", {"format_version": 4, "n": 3, "m": 2},
                                  bytes(4 * 3 * 2 * 2 * 2))
        with pytest.raises(ValidationError,
                           match=r"payload has 96 bytes, expected 48 for 3 blocks of 2 x 2 float32"):
            read_instance(path)


@st.composite
def packed_tensors(draw):
    """(n, packed) over the float32 values a tensor may hold, -0.0 and
    subnormals included."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    size = n * (n - 1) // 2 * m * m
    big = util.LARGEST_ENTRY
    values = draw(st.lists(st.floats(-big, big, width=32), min_size=size, max_size=size))
    return n, np.array(values, dtype=np.float32).reshape(-1, m, m)


# The class and test names below predate formats 3 and 4; they are kept so
# that each test keeps its id across the format changes.
class TestFormat2:
    @settings(max_examples=60, deadline=None)
    @given(packed_tensors())
    @example((1, np.empty((0, 2, 2))))
    @example((2, np.array([[[-0.0, 1e-45], [-util.LARGEST_ENTRY, util.LARGEST_ENTRY]]], dtype=np.float32)))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, case):
        n, packed = case
        tensor = SimilarityTensor(n, packed)
        path = str(tmp_path_factory.mktemp("v3") / "inst.json")
        write_instance(path, tensor)
        back, _ = read_instance(path)
        assert (back.n, back.m) == (tensor.n, tensor.m)
        assert back.packed.tobytes() == tensor.packed.tobytes()

    def test_read_adopts_the_decoded_buffer(self, tmp_path):
        # the one array the reader allocates becomes the tensor's packed array
        _, tensor = util.noisy_instance(4, 3, eta=0.2, seed=508)
        path = str(tmp_path / "inst.json")
        write_instance(path, tensor)
        made = []
        real = np.empty

        def recording_empty(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        with mock.patch.object(np, "empty", recording_empty):
            back, _ = read_instance(path)
        assert len(made) == 1 and back.packed is made[0]
        assert not back.packed.flags.writeable

    def test_solution_with_format_version_2_refused(self, tmp_path):
        path = tmp_path / "sol.json"
        path.write_text('{"format_version":2,"n":1,"m":2,"perms":[[0,1]]}')
        with pytest.raises(ValidationError, match="format_version"):
            read_solution(str(path))

    @pytest.mark.parametrize("n", [2, 3, 60, 13_377])
    def test_largest_header_under_the_cap_fits_the_limit(self, n):
        # 4 bytes per block entry, 8 per pair-index entry
        m = math.isqrt((TENSOR_BYTES_CAP - 8 * n * n) // 4 // (n * (n - 1) // 2))
        check_tensor_size(n, m)
        with pytest.raises(SizeError):
            check_tensor_size(n, m + 1)
        if n == 2:
            assert m == 23_170  # the longest header: fileio's HEADER_LIMIT comment
        header = {"format_version": 4, "n": n, "m": m, "truth": [list(range(m))] * n}
        assert len(json.dumps(header, separators=(",", ":"))) + 1 <= HEADER_LIMIT


class TestInstanceValidation:
    def write_obj(self, tmp_path, obj, packed=((1.0, 0.0), (0.0, 1.0))):
        return util.instance_file(tmp_path / "bad.json", obj, packed)

    def base_obj(self):
        return {"format_version": 4, "n": 2, "m": 2}

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_bytes(b'{"n": 2, "m": ]}\n' + bytes(32))
        with pytest.raises(ParseError) as exc:
            read_instance(str(path))
        assert "header line, column 15" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_instance(str(tmp_path / "nope.json"))

    def test_wrong_version(self, tmp_path):
        obj = self.base_obj()
        obj["format_version"] = 99
        with pytest.raises(ValidationError):
            read_instance(self.write_obj(tmp_path, obj))

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_an_integer(self, tmp_path, version):
        obj = self.base_obj()
        obj["format_version"] = version
        with pytest.raises(ValidationError, match="format_version"):
            read_instance(self.write_obj(tmp_path, obj))

    def test_non_finite_entry(self, tmp_path):
        path = self.write_obj(tmp_path, self.base_obj(), ((1.0, 0.0), (float("inf"), 1.0)))
        with pytest.raises(ValidationError, match="non-finite"):
            read_instance(path)

    def test_oversized_header_refused_before_allocating(self, tmp_path):
        # one 30000 x 30000 block would take 7.2 GB
        obj = self.base_obj()
        obj["m"] = 30_000
        path = self.write_obj(tmp_path, obj)
        with mock.patch.object(np, "empty", side_effect=AssertionError("allocated")):
            with pytest.raises(SizeError):
                read_instance(path)

    @pytest.mark.parametrize("tail", [b"", bytes(1)], ids=["short", "long"])
    def test_length_disagreeing_with_the_header_refused_before_allocating(self, tmp_path, tail):
        # n=13000, m=1 is under the cap: 337,974,000 payload bytes expected
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"format_version":4,"n":13000,"m":1}\n' + tail)
        with mock.patch.object(np, "empty", side_effect=AssertionError("allocated")):
            with pytest.raises(ValidationError, match=f"payload has {len(tail)} bytes, expected 337974000"):
                read_instance(str(path))

    def test_non_integer_truth_entries(self, tmp_path):
        obj = self.base_obj()
        obj["truth"] = [[1.7, 0.2], [0, 1]]
        with pytest.raises(ValidationError, match="integers"):
            read_instance(self.write_obj(tmp_path, obj))

    # truth rows are an instance's only JSON number array
    @pytest.mark.parametrize("rows", [
        [["x", 0], [0, 1]],
        [["1", "0"], ["0", "1"]],
        [[None, 0], [0, 1]],
        [[10**400, 0], [0, 1]],
    ], ids=["letter", "numeric-string", "null", "beyond-float"])
    def test_non_numeric_rows(self, tmp_path, rows):
        obj = self.base_obj()
        obj["truth"] = rows
        with pytest.raises(ValidationError, match="integers"):
            read_instance(self.write_obj(tmp_path, obj))

    def test_bool_rows(self, tmp_path):
        obj = self.base_obj()
        obj["truth"] = [[True, False], [False, True]]
        with pytest.raises(ValidationError, match="integers"):
            read_instance(self.write_obj(tmp_path, obj))


class TestSolutionRoundTrip:
    def test_round_trip(self, tmp_path):
        s = gen_ground_truth(5, 4, seed=510)
        path = str(tmp_path / "sol.json")
        write_solution(path, s)
        back = read_solution(path)
        assert back == s and hash(back) == hash(s)

    def test_rejects_non_permutation_rows(self, tmp_path):
        path = tmp_path / "sol.json"
        path.write_text('{"format_version":1,"n":1,"m":2,"perms":[[0,0]]}')
        with pytest.raises(ValidationError):
            read_solution(str(path))

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "sol.json"
        path.write_text('{"format_version":1,"n":2,"m":2,"perms":[[0,1]]}')
        with pytest.raises(ValidationError):
            read_solution(str(path))


class TestPointsRoundTrip:
    def test_with_labels(self, tmp_path):
        rng = np.random.default_rng(511)
        pts = rng.standard_normal((3, 4, 2))
        labels = [[3, 1, 4, 2], [1, 2, 3, 4], [4, 3, 2, 1]]
        path = str(tmp_path / "pts.json")
        write_points(path, pts, labels)
        back_pts, back_labels = read_points(path)
        assert np.array_equal(back_pts, pts)
        assert back_labels == labels

    def test_without_labels(self, tmp_path):
        pts = np.zeros((2, 3, 1))
        path = str(tmp_path / "pts.json")
        write_points(path, pts)
        _, labels = read_points(path)
        assert labels is None

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text('{"n":2,"m":2,"d":1,"sets":[[[0.0],[1.0]]]}')
        with pytest.raises(ValidationError):
            read_points(str(path))

    @pytest.mark.parametrize("sets", ['[[[0.5],[true]]]', '[[["0.5"],["2"]]]', '[[[0.5],[null]]]',
                                      '[[["x"],[0.5]]]'],
                             ids=["bool", "numeric-string", "null", "letter"])
    def test_rejects_bool_coordinates(self, tmp_path, sets):
        path = tmp_path / "pts.json"
        path.write_text('{"n":1,"m":2,"d":1,"sets":%s}' % sets)
        with pytest.raises(ValidationError, match="real numbers"):
            read_points(str(path))

    @pytest.mark.parametrize("big", [2**63, 10**30], ids=["2**63", "10**30"])
    def test_integer_beyond_int64_reads_as_float(self, tmp_path, big):
        path = tmp_path / "pts.json"
        path.write_text('{"n":1,"m":2,"d":1,"sets":[[[%d],[0.5]]]}' % big)
        pts, _ = read_points(str(path))
        assert pts.tolist() == [[[float(big)], [0.5]]]

    def test_rejects_duplicate_labels_in_set(self, tmp_path):
        path = tmp_path / "pts.json"
        obj = {"n": 2, "m": 2, "d": 1,
               "sets": [[[0.0], [1.0]], [[2.0], [3.0]]],
               "labels": [[1, 1], [1, 2]]}
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            read_points(str(path))

    def test_rejects_inconsistent_label_sets(self, tmp_path):
        path = tmp_path / "pts.json"
        obj = {"n": 2, "m": 2, "d": 1,
               "sets": [[[0.0], [1.0]], [[2.0], [3.0]]],
               "labels": [[1, 2], [1, 3]]}
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            read_points(str(path))

    def test_rejects_non_integer_labels(self, tmp_path):
        path = tmp_path / "pts.json"
        obj = {"n": 1, "m": 2, "d": 1, "sets": [[[0.0], [1.0]]],
               "labels": [[1.0, 2.0]]}
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            read_points(str(path))


class TestTruthFromLabels:
    def test_matching_labels_match_ideal_blocks(self):
        # elements agree under the implied pairwise map iff labels equal
        labels = [[7, 3, 5], [5, 7, 3], [3, 5, 7]]
        truth = truth_from_labels(labels)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                blk = util.perm_matrix(truth.pairwise(i, j))
                for p in range(3):
                    for q in range(3):
                        same = labels[i][p] == labels[j][q]
                        assert blk[p, q] == (1.0 if same else 0.0)

    def test_identity_when_labels_ordered(self):
        truth = truth_from_labels([[1, 2, 3], [1, 2, 3]])
        assert truth.maps.tolist() == [[0, 1, 2], [0, 1, 2]]

    def test_solution_type(self):
        truth = truth_from_labels([[2, 1], [1, 2]])
        assert isinstance(truth, Solution)
        assert truth.n == 2 and truth.m == 2
