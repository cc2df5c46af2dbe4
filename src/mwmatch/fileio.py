"""On-disk formats for the command-line tools: UTF-8 JSON, one object per
file. Instance files carry format_version 2 and solution files
format_version 1; a file of either kind with any other version is
refused before anything else in it is read. Points files carry no
format_version.

An instance file holds the n(n-1)/2 stored blocks (i < j only) as the
tensor's packed block array: one base64 string "packed" of little-endian
float64 in C order, about 11 characters per entry against about 20 for
a float literal. It may embed ground-truth permutations as integer
lists under "truth". The reader checks the header against the tensor
size cap and the payload's exact length before decoding, and the
decoded buffer becomes the packed array without a copy;
SimilarityTensor checks finiteness and, with strict, the [0, 1] range.
Solution files carry the n permutation maps. Points files carry n sets
of m points in R^d plus optional integer correspondence labels.

Every numeric JSON field is a rectangular number array under the rule
that caller arrays follow, assignment._numbers, applied once per field:
strings, nulls and bools are refused, never parsed or read as 1 and 0.
Permutation entries and labels must be integers; point coordinates are
any numbers a float can hold. Header counts are single JSON integers.
Point coordinates are emitted through Python's shortest round-trip repr
and the payload holds the exact bytes, so every written file reads back
to equal values and re-runs are byte-identical.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .assignment import _numbers
from .errors import ParseError, ValidationError, _is_int
from .matchmodel import SimilarityTensor, Solution, check_tensor_size, validate_point_sets

SOLUTION_VERSION = 1
INSTANCE_VERSION = 2


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def _expect_int(obj, key, minimum, where):
    v = obj.get(key)
    if not _is_int(v) or v < minimum:
        raise ValidationError(f"{where}: field {key!r} must be an integer >= {minimum}")
    return v


def _check_version(obj, where, version):
    """ValidationError unless obj is an object whose format_version is
    the integer version."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: top level must be a JSON object")
    got = obj.get("format_version")
    if not _is_int(got) or got != version:
        raise ValidationError(f"{where}: unsupported format_version {got!r}")


def _perm_rows(rows, n, m, where):
    try:
        s = Solution(rows)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    if s.n != n:
        raise ValidationError(f"{where}: expected {n} permutation rows")
    if s.m != m:
        raise ValidationError(f"{where}: each permutation row must have {m} entries")
    return s


def write_instance(path: str, tensor: SimilarityTensor, truth: Solution | None = None) -> None:
    """Write the instance in format 2: the packed blocks as one base64
    payload of little-endian float64."""
    payload = base64.b64encode(tensor.packed.astype("<f8", copy=False).tobytes())
    obj = {
        "format_version": INSTANCE_VERSION,
        "n": tensor.n,
        "m": tensor.m,
        "packed": payload.decode("ascii"),
    }
    if truth is not None:
        obj["truth"] = truth.maps.tolist()
    _dump_json(path, obj)


def _packed_v2(obj, n, m, path) -> np.ndarray:
    """The packed array decoded from format 2's base64 payload, read-only
    and sharing memory with the decoded bytes. The size cap and the exact
    payload length are checked before anything is decoded."""
    check_tensor_size(n, m)
    n_pairs = n * (n - 1) // 2
    nbytes = 8 * n_pairs * m * m
    text = obj.get("packed")
    if not isinstance(text, str):
        raise ValidationError(f"{path}: field 'packed' must be a base64 string")
    want = 4 * -(-nbytes // 3)
    if len(text) != want:
        raise ValidationError(
            f"{path}: field 'packed' has {len(text)} base64 characters, expected {want} "
            f"for {n_pairs} blocks of {m} x {m} float64"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValidationError(f"{path}: field 'packed' is not valid base64: {exc}") from None
    if len(raw) != nbytes:
        raise ValidationError(f"{path}: field 'packed' decodes to {len(raw)} bytes, expected {nbytes}")
    return np.frombuffer(raw, dtype="<f8").reshape(n_pairs, m, m)


def read_instance(path: str, strict: bool = False):
    """Load (tensor, truth-or-None) from a format 2 file. strict rejects
    entries outside [0, 1]."""
    obj = _load_json(path)
    _check_version(obj, path, INSTANCE_VERSION)
    n = _expect_int(obj, "n", 1, path)
    m = _expect_int(obj, "m", 1, path)
    tensor = SimilarityTensor(n, _packed_v2(obj, n, m, path), check_range=strict)
    truth = None
    if "truth" in obj:
        truth = _perm_rows(obj["truth"], n, m, path)
    return tensor, truth


def write_solution(path: str, s: Solution) -> None:
    obj = {
        "format_version": SOLUTION_VERSION,
        "n": s.n,
        "m": s.m,
        "perms": s.maps.tolist(),
    }
    _dump_json(path, obj)


def read_solution(path: str) -> Solution:
    obj = _load_json(path)
    _check_version(obj, path, SOLUTION_VERSION)
    n = _expect_int(obj, "n", 1, path)
    m = _expect_int(obj, "m", 1, path)
    return _perm_rows(obj.get("perms"), n, m, path)


def write_points(path: str, points, labels=None) -> None:
    pts = validate_point_sets(points)
    n, m, d = pts.shape
    obj = {"n": n, "m": m, "d": d, "sets": pts.tolist()}
    if labels is not None:
        obj["labels"] = [[int(x) for x in row] for row in labels]
    _dump_json(path, obj)


def read_points(path: str):
    """Load (points (n, m, d), labels-or-None). Labels are validated as a
    consistent correspondence: distinct within each set, same label set
    everywhere."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    n = _expect_int(obj, "n", 1, path)
    m = _expect_int(obj, "m", 1, path)
    d = _expect_int(obj, "d", 1, path)
    pts = _numbers(obj.get("sets"), "iuf", f"{path}: coordinates in 'sets'")
    if pts.shape != (n, m, d):
        raise ValidationError(f"{path}: 'sets' has shape {pts.shape}, header says {(n, m, d)}")
    pts = validate_point_sets(pts)
    labels = None
    if "labels" in obj:
        raw = obj["labels"]
        if _numbers(raw, "iu", f"{path}: labels").shape != (n, m):
            raise ValidationError(f"{path}: 'labels' must be an {n} x {m} integer grid")
        base = set(raw[0])
        if len(base) != m:
            raise ValidationError(f"{path}: labels within a set must be distinct")
        for row in raw:
            if set(row) != base or len(set(row)) != m:
                raise ValidationError(f"{path}: every set must carry the same label set")
        labels = raw
    return pts, labels


def truth_from_labels(labels) -> Solution:
    """Ground-truth permutations implied by correspondence labels.

    Elements sharing a label correspond; each permutation lists the set's
    element indices in global label-rank order, which makes the implied
    ideal blocks match the "same label" relation exactly.
    """
    rank = {lab: r for r, lab in enumerate(sorted(labels[0]))}
    return Solution(np.argsort([[rank[lab] for lab in row] for row in labels], axis=1))
