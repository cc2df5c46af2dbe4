"""On-disk formats for the command-line tools. Solution and points files
are UTF-8 JSON, one object per file; an instance file is one compact
JSON header line followed by raw bytes, so it is not JSON. Instance
files carry format_version 4 and solution files format_version 1; a
file of either kind with any other version is refused before anything
else in it is read. Points files carry no format_version.

An instance file is the header line
{"format_version":4,"n":...,"m":...,"truth":[[...]]}, "truth" optional,
then exactly 4 * n(n-1)/2 * m^2 bytes: the tensor's packed blocks (i < j
only) as little-endian float32 in C order, the values the tensor holds,
4 bytes per entry against about 20 for a float literal. Format 3, the
same layout with float64 blocks, is refused like any other version. The
reader takes the header within HEADER_LIMIT bytes, checks its version,
counts and the tensor size cap, and compares the file's length with the
exact payload size before it allocates the packed array, which it fills
straight from the file; SimilarityTensor applies its value rule and asks
for no range.
Ground-truth permutations in "truth" are integer lists. Solution files
carry the n permutation maps. Points files carry n sets of m points in
R^d plus optional integer correspondence labels.

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

import json
import os

import numpy as np

from .assignment import _numbers
from .errors import ParseError, ValidationError, _is_int
from .matchmodel import SimilarityTensor, Solution, check_tensor_size, validate_point_sets

SOLUTION_VERSION = 1
INSTANCE_VERSION = 4
# The longest header a tensor under the cap allows, n=2 and m=23170 with
# truth, is 255,870 bytes.
HEADER_LIMIT = 1 << 20


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError:
        raise ParseError(f"{path}: file is not UTF-8") from None
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
    """Write the instance in format 4: the JSON header line, then the
    packed blocks as raw little-endian float32."""
    header = {"format_version": INSTANCE_VERSION, "n": tensor.n, "m": tensor.m}
    if truth is not None:
        header["truth"] = truth.maps.tolist()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        fh.write(memoryview(tensor.packed.astype("<f4", copy=False)))


def _instance_header(line: bytes, path: str):
    if len(line) == HEADER_LIMIT and not line.endswith(b"\n"):
        raise ValidationError(
            f"{path}: no newline in the first {HEADER_LIMIT} bytes; a format 4 instance "
            "starts with one JSON header line"
        )
    try:
        return json.loads(line.decode("utf-8"))
    except UnicodeDecodeError:
        raise ParseError(f"{path}: header line is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: header line, column {exc.colno}: {exc.msg}") from None


def read_instance(path: str):
    """Load (tensor, truth-or-None) from a format 4 file. The header, the
    size cap and the file's length are checked before the packed array
    is allocated."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline(HEADER_LIMIT)
            header = _instance_header(line, path)
            _check_version(header, path, INSTANCE_VERSION)
            n = _expect_int(header, "n", 1, path)
            m = _expect_int(header, "m", 1, path)
            check_tensor_size(n, m)
            if not line.endswith(b"\n"):
                raise ValidationError(f"{path}: the header line must end in a newline")
            n_pairs = n * (n - 1) // 2
            nbytes = 4 * n_pairs * m * m
            got = os.fstat(fh.fileno()).st_size - len(line)
            if got != nbytes:
                raise ValidationError(
                    f"{path}: payload has {got} bytes, expected {nbytes} "
                    f"for {n_pairs} blocks of {m} x {m} float32"
                )
            packed = np.empty((n_pairs, m, m), dtype="<f4")
            if fh.readinto(packed) != nbytes or fh.read(1):
                raise ValidationError(f"{path}: file changed while it was read")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    tensor = SimilarityTensor(n, packed)
    truth = None
    if "truth" in header:
        truth = _perm_rows(header["truth"], n, m, path)
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
