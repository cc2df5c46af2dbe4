"""On-disk formats for the command-line tools: UTF-8 JSON, one object per
file, format_version 1 throughout.

Instance files carry the n(n-1)/2 stored blocks (i < j only) and may
embed ground-truth permutations. They are written one block at a time
and read in one pass straight into the tensor's packed block array.
Solution files carry the n permutation maps. Points files carry n sets
of m points in R^d plus optional integer correspondence labels.

Every numeric field is a rectangular JSON number array under one rule:
strings, nulls and bools are refused, never parsed or read as 1 and 0.
Permutation entries and labels must be integers; block rows and point
coordinates are any numbers a float can hold. Header counts and block
indices are single JSON integers. Floats are emitted through Python's
shortest round-trip repr, so every written file re-parses to equal
values and re-runs are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionError, ParseError, ValidationError
from .matchmodel import SimilarityTensor, Solution, _empty_packed, validate_point_sets

FORMAT_VERSION = 1


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


def _is_int(v) -> bool:
    """A JSON integer: bools are ints to Python but not to a file format."""
    return isinstance(v, int) and not isinstance(v, bool)


def _numbers(value, kinds: str, what: str) -> np.ndarray:
    """The nested JSON list value as an array of numpy dtype kind in kinds,
    "i" for integers only or "fi" for any numbers. Ragged lists, strings,
    nulls and bools raise ValidationError naming what; an empty list is
    left to the caller's shape check."""
    try:
        arr = np.array(value)
    except ValueError:
        raise ValidationError(f"{what} are ragged") from None
    # integers beyond int64 give a uint64 or object array, still read as floats
    if "f" in kinds and arr.dtype.kind in "uO" and all(
            type(x) in (int, float) for x in arr.ravel().tolist()):
        try:
            arr = arr.astype(np.float64)
        except OverflowError:
            raise ValidationError(f"{what} hold an integer too large for a float") from None
    bad = arr.size and arr.dtype.kind not in kinds
    if not bad and ((arr == 0) | (arr == 1)).any():
        # numpy reads a bool among numbers as 1 or 0, so only then is value scanned
        flat = [value]
        for _ in range(arr.ndim):
            flat = [x for row in flat for x in row]
        bad = any(type(x) is bool for x in flat)
    if bad:
        raise ValidationError(f"{what} {'must be integers' if kinds == 'i' else 'are not numeric'}")
    return arr


def _expect_int(obj, key, minimum, where):
    v = obj.get(key)
    if not _is_int(v) or v < minimum:
        raise ValidationError(f"{where}: field {key!r} must be an integer >= {minimum}")
    return v


def _check_version(obj, where):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: top level must be a JSON object")
    version = obj.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ValidationError(f"{where}: unsupported format_version {version!r}")


def _perm_rows(rows, n, m, where):
    maps = _numbers(rows, "i", f"{where}: permutation entries")
    if maps.ndim != 2 or maps.shape[0] != n:
        raise ValidationError(f"{where}: expected {n} permutation rows")
    if maps.shape[1] != m:
        raise ValidationError(f"{where}: each permutation row must have {m} entries")
    try:
        return Solution(maps)
    except ValidationError as exc:
        raise ValidationError(f"{where}: bad permutation row: {exc}") from exc


def write_instance(path: str, tensor: SimilarityTensor, truth: Solution | None = None) -> None:
    """Write the instance one block at a time; the bytes equal a json.dump
    of the whole object with compact separators."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"format_version":{FORMAT_VERSION},"n":{tensor.n},"m":{tensor.m},"blocks":[')
        for k, (i, j) in enumerate(tensor.pairs()):
            if k:
                fh.write(",")
            fh.write(encode({"i": i, "j": j, "rows": tensor.packed[k].tolist()}))
        fh.write("]")
        if truth is not None:
            fh.write(',"truth":' + encode(truth.maps.tolist()))
        fh.write("}\n")


def read_instance(path: str, strict: bool = False):
    """Load (tensor, truth-or-None). strict rejects entries outside [0, 1]."""
    obj = _load_json(path)
    _check_version(obj, path)
    n = _expect_int(obj, "n", 1, path)
    m = _expect_int(obj, "m", 1, path)
    raw = obj.get("blocks")
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: field 'blocks' must be a list")
    # with the count right, n(n-1)/2 distinct valid pairs cover them all
    n_pairs = n * (n - 1) // 2
    if len(raw) != n_pairs:
        raise ValidationError(f"blocks must cover exactly the {n_pairs} pairs (i, j) with i < j")
    packed = _empty_packed(n, m)
    filled = np.zeros(n_pairs, dtype=bool)
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: each block must be an object")
        i = entry.get("i")
        j = entry.get("j")
        if not _is_int(i) or not _is_int(j) or not (0 <= i < j < n):
            raise ValidationError(f"{path}: bad block indices ({i!r}, {j!r})")
        # position of (i, j) in lexicographic pair order
        k = i * (2 * n - i - 1) // 2 + j - i - 1
        if filled[k]:
            raise ValidationError(f"{path}: duplicate block ({i}, {j})")
        filled[k] = True
        block = _numbers(entry.get("rows"), "fi", f"{path}: block ({i}, {j}) rows")
        if block.shape != (m, m):
            raise DimensionError(f"block {(i, j)} has shape {block.shape}, expected {(m, m)}")
        packed[k] = block
    tensor = SimilarityTensor(n, packed, check_range=strict)
    truth = None
    if "truth" in obj:
        truth = _perm_rows(obj["truth"], n, m, path)
    return tensor, truth


def write_solution(path: str, s: Solution) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "n": s.n,
        "m": s.m,
        "perms": s.maps.tolist(),
    }
    _dump_json(path, obj)


def read_solution(path: str) -> Solution:
    obj = _load_json(path)
    _check_version(obj, path)
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
    pts = _numbers(obj.get("sets"), "fi", f"{path}: coordinates in 'sets'")
    if pts.shape != (n, m, d):
        raise ValidationError(f"{path}: 'sets' has shape {pts.shape}, header says {(n, m, d)}")
    pts = validate_point_sets(pts)
    labels = None
    if "labels" in obj:
        raw = obj["labels"]
        if _numbers(raw, "i", f"{path}: labels").shape != (n, m):
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
