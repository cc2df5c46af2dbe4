"""On-disk formats for the command-line tools: UTF-8 JSON, one object per
file, format_version 1 throughout.

Instance files carry the n(n-1)/2 stored blocks (i < j only) and may
embed ground-truth permutations. They are written one block at a time
and read straight into the tensor's packed block array. Solution files
carry the n permutation maps. Points files carry n sets of m points in
R^d plus optional integer correspondence labels. Header counts, block
indices, permutation entries and labels must be JSON integers; a float
or a bool there is refused, never truncated. Block rows and point
coordinates must be JSON numbers; a bool there is refused, never read as
1.0 or 0.0. Floats are emitted through Python's shortest
round-trip repr, so every written file re-parses to equal values and
re-runs are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError, ValidationError
from .matchmodel import SimilarityTensor, Solution, _as_block, _empty_packed, validate_point_sets

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


def _held_bool(arr, value) -> bool:
    """Whether the nested JSON list value, read as the float array arr of
    the same shape, held a bool. A bool reads as 1.0 or 0.0, so only an
    array with such an entry is scanned."""
    if not ((arr == 0.0) | (arr == 1.0)).any():
        return False
    for _ in range(arr.ndim - 1):
        value = [x for row in value for x in row]
    return any(type(x) is bool for x in value)


def _expect_int(obj, key, minimum, where):
    v = obj.get(key)
    if not _is_int(v) or v < minimum:
        raise ValidationError(f"{where}: field {key!r} must be an integer >= {minimum}")
    return v


def _check_version(obj, where):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: top level must be a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise ValidationError(f"{where}: unsupported format_version {obj.get('format_version')!r}")


def _perm_rows(rows, n, m, where):
    if not isinstance(rows, list) or len(rows) != n:
        raise ValidationError(f"{where}: expected {n} permutation rows")
    for row in rows:
        if not isinstance(row, list) or len(row) != m:
            raise ValidationError(f"{where}: each permutation row must have {m} entries")
        if not all(_is_int(x) for x in row):
            raise ValidationError(f"{where}: bad permutation row: entries must be integers")
    try:
        return Solution(rows)
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
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: each block must be an object")
        i = entry.get("i")
        j = entry.get("j")
        if not _is_int(i) or not _is_int(j) or not (0 <= i < j < n):
            raise ValidationError(f"{path}: bad block indices ({i!r}, {j!r})")
        if (i, j) in seen:
            raise ValidationError(f"{path}: duplicate block ({i}, {j})")
        seen.add((i, j))
    n_pairs = n * (n - 1) // 2
    if len(seen) != n_pairs:
        raise ValidationError(f"blocks must cover exactly the {n_pairs} pairs (i, j) with i < j")
    packed = _empty_packed(n, m)
    for entry in raw:
        i, j = entry["i"], entry["j"]
        rows = entry.get("rows")
        try:
            arr = np.array(rows, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"{path}: block ({i}, {j}) rows are not numeric") from exc
        block = _as_block(arr, (i, j), m)
        if _held_bool(block, rows):
            raise ValidationError(f"{path}: block ({i}, {j}) rows are not numeric")
        # position of (i, j) in lexicographic pair order
        packed[i * (2 * n - i - 1) // 2 + j - i - 1] = block
    tensor = SimilarityTensor.from_packed(n, packed, check_range=strict)
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
    sets = obj.get("sets")
    try:
        pts = np.array(sets, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{path}: field 'sets' is not numeric") from exc
    if pts.shape != (n, m, d):
        raise ValidationError(f"{path}: 'sets' has shape {pts.shape}, header says {(n, m, d)}")
    if _held_bool(pts, sets):
        raise ValidationError(f"{path}: field 'sets' is not numeric")
    pts = validate_point_sets(pts)
    labels = None
    if "labels" in obj:
        raw = obj["labels"]
        if (not isinstance(raw, list) or len(raw) != n
                or any(not isinstance(r, list) or len(r) != m for r in raw)):
            raise ValidationError(f"{path}: 'labels' must be an {n} x {m} integer grid")
        for row in raw:
            if not all(_is_int(x) for x in row):
                raise ValidationError(f"{path}: labels must be integers")
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
