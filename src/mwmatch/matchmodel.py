"""Problem model: similarity tensors, solutions, generators, objective.

A problem instance over n element sets of m elements each is a grid of
m x m similarity blocks T_ij. Only the i < j blocks are stored; reading
block (j, i) returns the transpose, so the symmetry T_ji = T_ij^T holds
structurally and diagonal blocks do not exist at all.

Storage is one read-only float64 array `packed` of shape
(n(n-1)/2, m, m): the block of the k-th pair i < j in lexicographic
order, (0, 1), (0, 2), ..., (n-2, n-1), sits at packed[k], and the
(n, n) table `pair_index` maps both (i, j) and (j, i) to k. Blocks handed
out are views into it. Generators and the instance reader fill the array
in place, its size checked against TENSOR_BYTES_CAP before it is
allocated, and hand it to SimilarityTensor(n, packed), the one
constructor, which adopts it without a copy and makes it read-only.

SimilarityTensor is the one check on a tensor's values: every entry is
finite, and 2 n (n-1) m max|T| is a finite float. No sum in the package
adds more entries of T: the objective adds n(n-1)m, an assignment value
of one coefficient matrix C_i adds (n-1)m, and an entry of C_i n-1. The
factor 2 covers the difference of two such sums, which the ascent's
accept rule takes, so no code downstream guards against overflow.

A solution assigns one permutation A_i per set, held as one read-only
(n, m) int64 array of maps, row i the map of A_i, and Solution(maps) is
its one constructor. The objective and the pairwise maps are each one
gather over that array. The objective is

    sum over ordered pairs (i, j), i != j, of tr(A_i T_ij A_j^T)

which depends on the A_i only through the pairwise maps A_i^T A_j; any
common left-composition of all A_i leaves it unchanged.

RNG policy: all generators take an integer seed >= 0 (_check_seed) and
use numpy's PCG64 (numpy.random.default_rng). Gaussian draws go through
Generator.standard_normal, numpy's ziggurat implementation, so a given
seed reproduces outputs bit-exactly across platforms.
"""

from __future__ import annotations

import itertools
import math
import types
from dataclasses import dataclass

import numpy as np

from .assignment import _checked_maps, _checked_reals, _reals
from .errors import DimensionError, ParameterError, SizeError, ValidationError, _is_finite_real, _is_int

# pair-count budget for the median heuristic subsample
_MEDIAN_MAX_PAIRS = 100_000
# internal subsample seed; the operation takes no seed parameter
_MEDIAN_SAMPLE_SEED = 0
# largest tensor, in bytes of packed blocks plus pair-index table, that may
# be allocated; n=200, m=30 needs 143 MB
TENSOR_BYTES_CAP = 2 * 1024**3
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _check_seed(seed, name: str = "seed") -> None:
    """ParameterError unless seed is an integer >= 0; bools are refused."""
    if not _is_int(seed) or seed < 0:
        raise ParameterError(f"{name} must be an integer >= 0, got {seed!r}")


def _check_sizes(**sizes) -> None:
    """ParameterError unless every size is an integer >= 1; bools are refused."""
    for name, v in sizes.items():
        if not _is_int(v) or v < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {v!r}")


def _check_index_pair(i, j, n: int) -> None:
    """ParameterError unless i and j are integers in [0, n); bools are refused."""
    if not (_is_int(i) and 0 <= i < n and _is_int(j) and 0 <= j < n):
        raise ParameterError(f"index pair ({i!r}, {j!r}) must be two integers in [0, {n})")


def check_tensor_size(n: int, m: int) -> int:
    """Bytes a tensor over n sets of m elements needs; SizeError above the cap.

    Counts the packed block array and the pair-index table. Callers that
    do O(n^2) work before the tensor is allocated check this first.
    """
    _check_sizes(n=n, m=m)
    n, m = int(n), int(m)  # numpy integers would overflow
    nbytes = (n * (n - 1) // 2 * m * m + n * n) * 8
    if nbytes > TENSOR_BYTES_CAP:
        raise SizeError(
            f"a tensor with n={n}, m={m} needs {nbytes} bytes, cap is {TENSOR_BYTES_CAP}"
        )
    return nbytes


def _empty_packed(n: int, m: int) -> np.ndarray:
    check_tensor_size(n, m)
    return np.empty((n * (n - 1) // 2, m, m), dtype=np.float64)


class SimilarityTensor:
    """n x n grid of m x m blocks with structural transpose symmetry.

    packed is the read-only (n(n-1)/2, m, m) array of blocks T_ij, i < j,
    in lexicographic (i, j) order; pair_index[i, j] = pair_index[j, i] is
    the position of pair {i, j} in it, -1 on the diagonal.

    The constructor takes packed itself and reads m off packed.shape[1];
    a C-contiguous float64 array is adopted without a copy and made
    read-only. An n that is not an integer >= 1 raises ParameterError, a
    bad shape DimensionError; entries that are not finite real numbers,
    or a max|T| that breaks the module docstring's value rule, raise
    ValidationError. No range is asked: nothing relies on [0, 1].
    """

    __slots__ = ("n", "m", "packed", "pair_index")

    def __init__(self, n: int, packed: np.ndarray):
        _check_sizes(n=n)
        packed = np.ascontiguousarray(_reals(packed, "packed"))
        if (packed.ndim != 3 or packed.shape[0] != n * (n - 1) // 2
                or packed.shape[1] != packed.shape[2] or packed.shape[1] < 1):
            raise DimensionError(f"packed blocks have shape {packed.shape} for n={n}")
        m = packed.shape[1]
        first, second = np.triu_indices(n, 1)
        # NaN carries through both; initial covers n=1's empty array
        lo, hi = float(packed.min(initial=0.0)), float(packed.max(initial=0.0))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            k = np.argmax(~np.isfinite(packed).all(axis=(1, 2)))
            raise ValidationError(f"block {(int(first[k]), int(second[k]))} contains non-finite entries")
        if not math.isfinite(2 * n * (n - 1) * m * max(-lo, hi)):
            raise ValidationError(f"max|T| = {max(-lo, hi):g} is too large for n={n}, m={m}: "
                                  "2*n*(n-1)*m*max|T| must be a finite float")
        packed.setflags(write=False)
        index = np.full((n, n), -1, dtype=np.int64)
        index[first, second] = index[second, first] = np.arange(first.size)
        index.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "pair_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("SimilarityTensor is immutable")

    def block(self, i: int, j: int) -> np.ndarray:
        """Block T_ij; (j, i) access returns the stored transpose view."""
        _check_index_pair(i, j, self.n)
        if i == j:
            raise ValidationError("diagonal blocks are not part of the tensor")
        if i < j:
            return self.packed[self.pair_index[i, j]]
        return self.packed[self.pair_index[j, i]].T

    def pairs(self):
        """Stored block keys (i, j), i < j, in lexicographic order."""
        return list(itertools.combinations(range(self.n), 2))


@dataclass(frozen=True, eq=False)
class Solution:
    """One permutation per element set: maps[i] is the map of A_i.

    maps is a read-only (n, m) int64 array, copied from the input, each
    row a bijection on {0..m-1}. Equality and hashing compare the maps.
    """

    maps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "maps", _checked_maps(self.maps))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return bool(np.array_equal(self.maps, other.maps))

    def __hash__(self) -> int:
        return hash((self.maps.shape, self.maps.tobytes()))

    @property
    def n(self) -> int:
        return self.maps.shape[0]

    @property
    def m(self) -> int:
        return self.maps.shape[1]

    @property
    def perms(self) -> tuple:
        """Each read-only row of maps as the attribute map of a plain
        namespace. Kept only because perfbench's answer check reads p.map
        off each; ROADMAP item 3 deletes it together with that check."""
        return tuple(types.SimpleNamespace(map=row) for row in self.maps)

    def pairwise(self, i: int, j: int) -> np.ndarray:
        """The gauge-invariant map with matrix A_i^T A_j, p -> A_j(A_i^-1(p)),
        as a fresh 1-D int64 array."""
        _check_index_pair(i, j, self.n)
        return self.maps[j][np.argsort(self.maps[i])]


def _pair_maps(maps: np.ndarray) -> np.ndarray:
    """Row k is the map of A_i^T A_j for the k-th pair i < j in
    lexicographic order: p -> maps[j][maps[i]^-1(p)]."""
    first, second = np.triu_indices(maps.shape[0], 1)
    return maps[second[:, None], np.argsort(maps, axis=1)[first]]


class EtaGraph:
    """Symmetric non-negative noise-variance assignment per set pair."""

    __slots__ = ("n", "eta")

    def __init__(self, eta):
        arr = _checked_reals(eta, "eta").copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionError(f"eta must be a square matrix, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValidationError("eta must be symmetric")
        if arr.size and arr.min() < 0.0:
            raise ParameterError("eta values must be non-negative")
        np.fill_diagonal(arr, 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "n", int(arr.shape[0]))
        object.__setattr__(self, "eta", arr)

    def __setattr__(self, name, value):
        raise AttributeError("EtaGraph is immutable")


def validate_point_sets(points) -> np.ndarray:
    """Coerce to an (n, m, d) float64 array of finite coordinates."""
    arr = _checked_reals(points, "point sets")
    if arr.ndim != 3 or arr.size == 0:
        raise DimensionError(f"point sets must be a non-empty (n, m, d) array, got shape {arr.shape}")
    return arr


def tensor_from_points(points, sigma: float) -> SimilarityTensor:
    """Gaussian-kernel similarity blocks from n point sets.

    [T_ij]_{p,q} = exp(-||x_p^i - x_q^j||^2 / (2 sigma^2)). Entries land in
    [0, 1]; the blocks are exact transposes of each other by construction.
    A sigma whose 2 sigma^2 is below the smallest normal float or overflows
    to inf raises ParameterError: it would divide by a subnormal or by 0, or
    give inf / inf where a squared distance overflows too. A squared
    distance or quotient that overflows to inf gives exp(-inf) = 0, the
    kernel value rounded. A numpy scalar sigma gives the same tensor as the
    Python float of its value: 2 sigma^2 is always formed in float64.
    """
    pts = validate_point_sets(points)
    if not _is_finite_real(sigma) or sigma <= 0.0:
        raise ParameterError(f"sigma must be a positive finite number, got {sigma!r}")
    sigma = float(sigma)
    denom = 2.0 * sigma * sigma
    if denom < _SMALLEST_NORMAL:
        raise ParameterError(f"sigma {sigma!r} is too small: 2 sigma^2 is not a normal float")
    if not math.isfinite(denom):
        raise ParameterError(f"sigma {sigma!r} is too large: 2 sigma^2 overflows to inf")
    n, m, _ = pts.shape
    packed = _empty_packed(n, m)
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        with np.errstate(over="ignore"):
            diff = pts[i][:, None, :] - pts[j][None, :, :]
            sq = np.sum(diff * diff, axis=2)
            packed[k] = np.exp(-sq / denom)
    return SimilarityTensor(n, packed)


def median_heuristic_sigma(points) -> float:
    """Median distance over cross-set point pairs, as a kernel bandwidth.

    All C(n,2) * m^2 cross-set pairs are used when that count is at most
    100000; otherwise a fixed-seed uniform subsample of exactly 100000
    pairs is taken (pair indices are sampled, so the result scales
    linearly with the coordinates). A zero median means the points are
    too degenerate to set a bandwidth and raises ParameterError.
    """
    pts = validate_point_sets(points)
    n, m, _ = pts.shape
    if n < 2:
        raise ParameterError("median heuristic needs at least two point sets")
    n_pairs = n * (n - 1) // 2
    if n_pairs * m * m <= _MEDIAN_MAX_PAIRS:
        t, p, q = (a.ravel() for a in np.meshgrid(
            np.arange(n_pairs), np.arange(m), np.arange(m), indexing="ij"))
    else:
        rng = np.random.default_rng(_MEDIAN_SAMPLE_SEED)
        t = rng.integers(0, n_pairs, size=_MEDIAN_MAX_PAIRS)
        p = rng.integers(0, m, size=_MEDIAN_MAX_PAIRS)
        q = rng.integers(0, m, size=_MEDIAN_MAX_PAIRS)
    # pair t in lexicographic i < j order, through the offset of row i
    rows = np.arange(n - 1)
    start = rows * n - rows * (rows + 1) // 2
    first = np.searchsorted(start, t, "right") - 1
    second = t - start[first] + first + 1
    diff = pts[first, p] - pts[second, q]
    dists = np.sqrt(np.sum(diff * diff, axis=1))
    med = float(np.median(dists))
    if med <= 0.0:
        raise ParameterError("cross-set point distances are degenerate (median 0)")
    return med


def gen_ground_truth(n: int, m: int, seed: int) -> Solution:
    """n independent uniform random permutations of size m."""
    _check_seed(seed)
    _check_sizes(n=n, m=m)
    rng = np.random.default_rng(seed)
    return Solution(np.array([rng.permutation(m) for _ in range(n)]))


def gen_noisy_tensor(truth: Solution, etas: EtaGraph, seed: int) -> SimilarityTensor:
    """Squared-Gaussian perturbation of the ideal consistent tensor.

    For each stored pair i < j, with Z drawn i.i.d. from N(0, eta_ij)
    (eta is the variance): entries that are 1 in the ideal block become
    1 - Z^2 and entries that are 0 become Z^2. No clipping is applied, so
    entries may leave [0, 1]; that keeps the deviation moments exact
    (E[Z^2] = eta). One Gaussian stream fills the packed array in
    lexicographic (i, j) order, one (m, m) panel per pair, so output is
    seed-deterministic. An eta large enough to break the tensor's value
    rule raises ValidationError naming the largest eta.
    """
    _check_seed(seed)
    if etas.n != truth.n:
        raise DimensionError(f"eta graph has n={etas.n}, truth has n={truth.n}")
    n = truth.n
    m = truth.m
    first, second = np.triu_indices(n, 1)
    packed = _empty_packed(n, m)
    np.random.default_rng(seed).standard_normal(out=packed)
    packed *= np.sqrt(etas.eta[first, second])[:, None, None]
    # a square that overflows is refused below, by the tensor's value rule
    with np.errstate(over="ignore"):
        np.multiply(packed, packed, out=packed)
    # ideal[k] has its ones at (p, pairwise(i, j)(p))
    ones = (np.arange(first.size)[:, None], np.arange(m), _pair_maps(truth.maps))
    packed[ones] = 1.0 - packed[ones]
    try:
        return SimilarityTensor(n, packed)
    except ValidationError as exc:
        raise ValidationError(f"eta {float(etas.eta.max())!r} is too large: {exc}") from None


def objective(t: SimilarityTensor, s: Solution) -> float:
    """sum_{i != j} tr(A_i T_ij A_j^T) over ordered pairs.

    tr(A_i T_ij A_j^T) = sum_p T_ij[sigma_i(p), sigma_j(p)], so each pair
    costs one O(m) gather; transposed pairs contribute equal values and
    are folded in as a factor of two.
    """
    _check_compatible(t, s)
    return _objective_perms(t, s.maps)


def _objective_perms(t: SimilarityTensor, maps) -> float:
    """objective() on maps, one permutation map per row, by a single gather."""
    maps = np.asarray(maps)
    first, second = np.triu_indices(t.n, 1)
    picked = t.packed[np.arange(first.size)[:, None], maps[first], maps[second]]
    return 2.0 * float(picked.sum())


def _check_compatible(t: SimilarityTensor, s: Solution) -> None:
    if s.n != t.n or s.m != t.m:
        raise DimensionError(
            f"solution shape (n={s.n}, m={s.m}) does not match tensor (n={t.n}, m={t.m})"
        )
