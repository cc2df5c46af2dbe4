"""Problem model: similarity tensors, solutions, generators, objective.

A problem instance over n element sets of m elements each is a grid of
m x m similarity blocks T_ij. Only the i < j blocks are stored; reading
block (j, i) returns the transpose, so the symmetry T_ji = T_ij^T holds
structurally and diagonal blocks do not exist at all.

Storage is one read-only float32 array `packed` of shape
(n(n-1)/2, m, m): the block of the k-th pair i < j in lexicographic
order, (0, 1), (0, 2), ..., (n-2, n-1), sits at packed[k], and the
(n, n) table `pair_index` maps both (i, j) and (j, i) to k. Blocks handed
out are float32 views into it. Generators and the instance reader fill
the array in place, its size checked against TENSOR_BYTES_CAP before it
is allocated, and hand it to SimilarityTensor(n, packed), the one
constructor, which adopts a float32 array without a copy, rounds any
other real array to float32 once, and makes the result read-only.

Block values are float32; every sum over them is float64. Each kernel
that reads blocks upcasts them, exactly, before it adds, so it computes
what it computed when blocks were float64 arrays holding the same values.
The one exception is sync's Lanczos iteration, whose float32 products a
float64 residual check guards (syncbaseline).

SimilarityTensor is the one check on a tensor's values: every entry is a
finite float32. No sum in the package can overflow then: under
TENSOR_BYTES_CAP the largest sum, the objective's n(n-1)m entries, or the
difference of two such sums that the ascent's accept rule takes, stays
below 2 n (n-1) m max|T| < 1e48, far inside float64's range, so no code
downstream guards against overflow.

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

from .assignment import _checked_maps, _checked_reals, _numbers
from .errors import DimensionError, ParameterError, SizeError, ValidationError, _is_finite_real, _is_int

# pair-count budget for the median heuristic subsample
_MEDIAN_MAX_PAIRS = 100_000
# internal subsample seed; the operation takes no seed parameter
_MEDIAN_SAMPLE_SEED = 0
# largest tensor, in bytes of packed blocks (4 per entry) plus pair-index
# table (8 per entry), that may be allocated; n=200, m=30 needs 72 MB
TENSOR_BYTES_CAP = 2 * 1024**3
# float64 draws gen_noisy_tensor holds at once, rounded into the float32
# blocks a chunk of whole blocks at a time: 1 MiB
_DRAW_ENTRIES = 1 << 17
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

    Counts the float32 packed block array and the int64 pair-index table.
    Callers that do O(n^2) work before the tensor is allocated check this
    first.
    """
    _check_sizes(n=n, m=m)
    n, m = int(n), int(m)  # numpy integers would overflow
    nbytes = n * (n - 1) // 2 * m * m * 4 + n * n * 8
    if nbytes > TENSOR_BYTES_CAP:
        raise SizeError(
            f"a tensor with n={n}, m={m} needs {nbytes} bytes, cap is {TENSOR_BYTES_CAP}"
        )
    return nbytes


def _empty_packed(n: int, m: int) -> np.ndarray:
    check_tensor_size(n, m)
    return np.empty((n * (n - 1) // 2, m, m), dtype=np.float32)


class SimilarityTensor:
    """n x n grid of m x m blocks with structural transpose symmetry.

    packed is the read-only (n(n-1)/2, m, m) array of blocks T_ij, i < j,
    in lexicographic (i, j) order; pair_index[i, j] = pair_index[j, i] is
    the position of pair {i, j} in it, -1 on the diagonal.

    The constructor takes packed itself and reads m off packed.shape[1];
    a C-contiguous float32 array is adopted without a copy, any other
    real array rounded to float32 once, and the result made read-only.
    An n that is not an integer >= 1 raises ParameterError, a bad shape
    DimensionError; entries that are not real numbers, or that are not
    finite after the rounding, raise ValidationError naming a block. No
    range is asked: nothing relies on [0, 1].
    """

    __slots__ = ("n", "m", "packed", "pair_index")

    def __init__(self, n: int, packed: np.ndarray):
        _check_sizes(n=n)
        given = _numbers(packed, "iuf", "packed")
        if (given.ndim != 3 or given.shape[0] != n * (n - 1) // 2
                or given.shape[1] != given.shape[2] or given.shape[1] < 1):
            raise DimensionError(f"packed blocks have shape {given.shape} for n={n}")
        # an entry beyond float32's range rounds to inf, refused below
        with np.errstate(over="ignore"):
            packed = np.ascontiguousarray(given, dtype=np.float32)
        m = packed.shape[1]
        first, second = np.triu_indices(n, 1)
        # NaN carries through both; initial covers n=1's empty array
        if not (math.isfinite(packed.min(initial=0.0)) and math.isfinite(packed.max(initial=0.0))):
            k = np.argmax(~np.isfinite(packed).all(axis=(1, 2)))
            pair = (int(first[k]), int(second[k]))
            if np.isfinite(given[k]).all():
                raise ValidationError(f"block {pair} has an entry beyond float32's range, "
                                      f"max|T| {float(np.finfo(np.float32).max):g}")
            raise ValidationError(f"block {pair} contains non-finite entries")
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
        """Block T_ij as a read-only float32 view of packed; (j, i) access
        returns the stored block's transpose view."""
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
        off each; ROADMAP item 2 deletes it together with that check."""
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
            packed[k] = np.exp(-sq / denom)  # computed in float64, rounded once
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
    (E[Z^2] = eta). One float64 Gaussian stream fills the packed blocks in
    lexicographic (i, j) order, one (m, m) panel per pair, so output is
    seed-deterministic. The stream is drawn, scaled and squared in float64
    a chunk of whole blocks (about _DRAW_ENTRIES draws) at a time, and
    each chunk is rounded into the float32 blocks, so no float64 array of
    the tensor's size is made; the draws equal one draw of the whole
    stream bit for bit. An eta large enough to give an entry beyond
    float32's range raises ValidationError naming the largest eta.
    """
    _check_seed(seed)
    if etas.n != truth.n:
        raise DimensionError(f"eta graph has n={etas.n}, truth has n={truth.n}")
    n = truth.n
    m = truth.m
    first, second = np.triu_indices(n, 1)
    packed = _empty_packed(n, m)
    scale = np.sqrt(etas.eta[first, second])
    # ideal block k has its ones at (p, pairwise(i, j)(p))
    ones = _pair_maps(truth.maps)
    rng = np.random.default_rng(seed)
    step = max(1, _DRAW_ENTRIES // (m * m))
    chunk = np.empty((min(step, len(packed)), m, m))
    for start in range(0, len(packed), step):
        z = chunk[:len(packed) - start]
        rng.standard_normal(out=z)
        z *= scale[start:start + len(z), None, None]
        at = (np.arange(len(z))[:, None], np.arange(m), ones[start:start + len(z)])
        # a square past float32's range, in float64 or in the rounding, is
        # refused below, by the tensor's value rule
        with np.errstate(over="ignore"):
            np.multiply(z, z, out=z)
            z[at] = 1.0 - z[at]
            packed[start:start + len(z)] = z
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
    """objective() on maps, one permutation map per row, by a single gather.

    Entry (p) of pair k = (i, j) is packed[k, sigma_i(p), sigma_j(p)],
    taken from the flat packed array at k m^2 + sigma_i(p) m + sigma_j(p)
    into a (K, m) array and upcast to float64, so the sum adds the same
    floats in the same order as a fancy index over packed's three axes.
    """
    maps = np.asarray(maps, dtype=np.int64)
    m = t.m
    first, second = np.triu_indices(t.n, 1)
    # scaling the n rows before the gather saves a (K, m) temporary, which
    # at n=200, m=30 raised the benchmark's peak RSS by 0.5 MB
    flat = (maps * m)[first]
    flat += maps[second]
    flat += np.arange(first.size)[:, None] * (m * m)
    return 2.0 * float(np.take(t.packed.reshape(-1), flat).astype(np.float64).sum())


def _check_compatible(t: SimilarityTensor, s: Solution) -> None:
    if s.n != t.n or s.m != t.m:
        raise DimensionError(
            f"solution shape (n={s.n}, m={s.m}) does not match tensor (n={t.n}, m={t.m})"
        )
