"""Spectral model of mixed-smoothness periodic spaces on [0, 1)^d.

The one-dimensional L2-orthonormal system is b_0 = 1,
b_{2f} = sqrt(2) cos(2 pi f x), b_{2f-1} = sqrt(2) sin(2 pi f x);
multivariate basis functions are tensor products, identified by a tuple of
such flat indices.  The space norm weights a basis function by
prod_c (1 + freq(k_c)^(2s)) with freq(k) = ceil(k / 2), so the sine and
cosine of one frequency carry the same weight.  The float weight is the
product of the factor weights in ascending order, so a permuted index tuple
weighs the same bits.

ordered_basis enumerates basis functions by one walk over the sublevel set
of a weight threshold, which prunes on a running product with a rounding
slack and then keeps the tuples whose weight is at most the threshold, so
the set it returns is exactly the float sublevel set.  Sorting it by
weight (ties broken lexicographically on the index tuple) makes
sigma[n] = weight[n] ** -0.5 the n-th decay value of the embedding into
L2.  spectral_sums gives head sums of sigma^2 and the certified enclosure
of the full series from samplerec.rounding.

basis_matrix evaluates each coordinate's sin/cos once per distinct flat
index into a factor table and gathers it out to the columns, so a d-variate
matrix costs d small tables plus products.  It works row block by row block
(row_blocks), so the n x m result is the only array it makes that grows
with n * m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rounding
from .rounding import PrecisionError

SQRT2 = math.sqrt(2.0)

DEFAULT_INDEX_CAP = 10_000_000

_TOL = 1e-10  # the widest series enclosure that spectral_sums accepts

# Bytes of one row block of an (n, width) float matrix: the size of every
# temporary that basis_matrix and the tail Gram of a dense instance make on
# top of the matrices they return or read.
ROW_BLOCK_BYTES = 1 << 20

# A matrix-vector product over rows may round a row differently by where
# it sits: OpenBLAS's gemv takes rows in groups of four and the rows left
# over by another kernel, and numpy takes a one-row product by dot.  Row
# blocks that start on a multiple of this, and a last block no shorter than
# it, meet each row as the whole matrix does with one BLAS thread.  (With
# more, gemv splits the rows between threads at points that depend on n,
# so the whole-matrix product itself moves with n.)  The sums taken over
# row blocks (the staircase sums, U^T B_tail) take their bits from these
# splits.
_ROW_ALIGN = 16


class EnumerationLimitError(RuntimeError):
    """Basis enumeration would exceed the configured index cap."""


@dataclass(frozen=True)
class SpaceParams:
    """Torus dimension and smoothness of the tensor scale."""

    d: int
    s: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be at least 1, got {self.d}")
        # s > 1/2 keeps point evaluation bounded and sum sigma^2 finite
        if not (math.isfinite(self.s) and self.s > 0.5):
            raise ValueError(f"smoothness must be finite and exceed 0.5, got {self.s}")


def frequency(k: int) -> int:
    """Frequency encoded by a flat index: 0 -> 0, {2f-1, 2f} -> f."""
    if k < 0:
        raise ValueError(f"flat index must be nonnegative, got {k}")
    return (k + 1) // 2


def _factor_weight(f: int, s: float) -> float:
    """Weight 1 + f^(2s) of one coordinate at frequency f.

    PrecisionError when it is beyond float range, as it is for large s
    (where 2s itself may round to inf, and f^(2s) to inf without overflow).
    """
    try:
        w = 1.0 + float(f) ** (2.0 * s)
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):
        raise PrecisionError(f"norm weight 1 + {f}^(2s) at s={s:g} is beyond float range")
    return w


def hnorm_weight(idx, params: SpaceParams) -> float:
    """Squared-norm weight prod_c (1 + freq(k_c)^(2s)) of one basis function,
    the product taken over the factor weights in ascending order, so every
    permutation of idx gets the same float."""
    if len(idx) != params.d:
        raise ValueError(f"index has length {len(idx)}, expected d={params.d}")
    w = 1.0
    for wf in sorted(_factor_weight(frequency(int(k)), params.s) for k in idx):
        w *= wf
    return w


def basis_eval(idx, x) -> float:
    """Evaluate the tensor basis function with flat indices idx at one point.

    Coordinates must lie in [0, 1).
    """
    if len(idx) != len(x):
        raise ValueError(f"index length {len(idx)} != point length {len(x)}")
    out = 1.0
    for k, xc in zip(idx, x):
        xc = float(xc)
        if not 0.0 <= xc < 1.0:
            raise ValueError(f"coordinate {xc!r} outside [0, 1)")
        k = int(k)
        if k == 0:
            continue
        ang = 2.0 * math.pi * frequency(k) * xc
        out *= SQRT2 * (math.cos(ang) if k % 2 == 0 else math.sin(ang))
    return out


@dataclass(frozen=True)
class OrderedBasis:
    """The m basis functions of smallest weight, sorted (weight, then index):
    the one record of the space, which spectral_sums and DensityParams read.

    sigma[n] = weights[n] ** -0.5 is simultaneously the reciprocal norm of
    basis function n+1 and the n-th decay value of the embedding into L2.
    frequencies and sines decode the flat indices once, for every reader.
    """

    params: SpaceParams
    indices: np.ndarray  # (m, d) int64 flat indices
    weights: np.ndarray  # (m,) nondecreasing
    sigma: np.ndarray  # (m,) = weights ** -0.5
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)  # (m, d) frequency() of each index
    sines: np.ndarray = field(init=False, repr=False, compare=False)  # (m, d) bool: the index is odd

    def __post_init__(self) -> None:
        object.__setattr__(self, "frequencies", (self.indices + 1) // 2)
        object.__setattr__(self, "sines", self.indices % 2 == 1)

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def max_frequency(self, m: int | None = None) -> int:
        """Largest per-coordinate frequency among the first m entries."""
        return int(self.frequencies[:m].max())


def _sublevel_set(threshold: float, d: int, s: float, max_indices: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and (count, d) flat-index tuples of every tuple of weight
    <= threshold, in no particular order.

    The walk extends all tuples at once, one coordinate at a time, and
    prunes on each tuple's running product p of factor weights in
    coordinate order: with c the number of factor weights at most
    limit / p, its extensions are the flat indices 0 .. 2c - 2 (the
    constant, then sine and cosine of each frequency below c).  A tuple's
    weight is the product in ascending order, as hnorm_weight takes it, so
    permuted tuples weigh the same bits; it is computed once the walk
    ends.  Each product of d factors is within gamma(d - 1)
    relative of the exact one, a running product of fewer factors is at
    most the exact whole (factor weights are at least 1), and the division
    that counts the factors adds one rounding, so the limit
    threshold (1 + 2 gamma(d + 1)) loses no tuple whose weight is at most
    the threshold: the set is exactly the float sublevel set once filtered
    on that weight.  Index 0 extends a tuple at its own weight, so no
    coordinate holds more tuples than the last; EnumerationLimitError as
    soon as one would hold more than max_indices.
    """
    factors: list[float] = []
    while (wf := _factor_weight(len(factors), s)) <= threshold:
        factors.append(wf)
    weights = np.array(factors)
    limit = rounding.up(threshold * (1.0 + 2.0 * rounding.gamma(d + 1)))
    running = np.ones(1)
    indices = np.zeros((1, 0), dtype=np.int64)
    for _ in range(d):
        children = np.maximum(2 * np.searchsorted(weights, limit / running, side="right") - 1, 0)
        total = int(children.sum())
        if total > max_indices:
            raise EnumerationLimitError(
                f"sublevel set at weight {threshold:g} holds more than {max_indices} indices"
            )
        parent = np.repeat(np.arange(len(running)), children)
        flat = np.arange(total) - np.repeat(np.cumsum(children) - children, children)
        running = running[parent] * weights[(flat + 1) // 2]
        indices = np.column_stack([indices[parent], flat])
    ascending = np.sort(weights[(indices + 1) // 2], axis=1)
    product = ascending[:, 0].copy()
    for c in range(1, d):
        product *= ascending[:, c]
    keep = product <= threshold
    return product[keep], indices[keep]


def ordered_basis(params: SpaceParams, m: int) -> OrderedBasis:
    """Enumerate the m basis functions of smallest weight.

    Doubles a weight threshold until its sublevel set, walked exactly once
    per threshold, holds at least m indices, then sorts it by (weight,
    index tuple) and keeps the first m.  Any index outside the set weighs
    more than every index in it, so nothing it leaves out belongs among the
    m smallest.  Raises EnumerationLimitError if a sublevel set would exceed
    DEFAULT_INDEX_CAP, read at call time, before reaching m entries.
    """
    if m < 1:
        raise ValueError(f"basis size must be at least 1, got {m}")
    threshold = 2.0
    while len((found := _sublevel_set(threshold, params.d, params.s, DEFAULT_INDEX_CAP))[0]) < m:
        threshold *= 2.0
    weights, indices = found
    order = np.lexsort([indices[:, c] for c in reversed(range(params.d))] + [weights])[:m]
    w = weights[order]
    return OrderedBasis(params=params, indices=indices[order], weights=w, sigma=w ** -0.5)


def _factor_table(k: np.ndarray, xc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-coordinate factors of the distinct flat indices k at n points.

    Returns an (n, len(k)) table and the table column of each entry of k.
    The columns hold the constant, then every sine, then every cosine, so
    each block is computed in place as one contiguous ufunc call.
    """
    is_const = k == 0
    is_sin = k % 2 == 1
    is_cos = ~(is_const | is_sin)
    order = np.concatenate([np.flatnonzero(is_const), np.flatnonzero(is_sin), np.flatnonzero(is_cos)])
    column = np.empty(len(k), dtype=np.intp)
    column[order] = np.arange(len(k))
    table = np.empty((xc.shape[0], len(k)))
    lo = int(is_const.sum())
    table[:, :lo] = 1.0
    for cols, fn in ((is_sin, np.sin), (is_cos, np.cos)):
        block = table[:, lo : lo + int(cols.sum())]
        # (2 pi f) * x, in this association, so entries agree bitwise with
        # the scalar basis_eval path
        np.multiply((2.0 * np.pi) * ((k[cols] + 1) // 2), xc, out=block)
        fn(block, out=block)
        block *= SQRT2
        lo += block.shape[1]
    return table, column


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices that cover rows 0..n-1 of an (n, width) float matrix in order,
    about ROW_BLOCK_BYTES of it each.

    Every block starts on a multiple of _ROW_ALIGN, and the last one, which
    ends at n, holds at least _ROW_ALIGN rows unless it is the only one, so
    a row-wise product over the blocks rounds each row as over the whole
    matrix.
    """
    rows = max(_ROW_ALIGN, ROW_BLOCK_BYTES // (8 * max(width, 1)) // _ROW_ALIGN * _ROW_ALIGN)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] < _ROW_ALIGN:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def points_array(points, d: int) -> np.ndarray:
    """The points as an (n, d) float array, a 1-D array as one column: the one
    check of points.  ValueError for another shape, or a coordinate outside
    [0, 1) (NaN too)."""
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"points must have shape (n, {d}), got {x.shape}")
    if not (np.all(x >= 0.0) and np.all(x < 1.0)):
        raise ValueError("points must lie in [0, 1)^d")
    return x


def basis_matrix(basis: OrderedBasis, points, m: int | None = None) -> np.ndarray:
    """Evaluate the first m basis functions at points (see points_array).

    The (n, m) result is allocated once and filled row block by row block
    (row_blocks): per coordinate, sin/cos of the block's points is evaluated
    once per distinct flat index into a (rows, #distinct) factor table,
    gathered out to the m columns and written into the block (the first
    coordinate) or multiplied into it (the others).  So no other array
    larger than a row block is made, and every entry is the same product of
    the same factors, bit for bit, whatever the block size.  The gather uses
    take(), whose result is C-ordered; a fancy-index gather table[:, idx]
    holds the same values in Fortran order, and row sums and BLAS products
    over such an array add in a different order, which changes low bits of
    everything downstream.
    """
    x = points_array(points, basis.params.d)
    if m is None:
        m = len(basis)
    if not 1 <= m <= len(basis):
        raise ValueError(f"m must be in [1, {len(basis)}], got {m}")
    flat = basis.indices[:m]
    coords = []
    for c in range(basis.params.d):
        distinct, inv = np.unique(flat[:, c], return_inverse=True)
        coords.append((distinct, inv))
    out = np.empty((x.shape[0], m))
    for rows in row_blocks(x.shape[0], m):
        block = out[rows]
        for c, (distinct, inv) in enumerate(coords):
            table, column = _factor_table(distinct, x[rows, c : c + 1])
            if c == 0:
                table.take(column[inv], axis=1, out=block, mode="clip")
            else:
                block *= table.take(column[inv], axis=1, mode="clip")
    return out


@dataclass(frozen=True)
class CoefVector:
    """A function given by finitely many L2 coefficients against a basis."""

    basis: OrderedBasis
    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1:
            raise ValueError(f"coefficients must be one-dimensional, got shape {c.shape}")
        if len(c) > len(self.basis):
            raise ValueError(f"{len(c)} coefficients exceed basis length {len(self.basis)}")
        object.__setattr__(self, "c", c)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.c))

    def h_norm(self) -> float:
        return float(math.sqrt(np.sum(self.basis.weights[: len(self.c)] * self.c ** 2)))

    def evaluate(self, points) -> np.ndarray:
        return basis_matrix(self.basis, points, len(self.c)) @ self.c


def empirical_error(fitted: CoefVector, f: CoefVector) -> float:
    """L2 distance between two coefficient vectors on the same basis.

    The shorter vector is implicitly padded with zeros.
    """
    same = fitted.basis is f.basis or (
        fitted.basis.params == f.basis.params
        and np.array_equal(fitted.basis.indices, f.basis.indices)
    )
    if not same:
        raise ValueError("coefficient vectors live on different bases")
    n = max(len(fitted.c), len(f.c))
    a = np.zeros(n)
    a[: len(fitted.c)] = fitted.c
    b = np.zeros(n)
    b[: len(f.c)] = f.c
    return float(np.linalg.norm(a - b))


def random_unit_function(basis: OrderedBasis, support: tuple[int, int], seed: int) -> CoefVector:
    """Draw a function of unit space norm from basis positions lo..hi (1-based).

    A standard Gaussian on the support is normalized, then scaled by sigma so
    the space norm is exactly 1 up to roundoff.  Fully determined by seed.
    The Gaussians come from numpy.random's Philox generator, so this is the
    one function of the package that loads numpy.random; no subcommand
    calls it.
    """
    lo, hi = support
    if not 1 <= lo <= hi <= len(basis):
        raise ValueError(f"support must satisfy 1 <= lo <= hi <= {len(basis)}, got {support}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    g = rng.standard_normal(hi - lo + 1)
    g /= np.linalg.norm(g)
    c = np.zeros(len(basis))
    c[lo - 1 : hi] = basis.sigma[lo - 1 : hi] * g
    return CoefVector(basis, c)


@dataclass(frozen=True)
class SpectrumSummary:
    """Certified total of sum_j sigma_j^2 plus prefix sums, of one basis.

    head[j] holds the float sum of the first j values sigma^2 of basis,
    within head_err[j] of the exact sum (head_err None for a head given
    exactly); the full series of its space lies in [total_lo, total_hi].
    """

    basis: OrderedBasis
    total_lo: float
    total_hi: float
    head: np.ndarray  # length m + 1, head[0] = 0
    head_err: np.ndarray | None = None

    @property
    def total(self) -> float:
        return 0.5 * (self.total_lo + self.total_hi)

    @property
    def enclosure_width(self) -> float:
        return self.total_hi - self.total_lo

    def _check_position(self, k: int) -> None:
        if not 0 <= k < len(self.head):
            raise ValueError(f"k must be in [0, {len(self.head) - 1}], got {k}")

    def head_bounds(self, k: int) -> tuple[float, float]:
        """Enclosure of the exact sum of the first k values sigma^2."""
        self._check_position(k)
        h = float(self.head[k])
        if self.head_err is None:
            return h, h
        return rounding.widen(h, float(self.head_err[k]))

    def tail(self, k: int) -> float:
        """Sum of sigma_j^2 over positions beyond the k-th (midpoint value)."""
        self._check_position(k)
        return self.total - float(self.head[k])

    def tail_upper(self, k: int) -> float:
        """Certified upper bound on the sum of sigma_j^2 beyond position k:
        total_hi less the lower end of head[k], rounded up."""
        return rounding.sub_up(self.total_hi, self.head_bounds(k)[0])


def spectral_sums(basis: OrderedBasis, *_space_then_basis: OrderedBasis) -> SpectrumSummary:
    """Head sums over a basis and a certified enclosure of the full series
    of its space.  spectral_sums(space, basis), the call of perfbench's
    set-up probe, is taken with the basis's own space alone.

    The enclosure comes from rounding.series_enclosure in closed form, in
    about half a millisecond.  Its width depends only on rounding, some
    dozens of ulps of the total; PrecisionError if it exceeds _TOL.  head
    carries its own rounding bound, head_err; PrecisionError also if the
    certified total does not exceed the upper end of the head sum, i.e. the
    tail past the basis is below the float resolution of the total.
    """
    if _space_then_basis:
        space, (basis,) = basis, _space_then_basis
        if space != basis.params:
            raise ValueError(f"the space {space} is not the basis's own, {basis.params}")
    total_lo, total_hi = rounding.series_enclosure(float(basis.params.s), int(basis.params.d), _TOL)
    # each sigma^2 = (w ** -0.5) ** 2 of a weight w: w takes 4d - 1 roundings
    # (pow counting two); numpy's power, counted as four ulps in case its
    # vector pow is not faithful, and the square bring sigma^2 to 4d + 16
    head, head_err = rounding.prefix_sums(basis.sigma ** 2, 4 * basis.params.d + 16)
    summary = SpectrumSummary(basis, total_lo=total_lo, total_hi=total_hi, head=head, head_err=head_err)
    head_hi = summary.head_bounds(len(basis))[1]
    if total_lo <= head_hi:
        raise PrecisionError(
            f"the tail past the {len(basis)}-term head is below the float resolution of "
            f"the total: certified total {total_lo:.17g} does not exceed the head sum {head_hi:.17g}"
        )
    return summary


def beta_gamma(summary: SpectrumSummary, k: int) -> tuple[float, float]:
    """Tail statistics beta_k = sqrt(tail(k) / k) and gamma_k = max(a_k, beta_k).

    a_k = summary.basis.sigma[k] requires the basis to extend at least one
    position past k.
    """
    basis = summary.basis
    if not 1 <= k < len(basis):
        raise ValueError(f"k must be in [1, {len(basis) - 1}], got {k}")
    beta = math.sqrt(summary.tail(k) / k)
    return beta, max(float(basis.sigma[k]), beta)
