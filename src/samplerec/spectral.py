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
L2, and head/tail sums of sigma^2 are available with a
certified enclosure of the full series in closed form: a partial sum of the
one-coordinate series plus its tail as a short alternating series of Hurwitz
zeta values, each bracketed by Euler-Maclaurin, with every floating-point
step widened by its rounding-error bound.  It takes about half a
millisecond for any s > 1/2, and its width is limited only by the float
resolution of the total.

basis_matrix evaluates each coordinate's sin/cos once per distinct flat
index into a factor table and gathers it out to the columns, so a d-variate
matrix costs d small tables plus products.  It works row block by row block
(row_blocks), so the n x m result is the only array it makes that grows
with n * m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

DEFAULT_INDEX_CAP = 10_000_000

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


class PrecisionError(RuntimeError):
    """A certified enclosure cannot reach the requested width."""


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
    """The m basis functions of smallest weight, sorted (weight, then index).

    sigma[n] = weights[n] ** -0.5 is simultaneously the reciprocal norm of
    basis function n+1 and the n-th decay value of the embedding into L2.
    """

    params: SpaceParams
    indices: np.ndarray  # (m, d) int64 flat indices
    weights: np.ndarray  # (m,) nondecreasing
    sigma: np.ndarray  # (m,) = weights ** -0.5

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def max_frequency(self, m: int | None = None) -> int:
        """Largest per-coordinate frequency among the first m entries."""
        k = self.indices if m is None else self.indices[:m]
        return int(((k + 1) // 2).max())


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
    ends.  Each product of d factors is within _gamma(d - 1)
    relative of the exact one, a running product of fewer factors is at
    most the exact whole (factor weights are at least 1), and the division
    that counts the factors adds one rounding, so the limit
    threshold (1 + 2 _gamma(d + 1)) loses no tuple whose weight is at most
    the threshold: the set is exactly the float sublevel set once filtered
    on that weight.  Index 0 extends a tuple at its own weight, so no
    coordinate holds more tuples than the last; EnumerationLimitError as
    soon as one would hold more than max_indices.
    """
    factors: list[float] = []
    while (wf := _factor_weight(len(factors), s)) <= threshold:
        factors.append(wf)
    weights = np.array(factors)
    limit = math.nextafter(threshold * (1.0 + 2.0 * _gamma(d + 1)), math.inf)
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


def ordered_basis(params: SpaceParams, m: int, max_indices: int = DEFAULT_INDEX_CAP) -> OrderedBasis:
    """Enumerate the m basis functions of smallest weight.

    Doubles a weight threshold until its sublevel set, walked exactly once
    per threshold, holds at least m indices, then sorts it by (weight,
    index tuple) and keeps the first m.  Any index outside the set weighs
    more than every index in it, so nothing it leaves out belongs among the
    m smallest.  Raises EnumerationLimitError if a sublevel set would exceed
    max_indices before reaching m entries.
    """
    if m < 1:
        raise ValueError(f"basis size must be at least 1, got {m}")
    threshold = 2.0
    while len((found := _sublevel_set(threshold, params.d, params.s, max_indices))[0]) < m:
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


def basis_matrix(basis: OrderedBasis, points, m: int | None = None) -> np.ndarray:
    """Evaluate the first m basis functions at an (n, d) array of points.

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
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] != basis.params.d:
        raise ValueError(f"points must have shape (n, {basis.params.d}), got {x.shape}")
    if np.any(x < 0.0) or np.any(x >= 1.0):
        raise ValueError("points must lie in [0, 1)^d")
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


def project(f: CoefVector, k: int) -> CoefVector:
    """Zero every coefficient beyond the first k."""
    if not 0 <= k <= len(f.c):
        raise ValueError(f"projection length must be in [0, {len(f.c)}], got {k}")
    c = f.c.copy()
    c[k:] = 0.0
    return CoefVector(f.basis, c)


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
    """Certified total of sum_j sigma_j^2 plus prefix sums.

    head[j] holds the float sum of the first j values sigma^2 of an ordered
    basis, within head_err[j] of the exact sum (head_err None for a head
    given exactly); the full series total lies in [total_lo, total_hi].
    """

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
        return _widen(h, float(self.head_err[k]))

    def tail(self, k: int) -> float:
        """Sum of sigma_j^2 over positions beyond the k-th (midpoint value)."""
        self._check_position(k)
        return self.total - float(self.head[k])

    def tail_upper(self, k: int) -> float:
        """Certified upper bound on the sum of sigma_j^2 beyond position k:
        total_hi less the lower end of head[k], rounded up."""
        return _sub_up(self.total_hi, self.head_bounds(k)[0])


# Rounding model: IEEE double arithmetic rounds to nearest with unit
# roundoff _U, math.fsum rounds its exact sum once, and C pow (behind
# Python's float **) is faithful, within one ulp (2 _U relative) of the
# exact power.  n roundings in a chain of products and quotients, or in a
# recursive sum of terms of one sign, stay within _gamma(n) relative
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4).
_U = 2.0 ** -53

# Terms of the one-coordinate series summed directly; the rest is a short
# alternating series of Hurwitz zeta values at a = _SERIES_HEAD + 1.
_SERIES_HEAD = 1000

# Euler-Maclaurin coefficients B_2k / (2k)! for k = 1..5, from B_2k as
# num / den; the last one only bounds the remainder.
_EM_COEFFS = tuple(
    # int / int rounds correctly, as float(Fraction) does, with no fractions import
    num / (den * math.factorial(2 * k))
    for k, (num, den) in enumerate(((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66)), start=1)
)


def _gamma(n: int) -> float:
    """Relative error bound n u / (1 - n u) of n roundings."""
    return n * _U / (1.0 - n * _U)


def _widen(x: float, err: float) -> tuple[float, float]:
    """Enclosure of the exact value of a computed x with |error| <= err.

    The one step outward also covers the rounding of x -+ err itself.
    """
    return math.nextafter(x - err, -math.inf), math.nextafter(x + err, math.inf)


def _sub_up(a: float, b: float) -> float:
    """a - b rounded up: exact by Sterbenz's lemma when 0 <= b <= a <= 2b."""
    diff = a - b
    return diff if 0.0 <= b <= a <= 2.0 * b else math.nextafter(diff, math.inf)


def _hurwitz_bracket(t: float) -> tuple[float, float]:
    """Certified (lo, hi) of zeta(t, a) = sum_{n>=0} (a + n)^-t at
    a = _SERIES_HEAD + 1, for t > 1.

    Euler-Maclaurin at a gives

        zeta(t, a) = a^-t (a / (t-1) + 1/2 + sum_{k=1}^{p} c_k (t)_{2k-1} a^{1-2k}) + R_p

    with c_k = B_2k / (2k)! and the rising factorial (t)_j.  Every even
    derivative of x^-t is positive (it is completely monotone), so R_p is
    theta times the k = p+1 term for some theta in [0, 1] (Graham, Knuth &
    Patashnik, Concrete Mathematics, (9.78); Johansson, "Rigorous
    high-precision computation of the Hurwitz zeta function and its
    derivatives", 2015).
    """
    a = _SERIES_HEAD + 1
    if t * math.log2(a) > 1000.0:
        # a^-t < 2^-999 with room for the rounding of the test, and
        # zeta(t, a) <= a^-t + int_a^inf x^-t dx
        return 0.0, math.nextafter(2.0 ** -999 * (1.0 + a / (t - 1.0)), math.inf)
    rising = t / a  # (t)_{2k-1} / a^{2k-1}
    corrections = [_EM_COEFFS[0] * rising]
    for k in range(1, len(_EM_COEFFS)):
        rising *= (t + (2 * k - 1)) / a * ((t + 2 * k) / a)
        corrections.append(_EM_COEFFS[k] * rising)
    rem = corrections.pop()
    scale = a ** -t  # at least 2^-1000, a normal number
    value = scale * math.fsum([a / (t - 1.0), 0.5] + corrections)
    # the leading term takes two roundings, fsum one, a^-t two (ulps count
    # double) and the product one, and the sums below two beyond the final
    # step outward: gamma(8) of the value; correction term k takes at most
    # 6k - 3 roundings, 27 at k = 5
    err = _gamma(8) * value + _gamma(27) * scale * math.fsum(abs(c) for c in corrections + [rem])
    rem *= scale
    return (
        math.nextafter(value - err + min(rem, 0.0), -math.inf),
        math.nextafter(value + err + max(rem, 0.0), math.inf),
    )


def _partial_sum_bracket(s: float) -> tuple[float, float]:
    """Certified (lo, hi) of sum_{f=1}^{M} 1/(1 + f^(2s)), M = _SERIES_HEAD."""
    # terms x / (1 + x) with x = f^(-2s), so no power can overflow; each term
    # takes four roundings (pow counting two) and fsum one more, which
    # gamma(6) covers with the second-order terms; a subnormal term errs by
    # at most 2^-1073 absolute instead
    terms = [x / (1.0 + x) for x in (float(f) ** (-2.0 * s) for f in range(1, _SERIES_HEAD + 1))]
    partial = math.fsum(terms)
    return _widen(partial, _gamma(6) * partial + _SERIES_HEAD * 2.0 ** -1073)


def _is_exact_multiple(t: float, factor: int, s: float) -> bool:
    """Whether the finite float t equals factor * s exactly."""
    # Fraction(t) == factor * Fraction(s), cross-multiplied: no fractions (and decimal) import
    tn, td = t.as_integer_ratio()
    sn, sd = s.as_integer_ratio()
    return tn * sd == factor * sn * td


def _tail_bracket(s: float, stop: float) -> tuple[float, float]:
    """Certified (lo, hi) of sum_{f>M} 1/(1 + f^(2s)), M = _SERIES_HEAD.

    With x = f^(-2s) < 1 the tail expands as sum_{f>M} (x - x^2 + x^3 - ...)
    = sum_{j>=1} (-1)^(j+1) zeta(2js, M+1).  Its terms decrease in j, so the
    rest after any partial sum lies between 0 and the next term; the
    expansion ends at the first term at most stop.
    """
    lo: list[float] = []
    hi: list[float] = []
    for j in itertools.count(1):
        t = 2.0 * j * s
        if math.isinf(t) or _is_exact_multiple(t, 2 * j, s):
            z_lo, z_hi = _hurwitz_bracket(t)
        else:
            # zeta(t, a) decreases in t; the exact exponent lies within one
            # step of the rounded one
            z_lo = _hurwitz_bracket(math.nextafter(t, math.inf))[0]
            z_hi = _hurwitz_bracket(math.nextafter(t, -math.inf))[1]
        odd = j % 2 == 1
        if z_hi <= stop:
            if odd:
                hi.append(z_hi)
            else:
                lo.append(-z_hi)
            break
        lo.append(z_lo if odd else -z_hi)
        hi.append(z_hi if odd else -z_lo)
    return math.nextafter(math.fsum(lo), -math.inf), math.nextafter(math.fsum(hi), math.inf)


def _power_bracket(s_lo: float, s_hi: float, d: int) -> tuple[float, float]:
    """Certified (lo, hi) of (1 + 2 S)^d for S in [s_lo, s_hi]."""
    # d - 1 products of a base rounded outward
    power_lo = math.prod(itertools.repeat(math.nextafter(1.0 + 2.0 * s_lo, -math.inf), d))
    power_hi = math.prod(itertools.repeat(math.nextafter(1.0 + 2.0 * s_hi, math.inf), d))
    return _widen(power_lo, _gamma(d - 1) * power_lo)[0], _widen(power_hi, _gamma(d - 1) * power_hi)[1]


def _series_enclosure(s: float, d: int, tol: float) -> tuple[float, float]:
    """Certified (total_lo, total_hi) of the full series sum_j sigma_j^2.

    The one-coordinate series S = sum_{f>=1} 1/(1 + f^(2s)) is a partial sum
    to f = _SERIES_HEAD plus the tail as an alternating Hurwitz zeta series,
    cut at the first term below the float resolution of the partial sum.  The
    total over d coordinates is (1 + 2 S)^d.  Every step is widened by its
    rounding-error bound, so the width is some dozens of ulps of the total
    (14 at d = 1, s = 1; 72 at d = 4, s = 0.6).  PrecisionError if the
    width exceeds tol, which happens when tol is below that many ulps of
    the total (for tol = 1e-10, from totals of about 1e4), or if the total
    is beyond float range.
    """
    part_lo, part_hi = _partial_sum_bracket(s)
    tail_lo, tail_hi = _tail_bracket(s, _U * part_lo)
    total_lo, total_hi = _power_bracket(
        math.nextafter(part_lo + tail_lo, -math.inf), math.nextafter(part_hi + tail_hi, math.inf), d
    )
    if not math.isfinite(total_hi):
        raise PrecisionError(f"series total (1 + 2 S)^{d} at s={s:g} is beyond float range")
    width = total_hi - total_lo
    if width > tol:
        ulp = math.ulp(total_hi)
        raise PrecisionError(
            f"enclosure width {width:.3e} of the series total {total_hi:.6g} above tol {tol:.1e}: "
            f"the width is {width / ulp:.3g} ulps of the total, tol {tol / ulp:.3g}"
        )
    return total_lo, total_hi


def spectral_sums(params: SpaceParams, basis: OrderedBasis, tol: float = 1e-10) -> SpectrumSummary:
    """Head sums over the basis and a certified enclosure of the full series.

    The enclosure comes from _series_enclosure in closed form, in about half
    a millisecond.  Its width depends only on rounding, some dozens of ulps
    of the total; PrecisionError if it exceeds tol.  head
    carries its own rounding bound, head_err; PrecisionError also if the
    certified total does not exceed the upper end of the head sum, i.e. the
    tail past the basis is below the float resolution of the total.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    total_lo, total_hi = _series_enclosure(float(params.s), int(params.d), float(tol))
    sq = basis.sigma ** 2
    head = np.concatenate(([0.0], np.cumsum(sq)))
    # The cumsum's own rounding, exactly: np.cumsum adds in order, so TwoSum
    # on consecutive entries gives the error e of each addition,
    # head[i] + sq[i] = head[i+1] + e[i], and head[k] + sum(e[:k]) is the
    # exact sum of sq[:k].  Each sq = (w ** -0.5) ** 2 of a weight w: w
    # takes 4d - 1 roundings (pow counting two); numpy's power, counted as
    # four ulps in case its vector pow is not faithful, and the square bring
    # sq to 4d + 16.  Two more cover the rounding of the cumsum of e (its
    # error is below m^2 u^2 of the head) and of head_err itself.
    step = head[1:] - head[:-1]
    e = (head[:-1] - (head[1:] - step)) + (sq - step)
    head_err = np.abs(np.concatenate(([0.0], np.cumsum(e)))) + _gamma(4 * params.d + 18) * head
    summary = SpectrumSummary(total_lo=total_lo, total_hi=total_hi, head=head, head_err=head_err)
    head_hi = summary.head_bounds(len(basis))[1]
    if total_lo <= head_hi:
        raise PrecisionError(
            f"the tail past the {len(basis)}-term head is below the float resolution of "
            f"the total: certified total {total_lo:.17g} does not exceed the head sum {head_hi:.17g}"
        )
    return summary


def beta_gamma(summary: SpectrumSummary, basis: OrderedBasis, k: int) -> tuple[float, float]:
    """Tail statistics beta_k = sqrt(tail(k) / k) and gamma_k = max(a_k, beta_k).

    a_k = basis.sigma[k] requires the basis to extend at least one position
    past k.
    """
    if not 1 <= k < len(basis):
        raise ValueError(f"k must be in [1, {len(basis) - 1}], got {k}")
    if k >= len(summary.head):
        raise ValueError(f"summary head covers {len(summary.head) - 1} positions, need {k}")
    beta = math.sqrt(summary.tail(k) / k)
    return beta, max(float(basis.sigma[k]), beta)
