"""Spectral model of mixed-smoothness periodic spaces on [0, 1)^d.

The one-dimensional L2-orthonormal system is b_0 = 1,
b_{2f} = sqrt(2) cos(2 pi f x), b_{2f-1} = sqrt(2) sin(2 pi f x);
multivariate basis functions are tensor products, identified by a tuple of
such flat indices.  The space norm weights a basis function by
prod_c (1 + freq(k_c)^(2s)) with freq(k) = ceil(k / 2), so the sine and
cosine of one frequency carry the same weight.

Sorting basis functions by weight (ties broken lexicographically on the
index tuple) makes sigma[n] = weight[n] ** -0.5 the n-th decay value of the
embedding into L2, and head/tail sums of sigma^2 are available with a
certified enclosure through a closed-form evaluation of the full series.

basis_matrix evaluates each coordinate's sin/cos once per distinct flat
index into a factor table and gathers it out to the columns, so a d-variate
matrix costs d small tables plus products.  The series enclosure depends on
the space alone and is computed once per space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

DEFAULT_INDEX_CAP = 10_000_000


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

    PrecisionError when it is beyond float range, as it is for large s.
    """
    try:
        return 1.0 + float(f) ** (2.0 * s)
    except OverflowError:
        raise PrecisionError(f"norm weight 1 + {f}^(2s) at s={s:g} is beyond float range") from None


def hnorm_weight(idx, params: SpaceParams) -> float:
    """Squared-norm weight prod_c (1 + freq(k_c)^(2s)) of one basis function."""
    if len(idx) != params.d:
        raise ValueError(f"index has length {len(idx)}, expected d={params.d}")
    w = 1.0
    for k in idx:
        w *= _factor_weight(frequency(int(k)), params.s)
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


def _count_weight_below(threshold: float, d: int, s: float) -> int:
    """Number of flat-index tuples with weight <= threshold."""
    if threshold < 1.0:
        return 0
    if d == 0:
        return 1
    total = 0
    f = 0
    while True:
        wf = _factor_weight(f, s)
        if wf > threshold:
            break
        total += (1 if f == 0 else 2) * _count_weight_below(threshold / wf, d - 1, s)
        f += 1
    return total


def _collect_weight_below(threshold: float, d: int, s: float) -> list[tuple[int, ...]]:
    """All flat-index tuples with weight <= threshold (coordinate descent)."""
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def descend(budget: float, dim: int) -> None:
        if dim == d:
            out.append(tuple(prefix))
            return
        f = 0
        while True:
            wf = _factor_weight(f, s)
            if wf > budget:
                break
            for kf in ((0,) if f == 0 else (2 * f - 1, 2 * f)):
                prefix.append(kf)
                descend(budget / wf, dim + 1)
                prefix.pop()
            f += 1

    descend(threshold, 0)
    return out


def ordered_basis(params: SpaceParams, m: int, max_indices: int = DEFAULT_INDEX_CAP) -> OrderedBasis:
    """Enumerate the m basis functions of smallest weight.

    Doubles a weight threshold until the sublevel set holds at least m
    indices, materializes it, sorts by (weight, index tuple) and truncates.
    Raises EnumerationLimitError if the sublevel set would exceed
    max_indices before reaching m entries.
    """
    if m < 1:
        raise ValueError(f"basis size must be at least 1, got {m}")
    threshold = 2.0
    while True:
        count = _count_weight_below(threshold, params.d, params.s)
        if count > max_indices:
            raise EnumerationLimitError(
                f"sublevel set at weight {threshold:g} holds {count} indices, cap is {max_indices}"
            )
        if count >= m:
            break
        threshold *= 2.0
    # One extra doubling of margin, when affordable, so rounding at the
    # threshold boundary cannot clip an index that belongs among the m
    # smallest.
    if _count_weight_below(2.0 * threshold, params.d, params.s) <= max_indices:
        threshold *= 2.0
    flats = _collect_weight_below(threshold, params.d, params.s)
    weights = np.array([hnorm_weight(idx, params) for idx in flats])
    order = sorted(range(len(flats)), key=lambda i: (weights[i], flats[i]))[:m]
    idx_arr = np.array([flats[i] for i in order], dtype=np.int64).reshape(m, params.d)
    w = weights[order]
    return OrderedBasis(params=params, indices=idx_arr, weights=w, sigma=w ** -0.5)


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


def basis_matrix(basis: OrderedBasis, points, m: int | None = None) -> np.ndarray:
    """Evaluate the first m basis functions at an (n, d) array of points.

    Per coordinate, sin/cos is evaluated once per distinct flat index into an
    (n, #distinct) factor table, which is gathered out to the m columns and
    multiplied into the product of the earlier coordinates.  The gather uses
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
    out = None
    for c in range(basis.params.d):
        distinct, inv = np.unique(flat[:, c], return_inverse=True)
        table, column = _factor_table(distinct, x[:, c : c + 1])
        factor = table.take(column[inv], axis=1)
        if out is None:
            out = factor
        else:
            out *= factor
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
    """Certified total of sum_j sigma_j^2 plus exact prefix sums.

    head[j] holds the sum of the first j values sigma^2 of an ordered basis;
    the full series total lies in [total_lo, total_hi].
    """

    total_lo: float
    total_hi: float
    head: np.ndarray  # length m + 1, head[0] = 0

    @property
    def total(self) -> float:
        return 0.5 * (self.total_lo + self.total_hi)

    @property
    def enclosure_width(self) -> float:
        return self.total_hi - self.total_lo

    def tail(self, k: int) -> float:
        """Sum of sigma_j^2 over positions beyond the k-th."""
        if not 0 <= k < len(self.head):
            raise ValueError(f"k must be in [0, {len(self.head) - 1}], got {k}")
        return self.total - float(self.head[k])


_SERIES_CHUNK = 1 << 22


@functools.lru_cache(maxsize=64)
def _series_enclosure(s: float, d: int, tol: float, max_terms: int) -> tuple[float, float]:
    """Certified (total_lo, total_hi) of the full series sum_j sigma_j^2.

    The one-coordinate series S = sum_{f>=1} 1/(1 + f^(2s)) is bracketed by a
    partial sum to M terms plus integral-test remainder bounds,

        int_{M+1}^inf (x^(-2s) - x^(-4s)) dx  <=  remainder  <=  int_M^inf x^(-2s) dx,

    and the total over d coordinates is (1 + 2 S)^d.  M grows until the
    enclosure is narrower than tol; PrecisionError if max_terms cannot get it
    there.  A pure function of its arguments, so it is memoised: every basis
    of one space shares one enclosure.  A raised PrecisionError is not
    cached, so a failing space fails on every call.
    """
    partial = 0.0
    f_done = 0
    target = min(1 << 16, max_terms)
    while True:
        while f_done < target:
            hi = min(f_done + _SERIES_CHUNK, target)
            f = np.arange(f_done + 1, hi + 1, dtype=np.float64)
            partial += float(np.sum(1.0 / (1.0 + f ** (2.0 * s))))
            f_done = hi
        big_m = float(f_done)
        rem_hi = big_m ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
        rem_lo = (big_m + 1.0) ** (1.0 - 2.0 * s) / (2.0 * s - 1.0) - (big_m + 1.0) ** (
            1.0 - 4.0 * s
        ) / (4.0 * s - 1.0)
        rem_lo = max(rem_lo, 0.0)
        total_lo = (1.0 + 2.0 * (partial + rem_lo)) ** d
        total_hi = (1.0 + 2.0 * (partial + rem_hi)) ** d
        if total_hi - total_lo <= tol:
            return total_lo, total_hi
        if f_done >= max_terms:
            raise PrecisionError(
                f"enclosure width {total_hi - total_lo:.3e} still above {tol:.1e} "
                f"after {f_done} series terms"
            )
        target = min(f_done * 4, max_terms)


def spectral_sums(
    params: SpaceParams,
    basis: OrderedBasis,
    tol: float = 1e-10,
    max_terms: int = 1 << 26,
) -> SpectrumSummary:
    """Head sums over the basis and a certified enclosure of the full series.

    The enclosure comes from _series_enclosure, computed once per (space,
    tol, max_terms).  PrecisionError if max_terms cannot narrow it below tol,
    or if the certified total fails to dominate the enumerated head (basis
    too long for the requested tolerance).
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be positive, got {max_terms}")
    total_lo, total_hi = _series_enclosure(
        float(params.s), int(params.d), float(tol), int(max_terms)
    )
    head = np.concatenate(([0.0], np.cumsum(basis.sigma ** 2)))
    if total_lo <= head[-1]:
        raise PrecisionError("certified total does not dominate the enumerated head sum")
    return SpectrumSummary(total_lo=total_lo, total_hi=total_hi, head=head)


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
