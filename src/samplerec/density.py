"""Sampling density and reproducible point generation.

The density on [0, 1)^d averages two mixtures of squared basis functions: a
uniform mixture over the k head functions and a sigma^2-weighted mixture over
the truncated tail (basis positions k+1 .. m, renormalized).  Because each
squared basis function integrates to 1, the density integrates to 1 and is
bounded below by 1 / (2k).  It is computed in closed form at every d: a
squared factor is 1 +- cos(4 pi f x), and all sign patterns of one frequency
vector share one mixture weight, so only the tie classes cut at positions k
and m leave terms, and rho = 1 plus a few cosine products (DensityParams
holds them; density_values evaluates them).

A point is drawn by picking a component, then inverting each coordinate's
factor CDF: reduced to one period, whose inverse is four Newton steps on one
universal function (_invert_factor_cdf), to |F(x) - u| <= 2^-50.  All
uniforms for point i come from row i of one counter-based random block, and
every step of the inverse is elementwise, so a sample is fully determined by
(params, n, seed) and independent of evaluation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expsums, lsq
from .rng import uniform_block
from .spectral import ROW_BLOCK_BYTES, OrderedBasis, basis_matrix

# Newton steps of the factor-CDF inverse (_invert_factor_cdf).  On 2M
# stress inputs (f < 2^14; u = 0, u = 1 - 2^-53, u within 1e-13 of a flat
# point, and uniform u) the largest |F(x) - u| was 2.2e-11 after 3 steps and
# 4.4e-16 after 4, within the documented 2^-50 = 8.9e-16; the 48-step
# bisection this replaced measured 3.7e-15 on the same inputs.
NEWTON_STEPS = 4
# Starts tau_0 at or below this are the root of psi(tau) = |w| already:
# psi(tau_0) is short of |w| by (2 pi)^4 tau_0^5 / 120 < 13 tau_0^5, under
# 4e-19 there, while Newton's step, whose psi cancels in
# tau - sin(2 pi tau) / (2 pi) to about ulp(tau) over a slope of 2 pi^2
# tau^2, grows as tau shrinks (it sent u = 1e-50 to x = 0.08).
_NEWTON_FROM = 2.0**-13

# Desk-scale caps on dense matrix sizes: m columns, and n * m entries of
# one n x m matrix, at most MAX_POINTS * MAX_TRUNCATION.
MAX_POINTS = 1 << 14
MAX_TRUNCATION = 1 << 13

# Columns of one upper column panel of the tail block that
# PointSet.tail_gram hands to lsq.BlockGram at d >= 2 (m <= n): one panel
# product takes 256^2 doubles, half a row block, and the panels hold about
# half the block.
_GRAM_PANEL = math.isqrt(ROW_BLOCK_BYTES // 16)


@dataclass(frozen=True)
class DensityParams:
    """Head size k, truncation m and tail mixture weights over a basis, and
    the density's closed form: rho(x) = 1 + sum_t coefs[t] *
    prod_c cos(4 pi freqs[t, c] x_c), the terms derived once (_density_terms)."""

    basis: OrderedBasis
    k: int
    m: int
    tail_weights: np.ndarray  # (m - k,), nonnegative, sums to 1
    freqs: np.ndarray = field(init=False, repr=False, compare=False)  # (terms, d) int64, ascending
    coefs: np.ndarray = field(init=False, repr=False, compare=False)  # (terms,), none zero

    def __post_init__(self) -> None:
        freqs, coefs = _density_terms(self)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "coefs", coefs)


def truncated_density(basis: OrderedBasis, k: int, m: int) -> DensityParams:
    """Build the density with head size k and tail truncated at m."""
    if not 1 <= k < m <= len(basis):
        raise ValueError(f"need 1 <= k < m <= {len(basis)}, got k={k}, m={m}")
    a_sq = basis.sigma[k:m] ** 2
    return DensityParams(basis=basis, k=k, m=m, tail_weights=a_sq / np.sum(a_sq))


def _density_terms(params: DensityParams) -> tuple[np.ndarray, np.ndarray]:
    """Frequency vectors g and coefficients alpha_g of the closed form
    rho(x) = 1 + sum_g alpha_g prod_{c: g_c > 0} cos(4 pi g_c x_c).

    A squared factor is 1 + cos(4 pi f x) for a cosine, 1 - cos(4 pi f x)
    for a sine and 1 for the constant, so b_j^2 expands into one cosine
    product per subset S of its nonconstant coordinates, with sign
    prod_{c in S} (+1 cosine, -1 sine) and g the frequencies of S.  The
    mixture weights mu_j (1/(2k) in the head, tail_weights / 2 in the
    tail) sum to 1, the empty subsets' constant.  Every sign pattern of a
    frequency vector has the same norm weight, so a vector whose patterns
    all carry one mu cancels from every term; only those in the tie classes
    cut at positions k and m (the positions whose weight is that of
    position k or m - 1) can leave a term.  The signs are summed as
    integers per (g, mu), so a complete group gives exactly 0, and alpha_g
    is the sum of mu * count over its mixture weights, in ascending mu;
    terms whose alpha is 0 are dropped, and g ascends lexicographically.
    """
    basis, k, m = params.basis, params.k, params.m
    d = basis.params.d
    weight = basis.weights[:m]
    cut = np.flatnonzero((weight == weight[k]) | (weight == weight[m - 1]))
    mu = np.concatenate((np.full(k, 0.5 / k), 0.5 * params.tail_weights))[cut]
    flat = basis.indices[cut]
    freq = (flat + 1) // 2
    sign = np.where(flat % 2 == 0, 1, -1)
    subsets = np.array(list(itertools.product((0, 1), repeat=d))[1:], dtype=bool)  # (2^d - 1, d)
    # (positions, subsets): the subsets of each position's nonconstant coordinates
    valid = np.all((freq[:, None, :] > 0) | ~subsets, axis=2)
    pos, sub = np.nonzero(valid)
    g = np.where(subsets[sub], freq[pos], 0)
    signs = np.prod(np.where(subsets[sub], sign[pos], 1), axis=1)
    mu = mu[pos]
    # sorted by (g, mu), each g and each (g, mu) is a run, mu ascending
    order = np.lexsort([mu] + [g[:, c] for c in reversed(range(d))])
    g, mu, signs = g[order], mu[order], signs[order]
    new_g = np.append(True, np.any(g[1:] != g[:-1], axis=1))
    starts = np.flatnonzero(new_g | np.append(True, mu[1:] != mu[:-1]))
    running = np.append(0, np.cumsum(signs))
    counts = running[np.append(starts[1:], len(g))] - running[starts]
    coefs = np.bincount(np.cumsum(new_g[starts]) - 1, weights=mu[starts] * counts)
    freqs = g[new_g]
    return freqs[coefs != 0], coefs[coefs != 0]


def density_values(params: DensityParams, points) -> np.ndarray:
    """Density at each row of an (n, d) array of points in [0, 1)^d, from
    its closed form (DensityParams: a constant plus the cosine products of
    _density_terms).

    Each term is evaluated in place into one n-vector and added to the
    result in the order of params.freqs, and cos always reads a contiguous
    vector, so memory is three n-vectors, no basis function is evaluated,
    and each point's density depends on that point alone, bit for bit.  At
    d = 1 a term is coef * cos((4 pi f) * x), added in ascending f.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    d = params.basis.params.d
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"points must have shape (n, {d}), got {x.shape}")
    if not (np.all(x >= 0.0) and np.all(x < 1.0)):
        raise ValueError("points must lie in [0, 1)^d")
    rho = np.ones(x.shape[0])
    term = np.empty_like(rho)
    factor = np.empty_like(rho) if d > 1 else None
    for freq, coef in zip(params.freqs, params.coefs):
        first, *rest = np.flatnonzero(freq)
        np.multiply(x[:, first], 4.0 * np.pi * freq[first], out=term)
        np.cos(term, out=term)
        for c in rest:
            np.multiply(x[:, c], 4.0 * np.pi * freq[c], out=factor)
            np.cos(factor, out=factor)
            term *= factor
        term *= coef
        rho += term
    return rho


def _factor_cdf(sign, freq, x):
    """CDF of a squared 1-d factor: x + sign * sin(4 pi f x) / (4 pi f).

    sign +1 selects the cosine factor, -1 the sine factor, 0 the constant.
    """
    f = np.where(sign == 0, 1.0, np.asarray(freq, dtype=float))
    return x + sign * np.sin(4.0 * np.pi * f * x) / (4.0 * np.pi * f)


def _invert_factor_cdf(sign, freq, u):
    """Inverse of the factor CDFs F (_factor_cdf), elementwise over arrays
    that broadcast together: x in [0, 1) with |F(x) - u| <= 2^-50.

    F(x + 1/(2f)) = F(x) + 1/(2f), so with t = 2 f x and v = 2 f u the
    equation is t + sign sin(2 pi t) / (2 pi) = v, whose flat points are
    the integers for the sine (sign -1) and the half-integers for the
    cosine (sign +1).  From the flat point c nearest v, t = c + tau with
    psi(tau) = v - c = w, psi(tau) = tau - sin(2 pi tau) / (2 pi) on
    [-1/2, 1/2].  psi is odd and increasing, convex on [0, 1/2] and at most
    (2 pi)^2 tau^3 / 6 there, so tau_0 = min((6 |w| / (2 pi)^2)^(1/3), 1/2)
    is a lower bound on the root of psi(tau) = |w|, and Newton's steps from
    it overshoot once and then fall monotonically to the root; the slope
    psi' = 2 sin^2(pi tau) has no cancellation.  A start at or below
    _NEWTON_FROM is kept as it is.  tau is clamped to [0, 1/2] after each
    step, the sign of w restored, and x = t / (2 f) clamped to
    [0, 1 - 2^-53].  The constant factor (sign 0) gives x = u.

    Every step is an elementwise ufunc written in place into one of five
    arrays of the broadcast shape, so each x depends on its own
    (sign, f, u) alone, bit for bit, whatever order or slice they come in.
    """
    sign, freq, u = np.broadcast_arrays(np.asarray(sign, dtype=float), freq, np.asarray(u, dtype=float))
    w, t, tau, step, slope = (np.empty(u.shape) for _ in range(5))
    np.multiply(freq, 2.0, out=w)
    np.maximum(w, 2.0, out=w)  # 2f; the constant factor's f = 0 counts as 1
    w *= u  # v = 2 f u
    # flat points are h + integers, h = (1 + sign) / 4: c = floor(v + 1/2 - h) + h
    np.subtract(1.0, sign, out=tau)
    tau *= 0.25
    np.add(w, tau, out=t)
    np.floor(t, out=t)
    t -= tau
    t += 0.5
    w -= t  # w = v - c
    negative = w < 0.0
    np.abs(w, out=w)
    np.multiply(w, 6.0 / (2.0 * np.pi) ** 2, out=tau)
    np.power(tau, 1.0 / 3.0, out=tau)
    np.minimum(tau, 0.5, out=tau)
    moving = tau > _NEWTON_FROM
    for _ in range(NEWTON_STEPS):
        np.multiply(tau, 2.0 * np.pi, out=step)
        np.sin(step, out=step)
        step *= -1.0 / (2.0 * np.pi)
        step += tau
        step -= w  # psi(tau) - |w|
        np.multiply(tau, np.pi, out=slope)
        np.sin(slope, out=slope)
        slope *= slope
        slope *= 2.0  # psi'(tau)
        np.divide(step, slope, out=step, where=moving)
        np.subtract(tau, step, out=tau, where=moving)
        np.maximum(tau, 0.0, out=tau)
        np.minimum(tau, 0.5, out=tau)
    np.negative(tau, out=tau, where=negative)
    t += tau
    np.multiply(freq, 2.0, out=step)
    np.maximum(step, 2.0, out=step)
    t /= step
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0 - 2.0**-53, out=t)
    np.copyto(t, u, where=sign == 0.0)
    return t


@dataclass(frozen=True)
class PointSet:
    """One sampling instance: n points drawn from the density, their density
    values, the head size k, and the weighted basis matrix
    B[i, j] = b_{j+1}(x_i) / sqrt(rho(x_i)) over the density's first m
    functions in one of two forms, described here alone and the one record
    of m and the basis.  Every reader takes B through gram (its Gram
    blocks), G (its (n, k) head block, read-only) and tail_gram (the Gram
    operator of Gamma = B[:, k:] diag(sigma_k..m), which is never formed),
    alike in each form:

    - Dense (B given; d >= 2 with m > n): B itself, read-only, m its width;
      G is a view, gram a product of two views, and tail_gram lsq.ViewGram
      of the view B[:, k:].  A given B takes precedence over sums.
    - Structured (the staircase; d = 1, or m <= n): the Staircase of
      samplerec.expsums.staircase_sums for the first m positions of the
      density's basis, which keeps that basis and m; at d = 1 one box of
      the weighted exponential sums E(h) = sum_i rho_i^-1 e^{2 pi i h x_i},
      |h| <= 2 f_max.  gram is its gram_block of the same slices, and
      tail_gram is samplerec.expsums.TailGram of the positions k..m-1 at
      d = 1, one FFT pair per product, and at d >= 2 lsq.BlockGram of the
      upper column panels (B^T B)[k:hi, lo:hi] of the tail block,
      _GRAM_PANEL wide, about half the block.  No n-row matrix is stored,
      and G is evaluated on each access.

    gram checks its slices one way for both forms and hands out a new
    read-only block.  In every form the densities are density_values' at
    the points, bit for bit.
    """

    points: np.ndarray  # (n, d) in [0, 1)^d
    densities: np.ndarray  # (n,), strictly positive
    B: np.ndarray | None  # (n, m) weighted basis matrix, None in the structured form
    k: int  # head size, 1 <= k < m
    sums: expsums.Staircase | None = None  # the staircase, in the structured form

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def m(self) -> int:
        """The width: B's in the dense form, the staircase's prefix otherwise."""
        return int(self.B.shape[1]) if self.B is not None else self.sums.m

    @property
    def G(self) -> np.ndarray:
        """The (n, k) head block, read-only: dense_matrix of width k."""
        g = dense_matrix(self, width=self.k)
        g.flags.writeable = False
        return g

    def gram(self, rows: slice, cols: slice) -> np.ndarray:
        """(B^T B)[rows, cols], read-only, for slices of the basis positions
        0..m-1 with no step, as the form gives it (see the class
        docstring); ValueError for any other slice, in either form."""
        m = self.m
        for part in (rows, cols):
            start, stop = part.start or 0, m if part.stop is None else part.stop
            if part.step not in (None, 1) or not 0 <= start <= stop <= m:
                raise ValueError(f"need slices of positions 0..{m - 1}, got {part}")
        block = self.B[:, rows].T @ self.B[:, cols] if self.B is not None else self.sums.gram_block(rows, cols)
        block.flags.writeable = False
        return block

    def tail_gram(self, sigma: np.ndarray):
        """Gamma^T Gamma for Gamma = B[:, k:] diag(sigma), sigma the m - k
        tail weights, as the Gram operator of the form (see the class
        docstring): shape, matvec and trace, for lsq.spectral_norm."""
        if self.B is not None:
            return lsq.ViewGram(self.B[:, self.k :], sigma)
        # panels at d = 1 would hold about half the tail block, 36 MB at
        # claims-d1's q = 3003, where the FFT operator holds a few vectors
        if self.points.shape[1] == 1:
            return expsums.TailGram(self.sums, self.k, sigma)
        columns = [slice(lo, min(lo + _GRAM_PANEL, self.m)) for lo in range(self.k, self.m, _GRAM_PANEL)]
        return lsq.BlockGram([self.gram(slice(self.k, cols.stop), cols) for cols in columns], sigma)

    def __post_init__(self) -> None:
        if self.B is not None:
            if self.B.ndim != 2 or self.B.shape[0] != self.n:
                raise ValueError("inconsistent point-set shapes")
        elif self.sums is None:
            raise ValueError("a point set needs B or its sums")
        if not 1 <= self.k < self.m:
            raise ValueError(f"need 1 <= k < m, got k={self.k}, m={self.m}")
        if self.densities.shape != (self.n,):
            raise ValueError("inconsistent point-set shapes")
        if not np.all(self.densities > 0.0):
            raise ValueError("density values must be strictly positive")


def dense_matrix(pts: PointSet, rows: slice = slice(None), width: int | None = None) -> np.ndarray:
    """Rows of the first width columns (all m by default) of the instance's
    weighted n x m matrix B, all rows by default: a view of pts.B when it is
    stored, otherwise the first width functions of its basis evaluated at
    those points and divided by sqrt(rho) in place, the same values bit for
    bit whatever rows are asked for."""
    width = pts.m if width is None else width
    if pts.B is not None:
        return pts.B[rows, :width]
    b = basis_matrix(pts.sums.basis, pts.points[rows], width)
    _weigh_rows(b, pts.densities[rows])
    return b


def sample_points(params: DensityParams, n: int, seed: int) -> PointSet:
    """Draw n independent points from the density, reproducibly.

    Row i of a (n, d + 2) counter-based uniform block is the substream of
    point i: a head/tail coin, a mixture-component uniform, then one uniform
    per coordinate fed to the factor-CDF inverse of the chosen component
    (_invert_factor_cdf: a per-period reduction and NEWTON_STEPS Newton
    steps, |F(x) - u| <= 2^-50, each coordinate from its own uniform alone).
    The block is rng.uniform_block(seed, (n, d + 2)), numpy's Philox4x64-10
    stream keyed by the seed, bit for bit, without loading numpy.random;
    ValueError for a seed below 0 or at least 2^128.

    The densities are density_values' at the points, computed before the
    point set takes the form (see PointSet) that d and whether m > n pick,
    so they are the same, bit for bit, in every form a d allows.  The
    structured form (d = 1, or m <= n) evaluates no basis function and
    makes no n x m or m x m array.  In the dense form (d >= 2
    with m > n) B is evaluated whole, its rows divided by sqrt(rho) in
    place (_weigh_rows); it is the only array of that size the call makes.
    ValueError before any allocation when m exceeds MAX_TRUNCATION or
    n * m exceeds MAX_POINTS * MAX_TRUNCATION.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    basis, k, m = params.basis, params.k, params.m
    if m > MAX_TRUNCATION or n * m > MAX_POINTS * MAX_TRUNCATION:
        raise ValueError(
            f"instance exceeds dense caps m <= {MAX_TRUNCATION}, n * m <= {MAX_POINTS * MAX_TRUNCATION}"
        )
    d = basis.params.d
    u = uniform_block(seed, (n, d + 2))
    comp = np.empty(n, dtype=np.int64)
    head = u[:, 0] < 0.5
    comp[head] = np.minimum((u[head, 1] * k).astype(np.int64), k - 1)
    cum = np.cumsum(params.tail_weights)
    comp[~head] = k + np.minimum(
        np.searchsorted(cum, u[~head, 1], side="right"), m - k - 1
    )
    flat = basis.indices[comp]  # (n, d)
    freq = (flat + 1) // 2
    sign = np.where(flat == 0, 0.0, np.where(flat % 2 == 0, 1.0, -1.0))
    x = _invert_factor_cdf(sign, freq, u[:, 2:])
    rho = density_values(params, x)
    # With m > n a d >= 2 draw keeps B: faster there than the staircase from
    # d = 3 on, at more memory (the README's "Dense" paragraph has timings).
    if d == 1 or m <= n:
        sums = expsums.staircase_sums(x, 1.0 / rho, basis, m)
        return PointSet(points=x, densities=rho, B=None, k=k, sums=sums)
    b = basis_matrix(basis, x, m)
    _weigh_rows(b, rho)
    b.flags.writeable = False
    return PointSet(points=x, densities=rho, B=b, k=k)


def _weigh_rows(values: np.ndarray, rho: np.ndarray) -> None:
    """Divide each row of the unweighted basis rows values by sqrt(rho) of
    its point in place: B's rows from the densities density_values gave,
    the same bits whatever rows are passed together."""
    values /= np.sqrt(rho)[:, None]


def density_selfcheck(params: DensityParams, resolution: int) -> float:
    """Tensor-grid quadrature of the density over [0, 1)^d.

    On a uniform periodic grid the trapezoidal rule is the plain mean, and it
    integrates trigonometric polynomials exactly once the resolution exceeds
    the bandwidth; 4x the largest basis frequency covers the squared terms.
    Returns the quadrature value, which should equal 1 up to roundoff.
    """
    fmax = max(params.basis.max_frequency(params.m), 1)
    if resolution < 4 * fmax:
        raise ValueError(f"resolution {resolution} below 4 * max frequency = {4 * fmax}")
    d = params.basis.params.d
    g = np.arange(resolution) / resolution
    grid = np.array(np.meshgrid(*([g] * d), indexing="ij")).reshape(d, -1).T
    return float(np.mean(density_values(params, grid)))
