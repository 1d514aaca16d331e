"""Sampling density and reproducible point generation.

The density on [0, 1)^d averages two mixtures of squared basis functions: a
uniform mixture over the k head functions and a sigma^2-weighted mixture over
the truncated tail (basis positions k+1 .. m, renormalized).  Because each
squared basis function integrates to 1, the density integrates to 1 and is
bounded below by 1 / (2k).

A point is drawn by picking a component, then inverting each coordinate's
factor CDF by bisection.  All uniforms for point i come from row i of one
counter-based random block, so a sample is fully determined by (params, n,
seed) and independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expsums
from .spectral import OrderedBasis, basis_matrix, row_blocks

# Final bracket width 2^-48; factor CDFs are 2-Lipschitz, so the inverse is
# resolved to |F(x) - u| <= 2^-47 < 1e-12.
BISECT_STEPS = 48

# Desk-scale caps on dense matrix sizes: m columns, and n * m entries of
# one n x m matrix, at most MAX_POINTS * MAX_TRUNCATION.
MAX_POINTS = 1 << 14
MAX_TRUNCATION = 1 << 13


@dataclass(frozen=True)
class DensityParams:
    """Head size k, truncation m and tail mixture weights over a basis."""

    basis: OrderedBasis
    k: int
    m: int
    tail_weights: np.ndarray  # (m - k,), nonnegative, sums to 1


def truncated_density(basis: OrderedBasis, k: int, m: int) -> DensityParams:
    """Build the density with head size k and tail truncated at m."""
    if not 1 <= k < m <= len(basis):
        raise ValueError(f"need 1 <= k < m <= {len(basis)}, got k={k}, m={m}")
    a_sq = basis.sigma[k:m] ** 2
    return DensityParams(basis=basis, k=k, m=m, tail_weights=a_sq / np.sum(a_sq))


def _mixture(params: DensityParams, values: np.ndarray) -> np.ndarray:
    """Density from the unweighted basis matrix at some points, (rows, m).

    It squares all of values at once, so callers hand it one row block at a
    time; each row's density depends on that row alone, bit for bit.
    """
    bsq = values ** 2
    head = bsq[:, : params.k].sum(axis=1) / params.k
    tail = bsq[:, params.k :] @ params.tail_weights
    return 0.5 * (head + tail)


def density_values(params: DensityParams, points) -> np.ndarray:
    """Density at each row of an (n, d) array of points in [0, 1)^d.

    The basis is evaluated one row block at a time (row_blocks) and only the
    density vector is kept, so memory is O(block * m + n), never an n x m
    matrix.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    rho = np.empty(x.shape[0])
    for rows in row_blocks(x.shape[0], params.m):
        rho[rows] = _mixture(params, basis_matrix(params.basis, x[rows], params.m))
    return rho


def _factor_cdf(sign, freq, x):
    """CDF of a squared 1-d factor: x + sign * sin(4 pi f x) / (4 pi f).

    sign +1 selects the cosine factor, -1 the sine factor, 0 the constant.
    """
    f = np.where(sign == 0, 1.0, np.asarray(freq, dtype=float))
    return x + sign * np.sin(4.0 * np.pi * f * x) / (4.0 * np.pi * f)


def _invert_factor_cdf(sign, freq, u):
    """Bisection inverse of the factor CDFs, elementwise over arrays."""
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = _factor_cdf(sign, freq, mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PointSet:
    """One sampling instance: n points drawn from the density, their density
    values, the seed that made them, the head size k and the width m, and
    the weighted basis matrix B[i, j] = b_{j+1}(x_i) / sqrt(rho(x_i)) over
    the density's m functions in one of two forms.

    Dense (d >= 2): B itself, read-only; G is a view of its first k columns,
    and m defaults to its width.  Structured (d = 1, B None): sums holds the
    weighted exponential sums E(h) = sum_i rho_i^-1 e^{2 pi i h x_i},
    h = 0..2 f_max, from which every Gram block of B is read
    (samplerec.expsums), and basis the ordered basis of the density; no n-row
    matrix is stored, and G, the (n, k) head block, is evaluated from the
    basis on each access.  A given B takes precedence over the structured
    fields.  The tail block B[:, k:] scaled by sigma_k..m is Gamma, which is
    not stored.
    """

    points: np.ndarray  # (n, d) in [0, 1)^d
    densities: np.ndarray  # (n,), strictly positive
    seed: int
    B: np.ndarray | None  # (n, m) weighted basis matrix, None in the structured form
    k: int  # head size, 1 <= k < m
    m: int | None = None  # width, B.shape[1] when B is given
    sums: np.ndarray | None = None  # (2 f_max + 1,) complex E(h) of the structured form
    basis: OrderedBasis | None = None  # the density's basis, in the structured form

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def G(self) -> np.ndarray:
        """The (n, k) head block: a view of B, or in the structured form a
        new read-only array evaluated from the basis on each access."""
        if self.B is not None:
            return self.B[:, : self.k]
        g = basis_matrix(self.basis, self.points, self.k)
        g /= np.sqrt(self.densities)[:, None]
        g.flags.writeable = False
        return g

    def __post_init__(self) -> None:
        if self.B is not None:
            if self.B.ndim != 2 or self.B.shape[0] != self.n or self.m not in (None, self.B.shape[1]):
                raise ValueError("inconsistent point-set shapes")
            object.__setattr__(self, "m", int(self.B.shape[1]))
        elif self.sums is None or self.basis is None or self.m is None:
            raise ValueError("a point set needs B, or its sums, basis and width m")
        if not 1 <= self.k < self.m:
            raise ValueError(f"need 1 <= k < m, got k={self.k}, m={self.m}")
        if self.densities.shape != (self.n,):
            raise ValueError("inconsistent point-set shapes")
        if np.any(self.densities <= 0.0):
            raise ValueError("density values must be strictly positive")


def dense_matrix(pts: PointSet, basis: OrderedBasis) -> np.ndarray:
    """The instance's weighted n x m matrix B: pts.B when it is stored,
    otherwise the first m basis functions evaluated at the points and
    divided by sqrt(rho)."""
    if pts.B is not None:
        return pts.B
    return basis_matrix(basis, pts.points, pts.m) / np.sqrt(pts.densities)[:, None]


def _closed_form_density(params: DensityParams, x: np.ndarray) -> np.ndarray:
    """The density at d = 1 in closed form, rho(x) = 1 + sum_f alpha_f cos(4 pi f x).

    A squared factor is 1 + cos(4 pi f x) for a cosine, 1 - cos(4 pi f x) for
    a sine and 1 for the constant, and the sine and cosine of one frequency
    share their mixture weight in the head and in the tail, so alpha_f
    cancels exactly except at the frequencies cut at positions k and m: at
    most two terms.
    """
    flat = params.basis.indices[: params.m, 0]
    sign = np.where(flat == 0, 0.0, np.where(flat % 2 == 0, 1.0, -1.0))
    mix = np.concatenate((np.full(params.k, 0.5 / params.k), 0.5 * params.tail_weights))
    alpha = np.bincount((flat + 1) // 2, weights=sign * mix)
    rho = np.ones(len(x))
    for f in np.flatnonzero(alpha):
        rho += alpha[f] * np.cos((4.0 * np.pi * f) * x)
    return rho


def sample_points(params: DensityParams, n: int, seed: int) -> PointSet:
    """Draw n independent points from the density, reproducibly.

    Row i of a (n, d + 2) counter-based uniform block is the substream of
    point i: a head/tail coin, a mixture-component uniform, then one uniform
    per coordinate fed to the factor-CDF inverse of the chosen component.

    At d >= 2 the n x m basis matrix is evaluated once, and it is the only
    array of that size the call makes: then, row block by row block
    (row_blocks), the squares of a block give its densities and the block is
    divided by sqrt(rho) in place.  The result is kept as the point set's
    weighted matrix B, with head size k.  At d = 1 the point set takes the
    structured form: the density in closed form and the sums E(h) for h up
    to twice the largest frequency of the m functions, and no basis function
    is evaluated, so nothing the call makes grows with n faster than O(n) or
    a row block.  ValueError before any allocation when m exceeds
    MAX_TRUNCATION or n * m exceeds MAX_POINTS * MAX_TRUNCATION.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    basis, k, m = params.basis, params.k, params.m
    if m > MAX_TRUNCATION or n * m > MAX_POINTS * MAX_TRUNCATION:
        raise ValueError(
            f"instance exceeds dense caps m <= {MAX_TRUNCATION}, n * m <= {MAX_POINTS * MAX_TRUNCATION}"
        )
    d = basis.params.d
    u = np.random.Generator(np.random.Philox(key=int(seed))).random((n, d + 2))
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
    if d == 1:
        rho = _closed_form_density(params, x[:, 0])
        sums = expsums.exp_sums(x[:, 0], 1.0 / rho, 2 * basis.max_frequency(m))
        return PointSet(points=x, densities=rho, seed=int(seed), B=None, k=k, m=m, sums=sums, basis=basis)
    b = basis_matrix(basis, x, m)
    rho = np.empty(n)
    for rows in row_blocks(n, m):
        block = b[rows]
        rho[rows] = _mixture(params, block)
        block /= np.sqrt(rho[rows])[:, None]
    b.flags.writeable = False
    return PointSet(points=x, densities=rho, seed=int(seed), B=b, k=k)


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
