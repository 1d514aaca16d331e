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

from .spectral import OrderedBasis, basis_matrix, frequency

# Final bracket width 2^-48; factor CDFs are 2-Lipschitz, so the inverse is
# resolved to |F(x) - u| <= 2^-47 < 1e-12.
BISECT_STEPS = 48


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
    """Density from the (n, m) unweighted basis matrix at the points."""
    bsq = values ** 2
    head = bsq[:, : params.k].sum(axis=1) / params.k
    tail = bsq[:, params.k :] @ params.tail_weights
    return 0.5 * (head + tail)


def density_values(params: DensityParams, points) -> np.ndarray:
    """Density at each row of an (n, d) array of points in [0, 1)^d."""
    return _mixture(params, basis_matrix(params.basis, points, params.m))


def density_eval(params: DensityParams, x) -> float:
    """Density at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    return float(density_values(params, x[None, :])[0])


def _factor_cdf(sign, freq, x):
    """CDF of a squared 1-d factor: x + sign * sin(4 pi f x) / (4 pi f).

    sign +1 selects the cosine factor, -1 the sine factor, 0 the constant.
    """
    f = np.where(sign == 0, 1.0, np.asarray(freq, dtype=float))
    return x + sign * np.sin(4.0 * np.pi * f * x) / (4.0 * np.pi * f)


def factor_cdf(k: int, x):
    """CDF at x of the squared 1-d basis factor with flat index k."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return x.copy()
    sign = 1.0 if k % 2 == 0 else -1.0
    return _factor_cdf(np.full(x.shape, sign), np.full(x.shape, frequency(k)), x)


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


def inverse_cdf_1d(kind: str, u, freq: int = 0):
    """Invert one factor CDF at u in [0, 1).

    kind is "constant", "cos" or "sin"; freq >= 1 is required for the
    trigonometric kinds.  Accepts a scalar or an array of u values.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    if kind == "constant":
        sign = np.zeros_like(u_arr)
        f = np.ones_like(u_arr)
    elif kind in ("cos", "sin"):
        if freq < 1:
            raise ValueError(f"{kind} kind needs freq >= 1, got {freq}")
        sign = np.full(u_arr.shape, 1.0 if kind == "cos" else -1.0)
        f = np.full(u_arr.shape, float(freq))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    x = _invert_factor_cdf(sign, f, u_arr)
    return float(x) if np.isscalar(u) or np.asarray(u).ndim == 0 else x


@dataclass(frozen=True)
class PointSet:
    """Sample points with their density values and the seed that made them.

    sample_points also stores the weighted basis matrix
    B[i, j] = b_{j+1}(x_i) / sqrt(rho(x_i)) over the density's m functions,
    made from the one basis evaluation that gave the densities; it is
    read-only, and build_matrices takes B from here.  A point set built by
    hand carries none (B is None).
    """

    points: np.ndarray  # (n, d) in [0, 1)^d
    densities: np.ndarray  # (n,), strictly positive
    seed: int
    n: int
    B: np.ndarray | None = None  # (n, m) weighted basis matrix

    def __post_init__(self) -> None:
        if self.points.shape[0] != self.n or self.densities.shape != (self.n,):
            raise ValueError("inconsistent point-set shapes")
        if self.B is not None and (self.B.ndim != 2 or self.B.shape[0] != self.n):
            raise ValueError("inconsistent point-set shapes")
        if np.any(self.densities <= 0.0):
            raise ValueError("density values must be strictly positive")


def sample_points(params: DensityParams, n: int, seed: int) -> PointSet:
    """Draw n independent points from the density, reproducibly.

    Row i of a (n, d + 2) counter-based uniform block is the substream of
    point i: a head/tail coin, a mixture-component uniform, then one uniform
    per coordinate fed to the factor-CDF inverse of the chosen component.

    The n x m basis matrix is evaluated once: its squares give the
    densities, then it is divided by sqrt(rho) in place and kept as the
    point set's weighted matrix B.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    basis, k, m = params.basis, params.k, params.m
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
    b = basis_matrix(basis, x, m)
    rho = _mixture(params, b)
    b /= np.sqrt(rho)[:, None]
    b.flags.writeable = False
    return PointSet(points=x, densities=rho, seed=int(seed), n=int(n), B=b)


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
