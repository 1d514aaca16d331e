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

import math
from dataclasses import dataclass

import numpy as np

from . import expsums, lsq
from .rng import uniform_block
from .spectral import ROW_BLOCK_BYTES, OrderedBasis, basis_matrix, row_blocks

# Final bracket width 2^-48; factor CDFs are 2-Lipschitz, so the inverse is
# resolved to |F(x) - u| <= 2^-47 < 1e-12.
BISECT_STEPS = 48

# Desk-scale caps on dense matrix sizes: m columns, and n * m entries of
# one n x m matrix, at most MAX_POINTS * MAX_TRUNCATION.
MAX_POINTS = 1 << 14
MAX_TRUNCATION = 1 << 13

# Rows of one chunk of the Gram sum: whole row blocks (row_blocks) of about
# _GRAM_CHUNK_BYTES together, and at least _GRAM_CHUNK_ROWS rows, since a
# product B_c^T B_c over fewer rows costs more per row and each chunk adds
# a pass over the m x m Gram.
_GRAM_CHUNK_BYTES = 4 << 20
_GRAM_CHUNK_ROWS = 512

# Columns of one panel of the Gram sum: each chunk adds the products
# B_c[:, a]^T B_c[:, b] of column panels a <= b into the Gram's upper
# triangle in place (a syrk when a = b), and the lower triangle is copied
# from it once at the end, so no m x m temporary is made; one product takes
# 256^2 doubles, half a row block.  With OpenBLAS's Haswell kernels, at
# one or two threads, the panel products held the bits of one product over
# all columns on the d = 2 and 3 shapes 4096 x 984, 2048 x 536 and
# 1024 x 288 at every width tried that is a multiple of 8 from 128 to 512;
# widths 16, 64, 100 and 362 moved entries by at most 3.1e-16 of the
# largest.  CPU time of sample_points at n = 4096, m = 984 (d = 2,
# s = 0.75, one BLAS thread, medians of 21 interleaved draws, two runs):
# 180-202 ms at width 256, 185-198 ms with one product, 220-227 ms at
# width 128.  Those timings are of d = 2 shapes, now in the structured
# form; the width serves the Gram sum at d >= 3 in sample_points and the
# upper column panels of the d = 2 tail block in PointSet.tail_gram.
_GRAM_PANEL = math.isqrt(ROW_BLOCK_BYTES // 16)


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
    values, the head size k, the width m, and the weighted basis matrix
    B[i, j] = b_{j+1}(x_i) / sqrt(rho(x_i)) over the density's m functions
    in one of four forms, described here alone.  Every reader takes B
    through gram (its Gram blocks), G (its (n, k) head block, read-only)
    and tail_gram (the Gram operator of Gamma = B[:, k:] diag(sigma_k..m),
    which is never formed), alike in each form:

    - Dense (B given; d >= 2 with m > n): B itself, read-only, and m
      defaults to its width; G is a view, gram a product of two views, and
      tail_gram lsq.ViewGram of the view B[:, k:].  A given B takes
      precedence over the other fields.
    - Gram (BtB given; d >= 3 with m <= n): the m x m Gram B^T B,
      read-only; gram gives views of it, and tail_gram is lsq.BlockGram of
      the stored tail block (B^T B)[k:, k:] as one whole-width panel.
    - Structured at d = 1 (1-D sums): the weighted exponential sums
      E(h) = sum_i rho_i^-1 e^{2 pi i h x_i}, h = 0..2 f_max; gram is
      samplerec.expsums.gram_block, and tail_gram samplerec.expsums.TailGram.
    - Structured at d = 2 (2-D sums; m <= n): the (2 f_max + 1,
      4 f_max + 1) array of E(g1, g2) of samplerec.expsums.exp_sums_2d,
      f_max the largest frequency in either coordinate; gram is a new
      read-only array from samplerec.expsums.gram_block_2d, and tail_gram
      lsq.BlockGram of the upper column panels (B^T B)[k:hi, lo:hi] of the
      tail block, _GRAM_PANEL wide, about half the block.

    In all but the dense form basis is the density's ordered basis, no
    n-row matrix is stored, and G is evaluated on each access.
    """

    points: np.ndarray  # (n, d) in [0, 1)^d
    densities: np.ndarray  # (n,), strictly positive
    B: np.ndarray | None  # (n, m) weighted basis matrix, None in the Gram and structured forms
    k: int  # head size, 1 <= k < m
    m: int | None = None  # width, B.shape[1] when B is given
    sums: np.ndarray | None = None  # complex E of the structured form, 1-D at d = 1 and 2-D at d = 2
    basis: OrderedBasis | None = None  # the density's basis, in the Gram and structured forms
    BtB: np.ndarray | None = None  # (m, m) Gram B^T B of the Gram form

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def G(self) -> np.ndarray:
        """The (n, k) head block, read-only: dense_matrix of width k."""
        g = dense_matrix(self, width=self.k)
        g.flags.writeable = False
        return g

    def gram(self, rows: slice, cols: slice) -> np.ndarray:
        """(B^T B)[rows, cols] for slices of basis positions, as the form
        gives it (see the class docstring)."""
        if self.B is not None:
            return self.B[:, rows].T @ self.B[:, cols]
        if self.BtB is not None:
            return self.BtB[rows, cols]
        if self.sums.ndim == 1:
            flat = self.basis.indices[: self.m, 0]
            return expsums.gram_block(self.sums, flat[rows], flat[cols])
        indices = self.basis.indices[: self.m]
        block = expsums.gram_block_2d(self.sums, indices[rows], indices[cols])
        block.flags.writeable = False
        return block

    def tail_gram(self, sigma: np.ndarray):
        """Gamma^T Gamma for Gamma = B[:, k:] diag(sigma), sigma the m - k
        tail weights, as the Gram operator of the form (see the class
        docstring): shape, matmat, matvec and trace, for lsq.spectral_norm."""
        tail = slice(self.k, self.m)
        if self.B is not None:
            return lsq.ViewGram(self.B[:, tail], sigma)
        if self.BtB is not None:
            return lsq.BlockGram(self.gram(tail, tail), sigma)
        if self.sums.ndim == 1:
            return expsums.TailGram(self.sums, self.basis.indices[tail, 0], sigma)
        columns = [slice(lo, min(lo + _GRAM_PANEL, self.m)) for lo in range(self.k, self.m, _GRAM_PANEL)]
        return lsq.BlockGram([self.gram(slice(self.k, cols.stop), cols) for cols in columns], sigma)

    def __post_init__(self) -> None:
        if self.B is not None:
            if self.B.ndim != 2 or self.B.shape[0] != self.n or self.m not in (None, self.B.shape[1]):
                raise ValueError("inconsistent point-set shapes")
            object.__setattr__(self, "m", int(self.B.shape[1]))
        elif (self.sums is None and self.BtB is None) or self.basis is None or self.m is None:
            raise ValueError("a point set needs B, or its sums or Gram, basis and width m")
        elif self.BtB is not None and self.BtB.shape != (self.m, self.m):
            raise ValueError("inconsistent point-set shapes")
        if not 1 <= self.k < self.m:
            raise ValueError(f"need 1 <= k < m, got k={self.k}, m={self.m}")
        if self.densities.shape != (self.n,):
            raise ValueError("inconsistent point-set shapes")
        if np.any(self.densities <= 0.0):
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
    b = basis_matrix(pts.basis, pts.points[rows], width)
    b /= np.sqrt(pts.densities[rows])[:, None]
    return b


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
    The block is rng.uniform_block(seed, (n, d + 2)), numpy's Philox4x64-10
    stream keyed by the seed, bit for bit, without loading numpy.random;
    ValueError for a seed below 0 or at least 2^128.

    The point set takes the form (see PointSet) that d and whether m > n
    pick.  At d = 1 the density is in closed form and no basis function is
    evaluated; at d = 2 with m <= n the densities are density_values', bit
    for bit, and the basis rows behind them are dropped; so neither makes
    an n x m or m x m array.

    Otherwise (d >= 2) the basis is evaluated once at every point, row
    block by row block (row_blocks): the squares of a block give its
    densities, and the block is divided by sqrt(rho) in place.  In the Gram
    form the rows come one chunk of whole row blocks (about
    _GRAM_CHUNK_BYTES, at least _GRAM_CHUNK_ROWS rows) at a time, and each
    weighted chunk's B_c^T B_c is added into the upper triangle of the Gram
    in place, one pair of column panels (_GRAM_PANEL wide) at a time; the
    lower triangle is copied from the upper once at the end.  A chunk is
    freed before the next is evaluated, so the call holds the Gram, one
    chunk and temporaries of a row block or a panel product at most, and no
    n x m array or m x m temporary.  In the dense form B is evaluated
    whole; it is the only array of that size the call makes.  Points and
    densities are the same, bit for bit, in every form a d allows.
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
    if d == 1:
        rho = _closed_form_density(params, x[:, 0])
        sums = expsums.exp_sums(x[:, 0], 1.0 / rho, 2 * basis.max_frequency(m))
        return PointSet(points=x, densities=rho, B=None, k=k, m=m, sums=sums, basis=basis)
    # At d = 2 with m > n, B is faster and the structured form smaller: at
    # s = 0.75, m_factor 8, seed 2 (2-core box, four alternating runs),
    # claims at n_grid 512, 2048, c_head 0.05, 2 trials took 2.7-3.4 s,
    # 149 MiB peak RSS with B against 3.3-4.7 s, 104 MiB structured; rates
    # at n_grid 256, 512, 1024, c_head 2.0, 1 trial: 0.73-0.96 s, 69 MiB
    # against 0.91-0.94 s, 64.5 MiB.
    if d == 2 and m <= n:
        rho = density_values(params, x)
        sums = expsums.exp_sums_2d(x, 1.0 / rho, 2 * basis.max_frequency(m))
        return PointSet(points=x, densities=rho, B=None, k=k, m=m, sums=sums, basis=basis)
    rho = np.empty(n)
    blocks = row_blocks(n, m)
    if m > n:
        b = basis_matrix(basis, x, m)
        _weigh_rows(params, b, blocks, rho)
        b.flags.writeable = False
        return PointSet(points=x, densities=rho, B=b, k=k)
    height = blocks[0].stop
    per_chunk = max(1, max(_GRAM_CHUNK_ROWS, _GRAM_CHUNK_BYTES // (8 * m)) // height)
    gram = np.zeros((m, m))
    panels = [slice(lo, min(lo + _GRAM_PANEL, m)) for lo in range(0, m, _GRAM_PANEL)]
    for first in range(0, len(blocks), per_chunk):
        group = blocks[first : first + per_chunk]
        start = group[0].start
        chunk = basis_matrix(basis, x[start : group[-1].stop], m)
        _weigh_rows(params, chunk, [slice(r.start - start, r.stop - start) for r in group], rho[start:])
        for i, a in enumerate(panels):
            for b in panels[i:]:
                gram[a, b] += chunk[:, a].T @ chunk[:, b]
        del chunk  # freed before the next chunk is evaluated
    for i, a in enumerate(panels):
        for b in panels[i + 1 :]:
            gram[b, a] = gram[a, b].T
    gram.flags.writeable = False
    return PointSet(points=x, densities=rho, B=None, k=k, m=m, basis=basis, BtB=gram)


def _weigh_rows(params: DensityParams, values: np.ndarray, blocks: list[slice], rho: np.ndarray) -> None:
    """Fill rho[rows] from the unweighted basis rows values[rows] and divide
    those rows by sqrt(rho) in place, one row block at a time, so each
    density is what density_values gives for its point, bit for bit."""
    for rows in blocks:
        block = values[rows]
        rho[rows] = _mixture(params, block)
        block /= np.sqrt(rho[rows])[:, None]


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
