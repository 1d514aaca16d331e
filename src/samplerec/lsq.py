"""Weighted information matrices and the least-squares recovery step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .density import PointSet
from .spectral import OrderedBasis

# Relative singular-value cutoff below which a draw counts as degenerate.
RANK_RTOL = 1e-10

# Desk-scale caps on dense matrix sizes.
MAX_POINTS = 1 << 14
MAX_TRUNCATION = 1 << 13


@dataclass(frozen=True)
class InfoMatrices:
    """Density-weighted evaluation matrices of one sampling instance.

    B[i, j] = b_{j+1}(x_i) / sqrt(rho(x_i)) is the point set's matrix, made
    at sampling time; G is a view of its head block (first k columns), not
    a copy, and Gamma the tail block with column j scaled by sigma_{k+j}.
    """

    G: np.ndarray  # (n, k)
    B: np.ndarray  # (n, m)
    Gamma: np.ndarray  # (n, m - k)
    k: int
    m: int


def build_matrices(pts: PointSet, basis: OrderedBasis, k: int, m: int) -> InfoMatrices:
    """Head block G and scaled tail block Gamma of the point set's matrix B.

    pts must come from sample_points with the same basis and m, so that it
    carries B with m columns; ValueError otherwise.
    """
    if not 1 <= k < m <= len(basis):
        raise ValueError(f"need 1 <= k < m <= {len(basis)}, got k={k}, m={m}")
    if pts.n < k:
        raise ValueError(f"head block underdetermined: n={pts.n} < k={k}")
    if pts.n > MAX_POINTS or m > MAX_TRUNCATION:
        raise ValueError(
            f"instance exceeds dense caps n <= {MAX_POINTS}, m <= {MAX_TRUNCATION}"
        )
    b = pts.B
    if b is None or b.shape[1] != m:
        width = None if b is None else b.shape[1]
        raise ValueError(f"point set carries a weighted basis matrix of width {width}, need m={m}")
    return InfoMatrices(G=b[:, :k], B=b, Gamma=b[:, k:] * basis.sigma[k:m], k=k, m=m)


@dataclass(frozen=True)
class Fit:
    """Least-squares coefficients plus the conditioning of the solve."""

    coefficients: np.ndarray  # (k,)
    s_min_G: float
    s_max_G: float
    rank_ok: bool
    pinv_norm: float | None  # 1 / s_min_G, None on a degenerate draw


def fit(info: InfoMatrices, samples, pts: PointSet) -> Fit:
    """Solve min ||G c - y||_2 with y_i = f(x_i) / sqrt(rho(x_i)), by SVD.

    Singular values at or below RANK_RTOL times the largest are treated as
    zero; such draws are flagged through rank_ok rather than rejected.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (pts.n,):
        raise ValueError(f"expected {pts.n} samples, got shape {samples.shape}")
    y = samples / np.sqrt(pts.densities)
    u, sv, vt = np.linalg.svd(info.G, full_matrices=False)
    cutoff = RANK_RTOL * sv[0]
    mask = sv > cutoff
    inv = np.zeros_like(sv)
    inv[mask] = 1.0 / sv[mask]
    coef = vt.T @ (inv * (u.T @ y))
    rank_ok = bool(mask.all())
    return Fit(
        coefficients=coef,
        s_min_G=float(sv[-1]),
        s_max_G=float(sv[0]),
        rank_ok=rank_ok,
        pinv_norm=1.0 / float(sv[-1]) if rank_ok else None,
    )


def pseudoinverse(g: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Moore-Penrose inverse with a relative singular-value cutoff."""
    u, sv, vt = np.linalg.svd(g, full_matrices=False)
    inv = np.zeros_like(sv)
    mask = sv > rtol * sv[0]
    inv[mask] = 1.0 / sv[mask]
    return (vt.T * inv) @ u.T


def singular_extrema(mat: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) singular value by dense SVD."""
    sv = np.linalg.svd(np.atleast_2d(mat), compute_uv=False)
    return float(sv[-1]), float(sv[0])


# Above this flop estimate for forming the smaller Gram matrix, switch from a
# dense eigensolve to Lanczos iteration.
_GRAM_FLOP_LIMIT = 5e9


def spectral_norm(mat: np.ndarray, method: str = "auto") -> float:
    """Largest singular value of a dense matrix.

    "auto" picks the cheapest adequate path: direct SVD for small matrices,
    the top eigenvalue of the smaller Gram matrix for medium ones, Lanczos
    (with a fixed start vector, so runs are reproducible) for large ones.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    n, p = mat.shape
    q = min(n, p)
    if method == "auto":
        if q <= 64:
            method = "svd"
        elif max(n, p) * q * q <= _GRAM_FLOP_LIMIT:
            method = "gram"
        else:
            method = "lanczos"
    if method == "svd":
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    if method == "gram":
        gram = mat @ mat.T if n <= p else mat.T @ mat
        top = scipy.linalg.eigh(gram, eigvals_only=True, subset_by_index=(q - 1, q - 1))[0]
        return float(np.sqrt(max(top, 0.0)))
    if method == "lanczos":
        v0 = np.full(q, 1.0 / np.sqrt(q))
        sv = scipy.sparse.linalg.svds(
            mat, k=1, ncv=min(q, 64), v0=v0, maxiter=max(1000, 20 * q),
            return_singular_vectors=False,
        )
        return float(sv[0])
    raise ValueError(f"unknown method {method!r}")
