"""Worst-case recovery error on the truncated space and certified bounds."""

from __future__ import annotations

import math

import numpy as np

from . import lsq
from .density import PointSet, dense_matrix
from .lsq import HeadSVD
from .spectral import CoefVector, OrderedBasis, SpectrumSummary, row_blocks


def worst_case_error_trunc(info: PointSet, head: HeadSVD, basis: OrderedBasis) -> float:
    """Exact worst-case L2 error over the unit ball of the first m basis
    functions, for a full-rank draw whose head block G has the factorization
    head (samplerec.lsq.head_factor, with its vectors: ValueError for a
    values-only head or a degenerate draw).  info is the PointSet of the
    instance: its Gram blocks, head size k and width m.

    The ball is c = diag(sigma) x, ||x|| <= 1, and the residual on
    coefficients is E = I - pad(G^+ B), so the error is ||E diag(sigma)||.
    At full rank G^+ G = I: with T = B[:, k:] diag(s_t), s_t = sigma[k:m],
    E diag(sigma) = [[0, -G^+ T], [0, diag(s_t)]], whose norm is that of
    [G^+ T; diag(s_t)].  For G = U S V^T, V orthogonal, ||G^+ T x|| = ||W x||
    with W = S^-1 U^T T; so the error squared is the top eigenvalue of
    W^T W + diag(s_t)^2, of size q = m - k.

    The route follows the factorization.  One without u (the Gram route of
    any d, kappa(G) <= lsq.KAPPA_LIMIT) gives
    W = S^-2 V^T (G^T B_tail) diag(s_t), with the block G^T B_tail from
    info.gram: a view of the stored Gram in the Gram form (d >= 3), read
    off the exponential sums in the structured form (d = 1, and d = 2 with
    m <= n, where samplerec.expsums.gram_block_2d fills it from the
    two-dimensional sums); no n-row matrix is formed.  One with u (a
    fallback draw) takes the dense route above: U^T B_tail is summed over
    row blocks (row_blocks) of u and of B, whose rows come from info.B or,
    when B is not stored, are evaluated one block at a time
    (density.dense_matrix), so the two give the same bits and no n x m
    array is made.  Both routes end in one lsq.spectral_norm
    of the operator x -> W^T (W x) + s_t^2 x, which forms a q x q matrix
    only up to lsq._OPERATOR_DENSE_SIZE and otherwise runs Lanczos on the
    (k, q) matrix W.
    """
    if not head.rank_ok:
        raise ValueError("a degenerate draw has no worst-case error: G is rank deficient")
    k, m = info.k, info.m
    if head.vt is None:
        raise ValueError("head holds singular values only: take head_factor(pts) with compute_uv=True")
    if head.vt.shape != (k, k):
        raise ValueError(f"head factorization must have vt of shape ({k}, {k}), got {head.vt.shape}")
    tail_sigma = basis.sigma[k:m]
    if head.u is None:
        block = info.gram(slice(0, k), slice(k, m))
        w = (head.vt @ block) * tail_sigma / head.sv[:, None] ** 2
    else:
        if head.u.shape != (info.n, k):
            raise ValueError(f"head SVD must have u of shape ({info.n}, {k}), got {head.u.shape}")
        block = np.zeros((k, m - k))
        for rows in row_blocks(info.n, m):
            block += head.u[rows].T @ dense_matrix(info, rows)[:, k:]
        w = block * tail_sigma / head.sv[:, None]
    return math.sqrt(lsq.spectral_norm(_TruncGram(w, tail_sigma)))


class _TruncGram:
    """W^T W + diag(s_t)^2 for a (k, q) matrix W and the q tail weights s_t,
    as a Gram operator for lsq.spectral_norm: e_trunc squared is its top
    eigenvalue.  It holds W alone; a product costs two passes over W."""

    def __init__(self, w: np.ndarray, tail_sigma: np.ndarray) -> None:
        self._w = w
        self._squares = tail_sigma ** 2
        self.shape = (len(tail_sigma), len(tail_sigma))

    def matmat(self, v: np.ndarray) -> np.ndarray:
        """(W^T W + diag(s_t)^2) v for a vector or a (q, p) block v."""
        squares = self._squares.reshape((-1,) + (1,) * (v.ndim - 1))
        return self._w.T @ (self._w @ v) + squares * v

    matvec = matmat


def certified_upper_bound(
    e_trunc: float,
    basis: OrderedBasis,
    summary: SpectrumSummary,
    pts: PointSet,
    s_min_g: float,
    m: int,
) -> float:
    """e_trunc plus certified addends for what truncation at m discarded.

    Mass beyond position m is controlled through |b|^2 <= 2^d and the
    upper end of the certified tail sum, paid for once in the target (a_m)
    and once in the information (the sqrt addend).  Loose, but a true bound.
    The basis must extend at least one position past m so a_m is available.
    """
    if not 1 <= m < len(basis):
        raise ValueError(f"need 1 <= m < {len(basis)} (basis length) for a_m, got m={m}")
    if s_min_g <= 0.0:
        raise ValueError("a degenerate fit has no certified bound")
    d = basis.params.d
    addend = math.sqrt(np.sum(1.0 / pts.densities) * 2.0 ** d * summary.tail_upper(m)) / s_min_g
    return float(e_trunc + basis.sigma[m] + addend)


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
