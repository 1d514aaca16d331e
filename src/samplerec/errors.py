"""Worst-case recovery error on the truncated space and certified bounds."""

from __future__ import annotations

import math

import numpy as np

from . import lsq
from .density import PointSet
from .lsq import HeadSVD
from .spectral import OrderedBasis, SpectrumSummary


def worst_case_error_trunc(info: PointSet, head: HeadSVD, basis: OrderedBasis) -> float:
    """Exact worst-case L2 error over the unit ball of the first m basis
    functions, for a full-rank draw whose head block G has the factorization
    head (samplerec.lsq.head_factor, with its vectors).  ValueError for a
    degenerate draw, tested first, and for a head that lsq.check_vectors
    refuses.  info is the PointSet of the instance: its Gram blocks, head
    size k and width m.

    The ball is c = diag(sigma) x, ||x|| <= 1, and the residual on
    coefficients is E = I - pad(G^+ B), so the error is ||E diag(sigma)||.
    At full rank G^+ G = I: with T = B[:, k:] diag(s_t), s_t = sigma[k:m],
    E diag(sigma) = [[0, -G^+ T], [0, diag(s_t)]], whose norm is that of
    [G^+ T; diag(s_t)].  For G = U S V^T, V orthogonal, ||G^+ T x|| = ||W x||
    with W = S^-1 U^T T; so the error squared is the top eigenvalue of
    W^T W + diag(s_t)^2, of size q = m - k.

    W = L C diag(s_t) is applied as its factors, never formed: C is the
    (k, q) block the factorization's route reads and L a (k, k) factor, both
    from lsq.trunc_factors, which holds the route (the Gram route of any d,
    kappa(G) <= lsq.KAPPA_LIMIT, or the SVD fallback).  So the call holds
    one (k, q) array, and one lsq.spectral_norm of _TruncGram, Lanczos on
    x -> W^T (W x) + s_t^2 x, forms no q x q matrix.
    """
    if not head.rank_ok:
        raise ValueError("a degenerate draw has no worst-case error: G is rank deficient")
    block, left = lsq.trunc_factors(info, head)
    return math.sqrt(lsq.spectral_norm(_TruncGram(block, left, basis.sigma[info.k : info.m])))


class _TruncGram:
    """W^T W + diag(s_t)^2 for W = L C diag(s_t), a (k, q) block C, a
    C-contiguous (k, k) factor L and q tail weights s_t, as a Gram operator
    for lsq.spectral_norm.  A product applies the factors in turn, never
    L^T L (condition kappa(L)^2): two passes over C."""

    def __init__(self, block: np.ndarray, left: np.ndarray, tail_sigma: np.ndarray) -> None:
        self._block = block
        self._left = left
        self._sigma = tail_sigma
        self._squares = tail_sigma ** 2
        self.shape = (len(tail_sigma), len(tail_sigma))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """(W^T W + diag(s_t)^2) v for a vector v of length q."""
        y = self._left @ (self._block @ (self._sigma * v))
        return self._sigma * (self._block.T @ (self._left.T @ y)) + self._squares * v


def certified_upper_bound(e_trunc: float, summary: SpectrumSummary, pts: PointSet, s_min_g: float) -> float:
    """e_trunc plus certified addends for what truncation at m = pts.m discarded.

    Mass beyond position m is controlled through |b|^2 <= 2^d and the
    upper end of the certified tail sum, paid for once in the target (a_m)
    and once in the information (the sqrt addend).  Loose, but a true bound.
    summary.basis gives a_m and d; it must extend past m.
    """
    basis = summary.basis
    if pts.m >= len(basis):
        raise ValueError(f"need the basis (length {len(basis)}) to extend past m={pts.m} for a_m")
    if s_min_g <= 0.0:
        raise ValueError("a degenerate fit has no certified bound")
    addend = math.sqrt(np.sum(1.0 / pts.densities) * 2.0 ** basis.params.d * summary.tail_upper(pts.m)) / s_min_g
    return float(e_trunc + basis.sigma[pts.m] + addend)

