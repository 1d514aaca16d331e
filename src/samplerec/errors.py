"""Worst-case recovery error on the truncated space and certified bounds."""

from __future__ import annotations

import math

import numpy as np

from . import expsums, lsq
from .density import PointSet, dense_matrix
from .lsq import HeadSVD
from .spectral import CoefVector, OrderedBasis, SpectrumSummary

# Largest kappa(G) = s_max / s_min for which a structured (d = 1) draw takes
# the Gram route to e_trunc.  That route reads G^T B_tail = V S U^T B_tail
# off the exponential sums and divides by S^2 where the dense route divides
# U^T B_tail by S.  Each Gram entry errs by about u E(0), and E(0) <= s_max^2
# since the constant is a column of G, so the Gram route's error in W
# relative to W is about kappa^2 u against the dense route's kappa u, as for
# the normal equations against an orthogonal factorization (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, sec. 20.4).  Holding
# kappa^2 u to 1e-13, a tenth of the 1e-12 relative agreement the two routes
# are held to, gives kappa <= sqrt(1e-13 / 2^-53) = 30.0.  A draw above it
# takes the dense route on B evaluated for that draw alone.  The bound is
# safe rather than tight: on d = 1 draws with kappa up to 436 the routes
# agreed to 2.4e-14.
KAPPA_LIMIT = math.sqrt(1e-13 / 2.0 ** -53)


def dense_fallback(info: PointSet, head: HeadSVD) -> bool:
    """True for a structured (d = 1) draw whose G is too ill-conditioned for
    the Gram route to e_trunc, so that worst_case_error_trunc evaluates its
    dense matrix B instead."""
    return info.B is None and not head.s_max <= KAPPA_LIMIT * head.s_min


def worst_case_error_trunc(info: PointSet, head: HeadSVD, basis: OrderedBasis) -> float:
    """Exact worst-case L2 error over the unit ball of the first m basis
    functions, for a full-rank draw whose head block G has the SVD head.
    info is the PointSet of the instance: its B, head size k and width m.

    The ball is c = diag(sigma) x, ||x|| <= 1, and the residual on
    coefficients is E = I - pad(G^+ B), so the error is ||E diag(sigma)||.
    At full rank G^+ G = I: with T = B[:, k:] diag(s_t), s_t = sigma[k:m],
    E diag(sigma) = [[0, -G^+ T], [0, diag(s_t)]], whose norm is that of
    [G^+ T; diag(s_t)].  For G = U S V^T, V orthogonal, ||G^+ T x|| = ||W x||
    with W = S^-1 U^T T; so the error squared is the top eigenvalue of
    W^T W + diag(s_t)^2, of size q = m - k.

    A structured (d = 1) draw with kappa(G) <= KAPPA_LIMIT takes the Gram
    route: W = S^-2 V^T (G^T B_tail) diag(s_t), with the head-by-tail Gram
    block G^T B_tail read off the exponential sums; no n x m matrix is
    formed.  Any other draw takes the dense route above, on info.B or on B
    evaluated for the draw.  Both routes end in one lsq.spectral_norm of
    the operator x -> W^T (W x) + s_t^2 x, which forms a q x q matrix only
    up to lsq._OPERATOR_DENSE_SIZE and otherwise runs Lanczos on the
    (k, q) matrix W.
    """
    if not head.rank_ok:
        raise ValueError("a degenerate draw has no worst-case error: G is rank deficient")
    if head.u.shape != (info.n, info.k):
        raise ValueError(f"head SVD must have u of shape ({info.n}, {info.k}), got {head.u.shape}")
    k, m = info.k, info.m
    tail_sigma = basis.sigma[k:m]
    if info.B is None and not dense_fallback(info, head):
        block = expsums.gram_block(info.sums, basis.indices[:k, 0], basis.indices[k:m, 0])
        w = (head.vt @ block) * tail_sigma / head.sv[:, None] ** 2
    else:
        w = (head.u.T @ dense_matrix(info, basis)[:, k:]) * tail_sigma / head.sv[:, None]
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
