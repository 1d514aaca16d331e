"""Worst-case recovery error on the truncated space and certified bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import PointSet
from .lsq import HeadSVD, InfoMatrices, _sqrt_top_eigenvalue
from .spectral import CoefVector, OrderedBasis, SpectrumSummary


@dataclass(frozen=True)
class ErrorReport:
    """Error quantities of one instance.

    tail_benchmark = sqrt(c_report * tail(k) / k) is reported for comparison
    with its recorded constant; nothing asserts a value for c_report.
    """

    e_trunc: float
    e_upper: float
    a_k: float
    beta_k: float
    gamma_k: float
    tail_benchmark: float
    c_report: float
    s_min_G: float
    s_max_Gamma: float


def worst_case_error_trunc(info: InfoMatrices, head: HeadSVD, basis: OrderedBasis) -> float:
    """Exact worst-case L2 error over the unit ball of the first m basis
    functions, for a full-rank draw whose head block G has the SVD head.

    The ball is c = diag(sigma) x, ||x|| <= 1, and the residual on
    coefficients is E = I - pad(G^+ B), so the error is ||E diag(sigma)||.
    At full rank G^+ G = I: with T = B[:, k:] diag(s_t), s_t = sigma[k:m],
    E diag(sigma) = [[0, -G^+ T], [0, diag(s_t)]], whose norm is that of
    [G^+ T; diag(s_t)].  For G = U S V^T, V orthogonal, ||G^+ T x|| = ||W x||
    with W = S^-1 U^T T; so the error squared is the top eigenvalue of the
    (m-k) x (m-k) matrix W^T W + diag(s_t)^2.  No m x m matrix is formed.
    """
    if not head.rank_ok:
        raise ValueError("a degenerate draw has no worst-case error: G is rank deficient")
    n = info.B.shape[0]
    if head.u.shape != (n, info.k):
        raise ValueError(f"head SVD must have u of shape ({n}, {info.k}), got {head.u.shape}")
    tail_sigma = basis.sigma[info.k:info.m]
    w = (head.u.T @ info.B[:, info.k:]) * tail_sigma / head.sv[:, None]
    gram = w.T @ w
    gram[np.diag_indices_from(gram)] += tail_sigma ** 2
    return _sqrt_top_eigenvalue(gram)


def certified_upper_bound(
    e_trunc: float,
    basis: OrderedBasis,
    summary: SpectrumSummary,
    pts: PointSet,
    s_min_g: float,
    k: int,
    m: int,
) -> float:
    """e_trunc plus certified addends for what truncation at m discarded.

    Mass beyond position m is controlled through |b|^2 <= 2^d and the
    certified tail sum, paid for once in the target (a_m) and once in the
    information (the sqrt addend).  Loose, but a true bound.  The basis must
    extend at least one position past m so a_m is available.
    """
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    if len(basis) < m + 1:
        raise ValueError(f"basis of length {len(basis)} cannot provide a_{m}")
    if s_min_g <= 0.0:
        raise ValueError("a degenerate fit has no certified bound")
    d = basis.params.d
    addend = math.sqrt(np.sum(1.0 / pts.densities) * 2.0 ** d * summary.tail(m)) / s_min_g
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
