"""The least-squares recovery step on a sampling instance: the thin SVD of
its head block G, the fit, and singular values of G and norms of the tail
block through its Gram operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .density import PointSet
from .spectral import row_blocks

# Relative singular-value cutoff below which a draw counts as degenerate.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class HeadSVD:
    """Thin SVD G = u diag(sv) vt (sv descending) of an instance's head block:
    the one factorization of G behind the fit, s_min/s_max and e_trunc.
    rank_ok is False on a degenerate draw: s_min <= RANK_RTOL * s_max, or a
    wide G (n < k) with fewer singular values than columns."""

    u: np.ndarray  # (n, k)
    sv: np.ndarray  # (k,)
    vt: np.ndarray  # (k, k)

    @property
    def s_min(self) -> float:
        return float(self.sv[-1])

    @property
    def s_max(self) -> float:
        return float(self.sv[0])

    @property
    def rank_ok(self) -> bool:
        return len(self.sv) == self.vt.shape[1] and bool(self.sv[-1] > RANK_RTOL * self.sv[0])


def head_svd(g: np.ndarray) -> HeadSVD:
    """Thin SVD of the head block G, by one LAPACK call."""
    return HeadSVD(*np.linalg.svd(g, full_matrices=False))


@dataclass(frozen=True)
class Fit:
    """Least-squares coefficients plus the conditioning of the solve."""

    coefficients: np.ndarray  # (k,)
    s_min_G: float
    s_max_G: float
    rank_ok: bool
    pinv_norm: float | None  # 1 / s_min_G, None on a degenerate draw


def fit(pts: PointSet, samples) -> Fit:
    """Solve min ||G c - y||_2 with y_i = f(x_i) / sqrt(rho(x_i)), by SVD of
    the point set's head block G.

    Singular values at or below RANK_RTOL times the largest are treated as
    zero; such draws are flagged through rank_ok rather than rejected.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (pts.n,):
        raise ValueError(f"expected {pts.n} samples, got shape {samples.shape}")
    y = samples / np.sqrt(pts.densities)
    head = head_svd(pts.G)
    inv = np.divide(1.0, head.sv, out=np.zeros_like(head.sv), where=head.sv > RANK_RTOL * head.s_max)
    return Fit(
        coefficients=head.vt.T @ (inv * (head.u.T @ y)),
        s_min_G=head.s_min,
        s_max_G=head.s_max,
        rank_ok=head.rank_ok,
        pinv_norm=1.0 / head.s_min if head.rank_ok else None,
    )


def singular_extrema(mat: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) singular value by dense SVD."""
    sv = np.linalg.svd(np.atleast_2d(mat), compute_uv=False)
    return float(sv[-1]), float(sv[0])


# Above this flop estimate n * q**2 for forming the q x q Gram matrix of a
# dense (d >= 2) instance's tail block, q <= n, Lanczos on the Gram operator
# beats the dense eigensolve.  d = 1 takes the Toeplitz Gram operator of
# samplerec.expsums, so the d = 1 shapes that set the limit (4096 x 861 at
# 3.0e9 is faster by Gram, 2048 x 1498 at 4.6e9 by Lanczos) no longer pass
# through it.  Any shape within the dense caps with q <= 64 stays below it,
# so Lanczos always has q > ncv.
_GRAM_FLOP_LIMIT = 4e9

# Up to this size a symmetric operator is applied to the identity and its
# top eigenvalue taken densely; above it, Lanczos with 20 Lanczos vectors,
# which took the fewest seconds of 20, 32 and 64 on the d = 1 tail shapes.
_OPERATOR_DENSE_SIZE = 64


class ViewGram(scipy.sparse.linalg.LinearOperator):
    """Gamma^T Gamma for Gamma = view diag(sigma), q = len(sigma), read from
    the (n, q) view alone: the tail Gram of a dense (d >= 2) instance, whose
    view is B[:, k:].  Gamma is never formed.

    With q <= n and n q^2 <= _GRAM_FLOP_LIMIT the q x q matrix is formed
    once, by one BLAS product of the view with itself scaled by sigma on
    both sides, and held as matrix; otherwise matrix is None and a product
    applies the view and its transpose.  Either way nothing of the view's
    size is allocated.
    """

    def __init__(self, view: np.ndarray, sigma: np.ndarray) -> None:
        n, q = view.shape
        if len(sigma) != q:
            raise ValueError(f"need one sigma per column, got {len(sigma)} for {q}")
        self._view = view
        self._sigma = np.asarray(sigma, dtype=float)
        self.matrix = None
        if q <= n and n * q * q <= _GRAM_FLOP_LIMIT:
            self.matrix = view.T @ view
            self.matrix *= self._sigma
            self.matrix *= self._sigma[:, None]
        super().__init__(dtype=np.dtype(float), shape=(q, q))

    def _matmat(self, v):
        if self.matrix is not None:
            return self.matrix @ v
        u = self._sigma[:, None] * v
        return self._sigma[:, None] * (self._view.T @ (self._view @ u))

    def trace(self) -> float:
        """Squared Frobenius norm of Gamma."""
        if self.matrix is not None:
            return float(np.trace(self.matrix))
        columns = np.zeros(self.shape[0])
        for rows in row_blocks(self._view.shape[0], self.shape[0]):
            block = self._view[rows]
            columns += np.einsum("ij,ij->j", block, block)
        return float(columns @ self._sigma ** 2)


def spectral_norm(gram: scipy.sparse.linalg.LinearOperator) -> float:
    """Top eigenvalue, clamped at 0, of a symmetric positive semidefinite
    operator: the squared spectral norm of any matrix whose Gram operator it
    is (a ViewGram or the d = 1 samplerec.expsums.TailGram).

    By a dense eigensolve of the matrix the operator holds (ViewGram.matrix)
    or, up to _OPERATOR_DENSE_SIZE, of its product with the identity;
    otherwise by Lanczos (eigsh) with a fixed start vector, so runs are
    reproducible.
    """
    if not isinstance(gram, scipy.sparse.linalg.LinearOperator):
        raise TypeError(f"spectral_norm takes a Gram operator, got {type(gram).__name__}")
    q = gram.shape[0]
    matrix = getattr(gram, "matrix", None)
    if matrix is None and q <= _OPERATOR_DENSE_SIZE:
        matrix = gram.matmat(np.eye(q))
    if matrix is not None:
        return _top_eigenvalue(matrix)
    top = scipy.sparse.linalg.eigsh(
        gram, k=1, which="LA", ncv=20, v0=np.full(q, 1.0 / np.sqrt(q)),
        maxiter=max(1000, 20 * q), return_eigenvectors=False,
    )
    return max(float(top[0]), 0.0)


def _top_eigenvalue(gram: np.ndarray) -> float:
    """Top eigenvalue, clamped at 0, of a symmetric PSD matrix."""
    q = gram.shape[0]
    top = scipy.linalg.eigh(gram, eigvals_only=True, subset_by_index=(q - 1, q - 1))[0]
    return max(float(top), 0.0)


def _sqrt_top_eigenvalue(gram: np.ndarray) -> float:
    """Spectral norm of any matrix whose Gram matrix is the given one."""
    return float(np.sqrt(_top_eigenvalue(gram)))
