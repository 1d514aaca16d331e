"""The least-squares recovery step on a sampling instance: the one
factorization of its head block G (head_factor: at d = 1 from the k x k
Gram G^T G, otherwise the thin SVD of G), the fit, and norms of the tail
block through its Gram operator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expsums
from .density import PointSet
from .spectral import row_blocks

# Relative singular-value cutoff below which a draw counts as degenerate.
RANK_RTOL = 1e-10

# Largest kappa(G) = s_max / s_min for which a structured (d = 1) draw takes
# the Gram route: its head factorization comes from the eigendecomposition of
# G^T G, and e_trunc reads G^T B_tail off the exponential sums and divides by
# S^2 where the dense route divides U^T B_tail by S.  Each Gram entry errs by
# about u E(0), and E(0) <= s_max^2 since the constant is a column of G, so
# the Gram route's relative error in s_min and in W is about kappa^2 u
# against the SVD's kappa u, as for the normal equations against an
# orthogonal factorization (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, sec. 20.4).  Holding kappa^2 u to 1e-13, a tenth of the
# 1e-12 relative agreement the two routes are held to, gives
# kappa <= sqrt(1e-13 / 2^-53) = 30.0.  A draw above it takes the dense SVD
# of G evaluated for that draw alone.  The bound is safe rather than tight:
# on d = 1 draws with kappa up to 436 the e_trunc routes agreed to 2.4e-14.
KAPPA_LIMIT = math.sqrt(1e-13 / 2.0 ** -53)


@dataclass(frozen=True)
class HeadSVD:
    """Thin SVD G = u diag(sv) vt (sv descending) of an instance's head block:
    the one factorization of G behind the fit, s_min/s_max and e_trunc.
    u is None when it came from the eigendecomposition G^T G = V S^2 V^T
    (head_factor's Gram route), which gives sv and vt alone.  rank_ok is
    False on a degenerate draw: s_min <= RANK_RTOL * s_max, or a wide G
    (n < k) with fewer singular values than columns."""

    u: np.ndarray | None  # (n, k), None on the Gram route
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


def head_factor(pts: PointSet) -> HeadSVD:
    """The one factorization of the instance's head block G.

    Dense form (d >= 2): head_svd of the view pts.G.  Structured form
    (d = 1): the eigendecomposition G^T G = V diag(lambda) V^T of the k x k
    head Gram read off the sums (samplerec.expsums.gram_block), giving
    sv = sqrt(lambda) descending, vt = V^T and u None; no n-row array is
    made.  When some lambda <= 0 or kappa = sv[0] / sv[-1] exceeds
    KAPPA_LIMIT, G is evaluated for this draw alone and the result is its
    head_svd, so a rank-deficient draw gets the exact dense test at
    RANK_RTOL: the dense fallback of the Gram route.
    """
    if pts.B is None:
        flat = pts.basis.indices[: pts.k, 0]
        lam, v = np.linalg.eigh(expsums.gram_block(pts.sums, flat, flat))
        if lam[0] > 0.0:
            sv = np.sqrt(lam[::-1])
            if sv[0] <= KAPPA_LIMIT * sv[-1]:
                return HeadSVD(None, sv, v[:, ::-1].T)
    return head_svd(pts.G)


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


# Above this flop estimate n * q**2 for forming the q x q Gram matrix of a
# dense (d >= 2) instance's tail block, q <= n, Lanczos on the Gram operator
# beats forming it and np.linalg.eigvalsh.  Timed on d = 2, s = 0.75 views
# at one BLAS thread, two runs: 4096 x 861 (3.0e9) takes 0.18-0.25 s by Gram
# and 0.50-0.52 s by Lanczos, 2048 x 1498 (4.6e9) 0.55-0.59 s by Gram and
# 0.31-0.45 s by Lanczos.
_GRAM_FLOP_LIMIT = 4e9

# Up to this size a symmetric operator is applied to the identity and its
# top eigenvalue taken by np.linalg.eigvalsh; above it, Lanczos.  Timed on
# d = 1 tail Grams and e_trunc operators at one BLAS thread, two runs: the
# dense solve is faster for both up to q = 112, the tail Gram breaks even
# near q = 140 and is faster by Lanczos from q = 182 (5.4 against 5.9-6.6
# ms), and the e_trunc operator is faster densely up to q = 224.
_OPERATOR_DENSE_SIZE = 160

# Step cap of the Lanczos solver, which stores one vector of the operator's
# size per step, so at most _LANCZOS_STEPS of them.  The Gram operators of
# the benchmark workloads converged in 23 to 79 steps, random Gaussian
# Grams M^T M of size up to 2000 in at most 145, and a top pair clustered
# to 1e-12 over a uniform spectrum in at most 100.
_LANCZOS_STEPS = 300


class ConvergenceError(RuntimeError):
    """Lanczos reached _LANCZOS_STEPS steps before its top Ritz value
    converged."""


class ViewGram:
    """Gamma^T Gamma for Gamma = view diag(sigma), q = len(sigma), read from
    the (n, q) view alone: the tail Gram of a dense (d >= 2) instance, whose
    view is B[:, k:].  Gamma is never formed.  A Gram operator for
    spectral_norm: shape (q, q), matmat and matvec, trace and matrix.

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
        self.shape = (q, q)
        self._view = view
        self._sigma = np.asarray(sigma, dtype=float)
        self.matrix = None
        if q <= n and n * q * q <= _GRAM_FLOP_LIMIT:
            self.matrix = view.T @ view
            self.matrix *= self._sigma
            self.matrix *= self._sigma[:, None]

    def matmat(self, v: np.ndarray) -> np.ndarray:
        """Gamma^T Gamma v for a vector or a (q, p) block v."""
        if self.matrix is not None:
            return self.matrix @ v
        sigma = self._sigma.reshape((-1,) + (1,) * (v.ndim - 1))
        return sigma * (self._view.T @ (self._view @ (sigma * v)))

    matvec = matmat

    def trace(self) -> float:
        """Squared Frobenius norm of Gamma."""
        if self.matrix is not None:
            return float(np.trace(self.matrix))
        columns = np.zeros(self.shape[0])
        for rows in row_blocks(self._view.shape[0], self.shape[0]):
            block = self._view[rows]
            columns += np.einsum("ij,ij->j", block, block)
        return float(columns @ self._sigma ** 2)


def spectral_norm(gram) -> float:
    """Top eigenvalue, clamped at 0, of a symmetric positive semidefinite
    operator: the squared spectral norm of any matrix whose Gram operator it
    is (a ViewGram, the d = 1 samplerec.expsums.TailGram or the e_trunc
    operator of samplerec.errors).

    A Gram operator has shape (q, q), matmat and matvec, and optionally
    matrix, the q x q matrix it holds.  The top eigenvalue comes from
    np.linalg.eigvalsh of that matrix or, up to _OPERATOR_DENSE_SIZE, of the
    operator's product with the identity; otherwise from Lanczos with a
    fixed start vector, so runs are reproducible.  Raises ConvergenceError
    when Lanczos reaches its step cap first.
    """
    if not (callable(getattr(gram, "matmat", None)) and callable(getattr(gram, "matvec", None))):
        raise TypeError(f"spectral_norm takes a Gram operator, got {type(gram).__name__}")
    q = gram.shape[0]
    matrix = getattr(gram, "matrix", None)
    if matrix is None and q <= _OPERATOR_DENSE_SIZE:
        matrix = gram.matmat(np.eye(q))
    top = np.linalg.eigvalsh(matrix)[-1] if matrix is not None else _lanczos_top(gram)
    return max(float(top), 0.0)


def _lanczos_top(gram) -> float:
    """Top eigenvalue of a symmetric operator of size q by Lanczos from the
    vector 1/sqrt(q), with full reorthogonalization: each new vector is
    orthogonalized against the whole stored basis by two classical
    Gram-Schmidt passes; the first also takes off the three-term recurrence,
    and alpha_j is the sum of both passes' coefficients on the last vector.

    After step j the top Ritz pair (theta, y) of the j x j tridiagonal T_j
    comes from np.linalg.eigh.  The run stops when the residual
    beta_j |y_last| <= eps theta (ARPACK's rule at tol = 0); on breakdown,
    beta_j <= eps ||T_j||, where the Krylov space is invariant and theta is
    exact; or at j = q.
    """
    q = gram.shape[0]
    steps = min(q, _LANCZOS_STEPS)
    eps = np.finfo(float).eps
    basis = np.empty((min(steps, 32), q))
    basis[0] = 1.0 / np.sqrt(q)
    tri = np.zeros((len(basis), len(basis)))
    for j in range(steps):
        stored = basis[: j + 1]
        # a copy: an operator may hand back its argument or its own data
        w = np.array(gram.matvec(stored[j]), dtype=float)
        coef = stored @ w
        w -= coef @ stored
        again = stored @ w
        w -= again @ stored
        tri[j, j] = coef[j] + again[j]
        beta = float(np.linalg.norm(w))
        theta, y = np.linalg.eigh(tri[: j + 1, : j + 1])
        top = theta[-1]
        if (beta * abs(y[-1, -1]) <= eps * abs(top)
                or beta <= eps * max(abs(theta[0]), abs(top)) or j + 1 == q):
            return float(top)
        if j + 1 == steps:
            break
        if j + 1 == len(basis):
            grow = min(len(basis), steps - len(basis))
            basis = np.concatenate([basis, np.empty((grow, q))])
            tri = np.pad(tri, (0, grow))
        basis[j + 1] = w / beta
        tri[j, j + 1] = tri[j + 1, j] = beta
    raise ConvergenceError(
        f"Lanczos reached its cap of {_LANCZOS_STEPS} steps on a Gram operator of size {q}: "
        f"residual {beta * abs(y[-1, -1]):.3g} of top Ritz value {top:.17g}"
    )
