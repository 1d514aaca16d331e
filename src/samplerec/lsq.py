"""The least-squares recovery step on a sampling instance: the one
factorization of its head block G (head_factor: from the k x k Gram G^T G,
the thin SVD of G as the fallback), the fit, and norms of the tail block
through its Gram operator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .spectral import row_blocks

if TYPE_CHECKING:
    from .density import PointSet

# Relative singular-value cutoff below which a draw counts as degenerate.
RANK_RTOL = 1e-10

# Largest kappa(G) = s_max / s_min for which a draw takes the Gram route, at
# every d: its head factorization comes from the eigendecomposition of
# G^T G, and e_trunc reads the Gram block G^T B_tail and divides by S^2
# where the SVD route divides U^T B_tail by S.  Each entry of G^T G errs by
# about u ||G_j|| ||G_l|| <= u s_max^2, so the Gram route's relative error
# in s_min and in W is about kappa^2 u against the SVD's kappa u, as for
# the normal equations against an orthogonal factorization (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, sec. 20.4).
# Holding kappa^2 u to 1e-13, a tenth of the 1e-12 relative agreement the
# two routes are held to, gives kappa <= sqrt(1e-13 / 2^-53) = 30.0.  A
# draw above it takes the SVD of G.  The bound is safe rather than tight:
# on d = 1 draws with kappa up to 436 the e_trunc routes agreed to 2.4e-14;
# 38 d = 2 and 3 rates draws (benchmark and golden configs) had 1.15-1.53.
KAPPA_LIMIT = math.sqrt(1e-13 / 2.0 ** -53)


@dataclass(frozen=True)
class HeadSVD:
    """Thin SVD G = u diag(sv) vt (sv descending) of an instance's head block:
    the one factorization of G behind the fit, s_min/s_max and e_trunc.  u
    is None when it came from head_factor's Gram route G^T G = V S^2 V^T (any
    d); head_svd, the fallback, sets it.  vt is None too in head_factor's
    values-only mode (compute_uv=False), whose sv, with k entries, serves
    s_min, s_max and rank_ok alone.  rank_ok is False on a degenerate draw:
    s_min <= RANK_RTOL * s_max, or a wide G (n < k) with fewer singular
    values than columns (values-only: zeros past the n-th)."""

    u: np.ndarray | None  # (n, k), None on the Gram route
    sv: np.ndarray  # (k,)
    vt: np.ndarray | None  # (k, k), None in the values-only mode

    @property
    def s_min(self) -> float:
        return float(self.sv[-1])

    @property
    def s_max(self) -> float:
        return float(self.sv[0])

    @property
    def rank_ok(self) -> bool:
        wide = self.vt is not None and len(self.sv) != self.vt.shape[1]
        return not wide and bool(self.sv[-1] > RANK_RTOL * self.sv[0])


def head_svd(g: np.ndarray) -> HeadSVD:
    """Thin SVD of the head block G, by one LAPACK call."""
    return HeadSVD(*np.linalg.svd(g, full_matrices=False))


def head_factor(pts: PointSet, compute_uv: bool = True) -> HeadSVD:
    """The one factorization of the instance's head block G, at every d.

    The eigendecomposition G^T G = V diag(lambda) V^T of the k x k head Gram
    pts.gram(head, head) gives sv = sqrt(lambda) descending, vt = V^T and
    u None; no n-row array is made.  When some lambda <= 0 or
    kappa = sv[0] / sv[-1] exceeds KAPPA_LIMIT, the result is head_svd of
    pts.G instead, so a rank-deficient draw gets the exact test at
    RANK_RTOL: the one fallback of the Gram route.

    With compute_uv False, as in numpy's svd, only the singular values are
    computed, by np.linalg.eigvalsh of the head Gram and on the fallback
    np.linalg.svd(pts.G, compute_uv=False), under the same tests; u and vt
    are None, and a wide G (n < k) gets zeros past its n values.  Such a
    head gives s_min, s_max and rank_ok, but neither the fit nor e_trunc.
    """
    head = slice(0, pts.k)
    gram = pts.gram(head, head)
    lam, v = np.linalg.eigh(gram) if compute_uv else (np.linalg.eigvalsh(gram), None)
    if lam[0] > 0.0:
        sv = np.sqrt(lam[::-1])
        if sv[0] <= KAPPA_LIMIT * sv[-1]:
            return HeadSVD(None, sv, None if v is None else v[:, ::-1].T)
    if compute_uv:
        return head_svd(pts.G)
    sv = np.linalg.svd(pts.G, compute_uv=False)
    return HeadSVD(None, np.pad(sv, (0, pts.k - len(sv))), None)


def fit(pts: PointSet, head: HeadSVD, samples) -> np.ndarray:
    """The least-squares coefficients c = V S^+ U^T y of min ||G c - y||_2,
    y_i = f(x_i) / sqrt(rho(x_i)), from head = head_factor(pts), the
    instance's one factorization of G.  U^T y is u.T @ y on the SVD route
    and S^-1 V^T (G^T y) on the Gram route (u None), whose rounding is
    kappa^2 u, as for e_trunc.  Singular values at or below RANK_RTOL times
    the largest are treated as zero; a degenerate draw is flagged by
    head.rank_ok rather than rejected.  Raises ValueError when head is not
    shaped as a factorization of this point set's G, or holds no vectors
    (head_factor with compute_uv False).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (pts.n,):
        raise ValueError(f"expected {pts.n} samples, got shape {samples.shape}")
    if head.vt is None:
        raise ValueError("head holds singular values only: take head_factor(pts) with compute_uv=True")
    if head.vt.shape[1] != pts.k or (head.u is not None and head.u.shape[0] != pts.n):
        raise ValueError("head is not the head factorization of this point set")
    y = samples / np.sqrt(pts.densities)
    uty = head.u.T @ y if head.u is not None else (head.vt @ (pts.G.T @ y)) / head.sv
    inv = np.divide(1.0, head.sv, out=np.zeros_like(head.sv), where=head.sv > RANK_RTOL * head.s_max)
    return head.vt.T @ (inv * uty)


# Step cap of the Lanczos solver, which stores one vector of the operator's
# size per step, so at most _LANCZOS_STEPS of them.  With a Ritz pair every
# step, the Gram operators of the benchmark workloads converge in 22 to 57
# steps (on the Ritz schedule below they stop after 16 to 64, on both
# config seeds; those of size 21 to 160 after at most 40), random Gaussian
# Grams M^T M of size up to 2000 in at most 92, and a top pair clustered to
# 1e-12 over a uniform spectrum in at most 33.  The largest paper-scale
# operator (d = 2, s = 0.75, n = 16384, the e_trunc operator of size 2954)
# stops after 128.
_LANCZOS_STEPS = 300

# Lanczos takes the top Ritz pair of T_j by a dense eigh only every this
# many steps (and at a possible breakdown or the last step): an eigh of
# the j x j T_j costs O(j^3), 0.05 ms at j = 30 and 0.3 ms at j = 64 (one
# BLAS thread), more than a product with a cheap operator.  A run whose
# stop rules hold from some step on stops at most _RITZ_STRIDE - 1
# products after it.
_RITZ_STRIDE = 8


class ConvergenceError(RuntimeError):
    """Lanczos reached _LANCZOS_STEPS steps before its top Ritz value
    converged."""


class ViewGram:
    """Gamma^T Gamma for Gamma = view diag(sigma), q = len(sigma), read from
    the (n, q) view alone: the tail Gram of the dense point-set form
    (samplerec.density.PointSet.tail_gram, whose docstring describes the
    forms).  Gamma is never formed, and nothing of the view's size is
    allocated: a product applies the view and its transpose.  A Gram
    operator for spectral_norm: shape (q, q) and matvec, and trace.
    """

    def __init__(self, view: np.ndarray, sigma: np.ndarray) -> None:
        q = view.shape[1]
        if len(sigma) != q:
            raise ValueError(f"need one sigma per column, got {len(sigma)} for {q}")
        self.shape = (q, q)
        self._view = view
        self._sigma = np.asarray(sigma, dtype=float)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Gamma^T Gamma v for a vector v of length q."""
        return self._sigma * (self._view.T @ (self._view @ (self._sigma * v)))

    def trace(self) -> float:
        """Squared Frobenius norm of Gamma."""
        columns = np.zeros(self.shape[0])
        for rows in row_blocks(self._view.shape[0], self.shape[0]):
            block = self._view[rows]
            columns += np.einsum("ij,ij->j", block, block)
        return float(columns @ self._sigma ** 2)


class BlockGram:
    """Gamma^T Gamma = diag(sigma) A diag(sigma) for a symmetric (q, q)
    matrix A, q = len(sigma), held as a list of its upper column panels
    A[:hi, lo:hi] in order (lo = 0 first, each panel starting where the
    last ended, the last ending at q), read in place and never scaled into
    a copy: the tail Gram of the structured d >= 2 point-set form
    (samplerec.density.PointSet.tail_gram, whose docstring describes the
    forms).  A product adds each panel's and, above its diagonal block,
    its transpose's: y[:hi] += A[:hi, lo:hi] v[lo:hi] and
    y[lo:hi] += A[:lo, lo:hi]^T v[:lo]; [A], one whole-width panel, is the
    one product A v.  A Gram operator for spectral_norm: shape (q, q) and
    matvec, and trace.
    """

    def __init__(self, panels, sigma: np.ndarray) -> None:
        q = len(sigma)
        panels = list(panels)
        lo = 0
        for panel in panels:
            if panel.ndim != 2 or panel.shape[0] != lo + panel.shape[1] or panel.shape[1] == 0:
                raise ValueError(f"need upper column panels A[:hi, lo:hi] from lo = {lo}, got {panel.shape}")
            lo = panel.shape[0]
        if lo != q:
            raise ValueError(f"need panels of a ({q}, {q}) matrix for {q} sigmas, ending at {lo}")
        self.shape = (q, q)
        self._panels = panels
        self._sigma = np.asarray(sigma, dtype=float)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Gamma^T Gamma v for a vector v of length q."""
        u = self._sigma * v
        y = np.zeros(self.shape[0])
        for panel in self._panels:
            hi = panel.shape[0]
            lo = hi - panel.shape[1]
            y[:hi] += panel @ u[lo:hi]
            y[lo:hi] += panel[:lo].T @ u[:lo]
        return self._sigma * y

    def trace(self) -> float:
        """Squared Frobenius norm of Gamma."""
        total = 0.0
        for panel in self._panels:
            hi = panel.shape[0]
            lo = hi - panel.shape[1]
            total += np.diagonal(panel[lo:]) @ self._sigma[lo:hi] ** 2
        return float(total)


def spectral_norm(gram) -> float:
    """Top eigenvalue, clamped at 0, of a symmetric positive semidefinite
    operator: the squared spectral norm of any matrix whose Gram operator it
    is (one from PointSet.tail_gram, or the e_trunc operator of
    samplerec.errors).

    A Gram operator is any object with shape (q, q) and matvec, the
    product with one vector of length q.  The top eigenvalue comes from
    Lanczos (_lanczos_top) at every size, with a fixed start vector, so
    runs are reproducible.  Raises ConvergenceError when Lanczos reaches
    its step cap first.
    """
    if not callable(getattr(gram, "matvec", None)):
        raise TypeError(f"spectral_norm takes a Gram operator, got {type(gram).__name__}")
    return max(_lanczos_top(gram), 0.0)


def _lanczos_top(gram) -> float:
    """Top eigenvalue of a symmetric operator of size q by Lanczos from the
    vector 1/sqrt(q), with full reorthogonalization: each new vector is
    orthogonalized against the whole stored basis by two classical
    Gram-Schmidt passes; the first also takes off the three-term recurrence,
    and alpha_j is the sum of both passes' coefficients on the last vector.

    The Ritz values theta_2 <= theta of T_j (the j x j tridiagonal) and the
    top one's vector y come from np.linalg.eigh, taken only on a schedule:
    when j is a multiple of _RITZ_STRIDE, at the last step (j = q or the
    cap), and whenever beta_j <= eps g_j, where g_j = max over i <= j of
    |alpha_i| + beta_(i-1) + beta_i (beta_0 = 0) is a Gershgorin bound on
    ||T_j||, kept up to date in O(1) per step.  At each such step, with the
    residual r = beta_j |y_last|, the run stops when
      - r <= eps theta (ARPACK's rule at tol = 0: the Ritz vector has
        converged);
      - r^2 <= eps theta (theta - theta_2): the Ritz value has converged
        though its vector has not, since theta is within r^2 / gap of the
        top eigenvalue, gap its distance to the rest of the spectrum
        (Kato-Temple; Parlett, The Symmetric Eigenvalue Problem, 1998,
        sec. 11.7), and theta - theta_2 stands in for the gap;
      - on breakdown, beta_j <= eps ||T_j||, where the Krylov space is
        invariant and theta is exact;
      - or at j = q.
    Since g_j >= ||T_j||, every breakdown gets its exact test at its own
    step, before w is divided by beta_j; a run whose stop rules hold from
    some step on stops at most _RITZ_STRIDE - 1 products after it.  Small q
    needs no special case: a run that reaches j = q has spanned the whole
    space, and under full reorthogonalization the top eigenvalue of T_q is
    the operator's to rounding.

    The value rule takes a quarter to a third fewer products on the
    benchmark workloads' runs, with every top value within 7e-15 relative
    of a dense eigvalsh.  Its worst case is a top pair closer than the
    Krylov space has yet resolved: theta_2 then lies well below both,
    theta - theta_2 overstates the gap, and only r <= sqrt(eps) theta
    (theta - theta_2 <= theta) bounds the error.  A pair 1e-10 apart came
    out up to 7e-11 relative off, where the residual rule alone gives
    rounding.
    """
    q = gram.shape[0]
    steps = min(q, _LANCZOS_STEPS)
    eps = np.finfo(float).eps
    basis = np.empty((min(steps, 32), q))
    basis[0] = 1.0 / np.sqrt(q)
    tri = np.zeros((len(basis), len(basis)))
    beta = bound = 0.0
    for j in range(steps):
        stored = basis[: j + 1]
        # a copy: an operator may hand back its argument or its own data
        w = np.array(gram.matvec(stored[j]), dtype=float)
        coef = stored @ w
        w -= coef @ stored
        again = stored @ w
        w -= again @ stored
        tri[j, j] = coef[j] + again[j]
        radius = abs(tri[j, j]) + beta
        beta = float(np.linalg.norm(w))
        bound = max(bound, radius + beta)
        if (j + 1) % _RITZ_STRIDE == 0 or j + 1 == steps or beta <= eps * bound:
            theta, y = np.linalg.eigh(tri[: j + 1, : j + 1])
            top = theta[-1]
            resid = beta * abs(y[-1, -1])
            gap = top - theta[-2] if j else 0.0
            if (resid <= eps * abs(top) or resid * resid <= eps * abs(top) * gap
                    or beta <= eps * max(abs(theta[0]), abs(top)) or j + 1 == q):
                return float(top)
        if j + 1 == steps:
            break
        if j + 1 == len(basis):
            grow = min(len(basis), steps - len(basis))
            # into one new array: concatenate would also hold an empty block
            grown = np.empty((len(basis) + grow, q))
            grown[: len(basis)] = basis
            basis = grown
            tri = np.pad(tri, (0, grow))
        basis[j + 1] = w / beta
        tri[j, j + 1] = tri[j + 1, j] = beta
    raise ConvergenceError(
        f"Lanczos reached its cap of {_LANCZOS_STEPS} steps on a Gram operator of size {q}: "
        f"residual {resid:.3g} of top Ritz value {top:.17g}"
    )
