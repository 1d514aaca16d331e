"""Small instances against their mpmath twins: s_min(G), ||Gamma|| and
e_trunc as a run computes them, against the same quantities computed at 40
digits from the drawn points, their densities and the tail weights, taken
as exact."""

import pytest

from samplerec import lsq
from samplerec.density import sample_points, truncated_density
from samplerec.errors import worst_case_error_trunc
from samplerec.experiments import _checked_gamma_norm
from samplerec.spectral import SpaceParams, ordered_basis

mpmath = pytest.importorskip("mpmath")


def mp_twin(pts, basis):
    """(s_min(G), ||Gamma||, e_trunc) of the instance at 40 digits: B from
    the points and densities, the singular values of G by svd_r, and the
    top eigenvalues of Gamma^T Gamma and of W^T W + diag(s_t)^2 by eigsy,
    with W = S^-1 U^T T, G = U S V^T and T = B[:, k:] diag(s_t)."""
    k, m, n = pts.k, pts.m, pts.n
    with mpmath.workdps(40):
        sqrt2, two_pi = mpmath.sqrt(2), 2 * mpmath.pi
        b = mpmath.matrix(n, m)
        for i, (x, rho) in enumerate(zip(pts.points, pts.densities)):
            scale = 1 / mpmath.sqrt(mpmath.mpf(float(rho)))
            for j, indices in enumerate(basis.indices[:m]):
                value = scale
                for flat, xc in zip(indices.tolist(), x.tolist()):
                    if flat:
                        angle = two_pi * ((flat + 1) // 2) * mpmath.mpf(xc)
                        value *= sqrt2 * (mpmath.cos(angle) if flat % 2 == 0 else mpmath.sin(angle))
                b[i, j] = value
        u, s, _ = mpmath.svd_r(b[:, 0:k], full_matrices=False, compute_uv=True)
        tail_sigma = [mpmath.mpf(float(v)) for v in basis.sigma[k:m]]
        t = b[:, k:m] * mpmath.diag(tail_sigma)
        gamma = max(mpmath.eigsy(t.T * t, eigvals_only=True))
        w = mpmath.diag([1 / v for v in s]) * u.T * t
        top = max(mpmath.eigsy(w.T * w + mpmath.diag([v ** 2 for v in tail_sigma]), eigvals_only=True))
        return float(min(s)), float(mpmath.sqrt(gamma)), float(mpmath.sqrt(top))


@pytest.mark.parametrize("params, k, m, n", [
    (SpaceParams(1, 1.0), 4, 32, 64), (SpaceParams(2, 0.75), 4, 32, 64), (SpaceParams(3, 0.6), 3, 24, 48),
])
def test_small_instances_match_their_mpmath_twin(monkeypatch, params, k, m, n):
    # the staircase form at each d, at seed 2, once as drawn (the Gram
    # route of head_factor) and once with KAPPA_LIMIT 0, which sends the
    # draw to the dense SVD of G; the largest relative deviation measured
    # was 5.7e-16
    basis = ordered_basis(params, m + 1)
    pts = sample_points(truncated_density(basis, k, m), n, 2)
    assert pts.B is None
    exact = mp_twin(pts, basis)
    for limit in (lsq.KAPPA_LIMIT, 0.0):
        monkeypatch.setattr(lsq, "KAPPA_LIMIT", limit)
        head = lsq.head_factor(pts)
        assert head.rank_ok and (head.u is None) == (limit > 0.0)
        got = (head.s_min, _checked_gamma_norm(pts, basis), worst_case_error_trunc(pts, head, basis))
        for value, reference in zip(got, exact):
            assert abs(value - reference) <= 1e-12 * reference
