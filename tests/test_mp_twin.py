"""Small instances against their mpmath twins: s_min(G), ||Gamma||,
e_trunc and the density's ||Gamma||_F^2 as a run computes them, against the
same quantities computed at 40 digits from the drawn points, their densities
and the tail weights, taken as exact; and the certified bound e_upper at or
above the exact e_trunc."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from samplerec import lsq
from samplerec.density import sample_points, truncated_density
from samplerec.errors import certified_upper_bound, worst_case_error_trunc
from samplerec.experiments import _checked_gamma_norm
from samplerec.spectral import SpaceParams, ordered_basis, spectral_sums

mpmath = pytest.importorskip("mpmath")


def mp_twin(pts, basis):
    """(s_min(G), ||Gamma||, e_trunc, ||Gamma||_F^2) of the instance at 40
    digits: B from the points and densities, the singular values of G by
    svd_r, the top eigenvalues of Gamma^T Gamma and of
    W^T W + diag(s_t)^2 by eigsy, with W = S^-1 U^T T, G = U S V^T and
    T = B[:, k:] diag(s_t) = Gamma, and the sum of the squares of T."""
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
        frobenius = mpmath.mnorm(t, "f") ** 2
        return float(min(s)), float(mpmath.sqrt(gamma)), float(mpmath.sqrt(top)), float(frobenius)


def deviations(pts, basis, gram_route=True, certified=False):
    """Relative deviations of (s_min(G), ||Gamma||, e_trunc, ||Gamma||_F^2)
    from the twin's, on both head_factor routes: as drawn (the Gram route
    when gram_route, the SVD of G otherwise) and with KAPPA_LIMIT 0, which
    sends the draw to the dense SVD of G; with certified, e_upper on each
    route is at or above the twin's e_trunc."""
    exact = mp_twin(pts, basis)
    summary = spectral_sums(basis) if certified else None
    sigma = basis.sigma[pts.k : pts.m]
    found = []
    for limit in (lsq.KAPPA_LIMIT, 0.0):
        with mock.patch.object(lsq, "KAPPA_LIMIT", limit):
            head = lsq.head_factor(pts)
            assert head.rank_ok and (head.u is None) == (gram_route and limit > 0.0)
            e_trunc = worst_case_error_trunc(pts, head, basis)
            got = (
                head.s_min, _checked_gamma_norm(pts, basis, head), e_trunc,
                pts.tail_frobenius_sq(sigma, float(head.sv @ head.sv)),
            )
        assert summary is None or certified_upper_bound(e_trunc, summary, pts, head.s_min) >= exact[2]
        found += [abs(value - reference) / reference for value, reference in zip(got, exact)]
    return found


@pytest.mark.parametrize("params, k, m, n", [
    (SpaceParams(1, 1.0), 4, 32, 64), (SpaceParams(2, 0.75), 4, 32, 64), (SpaceParams(3, 0.6), 3, 24, 48),
    (SpaceParams(2, 1.0), 4, 40, 32), (SpaceParams(4, 1.0), 6, 64, 128), (SpaceParams(4, 1.0), 4, 40, 96),
    (SpaceParams(4, 0.75), 4, 64, 48),
])
def test_small_instances_match_their_mpmath_twin(params, k, m, n):
    # the staircase form at each d and the dense form (d = 2 and 4, m > n),
    # at seed 2, on both routes; the largest relative deviation measured
    # was 1.1e-15 on the staircase draws (||Gamma||_F^2 at d = 4) and
    # 7.7e-16 on the dense ones
    basis = ordered_basis(params, m + 1)
    pts = sample_points(truncated_density(basis, k, m), n, 2)
    assert (pts.B is None) == (params.d == 1 or m <= n)
    assert max(deviations(pts, basis, certified=True)) <= 1e-12


@pytest.mark.parametrize("seed, gram_route", [(295, True), (53, False)])
def test_draws_beside_the_kappa_limit_match_their_mpmath_twin(seed, gram_route):
    # two d = 1 draws whose kappa(G) lies just below (28.9, the Gram route)
    # and just above (30.3, the SVD of G) lsq.KAPPA_LIMIT = 30, each on its
    # own route as drawn and on the SVD route; the largest relative
    # deviation measured was 1.0e-14, e_trunc on the Gram route at 28.9,
    # and 2.5e-15 at 30.3
    basis = ordered_basis(SpaceParams(1, 1.0), 33)
    pts = sample_points(truncated_density(basis, 8, 32), 20, seed)
    assert max(deviations(pts, basis, gram_route, certified=True)) <= 1e-12


@settings(max_examples=30)
@given(
    d=st.integers(1, 3),
    s=st.floats(0.5, 3.0, exclude_min=True),
    k=st.integers(1, 16),
    m=st.integers(2, 32),
    n=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_instances_match_their_mpmath_twin(d, s, k, m, n, seed):
    # configs drawn by hypothesis (derandomized in conftest): 30 draws,
    # two of them in the dense form, on both routes, full-rank draws only.
    # The largest relative deviation measured was 4.0e-15, e_trunc on the
    # Gram route at d = 1, s = 1.34, n = 49, k = 13, m = 26 (kappa(G) 3.7,
    # s_min 2.6e-15 there); every other draw was within 1.0e-15, and
    # ||Gamma||_F^2 from the density within 1.0e-15 on every draw
    assume(k < m and 2 * k <= n)
    basis = ordered_basis(SpaceParams(d, s), m + 1)
    pts = sample_points(truncated_density(basis, k, m), n, seed)
    assume(lsq.head_factor(pts).rank_ok)
    assert max(deviations(pts, basis)) <= 1e-12
