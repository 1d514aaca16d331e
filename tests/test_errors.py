import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from samplerec.density import sample_points, truncated_density
from samplerec.errors import (
    ErrorReport,
    certified_upper_bound,
    empirical_error,
    worst_case_error_trunc,
)
from samplerec.lsq import (
    RANK_RTOL,
    InfoMatrices,
    build_matrices,
    head_svd,
    singular_extrema,
    spectral_norm,
)
from samplerec.spectral import (
    CoefVector,
    SpaceParams,
    SpectrumSummary,
    basis_matrix,
    ordered_basis,
    random_unit_function,
    spectral_sums,
)

SP1 = SpaceParams(1, 1.0)


def make_instance(params, k, m, n, seed):
    basis = ordered_basis(params, m + 1)
    dens = truncated_density(basis, k, m)
    pts = sample_points(dens, n, seed)
    info = build_matrices(pts, basis, k, m)
    return basis, pts, info, head_svd(info.G)


def pinv(info):
    """Moore-Penrose inverse of G with the RANK_RTOL cutoff, from its own SVD."""
    return np.linalg.pinv(info.G, rtol=RANK_RTOL)


def full_e_trunc(info, g_pinv, basis, m):
    """Reference e_trunc in E-form: the largest singular value of
    (I - pad(g_pinv B)) diag(sigma) over the first m coefficients, by a full
    SVD of the m x m matrix.  g_pinv may be any k x n map."""
    e = np.eye(m)
    if info.k:
        e[: info.k, :] -= g_pinv @ info.B[:, :m]
    return float(np.linalg.svd(e * basis.sigma[:m], compute_uv=False)[0])


def ball_probe_errors(info, g_pinv, basis, m, probes, seed):
    """Worst-case lower bounds: recovery error of random unit-ball functions."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((probes, m))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    coef = u * basis.sigma[:m]
    residual = coef.copy()
    residual[:, : info.k] -= (g_pinv @ (info.B[:, :m] @ coef.T)).T
    return np.linalg.norm(residual, axis=1)


def block_power_norm(mat, block=4, iters=300, seed=5):
    """Independent top-singular-value estimate by subspace (power) iteration."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    v, _ = np.linalg.qr(rng.standard_normal((mat.shape[1], block)))
    for _ in range(iters):
        v, _ = np.linalg.qr(mat.T @ (mat @ v))
    small = v.T @ (mat.T @ (mat @ v))
    return float(math.sqrt(np.max(np.linalg.eigvalsh(small))))


def test_worst_case_error_zero_when_m_equals_k():
    basis, pts, info, _ = make_instance(SP1, 6, 18, 64, 2)
    assert full_e_trunc(info, pinv(info), basis, 6) < 1e-12


def test_worst_case_error_of_zero_algorithm_is_one():
    # with the zero map every coefficient survives; the worst unit-ball
    # function is the constant, with error sigma_1 = 1
    basis, pts, info, _ = make_instance(SP1, 4, 12, 32, 3)
    zero_pinv = np.zeros((4, 32))
    assert full_e_trunc(info, zero_pinv, basis, 12) == pytest.approx(1.0, abs=1e-12)


def test_worst_case_error_dominates_ball_probes():
    basis, pts, info, head = make_instance(SP1, 16, 128, 256, 6)
    e_tr = worst_case_error_trunc(info, head, basis)
    probes = ball_probe_errors(info, pinv(info), basis, 128, 10_000, seed=11)
    assert np.all(probes <= e_tr * (1 + 1e-12))


def test_worst_case_error_matches_power_iteration():
    basis, pts, info, head = make_instance(SP1, 16, 128, 256, 6)
    e_tr = worst_case_error_trunc(info, head, basis)
    e_mat = np.eye(128)
    e_mat[:16, :] -= pinv(info) @ info.B
    independent = block_power_norm(e_mat * basis.sigma[:128])
    assert independent == pytest.approx(e_tr, rel=1e-8)


def test_worst_case_error_below_split_bound():
    for k, m, n, seed in ((4, 16, 64, 1), (8, 32, 128, 2), (16, 64, 256, 3)):
        basis, pts, info, head = make_instance(SP1, k, m, n, seed)
        s_min = singular_extrema(info.G)[0]
        s_gam = spectral_norm(info.Gamma)
        e_tr = worst_case_error_trunc(info, head, basis)
        assert e_tr <= float(basis.sigma[k]) + s_gam / s_min + 1e-10


def test_worst_case_error_argument_checks():
    basis, pts, info, head = make_instance(SP1, 4, 12, 32, 3)
    # a head SVD of another instance: other k, other n
    for k, n in ((3, 32), (4, 33)):
        other = make_instance(SP1, k, 12, n, 3)[3]
        with pytest.raises(ValueError):
            worst_case_error_trunc(info, other, basis)
    # a rank-deficient head block: the second column duplicates the first
    b = info.B.copy()
    b[:, 1] = b[:, 0]
    dup = InfoMatrices(G=b[:, :4], B=b, Gamma=b[:, 4:] * basis.sigma[4:12], k=4, m=12)
    dup_head = head_svd(dup.G)
    assert not dup_head.rank_ok
    with pytest.raises(ValueError):
        worst_case_error_trunc(dup, dup_head, basis)


@pytest.mark.parametrize(
    "params, k, m, n, seed",
    [(SP1, 16, 128, 256, 6), (SpaceParams(2, 0.75), 12, 96, 256, 8), (SpaceParams(3, 1.0), 8, 64, 128, 9)],
)
def test_reduced_e_trunc_matches_full_form(params, k, m, n, seed):
    basis, pts, info, head = make_instance(params, k, m, n, seed)
    full = full_e_trunc(info, pinv(info), basis, m)
    assert worst_case_error_trunc(info, head, basis) == pytest.approx(full, rel=1e-12, abs=0.0)


@given(
    d=st.integers(1, 3),
    s=st.sampled_from((0.75, 1.0, 2.0)),
    k=st.integers(1, 16),
    m_extra=st.integers(1, 48),
    n_extra=st.integers(0, 64),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_reduced_e_trunc_property(d, s, k, m_extra, n_extra, seed):
    # small instances in the runners' domain: m <= 64, n >= 2k
    m = min(k + m_extra, 64)
    basis, pts, info, head = make_instance(SpaceParams(d, s), k, m, 2 * k + n_extra, seed)
    e_tr = worst_case_error_trunc(info, head, basis)
    assert e_tr == pytest.approx(full_e_trunc(info, pinv(info), basis, m), rel=1e-12, abs=0.0)
    a_k = float(basis.sigma[k])
    assert a_k <= e_tr <= a_k + spectral_norm(info.Gamma) / head.s_min + 1e-10


def test_certified_bound_reduces_to_trunc_plus_am_on_finite_spectrum():
    # a synthetic spectrum whose mass ends exactly at m: the sqrt addend is 0
    basis, pts, info, g_head = make_instance(SP1, 4, 12, 32, 5)
    e_tr = worst_case_error_trunc(info, g_head, basis)
    head = np.concatenate(([0.0], np.cumsum(basis.sigma ** 2)))
    finite = SpectrumSummary(total_lo=float(head[12]), total_hi=float(head[12]), head=head)
    s_min = singular_extrema(info.G)[0]
    bound = certified_upper_bound(e_tr, basis, finite, pts, s_min, 4, 12)
    assert bound == pytest.approx(e_tr + float(basis.sigma[12]), abs=1e-13)


def test_certified_bound_monotone_tail_addend():
    # with points fixed, growing m shrinks what the bound pays for beyond m;
    # at smoothness 3 the addend crosses 1e-3 of the truncated error within
    # the swept range
    sp = SpaceParams(1, 3.0)
    m_grid = (16, 32, 64, 128, 256, 512)
    m_max = m_grid[-1]
    basis = ordered_basis(sp, m_max + 1)
    summary = spectral_sums(sp, basis)
    k = 8
    dens = truncated_density(basis, k, m_max)
    pts = sample_points(dens, 128, 9)
    info = build_matrices(pts, basis, k, m_max)
    g_pinv = pinv(info)
    s_min = singular_extrema(info.G)[0]
    addends = []
    e_base = None
    for m in m_grid:
        e_tr = full_e_trunc(info, g_pinv, basis, m)
        bound = certified_upper_bound(e_tr, basis, summary, pts, s_min, k, m)
        addends.append(bound - e_tr - float(basis.sigma[m]))
        if e_base is None:
            e_base = e_tr
    assert all(b > a for a, b in zip(addends[1:], addends[:-1]))
    crossing = [m for m, a in zip(m_grid, addends) if a < 1e-3 * e_base]
    assert crossing, f"addends {addends} never fell below {1e-3 * e_base}"


def test_certified_bound_argument_checks():
    basis, pts, info, head = make_instance(SP1, 4, 12, 32, 5)
    summary = spectral_sums(SP1, basis)
    e_tr = worst_case_error_trunc(info, head, basis)
    with pytest.raises(ValueError):
        certified_upper_bound(e_tr, basis, summary, pts, 0.0, 4, 12)
    with pytest.raises(ValueError):
        certified_upper_bound(e_tr, basis, summary, pts, 1.0, 4, 13)


def test_certified_bound_scale_equivariance():
    # scaling every coefficient-space quantity by lam scales both error terms
    basis, pts, info, head = make_instance(SP1, 4, 12, 32, 5)
    summary = spectral_sums(SP1, basis)
    s_min = singular_extrema(info.G)[0]
    e_tr = worst_case_error_trunc(info, head, basis)
    bound = certified_upper_bound(e_tr, basis, summary, pts, s_min, 4, 12)
    lam = 3.5
    scaled_sigma = lam * basis.sigma
    scaled_basis = basis.__class__(
        params=basis.params,
        indices=basis.indices,
        weights=scaled_sigma ** -2.0,
        sigma=scaled_sigma,
    )
    scaled_summary = SpectrumSummary(
        total_lo=lam ** 2 * summary.total_lo,
        total_hi=lam ** 2 * summary.total_hi,
        head=lam ** 2 * summary.head,
    )
    # Gamma scaling does not enter here; e_trunc scales linearly
    e_tr_scaled = worst_case_error_trunc(info, head, scaled_basis)
    assert e_tr_scaled == pytest.approx(lam * e_tr, rel=1e-12)
    bound_scaled = certified_upper_bound(
        e_tr_scaled, scaled_basis, scaled_summary, pts, s_min, 4, 12
    )
    assert bound_scaled == pytest.approx(lam * bound, rel=1e-12)


def test_empirical_error_identities():
    basis = ordered_basis(SP1, 6)
    f = CoefVector(basis, np.array([1.0, -2.0, 0.5]))
    assert empirical_error(f, f) == 0.0
    g = CoefVector(basis, np.array([1.0, -2.0, 0.5, 3.0]))
    assert empirical_error(f, g) == pytest.approx(3.0)
    h = CoefVector(basis, np.array([0.0, -2.0, 0.5]))
    assert empirical_error(f, h) == pytest.approx(1.0)


def test_empirical_error_rejects_basis_mismatch():
    f = CoefVector(ordered_basis(SP1, 6), np.ones(3))
    g = CoefVector(ordered_basis(SpaceParams(1, 2.0), 6), np.ones(3))
    with pytest.raises(ValueError):
        empirical_error(f, g)


def test_empirical_error_matches_quadrature():
    # L2 distance through exact grid quadrature of the pointwise difference
    basis = ordered_basis(SP1, 12)
    f = random_unit_function(basis, (1, 12), 1)
    g = random_unit_function(basis, (1, 8), 2)
    res = 4 * basis.max_frequency()
    grid = (np.arange(res) / res)[:, None]
    diff = f.evaluate(grid) - g.evaluate(grid)
    quad = math.sqrt(float(np.mean(diff ** 2)))
    assert quad == pytest.approx(empirical_error(g, f), abs=1e-8)


def test_error_report_fields_round_trip():
    report = ErrorReport(
        e_trunc=0.1, e_upper=0.5, a_k=0.2, beta_k=0.25, gamma_k=0.25,
        tail_benchmark=0.25, c_report=1.0, s_min_G=5.0, s_max_Gamma=1.5,
    )
    assert report.e_trunc <= report.e_upper
    assert report.tail_benchmark == report.c_report * 0.25
