import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from samplerec import errors, lsq
from samplerec.density import dense_matrix, sample_points, truncated_density
from samplerec.errors import (
    certified_upper_bound,
    empirical_error,
    worst_case_error_trunc,
)
from samplerec.lsq import RANK_RTOL, head_factor, head_svd
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
    return basis, pts, head_svd(pts.G)


def weighted_matrix(pts, basis):
    """The instance's weighted matrix B, evaluated at its points: the dense oracle."""
    return basis_matrix(basis, pts.points, pts.m) / np.sqrt(pts.densities)[:, None]


def pinv(pts):
    """Moore-Penrose inverse of G with the RANK_RTOL cutoff, from its own SVD."""
    return np.linalg.pinv(pts.G, rtol=RANK_RTOL)


def full_e_trunc(pts, g_pinv, basis, m):
    """Reference e_trunc in E-form: the largest singular value of
    (I - pad(g_pinv B)) diag(sigma) over the first m coefficients, by a full
    SVD of the m x m matrix.  g_pinv may be any k x n map."""
    e = np.eye(m)
    if pts.k:
        e[: pts.k, :] -= g_pinv @ weighted_matrix(pts, basis)[:, :m]
    return float(np.linalg.svd(e * basis.sigma[:m], compute_uv=False)[0])


def ball_probe_errors(pts, g_pinv, basis, m, probes, seed):
    """Worst-case lower bounds: recovery error of random unit-ball functions."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((probes, m))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    coef = u * basis.sigma[:m]
    residual = coef.copy()
    residual[:, : pts.k] -= (g_pinv @ (weighted_matrix(pts, basis)[:, :m] @ coef.T)).T
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
    basis, pts, _ = make_instance(SP1, 6, 18, 64, 2)
    assert full_e_trunc(pts, pinv(pts), basis, 6) < 1e-12


def test_worst_case_error_of_zero_algorithm_is_one():
    # with the zero map every coefficient survives; the worst unit-ball
    # function is the constant, with error sigma_1 = 1
    basis, pts, _ = make_instance(SP1, 4, 12, 32, 3)
    zero_pinv = np.zeros((4, 32))
    assert full_e_trunc(pts, zero_pinv, basis, 12) == pytest.approx(1.0, abs=1e-12)


def test_worst_case_error_dominates_ball_probes():
    basis, pts, head = make_instance(SP1, 16, 128, 256, 6)
    e_tr = worst_case_error_trunc(pts, head, basis)
    probes = ball_probe_errors(pts, pinv(pts), basis, 128, 10_000, seed=11)
    assert np.all(probes <= e_tr * (1 + 1e-12))


def test_worst_case_error_matches_power_iteration():
    basis, pts, head = make_instance(SP1, 16, 128, 256, 6)
    e_tr = worst_case_error_trunc(pts, head, basis)
    e_mat = np.eye(128)
    e_mat[:16, :] -= pinv(pts) @ weighted_matrix(pts, basis)
    independent = block_power_norm(e_mat * basis.sigma[:128])
    assert independent == pytest.approx(e_tr, rel=1e-8)


def test_worst_case_error_below_split_bound():
    for k, m, n, seed in ((4, 16, 64, 1), (8, 32, 128, 2), (16, 64, 256, 3)):
        basis, pts, head = make_instance(SP1, k, m, n, seed)
        s_min = np.linalg.svd(pts.G, compute_uv=False)[-1]
        s_gam = np.linalg.norm(weighted_matrix(pts, basis)[:, k:] * basis.sigma[k:m], 2)
        e_tr = worst_case_error_trunc(pts, head, basis)
        assert e_tr <= float(basis.sigma[k]) + s_gam / s_min + 1e-10


def test_worst_case_error_argument_checks():
    basis, pts, head = make_instance(SP1, 4, 12, 32, 3)
    # a head SVD of another instance: other k, other n
    for k, n in ((3, 32), (4, 33)):
        other = make_instance(SP1, k, 12, n, 3)[2]
        with pytest.raises(ValueError):
            worst_case_error_trunc(pts, other, basis)
    # a rank-deficient head block: the second column duplicates the first
    b = weighted_matrix(pts, basis)
    b[:, 1] = b[:, 0]
    dup = dataclasses.replace(pts, B=b)
    dup_head = head_svd(dup.G)
    assert not dup_head.rank_ok
    with pytest.raises(ValueError):
        worst_case_error_trunc(dup, dup_head, basis)


@pytest.mark.parametrize(
    "params, k, m, n, seed",
    [(SP1, 16, 128, 256, 6), (SpaceParams(2, 0.75), 12, 96, 256, 8), (SpaceParams(3, 1.0), 8, 64, 128, 9)],
)
def test_reduced_e_trunc_matches_full_form(params, k, m, n, seed):
    basis, pts, head = make_instance(params, k, m, n, seed)
    full = full_e_trunc(pts, pinv(pts), basis, m)
    assert worst_case_error_trunc(pts, head, basis) == pytest.approx(full, rel=1e-12, abs=0.0)


def test_dense_e_trunc_allocates_no_tail_square():
    # d = 2, s = 1, n = 1024, k = 147, m = 1176: B is 9.2 MiB and the tail
    # has q = 1029 columns; e_trunc applies W^T W + diag(s_t)^2 as an
    # operator, so no q x q array (8.1 MiB) is allocated
    basis, pts, head = make_instance(SpaceParams(2, 1.0), 147, 1176, 1024, 4)
    q = pts.m - pts.k
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        e_tr = worst_case_error_trunc(pts, head, basis)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < q * q * 8
    # against the top eigenvalue of the formed matrix
    w = (head.u.T @ pts.B[:, pts.k:]) * basis.sigma[pts.k:pts.m] / head.sv[:, None]
    gram = w.T @ w + np.diag(basis.sigma[pts.k:pts.m] ** 2)
    assert e_tr == pytest.approx(math.sqrt(np.linalg.eigvalsh(gram)[-1]), rel=1e-12, abs=0)


def test_gram_route_e_trunc_applies_w_as_its_factors():
    # the largest rates-d1 instance (n = 4096, k = 123, m = 984) on the Gram
    # route: e_trunc is the Lanczos value of the operator made of the block
    # C = G^T B_tail and L = S^-2 V^T, bit for bit, and W = L C diag(s_t) is
    # never formed; the formed W gives the same value to rounding.  Here the
    # block read sets the traced peak (2.27 k q floats, with W or without)
    basis, pts, _ = make_instance(SP1, 123, 984, 4096, 3)
    head = head_factor(pts)
    assert head.u is None
    k, m = pts.k, pts.m
    tail_sigma = basis.sigma[k:m]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        e_tr = worst_case_error_trunc(pts, head, basis)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * k * (m - k) * 8
    block = pts.gram(slice(0, k), slice(k, m))
    left = np.ascontiguousarray(head.vt / head.sv[:, None] ** 2)
    assert e_tr == math.sqrt(lsq.spectral_norm(errors._TruncGram(block, left, tail_sigma)))
    w = (head.vt @ block) * tail_sigma / head.sv[:, None] ** 2
    formed = math.sqrt(np.linalg.eigvalsh(w.T @ w + np.diag(tail_sigma ** 2))[-1])
    assert e_tr == pytest.approx(formed, rel=1e-13, abs=0)


def test_gram_route_e_trunc_holds_one_k_by_q_array():
    # d = 1 at n = 16384, k = 422, m = 3376 (the paper-scale rates point):
    # e_trunc holds the block pts.gram reads (which peaks at 1.24 k q floats
    # alone), the k x k factor and the Lanczos vectors, and no W; measured
    # 1.62 k q floats, 1.76 when the Lanczos basis grew by concatenation and
    # 2.00 when W was formed from the block
    basis, pts, _ = make_instance(SP1, 422, 3376, 16384, 2)
    head = head_factor(pts)
    assert head.u is None
    k, q = pts.k, pts.m - pts.k
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        worst_case_error_trunc(pts, head, basis)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 1.70 * k * q * 8


@pytest.mark.parametrize("params", [SP1, SpaceParams(2, 0.75)])
def test_fallback_e_trunc_makes_no_n_by_m_array(monkeypatch, params):
    # the largest rates-d1 and rates-d2-s075 instances, neither of which
    # stores B (d = 1 keeps its sums, d = 2 its Gram), forced onto the dense
    # SVD route: U^T B_tail is summed over row blocks of B evaluated one
    # block at a time, so the fallback never holds all of B (30.8 MiB)
    n, k, m = 4096, 123, 984
    basis, pts, _ = make_instance(params, k, m, n, 3)
    assert pts.B is None
    expected = worst_case_error_trunc(pts, head_factor(pts), basis)
    monkeypatch.setattr(lsq, "KAPPA_LIMIT", 0.0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        head = head_factor(pts)
        e_tr = worst_case_error_trunc(pts, head, basis)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert head.u is not None
    assert peak < n * m * 8
    assert e_tr == pytest.approx(expected, rel=1e-12, abs=0)


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
    basis, pts, head = make_instance(SpaceParams(d, s), k, m, 2 * k + n_extra, seed)
    e_tr = worst_case_error_trunc(pts, head, basis)
    assert e_tr == pytest.approx(full_e_trunc(pts, pinv(pts), basis, m), rel=1e-12, abs=0.0)
    a_k = float(basis.sigma[k])
    assert a_k <= e_tr <= a_k + np.linalg.norm(weighted_matrix(pts, basis)[:, k:] * basis.sigma[k:m], 2) / head.s_min + 1e-10


def test_certified_bound_reduces_to_trunc_plus_am_on_finite_spectrum():
    # a synthetic spectrum whose mass ends exactly at m: the sqrt addend is 0
    basis, pts, g_head = make_instance(SP1, 4, 12, 32, 5)
    e_tr = worst_case_error_trunc(pts, g_head, basis)
    head = np.concatenate(([0.0], np.cumsum(basis.sigma ** 2)))
    finite = SpectrumSummary(total_lo=float(head[12]), total_hi=float(head[12]), head=head)
    s_min = np.linalg.svd(pts.G, compute_uv=False)[-1]
    bound = certified_upper_bound(e_tr, basis, finite, pts, s_min)
    assert bound == pytest.approx(e_tr + float(basis.sigma[12]), abs=1e-13)


def test_certified_bound_pays_for_the_upper_end_of_the_tail():
    # a wide synthetic enclosure: the addend takes total_hi, not the midpoint
    basis, pts, g_head = make_instance(SP1, 4, 12, 32, 5)
    e_tr = worst_case_error_trunc(pts, g_head, basis)
    head = np.concatenate(([0.0], np.cumsum(basis.sigma ** 2)))
    head[12] = 0.5
    wide = SpectrumSummary(total_lo=1.0, total_hi=2.0, head=head)
    s_min = np.linalg.svd(pts.G, compute_uv=False)[-1]
    bound = certified_upper_bound(e_tr, basis, wide, pts, s_min)
    mass = np.sum(1.0 / pts.densities) * 2.0
    expected = e_tr + float(basis.sigma[12]) + math.sqrt(mass * (2.0 - 0.5)) / s_min
    assert bound == pytest.approx(expected, rel=1e-14)
    assert bound > e_tr + float(basis.sigma[12]) + math.sqrt(mass * wide.tail(12)) / s_min


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
    g_pinv = pinv(pts)
    s_min = np.linalg.svd(pts.G, compute_uv=False)[-1]
    addends = []
    e_base = None
    for m in m_grid:
        e_tr = full_e_trunc(pts, g_pinv, basis, m)
        narrow = dataclasses.replace(pts, B=dense_matrix(pts, width=m))
        bound = certified_upper_bound(e_tr, basis, summary, narrow, s_min)
        addends.append(bound - e_tr - float(basis.sigma[m]))
        if e_base is None:
            e_base = e_tr
    assert all(b > a for a, b in zip(addends[1:], addends[:-1]))
    crossing = [m for m, a in zip(m_grid, addends) if a < 1e-3 * e_base]
    assert crossing, f"addends {addends} never fell below {1e-3 * e_base}"


def test_certified_bound_argument_checks():
    basis, pts, head = make_instance(SP1, 4, 12, 32, 5)
    summary = spectral_sums(SP1, basis)
    e_tr = worst_case_error_trunc(pts, head, basis)
    with pytest.raises(ValueError, match="degenerate"):
        certified_upper_bound(e_tr, basis, summary, pts, 0.0)
    # a basis that ends at m has no a_m
    short = ordered_basis(SP1, 12)
    with pytest.raises(ValueError, match="extend past m=12"):
        certified_upper_bound(e_tr, short, spectral_sums(SP1, short), pts, 1.0)


def test_certified_bound_scale_equivariance():
    # scaling every coefficient-space quantity by lam scales both error terms
    basis, pts, head = make_instance(SP1, 4, 12, 32, 5)
    summary = spectral_sums(SP1, basis)
    s_min = np.linalg.svd(pts.G, compute_uv=False)[-1]
    e_tr = worst_case_error_trunc(pts, head, basis)
    bound = certified_upper_bound(e_tr, basis, summary, pts, s_min)
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
    e_tr_scaled = worst_case_error_trunc(pts, head, scaled_basis)
    assert e_tr_scaled == pytest.approx(lam * e_tr, rel=1e-12)
    bound_scaled = certified_upper_bound(
        e_tr_scaled, scaled_basis, scaled_summary, pts, s_min
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
