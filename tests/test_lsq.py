import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import aslinearoperator

from samplerec import density, lsq
from samplerec.density import PointSet, dense_matrix, sample_points, truncated_density
from samplerec.errors import worst_case_error_trunc
from samplerec.experiments import ExperimentConfig, _checked_gamma_norm, csv_text, run_claims, run_rates
from samplerec.expsums import staircase_sums
from samplerec.lsq import (
    RANK_RTOL,
    BlockGram,
    ViewGram,
    fit,
    head_factor,
    head_svd,
    spectral_norm,
)
from samplerec.spectral import (
    CoefVector,
    SpaceParams,
    basis_eval,
    basis_matrix,
    ordered_basis,
    random_unit_function,
)

SP1 = SpaceParams(1, 1.0)


def make_instance(params, k, m, n, seed):
    basis = ordered_basis(params, m + 1)
    dens = truncated_density(basis, k, m)
    return basis, dens, sample_points(dens, n, seed)


def weighted_matrix(pts, basis):
    """The instance's weighted matrix B, evaluated at its points: the dense oracle."""
    return basis_matrix(basis, pts.points, pts.m) / np.sqrt(pts.densities)[:, None]


def test_point_set_head_block_is_a_view():
    # a d = 2 instance that keeps B (m > n)
    basis, _, pts = make_instance(SpaceParams(2, 1.0), 8, 32, 24, 42)
    assert (pts.k, pts.m) == (8, 32)
    assert pts.G.shape == (24, 8)
    assert pts.B.shape == (24, 32)
    assert np.shares_memory(pts.G, pts.B)
    assert np.array_equal(pts.G, pts.B[:, :8])
    # Gamma, formed on demand, is the tail of B with columns scaled by sigma
    gamma = pts.B[:, 8:] * basis.sigma[8:32]
    assert gamma.shape == (24, 24)
    assert np.allclose(gamma[:, 3], pts.B[:, 11] * basis.sigma[11], atol=1e-15)
    # a d = 2 instance in the staircase form (m <= n) keeps no n-row array, and
    # G is evaluated on access
    basis, _, pts = make_instance(SpaceParams(2, 1.0), 8, 32, 64, 42)
    assert pts.B is None and pts.G.shape == (64, 8)
    assert np.array_equal(pts.G, weighted_matrix(pts, basis)[:, :8])
    assert pts.G is not pts.G
    # at d = 1 the point set keeps no n-row array, and G, the first k
    # columns of B, is evaluated on access
    basis, _, pts = make_instance(SP1, 8, 32, 64, 42)
    assert pts.B is None and (pts.k, pts.m) == (8, 32)
    assert np.array_equal(pts.G, weighted_matrix(pts, basis)[:, :8])
    assert pts.G is not pts.G


def test_point_set_entries_match_composition():
    basis, _, pts = make_instance(SP1, 8, 32, 64, 42)
    b = weighted_matrix(pts, basis)
    for i in range(0, 64, 7):
        w = 1.0 / math.sqrt(pts.densities[i])
        for j in range(32):
            expected = basis_eval(basis.indices[j], pts.points[i]) * w
            assert b[i, j] == pytest.approx(expected, abs=1e-14)


def test_point_set_matrix_is_the_sampling_matrix():
    basis, _, pts = make_instance(SpaceParams(2, 0.75), 6, 48, 96, 19)
    expected = basis_matrix(basis, pts.points, 48) / np.sqrt(pts.densities)[:, None]
    assert np.array_equal(dense_matrix(pts), expected)
    assert np.array_equal(pts.G, expected[:, :6])
    # the norm check reads the tail block of the stored Gram, never Gamma
    # itself, so it agrees with the norm of the explicitly formed Gamma to
    # rounding
    assert _checked_gamma_norm(pts, basis) == pytest.approx(
        svd_norm(dense_matrix(pts)[:, 6:] * basis.sigma[6:48]), rel=1e-12
    )
    # at d = 1 the norm comes from the Toeplitz Gram operator instead
    basis, _, pts = make_instance(SP1, 8, 32, 64, 19)
    expected = weighted_matrix(pts, basis)
    assert np.array_equal(pts.G, expected[:, :8])
    assert _checked_gamma_norm(pts, basis) == pytest.approx(
        svd_norm(expected[:, 8:] * basis.sigma[8:32]), rel=1e-12
    )


def test_gamma_norm_allocates_no_tail_sized_array():
    # the largest rates-d2-s075 instance: Gamma would be n x (m - k), 26.9 MiB;
    # its Gram is held as the upper column panels of the tail block, filled
    # from the instance's sums
    basis, _, pts = make_instance(SpaceParams(2, 0.75), 123, 984, 4096, 3)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        s_gam = _checked_gamma_norm(pts, basis)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < pts.n * (pts.m - pts.k) * 8
    assert s_gam == pytest.approx(svd_norm(dense_matrix(pts)[:, 123:] * basis.sigma[123:984]), rel=1e-12)


def test_wide_head_block_is_not_rank_ok():
    # fewer points than head functions: G is 2 x 3, and its thin SVD has
    # only two singular values, both well above the cutoff
    rng = np.random.Generator(np.random.Philox(key=41))
    g = rng.standard_normal((2, 3))
    head = head_svd(g)
    assert len(head.sv) == 2 and head.sv[-1] > RANK_RTOL * head.sv[0]
    assert not head.rank_ok
    pts = PointSet(points=np.zeros((2, 1)), densities=np.ones(2), B=np.hstack([g, g]), k=3)
    assert head_factor(pts).u is not None
    coefficients = fit(pts, head, np.ones(2))
    assert coefficients.shape == (3,) and np.all(np.isfinite(coefficients))
    basis = ordered_basis(SP1, 7)
    with pytest.raises(ValueError):
        worst_case_error_trunc(pts, head, basis)
    # a sampled instance with n < k is flagged the same way
    _, _, small = make_instance(SP1, 8, 32, 4, 1)
    assert not head_svd(small.G).rank_ok


def test_uniform_case_head_column_is_constant():
    # k=1, m=3 gives density 1, so G is the constant column and s_min = sqrt(n)
    basis = ordered_basis(SP1, 4)
    dens = truncated_density(basis, 1, 3)
    pts = sample_points(dens, 256, 3)
    sv = np.linalg.svd(pts.G, compute_uv=False)
    assert sv[-1] == pytest.approx(math.sqrt(256.0), rel=1e-12)
    assert sv[0] == pytest.approx(math.sqrt(256.0), rel=1e-12)
    head = head_factor(pts)
    assert head.u is None and head.vt.shape == (1, 1)
    assert head.s_min == head.s_max == pytest.approx(math.sqrt(256.0), rel=1e-12)


def test_fit_recovers_single_basis_function():
    basis, _, pts = make_instance(SP1, 8, 32, 64, 7)
    samples = np.array([basis_eval(basis.indices[2], x) for x in pts.points])
    head = head_factor(pts)
    expected = np.zeros(8)
    expected[2] = 1.0
    assert head.rank_ok
    assert np.max(np.abs(fit(pts, head, samples) - expected)) < 1e-10


def test_fit_zero_samples_zero_coefficients():
    _, _, pts = make_instance(SP1, 4, 12, 32, 5)
    assert np.all(fit(pts, head_factor(pts), np.zeros(32)) == 0.0)


def test_fit_reproduces_head_functions():
    basis, _, pts = make_instance(SP1, 8, 32, 128, 11)
    head = head_factor(pts)
    assert head.rank_ok
    worst = 0.0
    for t in range(100):
        f = random_unit_function(basis, (1, 8), t)
        worst = max(worst, float(np.max(np.abs(fit(pts, head, f.evaluate(pts.points)) - f.c[:8]))))
    assert worst < 1e-9


def test_fit_is_weighted_least_squares_optimum():
    basis, _, pts = make_instance(SP1, 6, 18, 48, 13)
    f = random_unit_function(basis, (1, 18), 4)
    samples = f.evaluate(pts.points)
    coefficients = fit(pts, head_factor(pts), samples)
    y = samples / np.sqrt(pts.densities)
    base = np.linalg.norm(pts.G @ coefficients - y)
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(20):
        direction = rng.standard_normal(6)
        perturbed = coefficients + 1e-3 * direction
        assert np.linalg.norm(pts.G @ perturbed - y) >= base - 1e-12


def test_fit_conditioning_fields():
    # the conditioning of the solve is the head factorization's: fit is the
    # map y -> G^+ y, whose norm is 1 / s_min
    _, _, pts = make_instance(SP1, 8, 32, 64, 42)
    head = head_factor(pts)
    sv = np.linalg.svd(pts.G, compute_uv=False)
    s_min, s_max = sv[-1], sv[0]
    assert head.s_min == pytest.approx(s_min)
    assert head.s_max == pytest.approx(s_max)
    assert head.rank_ok
    gp = np.column_stack([fit(pts, head, e * np.sqrt(pts.densities)) for e in np.eye(64)])
    assert np.linalg.norm(gp, 2) * head.s_min == pytest.approx(1.0, abs=1e-10)


def test_fit_flags_rank_deficiency_without_rejecting():
    # two repeated points cannot resolve a 3-dim head
    basis = ordered_basis(SP1, 7)
    dens = truncated_density(basis, 3, 6)
    pts = sample_points(dens, 2, 1)
    ones = dataclasses.replace(pts, densities=np.ones(2), B=np.ones((2, 6)))
    head = head_factor(ones)
    assert head.u is not None and not head.rank_ok
    coefficients = fit(ones, head, np.ones(2))
    assert coefficients.shape == (3,)
    assert np.all(np.isfinite(coefficients))


def counted_svd_calls(monkeypatch):
    """Patch np.linalg.svd to count its calls into the returned list."""
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


@pytest.mark.parametrize("d", [1, 2])
def test_fit_on_the_gram_route_takes_no_svd(monkeypatch, d):
    # a kappa <= KAPPA_LIMIT draw: the fit reads the factorization that
    # head_factor gave the instance and takes no SVD of its own
    basis, _, pts = make_instance(SpaceParams(d, 1.0), 8, 32, 128, 11)
    head = head_factor(pts)
    assert head.u is None
    calls = counted_svd_calls(monkeypatch)
    f = random_unit_function(basis, (1, 8), 3)
    assert np.max(np.abs(fit(pts, head, f.evaluate(pts.points)) - f.c[:8])) < 1e-10
    assert calls == []


def dense_svd_solve(pts, samples):
    """Reference: G^+ y by a full-rank thin SVD of G."""
    u, sv, vt = np.linalg.svd(pts.G, full_matrices=False)
    return vt.T @ ((1.0 / sv) * (u.T @ (samples / np.sqrt(pts.densities))))


@given(
    d=st.sampled_from((1, 2)),
    s=st.sampled_from((0.75, 1.0, 2.0)),
    k=st.integers(1, 60),
    m_factor=st.integers(2, 8),
    n_extra=st.integers(0, 300),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_gram_route_fit_matches_the_dense_svd_solve(d, s, k, m_factor, n_extra, seed):
    # the normal-equations solve errs by about kappa^2 u, at most 1e-13 for
    # kappa <= KAPPA_LIMIT; samples of a function over the whole width m
    # leave a residual outside the head span
    m = m_factor * k
    basis, _, pts = make_instance(SpaceParams(d, s), k, m, 2 * k + n_extra, seed)
    head = head_factor(pts)
    if head.u is not None:
        return
    samples = random_unit_function(basis, (1, m), seed).evaluate(pts.points)
    expected = dense_svd_solve(pts, samples)
    assert np.linalg.norm(fit(pts, head, samples) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("d", [1, 2])
def test_forced_fallback_fit_is_the_dense_svd_solve(monkeypatch, d):
    basis, _, pts = make_instance(SpaceParams(d, 1.0), 8, 32, 128, 11)
    samples = random_unit_function(basis, (1, 32), 5).evaluate(pts.points)
    monkeypatch.setattr(lsq, "KAPPA_LIMIT", 1.0)
    head = head_factor(pts)
    assert head.u is not None and head.rank_ok
    assert np.array_equal(fit(pts, head, samples), dense_svd_solve(pts, samples))


def test_fit_rejects_a_head_of_another_point_set():
    # a head with another k (either route) or, on the SVD route, another n
    _, _, pts = make_instance(SP1, 8, 32, 64, 42)
    _, _, narrow = make_instance(SP1, 6, 24, 64, 42)
    _, _, taller = make_instance(SP1, 8, 32, 128, 42)
    assert head_factor(narrow).u is None
    for head in (head_factor(narrow), head_svd(narrow.G), head_svd(taller.G)):
        with pytest.raises(ValueError, match="head"):
            fit(pts, head, np.zeros(64))
    with pytest.raises(ValueError, match="samples"):
        fit(pts, head_factor(pts), np.zeros(63))
    assert fit(pts, head_svd(pts.G), np.zeros(64)).shape == (8,)


def test_head_svd_rebuilds_g():
    rng = np.random.Generator(np.random.Philox(key=23))
    for shape in ((7, 4), (40, 7), (512, 64), (64, 64)):
        g = rng.standard_normal(shape)
        head = head_svd(g)
        assert head.u.shape == shape and head.sv.shape == (shape[1],) and head.vt.shape == (shape[1],) * 2
        assert np.max(np.abs((head.u * head.sv) @ head.vt - g)) <= 1e-12 * head.s_max
        assert np.all(np.diff(head.sv) <= 0.0)


def test_head_svd_agrees_with_dense_singular_values():
    _, _, pts = make_instance(SP1, 8, 32, 128, 3)
    head = head_svd(pts.G)
    sv = np.linalg.svd(pts.G, compute_uv=False)
    assert head.s_min == pytest.approx(sv[-1], rel=1e-12)
    assert head.s_max == pytest.approx(sv[0], rel=1e-12)
    assert np.allclose(head.sv, sv, rtol=1e-12, atol=0.0)
    assert head.rank_ok


def test_head_svd_rank_cutoff():
    g = np.diag([1.0, 1e-14, 0.0])
    assert not head_svd(g).rank_ok
    # the fit's map is G^+ with singular values at or below the cutoff
    # treated as zero; its columns are the fits of unit sample vectors
    pts = PointSet(points=np.zeros((3, 1)), densities=np.ones(3), B=np.hstack([g, g]), k=3)
    head = head_factor(pts)
    assert head.u is not None
    gp = np.column_stack([fit(pts, head, e) for e in np.eye(3)])
    assert gp[0, 0] == pytest.approx(1.0)
    assert gp[1, 1] == 0.0
    assert gp[2, 2] == 0.0
    assert RANK_RTOL == 1e-10
    assert head_svd(np.diag([1.0, 2e-10])).rank_ok
    assert not head_svd(np.diag([1.0, 1e-10])).rank_ok


@given(
    d=st.sampled_from((1, 2)),
    s=st.sampled_from((0.75, 1.0, 2.0)),
    k=st.integers(1, 60),
    m_factor=st.integers(2, 8),
    n_extra=st.integers(0, 300),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_head_factor_matches_the_dense_svd(d, s, k, m_factor, n_extra, seed):
    # draws in the runners' domain (n >= 2k): a draw on the Gram route
    # (kappa <= KAPPA_LIMIT) matches the SVD of G and the dense e_trunc at
    # rel 1e-12; any other draw is the SVD of G itself
    m = m_factor * k
    basis, _, pts = make_instance(SpaceParams(d, s), k, m, 2 * k + n_extra, seed)
    head, dense = head_factor(pts), head_svd(pts.G)
    if head.u is not None:
        assert np.array_equal(head.sv, dense.sv) and np.array_equal(head.vt, dense.vt)
        assert not (dense.rank_ok and dense.s_max <= lsq.KAPPA_LIMIT * (1.0 - 1e-12) * dense.s_min)
        return
    assert dense.s_max <= lsq.KAPPA_LIMIT * (1.0 + 1e-12) * dense.s_min
    assert head.rank_ok and dense.rank_ok
    assert head.s_min == pytest.approx(dense.s_min, rel=1e-12, abs=0)
    assert head.s_max == pytest.approx(dense.s_max, rel=1e-12, abs=0)
    assert np.all(np.diff(head.sv) <= 0.0)
    dense_pts = dataclasses.replace(pts, B=weighted_matrix(pts, basis))
    assert worst_case_error_trunc(pts, head, basis) == pytest.approx(
        worst_case_error_trunc(dense_pts, dense, basis), rel=1e-12, abs=0
    )


@pytest.mark.parametrize("d", [1, 2])
def test_values_only_head_matches_the_vectors(monkeypatch, d):
    # on the Gram route and, with KAPPA_LIMIT = 0, on the fallback: the
    # values of the head with vectors, and of head_svd of G, to 1e-13
    _, _, pts = make_instance(SpaceParams(d, 1.0), 8, 32, 128, 11)
    for limit, reference in ((lsq.KAPPA_LIMIT, head_factor(pts)), (0.0, head_svd(pts.G))):
        monkeypatch.setattr(lsq, "KAPPA_LIMIT", limit)
        values = head_factor(pts, compute_uv=False)
        assert values.u is None and values.vt is None and values.sv.shape == (8,)
        assert values.rank_ok and reference.rank_ok
        assert values.s_min == pytest.approx(reference.s_min, rel=1e-13, abs=0)
        assert values.s_max == pytest.approx(reference.s_max, rel=1e-13, abs=0)


def test_values_only_head_gives_no_fit_and_no_e_trunc():
    basis, _, pts = make_instance(SP1, 8, 32, 128, 11)
    head = head_factor(pts, compute_uv=False)
    assert head.rank_ok
    with pytest.raises(ValueError, match="values only"):
        fit(pts, head, np.ones(pts.n))
    with pytest.raises(ValueError, match="values only"):
        worst_case_error_trunc(pts, head, basis)


def test_values_only_head_of_a_wide_block_is_not_rank_ok():
    # G is 2 x 3: its Gram is singular, the fallback's two singular values
    # are padded with a zero to k = 3
    g = np.random.Generator(np.random.Philox(key=41)).standard_normal((2, 3))
    pts = PointSet(points=np.zeros((2, 1)), densities=np.ones(2), B=np.hstack([g, g]), k=3)
    head = head_factor(pts, compute_uv=False)
    assert head.sv.shape == (3,) and head.s_min == 0.0 and head.s_max > 0.0
    assert not head.rank_ok


@pytest.mark.parametrize("d", [1, 2])
def test_claims_takes_no_eigenvectors_of_a_head_gram(monkeypatch, d):
    # run_claims reads s_min and rank_ok alone: every eigh it makes is of a
    # Lanczos tridiagonal, none of a dense k x k head Gram, and its CSV is
    # the one the head factorization with vectors gives
    config = ExperimentConfig(d=d, n_grid=(128, 512), c_head=0.25, trials=2, seed=3)
    eigh = np.linalg.eigh
    dense = []

    def recorded_eigh(a, *args, **kwargs):
        a = np.asarray(a)
        if np.any(np.triu(a, 2)) or np.any(np.tril(a, -2)):
            dense.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    values = run_claims(config)
    assert dense == []
    factor = lsq.head_factor
    monkeypatch.setattr(lsq, "head_factor", lambda pts, compute_uv=True: factor(pts))
    vectors = run_claims(config)
    assert dense and len(values.rows) > 2
    assert csv_text(values) == csv_text(vectors)


def test_kappa_limit_one_sends_every_d1_draw_to_the_dense_route(monkeypatch):
    config = ExperimentConfig(n_grid=(64, 128), c_head=0.25, trials=2, seed=3)
    claims = run_claims(config)
    monkeypatch.setattr(lsq, "KAPPA_LIMIT", 1.0)
    _, _, pts = make_instance(SP1, 6, 48, 128, 3)
    head = head_factor(pts)
    assert head.u is not None and np.array_equal(head.sv, head_svd(pts.G).sv)
    rates = run_rates(config)
    assert "dense e_trunc fallback (kappa(G) above 1.0): 4 of 4 full-rank draws" in rates.report
    # s_min enters claims only through its success fraction
    assert run_claims(config).rows == claims.rows


def test_duplicated_points_are_counted_degenerate(monkeypatch):
    # every draw repeats k // 2 of its own points, so rank G <= k // 2 < k:
    # lambda_min of G^T G is rounding noise, the draw falls back, and the
    # dense SVD's RANK_RTOL test counts it degenerate
    sample = density.sample_points

    def duplicated(params, n, seed):
        few = sample(params, max(1, params.k // 2), seed)
        x = np.resize(few.points, (n, 1))
        rho = np.resize(few.densities, n)
        sums = staircase_sums(x, 1.0 / rho, params.basis, params.m)
        return dataclasses.replace(few, points=x, densities=rho, sums=sums)

    dup = duplicated(truncated_density(ordered_basis(SP1, 49), 6, 48), 128, 3)
    head = head_factor(dup)
    assert dup.n == 128 and head.u is not None and not head.rank_ok
    monkeypatch.setattr(density, "sample_points", duplicated)
    config = ExperimentConfig(n_grid=(64, 128), c_head=0.25, trials=2, seed=3)
    rates = run_rates(config)
    assert [row[12] for row in rates.rows] == [2, 2]
    assert "0 of 0 full-rank draws" in rates.report
    claims = run_claims(config)
    assert [row[8] for row in claims.rows] == [1.0, 1.0]


@pytest.mark.parametrize("seed", [20250814, 2])
def test_rates_d1_makes_no_n_row_array_and_no_dense_svd(monkeypatch, seed):
    # the perfbench rates-d1 config: none of its 21 full-rank draws falls
    # back, so no instance evaluates a basis function or takes an SVD
    calls = counted_svd_calls(monkeypatch)
    evaluate = density.basis_matrix

    def counted_evaluation(*args, **kwargs):
        calls.append("basis_matrix")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(density, "basis_matrix", counted_evaluation)
    config = ExperimentConfig(d=1, s=1.0, n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
                              c_head=0.25, m_factor=8, trials=3, seed=seed)
    result = run_rates(config)
    assert "0 of 21 full-rank draws" in result.report
    assert calls == []


@pytest.mark.parametrize("seed", [20250814, 2])
def test_rates_d2_takes_no_dense_svd(monkeypatch, seed):
    # the perfbench rates-d2-s075 config: kappa(G) stays under KAPPA_LIMIT
    # on all five draws, so every head factorization is the Gram route
    calls = counted_svd_calls(monkeypatch)
    config = ExperimentConfig(d=2, s=0.75, n_grid=(256, 512, 1024, 2048, 4096),
                              c_head=0.25, m_factor=8, trials=1, seed=seed)
    result = run_rates(config)
    assert "0 of 5 full-rank draws" in result.report
    assert calls == []


def svd_norm(mat):
    """Reference: the largest singular value by a full dense SVD."""
    return float(np.linalg.svd(np.atleast_2d(mat), compute_uv=False)[0])


def test_spectral_norm_paths_agree():
    # the Gram of a matrix with unit sigma has top eigenvalue ||mat||^2: a
    # tall view by its formed q x q Gram, a wide one (q > n) and a tall one
    # by Lanczos on the view
    rng = np.random.Generator(np.random.Philox(key=29))
    mat = rng.standard_normal((300, 500))
    exact = svd_norm(mat) ** 2
    formed = BlockGram([mat @ mat.T], np.ones(300))
    assert spectral_norm(formed) == pytest.approx(exact, rel=1e-11)  # Lanczos on the Gram
    wide = ViewGram(mat, np.ones(500))
    assert spectral_norm(wide) == pytest.approx(exact, rel=1e-9)  # Lanczos
    tall = ViewGram(mat.T, np.ones(300))
    assert spectral_norm(tall) == pytest.approx(exact, rel=1e-9)  # Lanczos
    # a dense matrix is no Gram operator
    with pytest.raises(TypeError):
        spectral_norm(mat)
    with pytest.raises(TypeError):
        spectral_norm(tall, method="svd")


class VectorGram:
    """A Gram operator with shape and matvec alone: M^T M for a matrix M."""

    def __init__(self, mat):
        self.shape = (mat.shape[1], mat.shape[1])
        self.matvec = lambda v: mat.T @ (mat @ v)


def test_spectral_norm_of_a_gram_operator():
    # a symmetric PSD operator M^T M has spectral norm ||M||^2, by Lanczos at
    # every size, whether a scipy LinearOperator or any object with shape
    # and matvec alone
    rng = np.random.Generator(np.random.Philox(key=43))
    for shape in ((80, 1), (80, 64), (300, 160), (300, 161), (300, 200)):
        mat = rng.standard_normal(shape)
        op = scipy.sparse.linalg.LinearOperator(
            (shape[1], shape[1]), matvec=lambda v, mat=mat: mat.T @ (mat @ v), dtype=float
        )
        for gram in (op, VectorGram(mat)):
            assert spectral_norm(gram) == pytest.approx(svd_norm(mat) ** 2, rel=1e-12)


def test_spectral_norm_thin_shapes():
    rng = np.random.Generator(np.random.Philox(key=31))
    for shape in ((200, 1), (1, 200), (1, 1)):
        mat = rng.standard_normal(shape)
        gram = ViewGram(mat, np.ones(shape[1]))
        assert spectral_norm(gram) == pytest.approx(svd_norm(mat) ** 2, rel=1e-11)
    assert math.sqrt(spectral_norm(ViewGram(np.array([[3.0, -4.0]]), np.ones(2)))) == pytest.approx(5.0, rel=1e-15)


def test_spectral_norm_of_a_view_with_no_columns_is_zero():
    assert spectral_norm(ViewGram(np.zeros((3, 0)), np.zeros(0))) == 0.0


def test_spectral_norm_of_empty_panels_is_zero():
    assert spectral_norm(BlockGram([], np.zeros(0))) == 0.0


def test_spectral_norm_path_selection(monkeypatch):
    calls = {"eigvalsh": 0, "lanczos": 0}

    def counting(module, attr, key):
        fn = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    counting(np.linalg, "eigvalsh", "eigvalsh")
    counting(lsq, "_lanczos_top", "lanczos")
    # one route at every size, either side of the old dense cut at 160: a
    # formed Gram and a view, tall or wide (q > n), each take Lanczos once
    # and no eigvalsh, with the same norm
    rng = np.random.Generator(np.random.Philox(key=37))
    for q in (1, 2, 160, 161):
        mat = rng.standard_normal((400, q))
        exact = svd_norm(mat) ** 2
        before = calls["lanczos"]
        assert spectral_norm(BlockGram([mat.T @ mat], np.ones(q))) == pytest.approx(exact, rel=1e-11)
        assert spectral_norm(ViewGram(mat.T, np.ones(400))) == pytest.approx(exact, rel=1e-9)
        assert spectral_norm(ViewGram(mat, np.ones(q))) == pytest.approx(exact, rel=1e-9)
        assert calls == {"eigvalsh": 0, "lanczos": before + 3}, q


def test_formed_tail_gram_takes_lanczos(monkeypatch):
    # the tail block (q = 861) of the largest rates-d2-s075 instance, formed
    # from its sums and held whole: the sigma-scaled block is read in place
    # by Lanczos, and no eigvalsh copies it
    basis, _, pts = make_instance(SpaceParams(2, 0.75), 123, 984, 4096, 3)
    tail = slice(123, 984)
    gram = BlockGram([pts.gram(tail, tail)], basis.sigma[tail])
    assert gram.shape == (861, 861)
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    top = spectral_norm(gram)
    monkeypatch.undo()
    assert calls == []
    formed = pts.gram(tail, tail) * basis.sigma[tail] * basis.sigma[tail, None]
    assert top == pytest.approx(np.linalg.eigvalsh(formed)[-1], rel=1e-13, abs=0)


def lanczos_oracles(a):
    """Top eigenvalue of a symmetric matrix by dense eigvalsh and, from size
    2 on, by ARPACK (scipy's eigsh hands size 1 to a dense eigh)."""
    dense = np.linalg.eigvalsh(a)[-1]
    if len(a) < 2:
        return (dense,)
    arpack = scipy.sparse.linalg.eigsh(
        a, k=1, which="LA", v0=np.full(len(a), 1.0 / math.sqrt(len(a))), return_eigenvectors=False
    )[0]
    return dense, arpack


# the sizes at the edges of the Ritz stride (1, 2, 3, 7, 8, 9), the smallest
# workload operator (21) and the old dense cut (160), where a run may stop
# at j = q, and larger ones where it stops on a converged Ritz value
@pytest.mark.parametrize("q", [1, 2, 3, 7, 8, 9, 21, 160, 65, 100, 333, 1000, 2000])
def test_lanczos_matches_oracles_on_random_psd(q):
    rng = np.random.Generator(np.random.Philox(key=q))
    for rows in (max(q // 2, 1), 2 * q):
        m = rng.standard_normal((rows, q))
        a = m.T @ m
        top = lsq._lanczos_top(aslinearoperator(a))
        for oracle in lanczos_oracles(a):
            assert top == pytest.approx(oracle, rel=1e-12, abs=0)


def test_lanczos_breakdown_on_low_rank_views():
    # a rank-1 Gram (one row) and a wide view (q > n) make the Krylov space
    # invariant after at most n + 1 steps: breakdown, and theta is exact
    rng = np.random.Generator(np.random.Philox(key=31))
    for shape in ((1, 200), (1, 1000), (5, 300), (40, 200)):
        mat = rng.standard_normal(shape)
        gram = ViewGram(mat, np.ones(shape[1]))
        exact = svd_norm(mat) ** 2
        assert spectral_norm(gram) == pytest.approx(exact, rel=1e-12, abs=0)
        for oracle in lanczos_oracles(mat.T @ mat):
            assert spectral_norm(gram) == pytest.approx(oracle, rel=1e-12, abs=0)


def test_lanczos_identity_zero_and_clustered_top():
    # the start vector is an eigenvector of the identity, and the zero
    # operator maps it to 0: both break down after one step
    for q in (1, 65, 500):
        assert lsq._lanczos_top(aslinearoperator(3.0 * np.eye(q))) == pytest.approx(3.0, rel=1e-15)
        assert lsq._lanczos_top(aslinearoperator(np.zeros((q, q)))) == 0.0
    # a top pair 1e-12 apart, over a uniform spectrum below 0.9
    rng = np.random.Generator(np.random.Philox(key=5))
    for q in (100, 300):
        ev = rng.uniform(0.0, 0.9, q)
        ev[:2] = 1.0, 1.0 - 1e-12
        basis, _ = np.linalg.qr(rng.standard_normal((q, q)))
        a = (basis * ev) @ basis.T
        a = (a + a.T) / 2
        top = lsq._lanczos_top(aslinearoperator(a))
        assert top == pytest.approx(1.0, rel=1e-12, abs=0)
        for oracle in lanczos_oracles(a):
            assert top == pytest.approx(oracle, rel=1e-12, abs=0)


def test_lanczos_on_claims_tail_grams():
    # TailGram shapes of the claims-d1 workload (d = 1, c_head = 0.05, tails
    # of 91 to 917 columns), against the dense Gram of Gamma
    for k, m, n in ((13, 104, 512), (65, 520, 512), (131, 1048, 2048)):
        basis, _, pts = make_instance(SP1, k, m, n, 11)
        gram = pts.tail_gram(basis.sigma[k:m])
        gamma = dense_matrix(pts)[:, k:] * basis.sigma[k:m]
        dense = gamma.T @ gamma
        top = lsq._lanczos_top(gram)
        for oracle in lanczos_oracles(dense):
            assert top == pytest.approx(oracle, rel=1e-12, abs=0)


def test_lanczos_step_cap_raises(monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=7))
    m = rng.standard_normal((400, 200))
    monkeypatch.setattr(lsq, "_LANCZOS_STEPS", 2)
    with pytest.raises(lsq.ConvergenceError, match="cap of 2 steps"):
        spectral_norm(aslinearoperator(m.T @ m))
    # a run that ends within the cap is unaffected
    assert spectral_norm(aslinearoperator(np.eye(200))) == 1.0


class CountedGram:
    """A Gram operator that counts its products."""

    def __init__(self, gram):
        self.gram, self.shape, self.products = gram, gram.shape, 0

    def matvec(self, v):
        self.products += 1
        return self.gram.matvec(v)


def test_lanczos_breakdown_off_the_ritz_schedule():
    # M^T M of rank r: with these draws the Krylov space is invariant to
    # rounding after r + 2 products, on no multiple of the Ritz stride, and
    # there beta_j <= eps ||T_j||; the Gershgorin guard takes the exact
    # breakdown test at that step, so the run stops where it would with a
    # Ritz pair every step
    rng = np.random.Generator(np.random.Philox(key=3))
    for rows, products in ((5, 7), (12, 14), (21, 23)):
        mat = rng.standard_normal((rows, 300))
        assert products % lsq._RITZ_STRIDE != 0
        gram = CountedGram(aslinearoperator(mat.T @ mat))
        assert lsq._lanczos_top(gram) == pytest.approx(svd_norm(mat) ** 2, rel=1e-12, abs=0)
        assert gram.products == products


def test_lanczos_takes_a_ritz_pair_every_stride(monkeypatch):
    # a claims-d1 tail Gram shape (k = 131, m = 1048): one dense eigh per
    # _RITZ_STRIDE products, plus one at a breakdown or the last step
    basis, _, pts = make_instance(SP1, 131, 1048, 2048, 11)
    gram = CountedGram(pts.tail_gram(basis.sigma[131:1048]))
    eighs = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    lsq._lanczos_top(gram)
    assert gram.products > 2 * lsq._RITZ_STRIDE
    assert len(eighs) <= -(-gram.products // lsq._RITZ_STRIDE) + 1


class DiagonalGram:
    """The Gram operator diag(values), one vector allocated per product."""

    def __init__(self, values):
        self.values, self.shape = values, (len(values), len(values))

    def matvec(self, v):
        return self.values * v


def test_lanczos_basis_grows_without_a_spare_block():
    # a top value 2% above the rest of a spread spectrum takes 80 products:
    # the stored basis grows from 64 to 128 rows there, and holds the old
    # rows and the new array alone (192 q-vectors), not also an empty block
    # as concatenating did (256)
    q = 20000
    values = np.linspace(0.0, 1.0, q)
    values[-1] = 1.02
    gram = CountedGram(DiagonalGram(values))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        top = lsq._lanczos_top(gram)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert 64 < gram.products <= 128
    assert top == pytest.approx(1.02, rel=1e-14)
    assert peak <= 224 * q * 8


def test_lanczos_step_cap_off_the_ritz_schedule(monkeypatch):
    # a cap on no multiple of the stride still gets its Ritz pair, which
    # gives the error its residual
    rng = np.random.Generator(np.random.Philox(key=7))
    m = rng.standard_normal((400, 200))
    monkeypatch.setattr(lsq, "_LANCZOS_STEPS", 13)
    with pytest.raises(lsq.ConvergenceError, match="cap of 13 steps") as raised:
        lsq._lanczos_top(aslinearoperator(m.T @ m))
    residual = re.search(r"residual (\S+) of top Ritz value (\S+)$", str(raised.value))
    assert math.isfinite(float(residual[1])) and float(residual[1]) > 0.0
    assert float(residual[2]) == pytest.approx(svd_norm(m) ** 2, rel=1e-3)


# The benchmark workloads' configs (claims-d1, rates-d1, rates-d2-s075)
_WORKLOADS = {
    "claims-d1": (run_claims, dict(d=1, s=1.0, n_grid=(512, 2048), c_head=0.05, trials=2)),
    "rates-d1": (run_rates, dict(d=1, s=1.0, n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
                                 c_head=0.25, trials=3)),
    "rates-d2-s075": (run_rates, dict(d=2, s=0.75, n_grid=(256, 512, 1024, 2048, 4096),
                                      c_head=0.25, trials=1)),
}


def operator_matrix(gram):
    """The matrix of a Gram operator, its products with the identity
    columns stacked."""
    return np.column_stack([gram.matvec(unit) for unit in np.eye(gram.shape[0])])


@pytest.fixture(scope="module")
def workload_lanczos_runs():
    """(workload, products, top, dense top, size) of every _lanczos_top run
    on the workload configs at config seeds 20250814 and 2."""
    runs = []
    lanczos = lsq._lanczos_top

    def recorded(gram):
        counted = CountedGram(gram)
        top = lanczos(counted)
        runs.append((name, counted.products, top, np.linalg.eigvalsh(operator_matrix(gram))[-1], gram.shape[0]))
        return top

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lsq, "_lanczos_top", recorded)
        for name, (runner, params) in _WORKLOADS.items():
            for seed in (20250814, 2):
                runner(ExperimentConfig(m_factor=8, seed=seed, **params))
    assert {run[0] for run in runs} == set(_WORKLOADS)
    return runs


def test_lanczos_matches_dense_on_every_workload_run(workload_lanczos_runs):
    # the Ritz-value rule stops where the top eigenvalue is exact to
    # rounding on every workload operator (largest deviation 6.6e-15), the
    # small ones (q <= 160, which once took a dense eigvalsh) included
    assert any(size <= 160 for *_, size in workload_lanczos_runs)
    for name, _, top, dense, _ in workload_lanczos_runs:
        assert top == pytest.approx(dense, rel=1e-14, abs=0), name


def test_lanczos_on_claims_workload_keeps_its_basis_within_64_vectors(workload_lanczos_runs):
    # the residual rule alone took up to 80 products here, and the basis
    # grows from 64 to 128 rows at the 65th
    products = [run[1] for run in workload_lanczos_runs if run[0] == "claims-d1"]
    assert len(products) == 48
    assert max(products) <= 64


def test_lanczos_unsplit_top_pair_within_sqrt_eps():
    # a top pair 1e-10 apart that the Krylov space has not split when the
    # Ritz-value rule holds: theta - theta_2 is the gap to the rest of the
    # spectrum, not to the second eigenvalue, so the error is bounded only
    # by r <= sqrt(eps) theta (measured: 1.8e-11 to 7.2e-11 relative,
    # where the residual rule alone gave at most 1.2e-15)
    eps = np.finfo(float).eps
    rng = np.random.Generator(np.random.Philox(key=5))
    for q in (100, 300, 1000):
        ev = rng.uniform(0.0, 0.9, q)
        ev[:2] = 1.0, 1.0 - 1e-10
        basis, _ = np.linalg.qr(rng.standard_normal((q, q)))
        a = (basis * ev) @ basis.T
        a = (a + a.T) / 2
        top = lsq._lanczos_top(aslinearoperator(a))
        assert abs(top - np.linalg.eigvalsh(a)[-1]) <= math.sqrt(eps) * top


def test_spectral_norm_bounded_by_frobenius():
    basis, _, pts = make_instance(SP1, 8, 64, 128, 19)
    b = weighted_matrix(pts, basis)
    gamma = b[:, 8:] * basis.sigma[8:64]
    gram = ViewGram(b[:, 8:], basis.sigma[8:64])
    s_gam = math.sqrt(spectral_norm(gram))
    assert s_gam <= np.linalg.norm(gamma) * (1 + 1e-12)
    assert s_gam > 0
    assert math.sqrt(gram.trace()) == pytest.approx(np.linalg.norm(gamma), rel=1e-12)


def test_view_gram_forms_no_gamma():
    # both Gram operators of Gamma = B[:, k:] diag(sigma), from the Gram's
    # tail block (structured, at d = 2 with n >= m) and from the view
    # B[:, k:], agree with Gamma formed explicitly, in norm and trace
    basis, _, pts = make_instance(SpaceParams(2, 0.75), 12, 96, 256, 8)
    view, sigma = dense_matrix(pts)[:, 12:], basis.sigma[12:96]
    gamma = view * sigma
    dense = BlockGram([pts.gram(slice(12, 96), slice(12, 96))], sigma)
    assert dense.shape == (84, 84)
    formed = operator_matrix(dense)
    assert np.allclose(formed, gamma.T @ gamma, rtol=0, atol=1e-13 * np.max(gamma.T @ gamma))
    op = ViewGram(view, sigma)
    v = np.random.Generator(np.random.Philox(key=3)).standard_normal(84)
    assert np.allclose(op.matvec(v), gamma.T @ (gamma @ v), rtol=1e-12, atol=1e-12)
    exact = svd_norm(gamma) ** 2
    for gram in (dense, op):
        assert spectral_norm(gram) == pytest.approx(exact, rel=1e-11)
        assert gram.trace() == pytest.approx(np.linalg.norm(gamma) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        ViewGram(view, sigma[1:])
    with pytest.raises(ValueError):
        BlockGram([pts.gram(slice(12, 96), slice(12, 96))], sigma[1:])


@pytest.mark.parametrize("q, width", [(300, 256), (600, 256), (97, 40), (5, 1)])
def test_block_gram_of_upper_panels_is_the_whole_block(q, width):
    # the upper column panels A[:hi, lo:hi] give the products and trace of
    # the whole symmetric block, which is one whole-width panel
    rng = np.random.Generator(np.random.Philox(key=q))
    mat = rng.standard_normal((q + 3, q))
    block = mat.T @ mat
    sigma = rng.random(q) + 0.5
    whole = BlockGram([block], sigma)
    panels = BlockGram([block[: min(lo + width, q), lo : lo + width] for lo in range(0, q, width)], sigma)
    scale = np.max(np.abs(block)) * q
    for v in (*rng.standard_normal((3, q)), *np.eye(q)):
        expected = sigma * (block @ (sigma * v))
        assert np.array_equal(whole.matvec(v), expected)
        assert np.max(np.abs(panels.matvec(v) - expected)) <= 1e-14 * scale
    assert whole.trace() == float(np.diagonal(block) @ sigma ** 2)
    assert panels.trace() == pytest.approx(whole.trace(), rel=1e-14)
    # panels that stop short of q, skip a row of the diagonal block, or
    # start past column 0
    for bad in ([block[:, : q - 1]], [block[: q - 1, :]], [block[1:, 1:]]):
        with pytest.raises(ValueError):
            BlockGram(bad, sigma)


@given(
    d=st.integers(1, 3),
    s=st.sampled_from((0.75, 1.0, 2.0)),
    k=st.integers(1, 16),
    m_extra=st.integers(1, 48),
    n_extra=st.integers(0, 64),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_spectral_norm_between_column_and_frobenius_norms(d, s, k, m_extra, n_extra, seed):
    m = min(k + m_extra, 64)
    basis, _, pts = make_instance(SpaceParams(d, s), k, m, 2 * k + n_extra, seed)
    b = weighted_matrix(pts, basis)
    gamma = b[:, k:] * basis.sigma[k:m]
    s_gam = math.sqrt(spectral_norm(ViewGram(b[:, k:], basis.sigma[k:m])))
    # rounding slack on both sides: with one column all three norms coincide
    assert np.max(np.linalg.norm(gamma, axis=0)) <= s_gam * (1 + 1e-12)
    assert s_gam <= np.linalg.norm(gamma) * (1 + 1e-12)
