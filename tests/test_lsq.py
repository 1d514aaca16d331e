import math

import numpy as np
import pytest

from samplerec.density import PointSet, sample_points, truncated_density
from samplerec.lsq import (
    InfoMatrices,
    RANK_RTOL,
    build_matrices,
    fit,
    head_svd,
    singular_extrema,
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
    pts = sample_points(dens, n, seed)
    return basis, dens, pts, build_matrices(pts, basis, k, m)


def test_build_matrices_shapes_and_blocks():
    basis, _, pts, info = make_instance(SP1, 8, 32, 64, 42)
    assert info.G.shape == (64, 8)
    assert info.B.shape == (64, 32)
    assert info.Gamma.shape == (64, 24)
    assert np.array_equal(info.G, info.B[:, :8])
    # Gamma columns are the tail of B scaled by sigma
    assert np.allclose(info.Gamma, info.B[:, 8:] * basis.sigma[8:32], atol=1e-15)


def test_build_matrices_entries_match_composition():
    basis, _, pts, info = make_instance(SP1, 8, 32, 64, 42)
    for i in range(0, 64, 7):
        w = 1.0 / math.sqrt(pts.densities[i])
        for j in range(32):
            expected = basis_eval(basis.indices[j], pts.points[i]) * w
            assert info.B[i, j] == pytest.approx(expected, abs=1e-14)


def test_build_matrices_argument_errors():
    basis, _, pts, _ = make_instance(SP1, 8, 32, 64, 42)
    with pytest.raises(ValueError):
        build_matrices(pts, basis, 0, 32)
    with pytest.raises(ValueError):
        build_matrices(pts, basis, 8, 34)  # basis has 33 entries
    small = sample_points(truncated_density(basis, 8, 32), 4, 1)
    with pytest.raises(ValueError):
        build_matrices(small, basis, 8, 32)


def test_build_matrices_reuses_sampling_matrix():
    for params, k, m, n in ((SP1, 8, 32, 64), (SpaceParams(2, 0.75), 6, 48, 96)):
        basis, _, pts, info = make_instance(params, k, m, n, 19)
        expected = basis_matrix(basis, pts.points, m) / np.sqrt(pts.densities)[:, None]
        assert np.array_equal(info.B, expected)
        assert info.B is pts.B
        assert np.shares_memory(info.G, info.B)
        assert np.array_equal(info.Gamma, info.B[:, k:] * basis.sigma[k:m])


def test_build_matrices_needs_matching_matrix():
    basis, _, pts, _ = make_instance(SP1, 8, 32, 64, 42)
    with pytest.raises(ValueError):
        build_matrices(pts, basis, 8, 24)  # sampled with m=32
    shorter = sample_points(truncated_density(basis, 8, 24), 64, 42)
    with pytest.raises(ValueError):
        build_matrices(shorter, basis, 8, 32)
    bare = PointSet(points=pts.points, densities=pts.densities, seed=pts.seed, n=pts.n)
    with pytest.raises(ValueError):
        build_matrices(bare, basis, 8, 32)


def test_uniform_case_head_column_is_constant():
    # k=1, m=3 gives density 1, so G is the constant column and s_min = sqrt(n)
    basis = ordered_basis(SP1, 4)
    dens = truncated_density(basis, 1, 3)
    pts = sample_points(dens, 256, 3)
    info = build_matrices(pts, basis, 1, 3)
    s_min, s_max = singular_extrema(info.G)
    assert s_min == pytest.approx(math.sqrt(256.0), rel=1e-12)
    assert s_max == pytest.approx(math.sqrt(256.0), rel=1e-12)


def test_singular_extrema_known_matrices():
    s_min, s_max = singular_extrema(np.eye(3))
    assert (s_min, s_max) == (1.0, 1.0)
    tall = np.vstack([np.diag([3.0, 1.0, 2.0]), np.zeros((2, 3))])
    s_min, s_max = singular_extrema(tall)
    assert s_min == pytest.approx(1.0)
    assert s_max == pytest.approx(3.0)


def test_fit_recovers_single_basis_function():
    basis, _, pts, info = make_instance(SP1, 8, 32, 64, 7)
    samples = np.array([basis_eval(basis.indices[2], x) for x in pts.points])
    res = fit(info, samples, pts)
    expected = np.zeros(8)
    expected[2] = 1.0
    assert res.rank_ok
    assert np.max(np.abs(res.coefficients - expected)) < 1e-10


def test_fit_zero_samples_zero_coefficients():
    _, _, pts, info = make_instance(SP1, 4, 12, 32, 5)
    res = fit(info, np.zeros(32), pts)
    assert np.all(res.coefficients == 0.0)


def test_fit_reproduces_head_functions():
    basis, _, pts, info = make_instance(SP1, 8, 32, 128, 11)
    worst = 0.0
    for t in range(100):
        f = random_unit_function(basis, (1, 8), t)
        res = fit(info, f.evaluate(pts.points), pts)
        assert res.rank_ok
        worst = max(worst, float(np.max(np.abs(res.coefficients - f.c[:8]))))
    assert worst < 1e-9


def test_fit_is_weighted_least_squares_optimum():
    basis, _, pts, info = make_instance(SP1, 6, 18, 48, 13)
    f = random_unit_function(basis, (1, 18), 4)
    samples = f.evaluate(pts.points)
    res = fit(info, samples, pts)
    y = samples / np.sqrt(pts.densities)
    base = np.linalg.norm(info.G @ res.coefficients - y)
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(20):
        direction = rng.standard_normal(6)
        perturbed = res.coefficients + 1e-3 * direction
        assert np.linalg.norm(info.G @ perturbed - y) >= base - 1e-12


def test_fit_conditioning_fields():
    _, _, pts, info = make_instance(SP1, 8, 32, 64, 42)
    res = fit(info, np.zeros(64), pts)
    s_min, s_max = singular_extrema(info.G)
    assert res.s_min_G == pytest.approx(s_min)
    assert res.s_max_G == pytest.approx(s_max)
    assert res.pinv_norm == pytest.approx(1.0 / s_min)
    assert res.rank_ok


def test_fit_flags_rank_deficiency_without_rejecting():
    # two repeated points cannot resolve a 3-dim head
    basis = ordered_basis(SP1, 7)
    dens = truncated_density(basis, 3, 6)
    pts = sample_points(dens, 2, 1)
    info_full = InfoMatrices(
        G=np.ones((2, 3)), B=np.ones((2, 6)), Gamma=np.ones((2, 3)), k=3, m=6
    )
    res = fit(info_full, np.ones(2), pts.__class__(points=pts.points[:2], densities=np.ones(2), seed=0, n=2))
    assert not res.rank_ok
    assert res.pinv_norm is None
    assert res.coefficients.shape == (3,)
    assert np.all(np.isfinite(res.coefficients))


def test_head_svd_rebuilds_g():
    rng = np.random.Generator(np.random.Philox(key=23))
    for shape in ((7, 4), (40, 7), (512, 64), (64, 64)):
        g = rng.standard_normal(shape)
        head = head_svd(g)
        assert head.u.shape == shape and head.sv.shape == (shape[1],) and head.vt.shape == (shape[1],) * 2
        assert np.max(np.abs((head.u * head.sv) @ head.vt - g)) <= 1e-12 * head.s_max
        assert np.all(np.diff(head.sv) <= 0.0)


def test_head_svd_agrees_with_singular_extrema():
    _, _, pts, info = make_instance(SP1, 8, 32, 128, 3)
    head = head_svd(info.G)
    s_min, s_max = singular_extrema(info.G)
    assert head.s_min == pytest.approx(s_min, rel=1e-12)
    assert head.s_max == pytest.approx(s_max, rel=1e-12)
    assert np.allclose(head.sv, np.linalg.svd(info.G, compute_uv=False), rtol=1e-12, atol=0.0)
    assert head.rank_ok
    assert fit(info, np.zeros(128), pts).pinv_norm * head.s_min == pytest.approx(1.0, abs=1e-10)


def test_head_svd_rank_cutoff():
    g = np.diag([1.0, 1e-14, 0.0])
    assert not head_svd(g).rank_ok
    # the fit's map is G^+ with singular values at or below the cutoff
    # treated as zero; its columns are the fits of unit sample vectors
    info = InfoMatrices(G=g, B=np.hstack([g, g]), Gamma=g, k=3, m=6)
    pts = PointSet(points=np.zeros((3, 1)), densities=np.ones(3), seed=0, n=3)
    gp = np.column_stack([fit(info, e, pts).coefficients for e in np.eye(3)])
    assert gp[0, 0] == pytest.approx(1.0)
    assert gp[1, 1] == 0.0
    assert gp[2, 2] == 0.0
    assert RANK_RTOL == 1e-10
    assert head_svd(np.diag([1.0, 2e-10])).rank_ok
    assert not head_svd(np.diag([1.0, 1e-10])).rank_ok


def test_spectral_norm_paths_agree():
    rng = np.random.Generator(np.random.Philox(key=29))
    mat = rng.standard_normal((300, 500))
    exact = spectral_norm(mat, method="svd")
    assert spectral_norm(mat, method="gram") == pytest.approx(exact, rel=1e-11)
    assert spectral_norm(mat, method="lanczos") == pytest.approx(exact, rel=1e-9)
    assert spectral_norm(mat) == pytest.approx(exact, rel=1e-9)
    with pytest.raises(ValueError):
        spectral_norm(mat, method="qr")


def test_spectral_norm_bounded_by_frobenius():
    _, _, pts, info = make_instance(SP1, 8, 64, 128, 19)
    s_gam = spectral_norm(info.Gamma)
    assert s_gam <= np.linalg.norm(info.Gamma) * (1 + 1e-12)
    assert s_gam > 0
