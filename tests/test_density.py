import math

import numpy as np
import pytest
import scipy.stats

from samplerec.density import (
    DensityParams,
    PointSet,
    density_eval,
    density_selfcheck,
    density_values,
    factor_cdf,
    inverse_cdf_1d,
    sample_points,
    truncated_density,
)
from samplerec.spectral import SpaceParams, ordered_basis

SP1 = SpaceParams(1, 1.0)
SP2 = SpaceParams(2, 1.0)


def make_density(params, k, m):
    return truncated_density(ordered_basis(params, m + 1), k, m)


def test_truncated_density_weights():
    dens = make_density(SP1, 1, 3)
    # positions 2 and 3 share weight 2, so the tail mixture is 1/2, 1/2
    assert np.allclose(dens.tail_weights, [0.5, 0.5], atol=1e-15)
    assert dens.tail_weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        truncated_density(ordered_basis(SP1, 4), 0, 3)
    with pytest.raises(ValueError):
        truncated_density(ordered_basis(SP1, 4), 3, 3)
    with pytest.raises(ValueError):
        truncated_density(ordered_basis(SP1, 4), 1, 5)


def test_density_uniform_case():
    # k=1, m=3: the head is the constant, the tail pair sums to a constant
    dens = make_density(SP1, 1, 3)
    grid = np.linspace(0, 1, 257, endpoint=False)[:, None]
    values = density_values(dens, grid)
    assert np.max(np.abs(values - 1.0)) < 1e-14


def test_density_positive_and_above_floor():
    for params, k, m in ((SP1, 4, 16), (SP1, 7, 21), (SP2, 4, 20)):
        dens = make_density(params, k, m)
        rng = np.random.Generator(np.random.Philox(key=8))
        pts = rng.random((2000, params.d))
        values = density_values(dens, pts)
        assert np.all(values >= 1.0 / (2.0 * k) - 1e-12)


def test_density_eval_matches_vector_form():
    dens = make_density(SP2, 3, 12)
    x = np.array([0.21, 0.77])
    assert density_eval(dens, x) == density_values(dens, x[None, :])[0]
    with pytest.raises(ValueError):
        density_eval(dens, np.array([0.21, 1.0]))


def test_density_integrates_to_one_by_quadrature():
    for params, k, m, res in ((SP1, 4, 16, 256), (SP2, 4, 20, 64)):
        dens = make_density(params, k, m)
        value = density_selfcheck(dens, res)
        assert abs(value - 1.0) <= 1e-10


def test_density_selfcheck_rejects_coarse_grid():
    dens = make_density(SP1, 4, 16)
    with pytest.raises(ValueError):
        density_selfcheck(dens, 4 * 8 - 1)  # largest frequency here is 8


def test_inverse_cdf_known_points():
    assert inverse_cdf_1d("constant", 0.3) == pytest.approx(0.3, abs=1e-12)
    assert inverse_cdf_1d("cos", 0.5, freq=1) == pytest.approx(0.5, abs=1e-9)
    x = inverse_cdf_1d("sin", 0.25, freq=1)
    assert x - math.sin(4 * math.pi * x) / (4 * math.pi) == pytest.approx(0.25, abs=1e-12)


def test_inverse_cdf_inverts_to_tolerance():
    rng = np.random.Generator(np.random.Philox(key=21))
    u = rng.random(500)
    for kind in ("cos", "sin"):
        for freq in (1, 2, 3, 7):
            x = inverse_cdf_1d(kind, u, freq=freq)
            sign = 1.0 if kind == "cos" else -1.0
            back = x + sign * np.sin(4 * np.pi * freq * x) / (4 * np.pi * freq)
            assert np.max(np.abs(back - u)) <= 1e-12
            assert np.all((x >= 0) & (x < 1))
    x = inverse_cdf_1d("constant", u)
    assert np.max(np.abs(x - u)) <= 1e-12


def test_inverse_cdf_argument_errors():
    with pytest.raises(ValueError):
        inverse_cdf_1d("cos", 0.5)
    with pytest.raises(ValueError):
        inverse_cdf_1d("tan", 0.5, freq=1)
    with pytest.raises(ValueError):
        inverse_cdf_1d("constant", 1.0)
    with pytest.raises(ValueError):
        inverse_cdf_1d("constant", -0.1)


def test_factor_cdf_endpoints_and_monotone():
    x = np.linspace(0, 1, 401)
    for flat in (0, 1, 2, 5, 8):
        cdf = factor_cdf(flat, x)
        assert cdf[0] == pytest.approx(0.0, abs=1e-15)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= -1e-15)


def test_sample_points_shapes_and_determinism():
    dens = make_density(SP2, 4, 20)
    pts1 = sample_points(dens, 200, 77)
    pts2 = sample_points(dens, 200, 77)
    assert pts1.points.shape == (200, 2)
    assert np.array_equal(pts1.points, pts2.points)
    assert np.array_equal(pts1.densities, pts2.densities)
    assert not np.array_equal(pts1.points, sample_points(dens, 200, 78).points)
    assert np.all((pts1.points >= 0) & (pts1.points < 1))
    with pytest.raises(ValueError):
        sample_points(dens, 0, 1)


def test_sample_points_prefix_stability():
    # counter-based substreams: the first points do not depend on n
    dens = make_density(SP1, 4, 16)
    small = sample_points(dens, 50, 5)
    big = sample_points(dens, 400, 5)
    assert np.array_equal(small.points, big.points[:50])


def test_sampled_densities_match_recomputation():
    dens = make_density(SP1, 4, 16)
    pts = sample_points(dens, 300, 9)
    assert np.array_equal(pts.densities, density_values(dens, pts.points))
    assert np.all(pts.densities >= 1.0 / 8.0 - 1e-12)
    # the kept weighted matrix is read-only, since instances share it
    assert pts.B.shape == (300, 16) and not pts.B.flags.writeable


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((3, 1)), densities=np.array([1.0, 0.0, 1.0]), seed=0, n=3)
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((3, 1)), densities=np.ones(2), seed=0, n=3)
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((3, 1)), densities=np.ones(3), seed=0, n=3, B=np.ones((2, 4)))


def test_uniform_case_sampling_is_uniform():
    dens = make_density(SP1, 1, 3)
    pts = sample_points(dens, 100_000, 1234)
    stat = scipy.stats.kstest(pts.points[:, 0], "uniform").statistic
    assert stat < 0.01


def mixture_bin_probs(dens, edges):
    probs = np.zeros(len(edges) - 1)
    half_k = 0.5 / dens.k
    for j in range(dens.m):
        flat = int(dens.basis.indices[j, 0])
        weight = half_k if j < dens.k else 0.5 * dens.tail_weights[j - dens.k]
        cdf = factor_cdf(flat, edges)
        probs += weight * np.diff(cdf)
    return probs


def test_sampling_histogram_matches_density():
    dens = make_density(SP1, 4, 16)
    n = 1_000_000
    pts = sample_points(dens, n, 31415)
    edges = np.linspace(0.0, 1.0, 101)
    counts, _ = np.histogram(pts.points[:, 0], bins=edges)
    probs = mixture_bin_probs(dens, edges)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    se = np.sqrt(n * probs * (1.0 - probs))
    assert np.max(np.abs(counts - n * probs) / se) < 5.0


def test_sampling_chi_square_goodness_of_fit():
    dens = make_density(SP1, 4, 16)
    n = 200_000
    pts = sample_points(dens, n, 2718)
    edges = np.linspace(0.0, 1.0, 101)
    counts, _ = np.histogram(pts.points[:, 0], bins=edges)
    expected = n * mixture_bin_probs(dens, edges)
    expected *= counts.sum() / expected.sum()
    result = scipy.stats.chisquare(counts, f_exp=expected)
    assert result.pvalue > 1e-3


def test_sampling_d2_marginal_histogram():
    # each coordinate of the d=2 sample follows its own mixture of factor CDFs
    dens = make_density(SP2, 4, 20)
    n = 200_000
    pts = sample_points(dens, n, 999)
    edges = np.linspace(0.0, 1.0, 51)
    for axis in range(2):
        probs = np.zeros(50)
        for j in range(dens.m):
            flat = int(dens.basis.indices[j, axis])
            weight = 0.5 / dens.k if j < dens.k else 0.5 * dens.tail_weights[j - dens.k]
            probs += weight * np.diff(factor_cdf(flat, edges))
        counts, _ = np.histogram(pts.points[:, axis], bins=edges)
        se = np.sqrt(n * probs * (1.0 - probs))
        assert np.max(np.abs(counts - n * probs) / se) < 5.0
