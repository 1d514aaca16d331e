import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from samplerec import density, experiments, expsums, spectral
from samplerec.density import (
    MAX_POINTS,
    MAX_TRUNCATION,
    DensityParams,
    PointSet,
    _factor_cdf,
    _invert_factor_cdf,
    density_selfcheck,
    dense_matrix,
    density_values,
    sample_points,
    truncated_density,
)
from samplerec.rng import uniform_block
from samplerec.spectral import SpaceParams, basis_matrix, ordered_basis

SP1 = SpaceParams(1, 1.0)
SP2 = SpaceParams(2, 1.0)
SP3 = SpaceParams(3, 1.0)


def make_density(params, k, m):
    return truncated_density(ordered_basis(params, m + 1), k, m)


def factor_kinds(flat):
    """Sign (0 constant, +1 cosine, -1 sine) and frequency of flat indices,
    the per-factor arguments of the vector CDF and its inverse."""
    flat = np.asarray(flat)
    return np.where(flat == 0, 0.0, np.where(flat % 2 == 0, 1.0, -1.0)), (flat + 1) // 2


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


def test_density_integrates_to_one_by_quadrature():
    for params, k, m, res in ((SP1, 4, 16, 256), (SP2, 4, 20, 64)):
        dens = make_density(params, k, m)
        value = density_selfcheck(dens, res)
        assert abs(value - 1.0) <= 1e-10


def cut_class_tuples(dens):
    """Tuples among the first m in the tie classes at positions k and m - 1,
    the only ones whose squares can leave a cosine term."""
    weights = dens.basis.weights[: dens.m]
    return int(np.count_nonzero((weights == weights[dens.k]) | (weights == weights[dens.m - 1])))


def assert_closed_form_is_the_mixture(dens, points):
    """density_values against the density's definition, the mixture of the
    squared basis functions of basis_matrix, and its term count."""
    d = dens.basis.params.d
    mixture = one_shot_mixture(dens, basis_matrix(dens.basis, points, dens.m))
    assert np.max(np.abs(density_values(dens, points) / mixture - 1.0)) <= 1e-14
    assert dens.freqs.shape == (len(dens.coefs), d) and np.all(dens.coefs != 0)
    assert len(dens.coefs) <= 2 ** d * cut_class_tuples(dens)


@given(
    d=st.integers(1, 4),
    s=st.sampled_from((0.6, 0.75, 1.0, 1.3, 2.0)),
    k=st.integers(1, 8),
    m_extra=st.integers(1, 40),
)
@settings(max_examples=40)
def test_density_unit_mass_property(d, s, k, m_extra):
    # the runners' resolution rule: at least 16, and 4 times the largest
    # frequency, which integrates the squared basis functions exactly
    m = k + m_extra
    dens = make_density(SpaceParams(d, s), k, m)
    resolution = max(16, 4 * dens.basis.max_frequency(m))
    assert abs(density_selfcheck(dens, resolution) - 1.0) <= 1e-10
    # the closed form, against the mixture on the grid's first coordinate
    # line and at random points
    line = np.zeros((resolution, d))
    line[:, 0] = np.arange(resolution) / resolution
    points = np.random.Generator(np.random.Philox(key=d)).random((256, d))
    assert_closed_form_is_the_mixture(dens, np.vstack((line, points)))


@pytest.mark.parametrize("k, m", [(103, 160), (107, 300), (20, 106), (20, 110), (102, 111), (112, 113)])
def test_closed_form_at_cuts_inside_a_tie_class(k, m):
    # at d = 2, s = 1 the weight-100 class is the sign patterns of the
    # frequency vectors (1, 7), (3, 3) and (7, 1), positions 101-112: a
    # cut at k or m inside it leaves the split groups' cosine terms
    dens = truncated_density(ordered_basis(SP2, 320), k, m)
    assert list(np.flatnonzero(dens.basis.weights == 100.0)) == list(range(101, 113))
    assert len(dens.coefs) > 0 and cut_class_tuples(dens) >= 2
    points = np.random.Generator(np.random.Philox(key=k)).random((512, 2))
    assert_closed_form_is_the_mixture(dens, points)


def test_closed_form_of_whole_groups_is_the_constant():
    # cuts between tie classes leave no term: k = 1, m = 3 at d = 1 is the
    # uniform density, at d = 2 the head 0..4 and tail 5..8 hold whole
    # classes, and at d = 3 the tail 1..24 holds whole classes (the last
    # the 4 sign patterns of each of (1, 1, 0), (1, 0, 1) and (0, 1, 1)),
    # whose +-mu summed in floating point would leave terms of 1e-18 where
    # their integer sums leave none
    for params, k, m in ((SP1, 1, 3), (SP2, 5, 9), (SpaceParams(3, 0.6), 1, 25)):
        dens = make_density(params, k, m)
        weights = dens.basis.weights
        assert weights[k - 1] < weights[k] and weights[m - 1] < weights[m]
        assert len(dens.coefs) == 0
        assert np.array_equal(density_values(dens, np.random.default_rng(0).random((64, params.d))), np.ones(64))


def test_density_selfcheck_rejects_coarse_grid():
    dens = make_density(SP1, 4, 16)
    with pytest.raises(ValueError):
        density_selfcheck(dens, 4 * 8 - 1)  # largest frequency here is 8


def test_inverse_cdf_known_points():
    # sign 0 is the constant factor, +1 the cosine, -1 the sine
    assert float(_invert_factor_cdf(0.0, 0, np.array(0.3))) == pytest.approx(0.3, abs=1e-12)
    assert float(_invert_factor_cdf(1.0, 1, np.array(0.5))) == pytest.approx(0.5, abs=1e-9)
    x = float(_invert_factor_cdf(-1.0, 1, np.array(0.25)))
    assert x - math.sin(4 * math.pi * x) / (4 * math.pi) == pytest.approx(0.25, abs=1e-12)


def test_inverse_cdf_inverts_to_tolerance():
    rng = np.random.Generator(np.random.Philox(key=21))
    u = rng.random(500)
    for sign in (1.0, -1.0):
        for freq in (1, 2, 3, 7):
            x = _invert_factor_cdf(sign, freq, u)
            back = x + sign * np.sin(4 * np.pi * freq * x) / (4 * np.pi * freq)
            assert np.max(np.abs(back - u)) <= 1e-12
            assert np.all((x >= 0) & (x < 1))
    x = _invert_factor_cdf(0.0, 0, u)
    assert np.max(np.abs(x - u)) <= 1e-12


@st.composite
def factor_draws(draw):
    """Arrays of (sign, f, u) for the factor-CDF inverse: sign in {-1, 0, 1},
    f in [1, 2^14), and u at 0, at 1 - 2^-53, uniform, or within 1e-13 of a
    flat point of the factor's CDF (j / (2 f) for the sine and the
    constant, (j + 1/2) / (2 f) for the cosine, where F(x) = x)."""
    size = draw(st.integers(1, 40))
    sign = draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=size, max_size=size))
    freq = draw(st.lists(st.integers(1, 2**14 - 1), min_size=size, max_size=size))
    u = []
    for s, f in zip(sign, freq):
        kind = draw(st.sampled_from(("zero", "top", "uniform", "flat")))
        if kind == "zero":
            u.append(0.0)
        elif kind == "top":
            u.append(1.0 - 2.0**-53)
        elif kind == "uniform":
            u.append(draw(st.floats(0.0, 1.0, exclude_max=True)))
        else:
            flat = (draw(st.integers(0, 2 * f)) + (0.5 if s > 0 else 0.0)) / (2 * f)
            u.append(min(max(flat + draw(st.floats(-1e-13, 1e-13)), 0.0), 1.0 - 2.0**-53))
    return np.array(sign), np.array(freq), np.array(u)


@given(draws=factor_draws(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_inverse_cdf_residual_and_order_independence(draws, data):
    # the documented residual bound, and each x depends on its own (sign, f,
    # u) alone: the inverse of a permutation or a slice of the inputs is the
    # same permutation or slice of the output, bit for bit
    sign, freq, u = draws
    x = _invert_factor_cdf(sign, freq, u)
    assert np.all((x >= 0.0) & (x < 1.0))
    assert np.max(np.abs(_factor_cdf(sign, freq, x) - u)) <= 2.0**-50
    perm = np.array(data.draw(st.permutations(range(len(u)))), dtype=np.int64)
    assert np.array_equal(_invert_factor_cdf(sign[perm], freq[perm], u[perm]), x[perm])
    part = slice(data.draw(st.integers(0, len(u) - 1)), data.draw(st.integers(1, len(u))), data.draw(st.integers(1, 3)))
    assert np.array_equal(_invert_factor_cdf(sign[part], freq[part], u[part]), x[part])


def test_inverse_cdf_memory_stays_within_eight_arrays():
    # the inverse works in place on a fixed set of n x d arrays: at n = 4096,
    # d = 2 its peak is at most 8 n d floats (the 48-step bisection it
    # replaced peaked at 7.1)
    n, d = 4096, 2
    u = uniform_block(5, (n, d + 2))[:, 2:]
    flat = np.random.Generator(np.random.Philox(key=8)).integers(0, 400, (n, d))
    sign, freq = factor_kinds(flat)
    _, peak = traced_peak(_invert_factor_cdf, sign, freq, u)
    assert peak <= 8 * 8 * n * d


def test_factor_cdf_endpoints_and_monotone():
    x = np.linspace(0, 1, 401)
    for flat in (0, 1, 2, 5, 8):
        cdf = _factor_cdf(*factor_kinds(flat), x)
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


def test_sample_points_rejects_seeds_outside_128_bits():
    # the seed is the Philox key, refused as numpy.random refused it
    dens = make_density(SP1, 4, 16)
    assert sample_points(dens, 4, (1 << 128) - 1).points.shape == (4, 1)
    for seed in (-1, 1 << 128):
        with pytest.raises(ValueError, match="less than 2"):
            sample_points(dens, 4, seed)


def test_sampled_densities_match_recomputation():
    dens = make_density(SP2, 4, 20)
    pts = sample_points(dens, 300, 9)
    assert np.array_equal(pts.densities, density_values(dens, pts.points))
    assert np.all(pts.densities >= 1.0 / 8.0 - 1e-12)
    # at d = 2 with m <= n the instance keeps its staircase sums in place
    # of B, and B is evaluated on request
    assert pts.B is None and isinstance(pts.sums, expsums.Staircase) and pts.sums.values.shape[0] == 4
    assert dense_matrix(pts).shape == (300, 20)
    assert (pts.k, pts.m) == (4, 20)
    # and so at d = 3, with one sum per cos/sin choice in each coordinate
    dens3 = make_density(SP3, 4, 20)
    pts = sample_points(dens3, 300, 9)
    assert np.array_equal(pts.densities, density_values(dens3, pts.points))
    assert np.all(pts.densities >= 1.0 / 8.0 - 1e-12)
    assert pts.B is None and isinstance(pts.sums, expsums.Staircase) and pts.sums.values.shape[0] == 8
    assert dense_matrix(pts).shape == (300, 20)
    assert (pts.k, pts.m) == (4, 20)
    # with m > n the weighted matrix itself is kept, read-only
    pts = sample_points(dens, 16, 9)
    assert pts.B.shape == (16, 20) and not pts.B.flags.writeable and pts.sums is None
    # at d = 1 the densities are density_values' too, and G is evaluated
    # on access
    dens = make_density(SP1, 4, 16)
    pts = sample_points(dens, 300, 9)
    assert np.array_equal(pts.densities, density_values(dens, pts.points))
    assert np.all(pts.densities >= 1.0 / 8.0 - 1e-12)
    assert pts.B is None and pts.G.shape == (300, 4) and not pts.G.flags.writeable
    assert (pts.k, pts.m) == (4, 16)


@pytest.mark.parametrize("d, n, m", [(1, 300, 16), (1, 12, 16), (2, 300, 20), (3, 300, 20), (2, 16, 20), (3, 16, 20)])
def test_every_draw_takes_the_form_of_its_d_and_m(d, n, m):
    # d = 1, whatever n, and m <= n at every d hold the staircase (2^d
    # cos/sin kinds, at d = 1 one box) and no B; d >= 2 with m > n holds B
    dens = make_density(SpaceParams(d, 1.0), 4, m)
    pts = sample_points(dens, n, 9)
    if d == 1 or m <= n:
        assert pts.B is None and isinstance(pts.sums, expsums.Staircase) and pts.sums.basis is dens.basis
        assert pts.sums.values.shape[0] == 2 ** d and pts.sums.starts.ndim == d - 1
    else:
        assert pts.sums is None and pts.B.shape == (n, m) and not pts.B.flags.writeable


def test_density_values_rejects_points_outside_the_cube():
    dens = make_density(SP2, 4, 16)
    for bad in (1.0, -0.25, np.nan):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\)\^d"):
            density_values(dens, np.array([[0.5, 0.5], [0.25, bad]]))
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        density_values(dens, np.array([[0.5]]))


def test_point_set_validation():
    def point_set(densities=np.ones(3), b=np.ones((3, 4)), k=2):
        return PointSet(points=np.zeros((3, 1)), densities=densities, B=b, k=k)

    assert (point_set().n, point_set().m) == (3, 4)
    with pytest.raises(ValueError):
        point_set(densities=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="strictly positive"):
        point_set(densities=np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        point_set(densities=np.ones(2))
    with pytest.raises(ValueError):
        point_set(b=np.ones((2, 4)))
    with pytest.raises(ValueError):
        point_set(b=np.ones(3))
    # the head size must leave a nonempty head and a nonempty tail
    for k in (0, -1, 4, 5):
        with pytest.raises(ValueError):
            point_set(k=k)
    # B is required
    with pytest.raises(TypeError):
        PointSet(points=np.zeros((3, 1)), densities=np.ones(3), k=2)


def test_sample_points_checks_dense_caps_before_allocating(monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("basis evaluated past the dense caps")

    monkeypatch.setattr(density, "basis_matrix", no_evaluation)
    dens = make_density(SP1, 4, 16)
    # n * m one entry past MAX_POINTS * MAX_TRUNCATION: an n x m matrix of
    # 1 GiB, refused before the uniforms or the basis matrix are made
    with pytest.raises(ValueError, match="dense caps"):
        sample_points(dens, MAX_POINTS * MAX_TRUNCATION // 16 + 1, 1)
    monkeypatch.setattr(density, "MAX_TRUNCATION", 15)
    with pytest.raises(ValueError, match="dense caps"):
        sample_points(dens, 8, 1)


def test_uniform_case_sampling_is_uniform():
    dens = make_density(SP1, 1, 3)
    pts = sample_points(dens, 100_000, 1234)
    stat = scipy.stats.kstest(pts.points[:, 0], "uniform").statistic
    assert stat < 0.01


def mixture_bin_probs(dens, edges, axis=0):
    """Bin probabilities of one coordinate: the mixture of the factor CDFs."""
    weights = np.concatenate([np.full(dens.k, 0.5 / dens.k), 0.5 * dens.tail_weights])
    sign, freq = factor_kinds(dens.basis.indices[: dens.m, axis])
    cdf = _factor_cdf(sign[:, None], freq[:, None], edges)
    return weights @ np.diff(cdf, axis=1)


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


def assert_marginal_histograms(dens, n, seed):
    """Each coordinate of an n-point sample follows its own mixture of
    factor CDFs: every one of 50 bins within 5 standard errors."""
    pts = sample_points(dens, n, seed)
    edges = np.linspace(0.0, 1.0, 51)
    for axis in range(dens.basis.params.d):
        probs = mixture_bin_probs(dens, edges, axis)
        counts, _ = np.histogram(pts.points[:, axis], bins=edges)
        se = np.sqrt(n * probs * (1.0 - probs))
        assert np.max(np.abs(counts - n * probs) / se) < 5.0


def test_sampling_d2_marginal_histogram():
    assert_marginal_histograms(make_density(SP2, 4, 20), 200_000, 999)


def test_sampling_d3_marginal_histogram():
    # a d = 3 draw with m <= n, in the staircase form
    assert_marginal_histograms(make_density(SP3, 4, 40), 200_000, 4242)


def one_shot_basis_matrix(basis, points, m):
    """The basis matrix as one n x m product per coordinate: the unblocked
    evaluation, kept as an oracle for the row-blocked one."""
    flat = basis.indices[:m]
    out = None
    for c in range(basis.params.d):
        distinct, inv = np.unique(flat[:, c], return_inverse=True)
        table, column = spectral._factor_table(distinct, points[:, c : c + 1])
        factor = table.take(column[inv], axis=1)
        if out is None:
            out = factor
        else:
            out *= factor
    return out


def one_shot_mixture(params, values):
    """The density from the whole n x m basis matrix at once: the mixture
    of squared basis functions that defines it."""
    bsq = values ** 2
    head = bsq[:, : params.k].sum(axis=1) / params.k
    tail = bsq[:, params.k :] @ params.tail_weights
    return 0.5 * (head + tail)


def block_boundary_mismatches():
    """The (d, n, what) cases where row-blocked evaluation differs in any bit
    from the one-shot oracles, or density_values on a row split from its
    whole-array values, or by more than 1e-14 relative from the one-shot
    mixture, at n around the row block of each width."""
    bad = []
    for params, k, m in ((SP1, 8, 64), (SpaceParams(2, 0.75), 123, 984), (SpaceParams(3, 0.6), 20, 160)):
        dens = make_density(params, k, m)
        block = spectral.row_blocks(1 << 20, m)[0].stop
        for n in (1, block - 1, block, block + 1, 3 * block + 5):
            pts = sample_points(dens, n, n)
            x = pts.points
            full = one_shot_basis_matrix(dens.basis, x, m)
            blocked = basis_matrix(dens.basis, x, m)
            if not (np.array_equal(blocked, full) and blocked.flags.c_contiguous):
                bad.append((params.d, n, "basis_matrix"))
            rho = density_values(dens, x)
            for cut in sorted({1, 7, n // 2, block, n - 1} & set(range(1, n))):
                if not np.array_equal(np.concatenate((density_values(dens, x[:cut]), density_values(dens, x[cut:]))), rho):
                    bad.append((params.d, n, f"density_values split at {cut}"))
            if not np.max(np.abs(rho / one_shot_mixture(dens, full) - 1.0)) <= 1e-14:
                bad.append((params.d, n, "density_values against the mixture"))
            full /= np.sqrt(rho)[:, None]
            if not np.array_equal(pts.densities, rho):
                bad.append((params.d, n, "densities"))
            dense = dense_matrix(pts)
            if not (np.array_equal(dense, full) and dense.flags.c_contiguous):
                bad.append((params.d, n, "B"))
    return bad


def test_row_blocks_keep_every_bit():
    # with one BLAS thread, as for the recorded CSV digests: with more, the
    # one-shot oracle's own matrix-vector product splits rows between
    # threads by n, and its low bits move with that split
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(spectral.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", "import test_density; print(test_density.block_boundary_mismatches())"],
        env=env, cwd=Path(__file__).parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def traced_peak(fn, *args):
    """fn(*args) and the peak of traced allocations above their level at entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def traced_peak_and_held(fn, *args):
    """fn(*args), the peak of traced allocations above their level at entry,
    and what the call still holds when it returns."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - entry, held - entry
    finally:
        tracemalloc.stop()


def test_sample_points_keeps_one_instance_sized_array():
    # with m <= n a d = 3 draw keeps its staircase sums and makes neither B
    # nor the Gram B^T B: at 2048 x 1712 (q = m - k = 1498) B would be
    # 26.8 MiB and the Gram 22.4 MiB; the sums (2.9 MiB) are the most of
    # what the call holds, under a fifth of the Gram
    d = 3
    n, k, m = 2048, 214, 1712
    dens = make_density(SpaceParams(d, 0.6), k, m)
    pts, peak, held = traced_peak_and_held(sample_points, dens, n, 3)
    assert pts.B is None and pts.sums.values.nbytes < m * m * 8 / 5
    assert peak < m * m * 8 / 2
    assert held < m * m * 8 / 5
    # with m > n the draw keeps B, and nothing else it makes is larger than
    # one row block or a few arrays per point
    n = 512
    pts, peak = traced_peak(sample_points, dens, n, 3)
    assert pts.B.nbytes == n * m * 8 and pts.sums is None
    assert peak <= pts.B.nbytes + spectral.ROW_BLOCK_BYTES + 16 * 8 * n * (d + 2)


@pytest.mark.parametrize("params, k, m, n", [(SpaceParams(2, 0.75), 123, 984, 1600), (SpaceParams(3, 0.6), 20, 160, 4000)])
def test_gram_form_matches_the_b_form(params, k, m, n):
    # the staircase form at d = 2 and 3 (m <= n, several row blocks of
    # points), and a draw of m / 2 points with the same seed (m > n), which
    # keeps B: the same points, row for row; in either form the densities
    # of density_values and B the weighted basis matrix, bit for bit; and
    # every Gram block within rounding of the m <= n draw's twin that
    # holds B
    dens = make_density(params, k, m)
    gram_pts = sample_points(dens, n, 7)
    assert gram_pts.B is None and len(spectral.row_blocks(n, m)) > 1
    b_pts = sample_points(dens, m // 2, 7)
    assert b_pts.sums is None
    assert np.array_equal(b_pts.points, gram_pts.points[: m // 2])
    for pts in (gram_pts, b_pts):
        assert np.array_equal(pts.densities, density_values(dens, pts.points))
    weighted = basis_matrix(dens.basis, b_pts.points, m) / np.sqrt(b_pts.densities)[:, None]
    assert np.array_equal(b_pts.B, weighted)
    twin = dataclasses.replace(gram_pts, B=dense_matrix(gram_pts))
    assert np.array_equal(gram_pts.G, twin.G)
    head, tail, every = slice(0, k), slice(k, m), slice(0, m)
    for rows, cols in ((head, head), (head, tail), (tail, tail), (every, every), (slice(5, 6), slice(3, m - 7))):
        block = gram_pts.gram(rows, cols)
        dense = twin.gram(rows, cols)
        assert block.shape == dense.shape and not block.flags.writeable
        assert np.max(np.abs(block - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("params, k, m, n", [
    (SpaceParams(2, 1.0), 3, 24, 64), (SpaceParams(2, 1.0), 13, 104, 256), (SpaceParams(2, 0.75), 36, 288, 1024),
])
def test_structured_d2_draw_matches_its_b_twin(params, k, m, n):
    # d = 2 with m <= n keeps the staircase sums and no Gram: the densities
    # are density_values' bit for bit, the sums those of staircase_sums
    # over the points and the first m basis functions, and every Gram
    # block, read-only, within rounding of the twin that holds B, over the
    # five slices of test_gram_form_matches_the_b_form
    dens = make_density(params, k, m)
    pts = sample_points(dens, n, 11)
    assert pts.B is None
    assert np.array_equal(pts.densities, density_values(dens, pts.points))
    again = expsums.staircase_sums(pts.points, 1.0 / pts.densities, dens.basis, m)
    assert np.array_equal(pts.sums.values, again.values) and np.array_equal(pts.sums.starts, again.starts)
    twin = dataclasses.replace(pts, B=dense_matrix(pts))
    assert np.array_equal(pts.G, twin.G)
    head, tail, every = slice(0, k), slice(k, m), slice(0, m)
    for rows, cols in ((head, head), (head, tail), (tail, tail), (every, every), (slice(5, 6), slice(3, m - 7))):
        block = pts.gram(rows, cols)
        dense = twin.gram(rows, cols)
        assert block.shape == dense.shape and not block.flags.writeable
        assert np.max(np.abs(block - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_both_forms_keep_one_contract():
    # a d = 2 staircase draw and its twin that holds B: gram refuses the
    # same slices with the same message, hands out read-only blocks that
    # agree, and m is the form's, not a field to replace
    k, m = 13, 104
    pts = sample_points(make_density(SP2, k, m), 256, 11)
    twin = dataclasses.replace(pts, B=dense_matrix(pts))
    assert pts.B is None and twin.B is not None and pts.m == twin.m == m
    for form in (pts, twin):
        for bad in (slice(0, m + 1), slice(-1, None), slice(0, 4, 2)):
            for rows, cols in ((bad, slice(0, k)), (slice(0, k), bad)):
                with pytest.raises(ValueError, match=rf"^need slices of positions 0\.\.{m - 1}, got"):
                    form.gram(rows, cols)
        with pytest.raises(TypeError):
            dataclasses.replace(form, m=m // 2)
    for rows, cols in ((slice(0, k), slice(k, m)), (slice(3, 40), slice(None)), (slice(m, m), slice(0, 1))):
        block, dense = pts.gram(rows, cols), twin.gram(rows, cols)
        assert not block.flags.writeable and not dense.flags.writeable
        assert block.shape == dense.shape
        assert np.max(np.abs(block - dense), initial=0.0) <= 1e-13 * np.max(np.abs(dense), initial=1.0)


def test_structured_d2_draw_and_tail_norm_hold_no_instance_sized_array():
    # the largest rates-d2-s075 instance: sampling makes no n x m array
    # (B, 30.8 MiB) and no m x m one (the Gram, 7.4 MiB), only row-block
    # temporaries and the sums; the tail norm holds the upper column panels
    # of the tail block, 3.6 MiB where the whole block is 5.7 MiB, and under
    # 2 MiB more: one panel's fill, the Lanczos basis
    n, k, m = 4096, 123, 984
    dens = make_density(SpaceParams(2, 0.75), k, m)
    pts, peak = traced_peak(sample_points, dens, n, 3)
    assert pts.B is None
    assert peak < m * m * 8 < n * m * 8
    width = density._GRAM_PANEL
    panels = sum(8 * (min(lo + width, m) - k) * (min(lo + width, m) - lo) for lo in range(k, m, width))
    assert panels < 0.65 * 8 * (m - k) ** 2
    s_gam, peak = traced_peak(experiments._checked_gamma_norm, pts, dens.basis)
    assert s_gam > 0
    assert peak <= panels + (2 << 20)


def test_staircase_draw_peaks_below_the_gram():
    # the largest rates-d2-s075 shape at d = 3: the staircase draw makes
    # no Gram (7.4 MiB, which the summed Gram form held with one 3.8 MiB
    # chunk of rows and peaked at 12.9 MiB) and no B (30.8 MiB)
    n, k, m = 4096, 123, 984
    dens = make_density(SpaceParams(3, 0.6), k, m)
    pts, peak = traced_peak(sample_points, dens, n, 2)
    assert pts.B is None and isinstance(pts.sums, expsums.Staircase)
    assert peak < m * m * 8


def upper_panels(pts):
    """The tail operator's upper column panels A[:hi, lo:hi] of the tail
    block A, with lo and hi from the tail block's first position."""
    return [(panel, panel.shape[0] - panel.shape[1]) for panel in pts.tail_gram(np.ones(pts.m - pts.k))._panels]


@pytest.mark.parametrize("n, k", [(1024, 36), (2048, 67), (4096, 123)])
def test_panelled_gram_is_the_one_product_gram_on_the_benchmark_shapes(n, k):
    # the rates-d2-s075 shapes (m = 8k) at d = 3, whose tail operators
    # hold one to four panels: each entry is read off the sums on its own, so
    # every panel holds the bits of one gram call over the whole tail
    # block, which is symmetric within rounding
    dens = make_density(SpaceParams(3, 0.6), k, 8 * k)
    pts = sample_points(dens, n, 2)
    tail = slice(k, 8 * k)
    whole = pts.gram(tail, tail)
    assert np.max(np.abs(whole - whole.T)) <= 1e-15 * np.max(np.abs(whole))
    panels = upper_panels(pts)
    assert len(panels) == -(-7 * k // density._GRAM_PANEL)
    for panel, lo in panels:
        assert np.array_equal(panel, whole[: panel.shape[0], lo : panel.shape[0]])


@pytest.mark.parametrize("params, k, m, n", [(SpaceParams(3, 0.6), 100, 800, 3000), (SpaceParams(3, 0.6), 67, 536, 2048)])
def test_panelled_gram_matches_the_one_product_gram(params, k, m, n):
    # a last panel narrower than the others: every panel within rounding
    # of the same panel of the twin's B^T B, one product of B's views
    pts = sample_points(make_density(params, k, m), n, 5)
    twin = dataclasses.replace(pts, B=dense_matrix(pts))
    dense = twin.gram(slice(k, m), slice(k, m))
    panels = upper_panels(pts)
    assert panels[-1][0].shape[1] < panels[0][0].shape[1]
    for panel, lo in panels:
        hi = panel.shape[0]
        assert np.max(np.abs(panel - dense[:hi, lo:hi])) <= 1e-13 * np.max(np.abs(dense))


def test_sample_points_at_d1_makes_no_head_sized_array():
    # the largest claims-d1 instance: its head block G would be n x k,
    # 6.7 MiB; the structured draw keeps the one-box staircase of the sums,
    # evaluates no basis function and makes its exponential tables one row
    # block at a time
    n, k, m = 2048, 429, 3432
    dens = make_density(SP1, k, m)
    pts, peak = traced_peak(sample_points, dens, n, 3)
    assert pts.B is None and pts.sums.values.shape == (2, 4 * dens.basis.max_frequency(m) + 1)
    assert peak < n * k * 8


def test_density_selfcheck_memory_stays_within_blocks():
    # the grid at the runners' resolution is 236^2 points, whose basis
    # matrix would take 418 MiB; only the density vector is kept
    dens = make_density(SpaceParams(2, 0.75), 123, 984)
    resolution = max(16, 4 * dens.basis.max_frequency(984))
    points = resolution ** 2
    assert points * 984 * 8 >= 400 << 20
    value, peak = traced_peak(density_selfcheck, dens, resolution)
    assert abs(value - 1.0) <= 1e-10
    assert peak <= 2 * spectral.ROW_BLOCK_BYTES + 4 * 8 * points * 3
