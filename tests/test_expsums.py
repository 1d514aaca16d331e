"""The structured d = 1 and d = 2 paths against their dense oracles: the
exponential sums, the Gram blocks and Toeplitz products they give, and the
norms and e_trunc read off them."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from samplerec import density, lsq, spectral
from samplerec.density import dense_matrix, sample_points, truncated_density
from samplerec.errors import worst_case_error_trunc
from samplerec.experiments import ExperimentConfig, _checked_gamma_norm, run_claims, run_rates
from samplerec.expsums import TailGram, exp_sums, exp_sums_2d, gram_block, gram_block_2d
from samplerec.lsq import head_factor, head_svd
from samplerec.spectral import SpaceParams, ordered_basis

SP1 = SpaceParams(1, 1.0)


def make_instance(k, m, n, seed, params=SP1):
    basis = ordered_basis(params, m + 1)
    pts = sample_points(truncated_density(basis, k, m), n, seed)
    return basis, pts


def with_dense_matrix(pts, basis):
    """The same instance in the dense form, B evaluated at its points."""
    return dataclasses.replace(pts, B=dense_matrix(pts))


def test_exp_sums_match_direct_sums():
    rng = np.random.Generator(np.random.Philox(key=3))
    x = rng.random(300)
    w = rng.random(300) + 0.5
    for h_max in (0, 1, 63, 64, 200):
        sums = exp_sums(x, w, h_max)
        assert sums.shape == (h_max + 1,)
        direct = np.array([np.sum(w * np.exp(2j * np.pi * h * x)) for h in range(h_max + 1)])
        assert np.max(np.abs(sums - direct)) <= 1e-12 * np.sum(w)
    assert exp_sums(x, w, 5)[0] == pytest.approx(np.sum(w), rel=1e-14)


def test_exp_sums_2d_match_direct_sums():
    # against a sum of np.exp over the points, in exp_sums's error class;
    # column g2 mod (2 h_max + 1) holds g2, so E[g1, -g2] is E(g1, -g2)
    rng = np.random.Generator(np.random.Philox(key=7))
    x = rng.random((300, 2))
    w = rng.random(300) + 0.5
    for h_max in (0, 1, 7, 64, 118):
        sums = exp_sums_2d(x, w, h_max)
        assert sums.shape == (h_max + 1, 2 * h_max + 1)
        g1 = np.arange(h_max + 1)
        g2 = np.concatenate((np.arange(h_max + 1), np.arange(-h_max, 0)))
        direct = (w * np.exp(2j * np.pi * g1[:, None] * x[:, 0])) @ np.exp(2j * np.pi * g2[:, None] * x[:, 1]).T
        assert np.max(np.abs(sums - direct)) <= 1e-12 * np.sum(w)
        if h_max:
            assert sums[1, -1] == pytest.approx(np.sum(w * np.exp(2j * np.pi * (x[:, 0] - x[:, 1]))), rel=1e-13)
    assert exp_sums_2d(x, w, 5)[0, 0] == pytest.approx(np.sum(w), rel=1e-14)


def test_exp_sums_2d_and_gram_block_2d_reject_bad_input():
    x = np.linspace(0.0, 1.0, 8, endpoint=False).reshape(4, 2)
    w = np.ones(4)
    with pytest.raises(ValueError, match="h_max"):
        exp_sums_2d(x, w, -1)
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        exp_sums_2d(x.ravel(), np.ones(8), 5)
    with pytest.raises(ValueError, match="one weight per point"):
        exp_sums_2d(x, w[:3], 5)
    # a block whose frequencies need sums past h_max = 4
    sums = exp_sums_2d(x, w, 4)
    assert gram_block_2d(sums, [[0, 4]], [[3, 0]]).shape == (1, 1)
    with pytest.raises(ValueError, match="twice the largest frequency"):
        gram_block_2d(sums, [[0, 5]], [[0, 0]])


def one_shot_powers(z, count):
    """z^0 .. z^(count - 1) for all points at once: row r is row r - top times
    z^top, top the largest power of two up to r, with z^top by squaring."""
    squares = [z]
    while 2 ** len(squares) < count:
        squares.append(squares[-1] * squares[-1])
    table = np.empty((count, len(z)), dtype=complex)
    table[0] = 1.0
    for r in range(1, count):
        top = r.bit_length() - 1
        table[r] = table[r - 2 ** top] * squares[top]
    return table


def one_shot_exp_sums(x, w, h_max):
    """The power tables of exp_sums, built for all points at once."""
    e = np.exp(2j * np.pi * x)
    inner = one_shot_powers(e, 64)
    outer = one_shot_powers(inner[-1] * e, h_max // 64 + 1)
    return ((outer * w) @ inner.T).ravel()[: h_max + 1]


def test_exp_sums_in_row_blocks_match_one_shot_tables():
    # the claims-d1 width (h_max = 3432, 54 blocks of powers), over 1 to 31
    # row blocks of points
    rng = np.random.Generator(np.random.Philox(key=4))
    for n in (100, 2048, 16384):
        x = rng.random(n)
        w = rng.random(n) + 0.5
        reference = one_shot_exp_sums(x, w, 3432)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            sums = exp_sums(x, w, 3432)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(sums - reference)) <= 1e-15 * np.sum(w)
        # a few tables of one row block, not of n rows
        assert peak <= 4 * spectral.ROW_BLOCK_BYTES
    assert np.array_equal(exp_sums(x[:300], w[:300], 200), one_shot_exp_sums(x[:300], w[:300], 200))


@pytest.mark.parametrize("h_max", [3432, 8192])
def test_exp_sums_match_an_mpmath_oracle(h_max):
    # the claims-d1 width and the MAX_TRUNCATION one; x is exact in binary,
    # so the oracle's angles carry no rounding and the error counted is the
    # whole error of exp_sums, the rounding of 2 pi x scaled by h included
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.Generator(np.random.Philox(key=5))
    x = rng.random(512)
    w = rng.random(512) + 0.5
    sums = exp_sums(x, w, h_max)
    hs = sorted({0, 1, 63, 64, 65, 127, 128, h_max - 64, h_max - 1, h_max}
                | set(rng.integers(0, h_max + 1, 14).tolist()))
    with mpmath.workdps(40):
        xs, ws = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in w]
        for h in hs:
            exact = mpmath.fsum(wi * mpmath.expjpi(2 * h * xi) for xi, wi in zip(xs, ws))
            assert abs(complex(sums[h]) - complex(exact)) <= 1e-12 * np.sum(w), h


def test_exp_sums_take_one_exponential_per_point(monkeypatch):
    # the claims-d1 shape, where one exponential per power would take 118 per point
    evaluated = []
    exp = np.exp

    def counting(z, *args, **kwargs):
        evaluated.append(np.size(z))
        return exp(z, *args, **kwargs)

    rng = np.random.Generator(np.random.Philox(key=6))
    x = rng.random(2048)
    w = rng.random(2048) + 0.5
    monkeypatch.setattr(np, "exp", counting)
    exp_sums(x, w, 3432)
    assert 0 < sum(evaluated) <= 2 * len(x)


def test_exp_sums_reject_bad_input():
    x = np.linspace(0.0, 1.0, 8, endpoint=False)
    w = np.ones(8)
    with pytest.raises(ValueError, match="h_max"):
        exp_sums(x, w, -1)
    with pytest.raises(ValueError, match="1-D"):
        exp_sums(x.reshape(2, 4), w.reshape(2, 4), 5)
    with pytest.raises(ValueError, match="one weight per point"):
        exp_sums(x, w[:7], 5)
    with pytest.raises(ValueError, match="one weight per point"):
        exp_sums(x, 1.0, 5)


def test_sample_points_at_d1_is_structured():
    basis, pts = make_instance(13, 104, 256, 5)
    assert pts.B is None and (pts.k, pts.m, pts.n) == (13, 104, 256)
    assert pts.G.shape == (256, 13) and not pts.G.flags.writeable
    assert len(pts.sums) == 2 * basis.max_frequency(104) + 1
    b = dense_matrix(pts)
    assert b.shape == (256, 104)
    assert np.array_equal(pts.G, b[:, :13])
    assert np.array_equal(pts.sums, exp_sums(pts.points[:, 0], 1.0 / pts.densities, 104))


def test_gram_block_matches_dense_gram():
    for k, m, n, seed in ((1, 3, 40, 1), (6, 40, 90, 2), (13, 104, 256, 5)):
        basis, pts = make_instance(k, m, n, seed)
        b = dense_matrix(pts)
        flat = basis.indices[:m, 0]
        scale = pts.sums[0].real
        assert np.max(np.abs(gram_block(pts.sums, flat, flat) - b.T @ b)) <= 1e-13 * scale
        block = gram_block(pts.sums, flat[:k], flat[k:])
        assert block.shape == (k, m - k)
        assert np.max(np.abs(block - pts.G.T @ b[:, k:])) <= 1e-13 * scale


@pytest.mark.parametrize("d", [1, 2])
def test_point_set_gram_matches_the_dense_matrix(d):
    # at d = 2 in both forms: n = 96 < m keeps B, and n = 256 the sums
    instances = [make_instance(13, 104, 256, 5, SpaceParams(d, 1.0))]
    if d == 2:
        instances.append(make_instance(13, 104, 96, 5, SpaceParams(d, 1.0)))
        assert [pts.B is None for _, pts in instances] == [True, False]
    for _, pts in instances:
        b = dense_matrix(pts)
        for rows, cols in ((slice(0, 13), slice(0, 13)), (slice(0, 13), slice(13, 104)),
                           (slice(13, 104), slice(0, 104)), (slice(40, 41), slice(7, 90))):
            block = pts.gram(rows, cols)
            dense = b[:, rows].T @ b[:, cols]
            if pts.B is not None:
                assert np.array_equal(block, dense)
            else:
                assert block.shape == dense.shape
                assert np.max(np.abs(block - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_gram_block_holds_three_blocks_at_a_time():
    # the claims-d1 head Gram (k = 429) and a rates-d1 head-by-tail block:
    # the two terms are formed in place, so about three complex arrays of the
    # block's size are alive at once (the products and their sum took 5.6)
    basis, pts = make_instance(429, 3432, 2048, 3)
    flat = basis.indices[:3432, 0]
    for rows, cols in ((flat[:429], flat[:429]), (flat[:123], flat[123:984])):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            block = gram_block(pts.sums, rows, cols)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert block.shape == (len(rows), len(cols))
        assert peak <= 3.5 * block.size * 16


def complex_gram_block(sums, rows, cols):
    """The block by the module formula in complex arithmetic, with c_j = 1,
    sqrt(2) or -i sqrt(2) halved: the reference for gram_block."""

    def split(flat):
        flat = np.asarray(flat, dtype=np.int64)
        return (flat + 1) // 2, np.where(flat == 0, math.sqrt(0.5), np.where(flat % 2 == 0, 1.0, -1j))

    def at(h):
        values = sums[np.abs(h)]
        np.conjugate(values, out=values, where=h < 0)
        return values

    f_r, c_r = split(rows)
    f_c, c_c = split(cols)
    plus = at(np.add.outer(f_r, f_c)) * np.outer(c_r, c_c)
    return (plus + at(np.subtract.outer(f_r, f_c)) * np.outer(c_r, c_c.conj())).real


flat_indices = st.tuples(st.lists(st.integers(0, 300), max_size=40), st.integers(0, 40)).map(
    lambda drawn: drawn[0][: drawn[1]] + [0] + drawn[0][drawn[1]:]
)


@given(rows=flat_indices, cols=flat_indices, seed=st.integers(0, 2 ** 32 - 1))
def test_gram_block_is_the_complex_formula_to_the_bit(rows, cols, seed):
    # each entry is a sum of two real products, the real parts of the
    # complex ones, so the real-arithmetic block matches bit for bit
    rng = np.random.Generator(np.random.Philox(key=seed))
    sums = rng.standard_normal(301) + 1j * rng.standard_normal(301)
    block = gram_block(sums, rows, cols)
    assert block.shape == (len(rows), len(cols))
    assert np.array_equal(block.view(np.int64), complex_gram_block(sums, rows, cols).view(np.int64))


def test_gram_block_holds_three_real_blocks():
    # the claims-d1 head Gram and e_trunc head-by-tail blocks of the
    # largest claims-d1 and rates-d1 instances, filled one cos/sin quadrant
    # at a time from real parts of the sums
    basis, pts = make_instance(429, 3432, 2048, 3)
    flat = basis.indices[:3432, 0]
    for rows, cols in ((flat[:429], flat[:429]), (flat[:429], flat[429:]), (flat[:123], flat[123:984])):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            block = gram_block(pts.sums, rows, cols)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert np.array_equal(block, complex_gram_block(pts.sums, rows, cols))
        assert peak <= 3 * block.size * 8


@pytest.mark.parametrize("k, m, n", [(1, 2, 30), (2, 16, 16), (8, 64, 200), (13, 104, 256), (57, 456, 1024)])
def test_toeplitz_matvec_matches_dense_gamma(k, m, n):
    basis, pts = make_instance(k, m, n, 11)
    gamma = dense_matrix(pts)[:, k:] * basis.sigma[k:m]
    gram = TailGram(pts.sums, basis.indices[k:m, 0], basis.sigma[k:m])
    assert gram.shape == (m - k, m - k)
    rng = np.random.Generator(np.random.Philox(key=k))
    scale = np.linalg.norm(gamma) ** 2
    v = rng.standard_normal(m - k)
    assert np.max(np.abs(gram.matvec(v) - gamma.T @ (gamma @ v))) <= 1e-13 * scale * np.linalg.norm(v)
    block = rng.standard_normal((m - k, 3))
    assert np.max(np.abs(gram.matmat(block) - gamma.T @ (gamma @ block))) <= 1e-13 * scale * np.linalg.norm(block)
    assert np.allclose(gram.diagonal(), np.sum(gamma ** 2, axis=0), rtol=1e-13, atol=0)
    assert gram.trace() == pytest.approx(np.linalg.norm(gamma) ** 2, rel=1e-13)


@given(
    d=st.integers(1, 3),
    s=st.sampled_from((0.75, 1.0, 2.0)),
    k=st.integers(1, 40),
    m_factor=st.integers(2, 8),
    n_extra=st.integers(0, 200),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_structured_norms_and_e_trunc_match_dense(d, s, k, m_factor, n_extra, seed):
    # instances in the runners' domain (n >= 2k), with tails from one column
    # to 280, so both the dense solve of small operators and Lanczos run: at
    # d = 1 and 2 in the structured form (d = 2 with n >= m, whose tail norm
    # takes the upper column panels), at d = 3 with n >= m in the Gram form,
    # each against its twin that holds B
    m = m_factor * k
    n = (2 * k if d == 1 else max(2 * k, m)) + n_extra
    basis, pts = make_instance(k, m, n, seed, SpaceParams(d, s))
    assert pts.B is None and (d == 3) == (pts.BtB is not None)
    dense = with_dense_matrix(pts, basis)
    assert _checked_gamma_norm(pts, basis) == pytest.approx(_checked_gamma_norm(dense, basis), rel=1e-12, abs=0)
    gamma = dense.B[:, k:] * basis.sigma[k:m]
    if d == 1:
        tail_gram = TailGram(pts.sums, basis.indices[k:m, 0], basis.sigma[k:m])
    else:
        tail_gram = lsq.BlockGram(pts.gram(slice(k, m), slice(k, m)), basis.sigma[k:m])
    assert math.sqrt(tail_gram.trace()) == pytest.approx(np.linalg.norm(gamma), rel=1e-12, abs=0)
    # the run path's factorization (the Gram route, or its dense fallback)
    # against the SVD of the dense instance's G
    head, dense_head = head_factor(pts), head_svd(dense.G)
    assert head.rank_ok == dense_head.rank_ok
    if head.rank_ok:
        assert worst_case_error_trunc(pts, head, basis) == pytest.approx(
            worst_case_error_trunc(dense, dense_head, basis), rel=1e-12, abs=0
        )


def test_kappa_limit_value():
    # kappa^2 u <= 1e-13 with u = 2^-53
    assert lsq.KAPPA_LIMIT == pytest.approx(30.0, rel=1e-3)
    assert lsq.KAPPA_LIMIT ** 2 * 2.0 ** -53 == pytest.approx(1e-13, rel=1e-12)


@pytest.mark.parametrize(
    "k, m, n, seed",
    # draws with kappa(G) from 16 to 29.4, just under the limit
    [(40, 320, 100, 8), (40, 320, 100, 18), (40, 320, 100, 24), (40, 320, 100, 34),
     (60, 480, 150, 5), (60, 480, 150, 15)],
)
def test_gram_route_holds_up_to_the_kappa_limit(k, m, n, seed):
    basis, pts = make_instance(k, m, n, seed)
    head = head_factor(pts)
    assert head.u is None  # the Gram route
    assert 15.0 < head.s_max / head.s_min <= lsq.KAPPA_LIMIT
    dense = with_dense_matrix(pts, basis)
    dense_head = head_svd(dense.G)
    assert head.sv == pytest.approx(dense_head.sv, rel=1e-12, abs=0)
    expected = worst_case_error_trunc(dense, dense_head, basis)
    assert worst_case_error_trunc(pts, head, basis) == pytest.approx(expected, rel=1e-12, abs=0)


def test_ill_conditioned_draw_takes_the_dense_route():
    basis, pts = make_instance(40, 320, 100, 26)
    head = head_factor(pts)
    assert head.u is not None  # the dense fallback
    assert head.rank_ok and head.s_max / head.s_min > lsq.KAPPA_LIMIT
    dense = with_dense_matrix(pts, basis)
    dense_head = head_svd(dense.G)
    assert np.array_equal(head.sv, dense_head.sv)
    assert worst_case_error_trunc(pts, head, basis) == worst_case_error_trunc(dense, dense_head, basis)


def test_forced_kappa_fallback_returns_the_dense_value_bitwise(monkeypatch):
    basis, pts = make_instance(16, 128, 256, 6)
    head = head_factor(pts)
    dense = with_dense_matrix(pts, basis)
    assert head.u is None
    structured = worst_case_error_trunc(pts, head, basis)
    assert head_factor(dense).u is None
    monkeypatch.setattr(lsq, "KAPPA_LIMIT", 0.0)
    head = head_factor(pts)
    assert head.u is not None
    assert head_factor(dense).u is not None  # the dense instance falls back at the same limit
    fallback = worst_case_error_trunc(pts, head, basis)
    assert fallback == worst_case_error_trunc(dense, head_svd(dense.G), basis)
    assert fallback == pytest.approx(structured, rel=1e-12)


def test_rates_report_counts_dense_fallbacks(monkeypatch):
    configs = [ExperimentConfig(d=d, n_grid=(64, 128), c_head=0.25, trials=2, seed=3) for d in (1, 2)]
    before = [run_rates(config) for config in configs]
    for result in before:
        assert "dense e_trunc fallback (kappa(G) above 30.0): 0 of 4 full-rank draws" in result.report
    monkeypatch.setattr(lsq, "KAPPA_LIMIT", 0.0)
    for config, result in zip(configs, before):
        after = run_rates(config)
        assert "dense e_trunc fallback (kappa(G) above 0.0): 4 of 4 full-rank draws" in after.report
        # the dense route moves e_trunc and what derives from it in the last bits
        for row_after, row_before in zip(after.rows, result.rows, strict=True):
            assert row_after == pytest.approx(row_before, rel=1e-12, abs=0)


def test_claims_d1_evaluates_no_basis_column_past_the_head(monkeypatch):
    widths = []
    heads = []
    sample, evaluate = density.sample_points, density.basis_matrix

    def sampling(params, n, seed):
        heads.append(params.k)
        return sample(params, n, seed)

    def evaluating(basis, points, m=None):
        widths.append((heads[-1], len(basis) if m is None else m))
        return evaluate(basis, points, m)

    monkeypatch.setattr(density, "sample_points", sampling)
    monkeypatch.setattr(density, "basis_matrix", evaluating)
    result = run_claims(ExperimentConfig(n_grid=(256, 1024), c_head=0.05, trials=2, seed=20250814))
    assert len(heads) == sum(row[4] for row in result.rows) > 0
    # no draw falls back to the dense SVD of G, so none evaluates even the head
    assert widths == []
