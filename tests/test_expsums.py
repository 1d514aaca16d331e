"""The structured path (the staircase sums, at d = 1 one box of the
exponential sums) against its dense oracles: the sums, the Gram blocks and
Toeplitz products they give, and the norms and e_trunc read off them."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from samplerec import density, expsums, lsq, spectral
from samplerec.density import dense_matrix, sample_points, truncated_density
from samplerec.errors import worst_case_error_trunc
from samplerec.experiments import ExperimentConfig, _checked_gamma_norm, run_claims, run_rates
from samplerec.expsums import TailGram, exp_sums
from samplerec.lsq import head_factor, head_svd
from samplerec.spectral import SpaceParams, ordered_basis

SP1 = SpaceParams(1, 1.0)


def make_instance(k, m, n, seed, params=SP1):
    basis = ordered_basis(params, m + 1)
    pts = sample_points(truncated_density(basis, k, m), n, seed)
    return basis, pts


def hand_basis(flat):
    """A d = 1 OrderedBasis over a hand-made list of flat indices, repeats
    and constants included, with unit weights."""
    ones = np.ones(len(flat))
    return spectral.OrderedBasis(SP1, np.asarray(flat, dtype=np.int64)[:, None], ones, ones)


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


def staircase_read(stair, g, sine):
    """R_tau(g) read off a Staircase as its gram_block reads it, for
    (N, d) arrays of frequency vectors g of any sign and sine flags tau:
    |g_c| with the sign of a sine turned at g_c < 0 in all but the last
    coordinate, and the last coordinate as it is."""
    d = g.shape[1]
    sign = np.prod(np.where(sine[:, :-1] & (g[:, :-1] < 0), -1.0, 1.0), axis=1)
    tau = sine @ (1 << np.arange(d - 1, -1, -1))
    return sign * stair.values[tau, stair.starts[tuple(np.abs(g[:, :-1]).T)] + g[:, -1]]


@pytest.mark.parametrize("d, s, m", [(1, 1.0, 300), (2, 0.75, 300), (3, 0.6, 300), (4, 0.75, 200)])
def test_staircase_sums_match_direct_sums(d, s, m):
    # against a product of np.cos and np.sin over the points, in exp_sums's
    # error class, at f_j +- f_l (per coordinate) for pairs of the basis's
    # frequency vectors and every cos/sin choice, sampled
    rng = np.random.Generator(np.random.Philox(key=7 + d))
    x = rng.random((300, d))
    w = rng.random(300) + 0.5
    basis = ordered_basis(SpaceParams(d, s), m)
    stair = expsums.staircase_sums(x, w, basis, m)
    freq = np.unique((basis.indices + 1) // 2, axis=0)
    pick = rng.integers(0, len(freq), (2, 3000))
    g = freq[pick[0]] + np.where(rng.random((3000, d)) < 0.5, 1, -1) * freq[pick[1]]
    sine = rng.random((3000, d)) < 0.5
    angles = 2.0 * np.pi * g[:, None, :] * x[None, :, :]
    direct = np.prod(np.where(sine[:, None, :], np.sin(angles), np.cos(angles)), axis=2) @ w
    assert np.max(np.abs(staircase_read(stair, g, sine) - direct)) <= 1e-12 * np.sum(w)
    # the zero vector of cosines is the sum of the weights
    assert stair.values[0, stair.starts[(0,) * (d - 1)]] == pytest.approx(np.sum(w), rel=1e-14)


def test_staircase_sums_and_gram_block_reject_bad_input():
    x = np.linspace(0.0, 1.0, 8, endpoint=False).reshape(4, 2)
    w = np.ones(4)
    basis = ordered_basis(SpaceParams(2, 1.0), 12)
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        expsums.staircase_sums(x.ravel(), np.ones(8), basis, 10)
    with pytest.raises(ValueError, match="one weight per point"):
        expsums.staircase_sums(x, w[:3], basis, 10)
    # a prefix of 1..12 positions of a basis of the points' d
    for bad, m in ((basis, 0), (basis, 13), (ordered_basis(SP1, 12), 10)):
        with pytest.raises(ValueError, match="positions of a d = 2 basis"):
            expsums.staircase_sums(x, w, bad, m)
    # a block of the basis by positions through the point set's gram,
    # which refuses slices past its m = 10 positions, from a negative
    # start or with a step
    stair = expsums.staircase_sums(x, w, basis, 10)
    assert stair.basis is basis and stair.m == 10
    pts = density.PointSet(points=x, densities=1.0 / w, B=None, k=1, sums=stair)
    assert stair.gram_block(slice(0, 3), slice(None)).shape == pts.gram(slice(0, 3), slice(None)).shape == (3, 10)
    assert pts.gram(slice(4, 4), slice(9, 10)).shape == (0, 1)
    for rows in (slice(0, 11), slice(9, 12), slice(-1, None), slice(0, 4, 2)):
        with pytest.raises(ValueError, match="slices of positions"):
            pts.gram(rows, slice(None))
        with pytest.raises(ValueError, match="slices of positions"):
            pts.gram(slice(None), rows)
    # the FFT tail operator reads a d = 1 staircase alone, and the tail
    # positions k..m-1 of it, one sigma each
    with pytest.raises(ValueError, match="d = 1 staircase"):
        TailGram(stair, 1, np.ones(9))
    line = expsums.staircase_sums(x[:, :1], w, ordered_basis(SP1, 5), 5)
    assert TailGram(line, 1, np.ones(4)).shape == (4, 4)
    assert TailGram(line, 4, np.ones(1)).shape == (1, 1)
    for k, q in ((5, 0), (-1, 6), (1, 3), (1, 5)):
        with pytest.raises(ValueError, match="tail positions"):
            TailGram(line, k, np.ones(q))


def test_tail_gram_rejects_repeated_or_constant_indices():
    # staircases built over hand-made bases whose tail positions repeat an
    # index or hold the constant
    x = np.linspace(0.0, 1.0, 8, endpoint=False)[:, None]
    for indices, k in (([0, 1, 3, 1], 1), ([0, 1, 2], 0), ([2, 1, 0], 1)):
        line = expsums.staircase_sums(x, np.ones(8), hand_basis(indices), len(indices))
        with pytest.raises(ValueError, match="need distinct nonconstant tail indices"):
            TailGram(line, k, np.ones(len(indices) - k))


@pytest.mark.parametrize("d, s, m", [(2, 0.75, 300), (3, 0.6, 300), (4, 0.75, 200)])
def test_distinct_rows_are_numpy_unique_rows(d, s, m):
    # the frequency vectors of a basis, which repeat (cosine and sine share
    # one), and shuffled rows with repeats, small and negative entries
    freq = (ordered_basis(SpaceParams(d, s), m).indices + 1) // 2
    rng = np.random.Generator(np.random.Philox(key=d))
    drawn = rng.integers(-3, 4, (500, d))
    for rows in (freq, freq[rng.permutation(len(freq))], drawn, drawn[:1]):
        distinct = expsums._distinct_rows(rows)
        assert distinct.dtype == rows.dtype
        assert np.array_equal(distinct, np.unique(rows, axis=0))


def test_staircase_sums_write_every_entry_before_reading_it(monkeypatch):
    # the negative half of each row is copied from its positive half and
    # scaled after both are written, so no arithmetic reads an entry before
    # it is written and no entry is left unwritten: with every new float
    # array full of signaling NaNs no invalid operation is raised, and the
    # sums keep their bits
    rng = np.random.Generator(np.random.Philox(key=5))
    x, w = rng.random((200, 3)), rng.random(200) + 0.5
    basis = ordered_basis(SpaceParams(3, 0.75), 60)
    expected = expsums.staircase_sums(x, w, basis, 60).values
    empty = np.empty

    def signaling_empty(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        if out.dtype == np.float64:
            out.view(np.uint64)[...] = 0x7FF0000000000001
        return out

    monkeypatch.setattr(np, "empty", signaling_empty)
    with np.errstate(invalid="raise"):
        sums = expsums.staircase_sums(x, w, basis, 60).values
    assert np.array_equal(sums.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("d, s, k, m, n", [
    (1, 1.0, 1, 3, 40), (1, 1.0, 6, 40, 90), (1, 1.0, 13, 104, 256),
    (2, 0.75, 40, 320, 700), (3, 0.6, 40, 320, 700), (4, 0.75, 40, 320, 700),
])
def test_staircase_gram_block_matches_dense_gram(d, s, k, m, n):
    # the head block, the head-by-tail block, the whole Gram and the upper
    # column panels of the tail block, against B^T B of the twin that
    # holds B, one product of its views; the panels are _GRAM_PANEL wide,
    # so m = 8k = 320 takes two.  At d = 1 (one box, the sums of E) every
    # entry is within 1e-13 of E(0), the sum of the weights
    basis, pts = make_instance(k, m, n, 3, SpaceParams(d, s))
    assert pts.B is None and isinstance(pts.sums, expsums.Staircase)
    dense = with_dense_matrix(pts, basis)
    head, tail, every = slice(0, k), slice(k, m), slice(0, m)
    blocks = [(head, head), (head, tail), (every, every)] + [
        (slice(k, min(lo + density._GRAM_PANEL, m)), slice(lo, min(lo + density._GRAM_PANEL, m)))
        for lo in range(k, m, density._GRAM_PANEL)
    ]
    assert len(blocks) == 3 + -(-(m - k) // density._GRAM_PANEL)
    for rows, cols in blocks:
        block, exact = pts.gram(rows, cols), dense.gram(rows, cols)
        assert block.shape == exact.shape
        if d == 1:
            assert np.max(np.abs(block - exact)) <= 1e-13 * pts.sums.values[0, int(pts.sums.starts)]
        else:
            assert np.max(np.abs(block - exact)) <= 1e-12 * np.max(np.abs(exact))


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
    # the staircase of one box: Re E and Im E of exp_sums from -t to t,
    # t = 104 twice the largest frequency, the negative half with a sine's
    # parity
    basis, pts = make_instance(13, 104, 256, 5)
    assert pts.B is None and (pts.k, pts.m, pts.n) == (13, 104, 256)
    assert pts.G.shape == (256, 13) and not pts.G.flags.writeable
    assert isinstance(pts.sums, expsums.Staircase) and 2 * basis.max_frequency(104) == 104
    assert pts.sums.starts.shape == () and int(pts.sums.starts) == 104 and pts.sums.values.shape == (2, 209)
    b = dense_matrix(pts)
    assert b.shape == (256, 104)
    assert np.array_equal(pts.G, b[:, :13])
    sums = exp_sums(pts.points[:, 0], 1.0 / pts.densities, 104)
    assert np.array_equal(pts.sums.values, one_box(sums, basis, 104).values)


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
    # the claims-d1 head Gram (k = 429) and a rates-d1 head-by-tail block,
    # read off the d = 1 staircase: the terms are formed in place, so about
    # three complex arrays of the block's size are alive at once (the
    # products and their sum of the complex reader took 5.6)
    basis, pts = make_instance(429, 3432, 2048, 3)
    for rows, cols in ((slice(0, 429), slice(0, 429)), (slice(0, 123), slice(123, 984))):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            block = pts.gram(rows, cols)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert block.shape == (rows.stop - rows.start, cols.stop - cols.start)
        assert peak <= 3.5 * block.size * 16


def one_box(sums, basis, m):
    """The d = 1 staircase of the complex sums E(0..t) over the first m
    positions of basis, laid out as staircase_sums lays it out: Re E and
    Im E from -t to t."""
    t = len(sums) - 1
    both = np.concatenate((sums[:0:-1].conj(), sums))
    return expsums.Staircase(np.array(t), np.stack((both.real, both.imag)), basis, m)


def complex_gram_block(sums, rows, cols):
    """The block by the module formula in complex arithmetic, with c_j = 1,
    sqrt(2) or -i sqrt(2) halved: the reference for the d = 1 gram_block."""

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
    # the d = 1 staircase reader: each entry is the sum of the two reads
    # times one rounding of the rows' and columns' real factors, and where
    # that product is not 1 the two reads are equal, so it is the real part
    # of the complex formula bit for bit; E(0), the sum of the weights, is
    # real, as a sine's parity needs.  The staircase is built over a
    # hand-made basis of the drawn rows and then the drawn columns, repeats
    # included, and read at those two slices of positions
    rng = np.random.Generator(np.random.Philox(key=seed))
    sums = rng.standard_normal(301) + 1j * rng.standard_normal(301)
    sums[0] = sums[0].real
    stair = one_box(sums, hand_basis(rows + cols), len(rows + cols))
    block = stair.gram_block(slice(0, len(rows)), slice(len(rows), len(rows) + len(cols)))
    assert block.shape == (len(rows), len(cols))
    assert np.array_equal(block.view(np.int64), complex_gram_block(sums, rows, cols).view(np.int64))


def test_gram_block_holds_three_real_blocks():
    # the claims-d1 head Gram and e_trunc head-by-tail blocks of the
    # largest claims-d1 and rates-d1 instances, read off the d = 1
    # staircase one row kind and one row panel at a time
    basis, pts = make_instance(429, 3432, 2048, 3)
    flat = basis.indices[:3432, 0]
    t = int(pts.sums.starts)
    sums = pts.sums.values[0, t:] + 1j * pts.sums.values[1, t:]
    for rows, cols in ((slice(0, 429), slice(0, 429)), (slice(0, 429), slice(429, 3432)), (slice(0, 123), slice(123, 984))):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            block = pts.gram(rows, cols)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert np.array_equal(block, complex_gram_block(sums, flat[rows], flat[cols]))
        assert peak <= 3 * block.size * 8


@pytest.mark.parametrize("k, m, n", [(1, 2, 30), (2, 16, 16), (8, 64, 200), (13, 104, 256), (57, 456, 1024)])
def test_toeplitz_matvec_matches_dense_gamma(k, m, n):
    basis, pts = make_instance(k, m, n, 11)
    gamma = dense_matrix(pts)[:, k:] * basis.sigma[k:m]
    gram = TailGram(pts.sums, k, basis.sigma[k:m])
    assert gram.shape == (m - k, m - k)
    rng = np.random.Generator(np.random.Philox(key=k))
    scale = np.linalg.norm(gamma) ** 2
    v = rng.standard_normal(m - k)
    assert np.max(np.abs(gram.matvec(v) - gamma.T @ (gamma @ v))) <= 1e-13 * scale * np.linalg.norm(v)
    block = rng.standard_normal((m - k, 3))
    products = np.column_stack([gram.matvec(column) for column in block.T])
    assert np.max(np.abs(products - gamma.T @ (gamma @ block))) <= 1e-13 * scale * np.linalg.norm(block)
    assert np.allclose(gram.diagonal(), np.sum(gamma ** 2, axis=0), rtol=1e-13, atol=0)
    assert gram.trace() == pytest.approx(np.linalg.norm(gamma) ** 2, rel=1e-13)


def toeplitz_product(sums, tail, sigma, v):
    """Gamma^T Gamma v by the circular correlation of TailGram, with the
    half spectrum filled afresh for each product by where the cosines and
    sines of the tail sit: the formula that TailGram's precomputed
    positions, signs and scales must give bit for bit."""
    freq, cos = (tail + 1) // 2, tail % 2 == 0
    top, origin = int(freq.max()), int(sums.starts)
    length = 1 << (4 * top).bit_length()
    kernel = np.zeros(length // 2 + 1, dtype=complex)
    kernel.real[: 2 * top + 1], kernel.imag[: 2 * top + 1] = sums.values[:, origin - 2 * top : origin + 1][:, ::-1]
    u = math.sqrt(0.5) * sigma * v
    c = np.zeros(length // 2 + 1, dtype=complex)
    c.real[freq[cos]] = u[cos]
    c.imag[freq[~cos]] = -u[~cos]
    y = np.fft.ihfft(np.fft.hfft(kernel, length) * np.fft.hfft(c, length))[freq]
    return math.sqrt(2.0) * sigma * np.where(cos, y.real, -y.imag)


@pytest.mark.parametrize("k, m, n", [(3, 24, 64), (57, 456, 1024), (429, 3432, 2048)])
def test_toeplitz_matvec_is_the_fresh_spectrum_formula_to_the_bit(k, m, n):
    basis, pts = make_instance(k, m, n, 2)
    tail, sigma = basis.indices[k:m, 0], basis.sigma[k:m]
    gram = TailGram(pts.sums, k, sigma)
    rng = np.random.Generator(np.random.Philox(key=n))
    for _ in range(20):
        v = rng.standard_normal(m - k)
        assert np.array_equal(gram.matvec(v), toeplitz_product(pts.sums, tail, sigma, v))


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
    # to 280, so both the dense solve of small operators and Lanczos run,
    # in the staircase form: at d = 1, whose tail norm takes the FFT
    # operator, and at d = 2 and 3 with n >= m, whose tail norm takes the
    # upper column panels, each against its twin that holds B
    m = m_factor * k
    n = (2 * k if d == 1 else max(2 * k, m)) + n_extra
    basis, pts = make_instance(k, m, n, seed, SpaceParams(d, s))
    assert pts.B is None and isinstance(pts.sums, expsums.Staircase)
    dense = with_dense_matrix(pts, basis)
    assert _checked_gamma_norm(pts, basis) == pytest.approx(_checked_gamma_norm(dense, basis), rel=1e-12, abs=0)
    gamma = dense.B[:, k:] * basis.sigma[k:m]
    tail_gram = pts.tail_gram(basis.sigma[k:m])
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
