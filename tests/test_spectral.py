import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplerec import spectral
from samplerec.spectral import (
    CoefVector,
    EnumerationLimitError,
    OrderedBasis,
    PrecisionError,
    SpaceParams,
    SpectrumSummary,
    basis_eval,
    basis_matrix,
    beta_gamma,
    hnorm_weight,
    ordered_basis,
    project,
    random_unit_function,
    spectral_sums,
)

SP1 = SpaceParams(1, 1.0)
SP2 = SpaceParams(2, 1.0)

# Closed form for the full d=1, s=1 series: 1 + 2 * sum_f 1/(1+f^2).
TOTAL_1D = math.pi / math.tanh(math.pi)


def brute_sorted_indices(params, m, flat_cutoff):
    """Oracle: enumerate every flat tuple below a per-coordinate cutoff and
    sort by (weight, tuple)."""
    tuples = list(itertools.product(range(flat_cutoff), repeat=params.d))
    tuples.sort(key=lambda t: (hnorm_weight(t, params), t))
    return tuples[:m]


def masked_basis_matrix(basis, points, m):
    """Oracle: the column-masked evaluation that basis_matrix replaced, one
    sin/cos evaluation per (point, column, coordinate)."""
    x = np.asarray(points, dtype=float).reshape(-1, basis.params.d)
    flat = basis.indices[:m]
    out = np.ones((x.shape[0], m))
    for c in range(basis.params.d):
        k = flat[:, c]
        sin_cols = k % 2 == 1
        cos_cols = (k % 2 == 0) & (k > 0)
        omega = (2.0 * np.pi) * ((k + 1) // 2)
        if sin_cols.any():
            out[:, sin_cols] *= math.sqrt(2.0) * np.sin(omega[sin_cols] * x[:, c : c + 1])
        if cos_cols.any():
            out[:, cos_cols] *= math.sqrt(2.0) * np.cos(omega[cos_cols] * x[:, c : c + 1])
    return out


def test_space_params_validation():
    with pytest.raises(ValueError):
        SpaceParams(0, 1.0)
    with pytest.raises(ValueError):
        SpaceParams(1, 0.5)
    for s in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SpaceParams(1, s)
    SpaceParams(3, 0.75)


def test_basis_eval_known_values():
    assert basis_eval((0, 0), (0.37, 0.91)) == 1.0
    assert basis_eval((2,), (0.0,)) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # cos(2 pi * 0) * sin(2 pi * 0.25) * 2 = 2
    assert basis_eval((2, 1), (0.0, 0.25)) == pytest.approx(2.0, abs=1e-14)


def test_basis_eval_domain_errors():
    with pytest.raises(ValueError):
        basis_eval((0,), (1.0,))
    with pytest.raises(ValueError):
        basis_eval((0,), (-0.1,))
    with pytest.raises(ValueError):
        basis_eval((0, 1), (0.5,))


def test_hnorm_weight_values():
    assert hnorm_weight((0,), SP1) == 1.0
    assert hnorm_weight((1,), SP1) == 2.0
    assert hnorm_weight((2,), SP1) == 2.0
    assert hnorm_weight((3,), SP1) == 5.0
    assert hnorm_weight((4, 2), SP2) == 10.0
    assert hnorm_weight((3,), SpaceParams(1, 2.0)) == 17.0
    # 4^800 is beyond float range
    with pytest.raises(PrecisionError):
        hnorm_weight((7,), SpaceParams(1, 400.0))
    # 2s = inf: 2^inf is inf with no OverflowError, while frequency 1 keeps
    # the finite weight 1 + 1^inf = 2
    assert hnorm_weight((2,), SpaceParams(1, 1e308)) == 2.0
    with pytest.raises(PrecisionError, match="beyond float range"):
        hnorm_weight((3,), SpaceParams(1, 1e308))


def test_ordered_basis_d1_first_entries():
    basis = ordered_basis(SP1, 5)
    assert basis.indices.ravel().tolist() == [0, 1, 2, 3, 4]
    assert basis.weights.tolist() == [1.0, 2.0, 2.0, 5.0, 5.0]
    expected_sigma = [1.0, 2 ** -0.5, 2 ** -0.5, 5 ** -0.5, 5 ** -0.5]
    assert np.allclose(basis.sigma, expected_sigma, rtol=0, atol=1e-16)


def test_ordered_basis_d2_small():
    basis = ordered_basis(SP2, 9)
    assert sorted(basis.weights.tolist()) == [1.0, 2.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0]
    # lexicographic tie-break inside each weight level
    assert [tuple(r) for r in basis.indices] == [
        (0, 0),
        (0, 1), (0, 2), (1, 0), (2, 0),
        (1, 1), (1, 2), (2, 1), (2, 2),
    ]


def test_ordered_basis_matches_brute_force():
    cases = (
        (SP1, 200, 500),
        (SP2, 300, 80),
        # the weight-4 tie group sits on the doubling threshold 4, whose
        # sublevel set holds exactly 9 indices
        (SP2, 5, 9),
        (SP2, 6, 9),
        (SP2, 9, 9),
        (SpaceParams(3, 1.0), 500, 41),
        # float weights that once depended on the coordinate order
        (SpaceParams(3, 1.3), 400, 21),
        (SpaceParams(4, 1.0), 100, 9),
    )
    for params, m, cutoff in cases:
        basis = ordered_basis(params, m)
        expected = brute_sorted_indices(params, m, cutoff)
        assert [tuple(r) for r in basis.indices] == expected
        # the brute-force cube really contained the winners
        assert basis.max_frequency() < (cutoff + 1) // 2
        # the weights are the ones hnorm_weight gives, bit for bit
        expected_weights = np.array([hnorm_weight(r, params) for r in basis.indices])
        assert basis.weights.tobytes() == expected_weights.tobytes()


@pytest.mark.parametrize("s, m", [(1.3, 4111), (0.6, 3000)])
def test_permuted_tuples_weigh_the_same_bits(s, m):
    # at d = 3 a product of three factor weights rounds by their order; the
    # weight takes them ascending, so every permutation of a tuple weighs the
    # same float in the basis and in hnorm_weight, and ties fall in
    # lexicographic order of the tuples (m = 4111 is the whole sublevel set
    # at weight 2^14 for s = 1.3, where 24 of 815 multisets used to weigh
    # differently)
    params = SpaceParams(3, s)
    basis = ordered_basis(params, m)
    by_multiset = {}
    for idx, w in zip(map(tuple, basis.indices.tolist()), basis.weights):
        by_multiset.setdefault(tuple(sorted(idx)), set()).add(w)
        assert {hnorm_weight(p, params) for p in itertools.permutations(idx)} == {w}
    assert all(len(weights) == 1 for weights in by_multiset.values())
    rows = [tuple(r) for r in basis.indices.tolist()]
    for i in np.flatnonzero(basis.weights[1:] == basis.weights[:-1]):
        assert rows[i] < rows[i + 1]


def test_sublevel_set_keeps_tuples_whose_running_product_rounds_above():
    # at a threshold equal to a tuple's weight, some permutation's running
    # product in coordinate order rounds above it; the walk prunes with a
    # slack, so every permutation is still in the set
    params = SpaceParams(3, 1.3)
    checked = 0
    for idx in map(tuple, ordered_basis(params, 4111).indices.tolist()):
        running = []
        for perm in set(itertools.permutations(idx)):
            w = 1.0
            for k in perm:
                w *= 1.0 + float((k + 1) // 2) ** 2.6
            running.append(w)
        weight = hnorm_weight(idx, params)
        if max(running) > weight:
            _, found = spectral._sublevel_set(weight, 3, 1.3, 10 ** 6)
            kept = set(map(tuple, found.tolist()))
            assert set(itertools.permutations(idx)) <= kept
            checked += 1
        if checked == 3:
            break
    assert checked == 3


def test_ordered_basis_weights_nondecreasing_and_sigma_consistent():
    for params in (SP1, SP2, SpaceParams(2, 1.5)):
        basis = ordered_basis(params, 257)
        assert np.all(np.diff(basis.weights) >= 0)
        assert np.array_equal(basis.sigma, basis.weights ** -0.5)


def test_ordered_basis_enumeration_cap():
    with pytest.raises(EnumerationLimitError):
        ordered_basis(SP2, 100_000, max_indices=1000)


def test_basis_matrix_matches_pointwise_eval():
    basis = ordered_basis(SP2, 40)
    rng = np.random.Generator(np.random.Philox(key=3))
    pts = rng.random((25, 2))
    mat = basis_matrix(basis, pts)
    for i in range(25):
        for j in range(40):
            assert mat[i, j] == pytest.approx(basis_eval(basis.indices[j], pts[i]), abs=1e-14)


def test_row_blocks_cover_rows_in_aligned_blocks():
    for n in (0, 1, 15, 16, 17, 127, 128, 129, 144, 145, 4096, 4097, 70000):
        for width in (1, 20, 984, 8192, 20000):
            blocks = spectral.row_blocks(n, width)
            rows = np.concatenate([np.arange(n)[b] for b in blocks]) if blocks else np.arange(0)
            assert np.array_equal(rows, np.arange(n))
            full = spectral.row_blocks(1 << 20, width)[0].stop
            assert full % spectral._ROW_ALIGN == 0
            assert full * width * 8 <= max(spectral.ROW_BLOCK_BYTES, spectral._ROW_ALIGN * width * 8)
            for b in blocks:
                assert b.start % spectral._ROW_ALIGN == 0 and 0 < b.stop - b.start < full + spectral._ROW_ALIGN
            if len(blocks) > 1:
                assert blocks[-1].stop - blocks[-1].start >= spectral._ROW_ALIGN


def test_basis_matrix_equals_masked_oracle():
    rng = np.random.Generator(np.random.Philox(key=11))
    sp3 = SpaceParams(3, 1.3)
    # a hand-made d=3 basis, out of weight order, with k = 0 mixed into
    # every coordinate and unsorted coordinate columns
    mixed = OrderedBasis(
        params=sp3,
        indices=np.array(
            [[0, 3, 0], [2, 0, 1], [0, 0, 0], [5, 0, 4], [1, 1, 0], [0, 6, 2], [3, 0, 0]],
            dtype=np.int64,
        ),
        weights=np.ones(7),
        sigma=np.ones(7),
    )
    cases = [
        (ordered_basis(SP1, 300), 300),
        (ordered_basis(SP1, 300), 157),
        (ordered_basis(SpaceParams(2, 0.75), 500), 500),
        (ordered_basis(sp3, 400), 400),
        (mixed, 7),
        # distinct but unsorted indices in the second coordinate
        (OrderedBasis(SP2, np.array([[0, 1], [1, 0], [2, 2]]), np.ones(3), np.ones(3)), 3),
    ]
    for basis, m in cases:
        pts = rng.random((97, basis.params.d))
        mat = basis_matrix(basis, pts, m)
        assert mat.flags.c_contiguous
        assert np.array_equal(mat, masked_basis_matrix(basis, pts, m))
    # the generated d=3 basis mixes k = 0 into several coordinates too
    zero_cols = ordered_basis(sp3, 400).indices == 0
    assert np.all(zero_cols.any(axis=0)) and not np.all(zero_cols.all(axis=0))


def test_basis_matrix_orthonormal_under_grid_quadrature():
    # products of two basis functions have per-coordinate frequency at most
    # 2 * fmax, so a uniform grid of 4 * fmax points integrates them exactly
    for params in (SP1, SP2):
        basis = ordered_basis(params, 9 ** params.d)
        res = 4 * basis.max_frequency()
        g = np.arange(res) / res
        grid = np.array(np.meshgrid(*([g] * params.d), indexing="ij")).reshape(params.d, -1).T
        mat = basis_matrix(basis, grid)
        gram = mat.T @ mat / grid.shape[0]
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10


def test_basis_matrix_rejects_bad_points():
    basis = ordered_basis(SP1, 4)
    with pytest.raises(ValueError):
        basis_matrix(basis, np.array([[1.0]]))
    with pytest.raises(ValueError):
        basis_matrix(basis, np.array([[0.5, 0.5]]))


def test_spectral_sums_certified_against_closed_form():
    basis = ordered_basis(SP1, 64)
    summ = spectral_sums(SP1, basis)
    assert summ.enclosure_width <= 1e-10
    assert summ.total_lo <= TOTAL_1D <= summ.total_hi
    assert summ.total == pytest.approx(TOTAL_1D, abs=1e-10)
    # first three functions carry weight 1, 2, 2
    assert summ.tail(3) == pytest.approx(TOTAL_1D - 2.0, abs=1e-10)
    assert summ.tail(0) == summ.total


def test_spectral_sums_brute_grid_consistency():
    # partial sums over a flat-index grid land inside the enclosure once the
    # grid's own certified truncation remainder is added back
    grid = 2000
    f = (np.arange(grid) + 1) // 2
    s_grid = float(np.sum(1.0 / (1.0 + f.astype(float) ** 2)))
    f_edge = float(f[-1])
    rem_hi = 2.0 / f_edge  # covers 2 * int_{f_edge}^inf x^-2 dx and the split pair
    for params in (SP1, SP2):
        basis = ordered_basis(params, 16)
        summ = spectral_sums(params, basis)
        brute = s_grid ** params.d
        upper = (s_grid + rem_hi) ** params.d
        assert brute <= summ.total_hi
        assert upper >= summ.total_lo


def test_spectral_sums_head_monotone_and_tail_decreasing():
    basis = ordered_basis(SP1, 128)
    summ = spectral_sums(SP1, basis)
    tails = np.array([summ.tail(k) for k in range(129)])
    assert np.all(tails > 0)
    assert np.all(np.diff(tails) < 0)


def test_spectral_sums_precision_errors():
    basis = ordered_basis(SP1, 8)
    with pytest.raises(ValueError):
        spectral_sums(SP1, basis, tol=0.0)
    # one ulp of the total pi coth pi is 4.4e-16
    with pytest.raises(PrecisionError, match=r"enclosure width .* above tol 1\.0e-18: the width is 14 ulps of the total"):
        spectral_sums(SP1, basis, tol=1e-18)
    # the total at d=3, s=0.51 is about 1.0e6, whose ulp is 1.2e-10
    sp = SpaceParams(3, 0.51)
    with pytest.raises(PrecisionError, match=r"enclosure width \d\.\d+e-\d+ of the series total 1\.00642e\+06"):
        spectral_sums(sp, ordered_basis(sp, 64), tol=1e-10)
    # at s = 100 the sigma^2 tail past the first nine functions is below one
    # ulp of the total 2, so the head sum reaches it in floats
    sp = SpaceParams(1, 100.0)
    with pytest.raises(PrecisionError, match="tail past the 9-term head is below the float resolution"):
        spectral_sums(sp, ordered_basis(sp, 9))


def test_spectral_sums_enclosure_depends_on_space_only():
    sp = SpaceParams(2, 1.7)
    first = spectral_sums(sp, ordered_basis(sp, 10))
    second = spectral_sums(sp, ordered_basis(sp, 40))
    assert (second.total_lo, second.total_hi) == (first.total_lo, first.total_hi)
    assert len(second.head) == 41


def mp_hurwitz(t, a, digits=40):
    """zeta(t, a) to `digits` significant digits, as mpmath's Riemann zeta(t)
    less the first a - 1 terms, at a working precision that absorbs the
    cancellation.  mpmath's two-argument zeta(t, a) is not used: at a = 1001
    it is off by 1e-16 relative at t = 12 and by 5e-10 at t = 40."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits + int(float(t) * math.log10(a)) + 10):
        t = mpmath.mpf(t)
        return +(mpmath.zeta(t) - mpmath.fsum(mpmath.mpf(n) ** -t for n in range(1, a)))


def mp_total(s, d):
    """(1 + 2 S)^d to 40 digits, S = sum_f 1/(1 + f^(2s)), by a partial sum
    to f = 50 and the alternating Hurwitz series of its tail."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        total = mpmath.fsum(1 / (1 + mpmath.mpf(f) ** (2 * s)) for f in range(1, 51))
        for j in itertools.count(1):
            z = mp_hurwitz(2 * j * s, 51)
            total += (-1) ** (j + 1) * z
            if z < mpmath.mpf(10) ** -45:
                break
        return (1 + 2 * total) ** d


def integral_test_enclosure(s, d, terms):
    """The integral-test bracket the closed form replaced: a partial sum to
    `terms` plus remainder bounds

        int_{N+1}^inf (x^(-2s) - x^(-4s)) dx <= remainder <= int_N^inf x^(-2s) dx,

    widened by a generous 1e-13 relative for rounding."""
    f = np.arange(1, terms + 1, dtype=float)
    partial = math.fsum(1.0 / (1.0 + f ** (2.0 * s)))
    big_n = float(terms)
    rem_hi = big_n ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
    rem_lo = max(
        (big_n + 1.0) ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
        - (big_n + 1.0) ** (1.0 - 4.0 * s) / (4.0 * s - 1.0),
        0.0,
    )
    lo = (1.0 + 2.0 * (partial + rem_lo)) ** d
    hi = (1.0 + 2.0 * (partial + rem_hi)) ** d
    return lo * (1.0 - 1e-13), hi * (1.0 + 1e-13)


@pytest.mark.parametrize(
    "t",
    [1.0 + 2.0 ** -40, 1.02, 1.2, 1.4, 2.0, 2.04, 3.06, 4.2, 7.3, 12.0, 40.0, 40.5, 80.0, 99.0, 100.2, 400.0],
)
def test_hurwitz_bracket_contains_references(t):
    import scipy.special

    lo, hi = spectral._hurwitz_bracket(t)
    a = spectral._SERIES_HEAD + 1
    exact = mp_hurwitz(t, a)
    assert lo <= exact <= hi
    if t * math.log2(a) <= 1000.0:
        # a^-t is a normal number: the bracket is a few ulps wide
        assert hi - lo <= 4e-15 * float(exact)
        # scipy's double-precision value agrees within the bracket width
        assert abs(scipy.special.zeta(t, a) - 0.5 * (lo + hi)) <= hi - lo
    else:
        assert lo == 0.0 and hi < 2.0 ** -990


@pytest.mark.parametrize("s", [0.5 + 2.0 ** -30, 0.51, 0.75, 1.0, 1.3, 5.0, 20.0, 100.0, 400.0])
def test_partial_and_tail_brackets_contain_exact_sums(s):
    mpmath = pytest.importorskip("mpmath")
    head_n = spectral._SERIES_HEAD
    part_lo, part_hi = spectral._partial_sum_bracket(s)
    tail_lo, tail_hi = spectral._tail_bracket(s, spectral._U * part_lo)
    with mpmath.workdps(40):
        s2 = 2 * mpmath.mpf(s)
        part = mpmath.fsum(1 / (1 + mpmath.mpf(f) ** s2) for f in range(1, head_n + 1))
        tail = mpmath.mpf(0)
        for j in itertools.count(1):
            z = mp_hurwitz(j * s2, head_n + 1)
            tail += (-1) ** (j + 1) * z
            if z < mpmath.mpf(10) ** -45 * part:
                break
    assert part_lo <= part <= part_hi
    assert tail_lo <= tail <= tail_hi
    # a few ulps of the larger part wide
    assert part_hi - part_lo <= 1e-14 * part_hi
    assert tail_hi - tail_lo <= 1e-14 * max(part_hi, tail_hi)


def test_euler_maclaurin_coefficients_are_the_fraction_values():
    # B_2k / (2k)! as int / int equals float of the exact Fraction, bit for bit
    bernoulli = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66))
    expected = tuple(float(b / math.factorial(2 * k)) for k, b in enumerate(bernoulli, start=1))
    assert spectral._EM_COEFFS == expected


@given(s=st.floats(0.5, 1e3, exclude_min=True), j=st.integers(1, 200))
@settings(max_examples=300)
def test_exact_multiple_test_is_the_fraction_test(s, j):
    # the rounded exponent 2 j s against the exact one, as _tail_bracket asks
    t = 2.0 * j * s
    assert spectral._is_exact_multiple(t, 2 * j, s) == (Fraction(t) == 2 * j * Fraction(s))
    # one ulp above the rounded product is never exact
    off = math.nextafter(t, math.inf)
    assert Fraction(off) != 2 * j * Fraction(s)
    assert not spectral._is_exact_multiple(off, 2 * j, s)


def test_exact_multiple_test_sees_rounded_products():
    # 2 j s is exact for a short mantissa, rounded for a full one
    assert spectral._is_exact_multiple(2.0 * 3 * 0.75, 6, 0.75)
    s = 1.0 + 2.0 ** -52
    t = 2.0 * 3 * s
    assert Fraction(t) != 6 * Fraction(s)
    assert not spectral._is_exact_multiple(t, 6, s)


@given(
    base=st.floats(0.5, 1e6),
    gap=st.integers(0, 8),
    d=st.integers(1, 40),
)
def test_power_bracket_contains_exact_powers(base, gap, d):
    # every S in [s_lo, s_hi] has its exact (1 + 2 S)^d inside the bracket
    s_lo, s_hi = base, base
    for _ in range(gap):
        s_hi = math.nextafter(s_hi, math.inf)
    lo, hi = spectral._power_bracket(s_lo, s_hi, d)
    if math.isfinite(hi):
        assert Fraction(lo) <= (1 + 2 * Fraction(s_lo)) ** d
        assert (1 + 2 * Fraction(s_hi)) ** d <= Fraction(hi)
        assert hi - lo <= (d * (2 * gap + 4) + 8) * 2.0 ** -52 * hi


@pytest.mark.parametrize("d, s, total, width, tol", [(4, 0.6, "12561.5", "72", "55"), (3, 0.51, "1.00642e+06", "80", "0.859")],
                         ids=["d4-s0.6", "d3-s0.51"])
def test_enclosure_error_gives_the_width_in_ulps_of_the_total(d, s, total, width, tol):
    # the rounding bounds of the partial sum, the tail and the d-th power
    # make the width dozens of ulps of the total, so tol = 1e-10, 55 ulps of
    # a total of 12561.5, is refused there though it is far above one ulp
    message = f"series total {total} above tol 1.0e-10: the width is {width} ulps of the total, tol {tol}"
    with pytest.raises(PrecisionError, match=re.escape(message) + "$"):
        spectral._series_enclosure(s, d, 1e-10)


def test_series_enclosure_matches_integral_test_oracle():
    # at s >= 1 the old bracket is narrow after 2^20 terms
    for s in (1.0, 1.3, 2.0, 5.0):
        for d in (1, 2, 3):
            lo, hi = spectral._series_enclosure(s, d, 1e-10)
            o_lo, o_hi = integral_test_enclosure(s, d, 1 << 20)
            assert o_lo <= hi and lo <= o_hi
            assert hi - lo < o_hi - o_lo


@given(
    s=st.floats(0.5, 20.0, exclude_min=True),
    d=st.integers(1, 5),
    tol=st.sampled_from((1e-8, 1e-10, 1e-12, 1e-14)),
)
@settings(max_examples=60)
def test_series_enclosure_property(s, d, tol):
    lo, hi = spectral._series_enclosure(s, d, math.inf)
    assert lo <= mp_total(s, d) <= hi
    if hi - lo <= tol:
        assert spectral._series_enclosure(s, d, tol) == (lo, hi)
    else:
        with pytest.raises(PrecisionError, match="enclosure width"):
            spectral._series_enclosure(s, d, tol)


@pytest.mark.parametrize("s, d", [(0.51, 1), (0.6, 1), (0.7, 1), (0.6, 3), (0.7, 3), (0.7, 5)])
def test_spectral_sums_reach_small_smoothness(s, d):
    # the regime d > 2s + 1 where the paper's rate beats Smolyak's algorithm
    sp = SpaceParams(d, s)
    summ = spectral_sums(sp, ordered_basis(sp, 64), tol=1e-10)
    assert summ.enclosure_width <= 1e-10
    assert summ.total_lo <= mp_total(s, d) <= summ.total_hi


@pytest.mark.parametrize(
    "params, m", [(SpaceParams(2, 0.75), 300), (SpaceParams(3, 1.3), 200), (SpaceParams(1, 3.0), 985)]
)
def test_head_bounds_contain_exact_prefix_sums(params, m):
    mpmath = pytest.importorskip("mpmath")
    basis = ordered_basis(params, m)
    summ = spectral_sums(params, basis)
    with mpmath.workdps(40):
        s2 = 2 * mpmath.mpf(params.s)
        exact = mpmath.mpf(0)
        for k in range(m + 1):
            lo, hi = summ.head_bounds(k)
            assert lo <= exact <= hi
            if k < m:
                w = mpmath.fprod(1 + mpmath.mpf((int(kc) + 1) // 2) ** s2 for kc in basis.indices[k])
                exact += 1 / w
        # the certified tail past the head holds the exact one
        assert summ.tail_upper(m) >= summ.total_lo - exact


def test_spectral_sums_head_bound_tracks_actual_rounding():
    # at s = 3 the tail past 985 functions is 1.4e-14, about 60 ulps of the
    # total 2.03, and the cumsum of the head loses about as much; a bound of
    # m ulps on that loss, 2.2e-13, would refuse this basis
    sp = SpaceParams(1, 3.0)
    basis = ordered_basis(sp, 985)
    summ = spectral_sums(sp, basis)
    assert summ.head_bounds(985)[1] < summ.total_lo
    assert summ.total - math.fsum(basis.sigma ** 2) <= summ.tail_upper(985) < 1e-13


def test_tail_upper_uses_upper_ends():
    head = np.array([0.0, 1.0, 1.5])
    summ = SpectrumSummary(total_lo=1.75, total_hi=2.0, head=head, head_err=np.array([0.0, 1e-3, 2e-3]))
    assert summ.head_bounds(2)[0] < 1.498 < 1.502 < summ.head_bounds(2)[1]
    assert summ.tail_upper(2) == pytest.approx(2.0 - 1.498, rel=1e-15)
    assert summ.tail_upper(2) > 2.0 - 1.498
    # an exact head: no widening, and total_hi - head[k] is exact here
    exact = SpectrumSummary(total_lo=1.75, total_hi=2.0, head=head)
    assert exact.head_bounds(1) == (1.0, 1.0)
    assert exact.tail_upper(1) == 1.0
    assert exact.tail(1) == 0.875
    with pytest.raises(ValueError):
        exact.tail_upper(3)


def test_beta_gamma_small_values():
    basis = ordered_basis(SP1, 8)
    summ = spectral_sums(SP1, basis)
    beta1, gamma1 = beta_gamma(summ, basis, 1)
    assert beta1 == pytest.approx(math.sqrt(TOTAL_1D - 1.0), abs=1e-10)
    assert gamma1 == pytest.approx(beta1)  # beta_1 > a_1 = 1/sqrt(2)
    for k in (1, 2, 5):
        beta, gamma = beta_gamma(summ, basis, k)
        assert gamma >= float(basis.sigma[k])
        assert gamma >= beta


def test_beta_gamma_argument_errors():
    basis = ordered_basis(SP1, 8)
    summ = spectral_sums(SP1, basis)
    with pytest.raises(ValueError):
        beta_gamma(summ, basis, 0)
    with pytest.raises(ValueError):
        beta_gamma(summ, basis, 8)


def test_beta_gamma_dominated_by_half_index():
    basis = ordered_basis(SP1, 300)
    summ = spectral_sums(SP1, basis)
    for k in range(2, 256):
        _, gamma = beta_gamma(summ, basis, k)
        beta_half, _ = beta_gamma(summ, basis, k // 2)
        assert gamma <= beta_half * (1 + 1e-12)


def geometric_summary(m):
    """Synthetic spectrum with a_j = 2^-j: total 4/3, head via exact scaling."""
    j = np.arange(m + 1)
    total = 4.0 / 3.0
    head = total - total * 4.0 ** (-j.astype(float))
    basis = spectral.OrderedBasis(
        params=SP1,
        indices=np.arange(m, dtype=np.int64)[:, None],
        weights=4.0 ** np.arange(m, dtype=float),
        sigma=2.0 ** -np.arange(m, dtype=float),
    )
    return SpectrumSummary(total_lo=total, total_hi=total, head=head), basis


def test_beta_gamma_geometric_closed_form():
    summ, basis = geometric_summary(24)
    for k in range(1, 15):
        beta, _ = beta_gamma(summ, basis, k)
        closed = 2.0 ** -k * math.sqrt(4.0 / (3.0 * k))
        assert beta == pytest.approx(closed, abs=1e-12)
        if k <= 6:
            assert beta == pytest.approx(closed, rel=1e-12)


def test_project_zeroes_the_tail():
    basis = ordered_basis(SP1, 6)
    f = CoefVector(basis, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    g = project(f, 2)
    assert g.c.tolist() == [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    assert project(f, 6).c.tolist() == f.c.tolist()
    assert project(f, 0).l2_norm() == 0.0
    with pytest.raises(ValueError):
        project(f, 7)


def test_coef_vector_norms_and_validation():
    basis = ordered_basis(SP1, 5)
    f = CoefVector(basis, np.array([3.0, 4.0]))
    assert f.l2_norm() == 5.0
    assert f.h_norm() == pytest.approx(math.sqrt(9.0 + 2.0 * 16.0))
    with pytest.raises(ValueError):
        CoefVector(basis, np.zeros(6))
    with pytest.raises(ValueError):
        CoefVector(basis, np.zeros((2, 2)))


def test_random_unit_function_normalized_and_reproducible():
    basis = ordered_basis(SP2, 64)
    for seed in (0, 1, 987654321):
        f = random_unit_function(basis, (1, 16), seed)
        assert abs(f.h_norm() - 1.0) <= 1e-12
        assert np.all(f.c[16:] == 0.0)
    f1 = random_unit_function(basis, (4, 9), 11)
    f2 = random_unit_function(basis, (4, 9), 11)
    assert np.array_equal(f1.c, f2.c)
    assert np.all(f1.c[:3] == 0.0)
    assert not np.array_equal(f1.c, random_unit_function(basis, (4, 9), 12).c)
    single = random_unit_function(basis, (5, 5), 3)
    assert abs(single.h_norm() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        random_unit_function(basis, (0, 4), 0)
    with pytest.raises(ValueError):
        random_unit_function(basis, (9, 4), 0)
    with pytest.raises(ValueError):
        random_unit_function(basis, (1, 65), 0)


def test_coef_vector_evaluate_matches_manual_sum():
    basis = ordered_basis(SP1, 7)
    c = np.array([0.5, -1.0, 0.25, 0.0, 2.0])
    f = CoefVector(basis, c)
    x = np.array([[0.1], [0.7], [0.32]])
    manual = np.array(
        [sum(c[j] * basis_eval(basis.indices[j], xi) for j in range(5)) for xi in x]
    )
    assert np.allclose(f.evaluate(x), manual, atol=1e-13)
