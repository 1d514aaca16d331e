"""Weighted sums of a point set on a dyadic staircase, and the Gram blocks
of the density-weighted basis matrix that they determine.

At d = 1 every basis function is a real trigonometric monomial,
b_j(x) = Re(c_j e^{2 pi i f_j x}) with c_j = 1 for the constant, sqrt(2)
for a cosine and -i sqrt(2) for a sine.  So every entry of the Gram matrix
B^T B of the weighted matrix B[i, j] = b_j(x_i) / sqrt(rho_i) is read off
the weighted exponential sums E(h) = sum_i rho_i^-1 e^{2 pi i h x_i}
(exp_sums):

    (B^T B)[j, l] = Re(c_j c_l E(f_j + f_l) + c_j conj(c_l) E(f_j - f_l)) / 2,

with E(-h) = conj(E(h)): the real parts of E are the cosine sums, the
imaginary parts the sine sums.  On the exponentials e^{2 pi i f x},
|f| <= F, the same Gram matrix is the Hermitian Toeplitz matrix
T[f, g] = E(g - f), so a product with it is one correlation: one FFT pair
(TailGram).  None of this forms an n x m matrix; it is the structure
behind the NFFT least squares of Kammerer, Ullrich & Volkmer (2021) and
Greengard & Lee (2004).

At d >= 2 a basis function is a product of such factors, and the product
of two factors in one coordinate is a sum of two cosines or two sines, at
f_j + f_l and f_j - f_l.  So a Gram entry is 2^d terms of the real sums
sum_i rho_i^-1 prod_c t_c(2 pi g_c x_ic), each t_c a cosine or a sine,
read off a dyadic staircase that covers the vectors g the basis needs.
At d = 1 that staircase is one box, the sums of E.  So one form and one
reader serve every d (staircase_sums, Staircase.gram_block).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .spectral import OrderedBasis, row_blocks

# E(64 b + j) = sum_i w_i e^{2 pi i 64 b x_i} e^{2 pi i j x_i}: one complex
# matrix product of a (#blocks, rows) and a (64, rows) table of powers per
# row block of points.
_BLOCK = 64


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """The (count, len(z)) table of z^0 .. z^(count - 1), by doubling: row 0
    is 1, and rows [have, have + take) are rows [0, take) times z^have, with
    z^have from repeated squaring.  So row r is the product of the squares
    z^(2^b) over the set bits b of r, at most about 2 log2(count)
    multiplications per entry.  Powers run down the first axis so that each
    doubling step writes whole contiguous rows; with the powers along the
    second axis the strided writes took 1.5-2x as long."""
    table = np.empty((count, len(z)), dtype=complex)
    table[0] = 1.0
    have, step = 1, z
    while have < count:
        take = min(have, count - have)
        np.multiply(table[:take], step, out=table[have : have + take])
        have += take
        if have < count:
            step = step * step
    return table


def exp_sums(x, weights, h_max: int) -> np.ndarray:
    """E(h) = sum_i weights_i e^{2 pi i h x_i} for h = 0..h_max, from one
    complex exponential e^{2 pi i x_i} per point: the first 64 powers and the
    block bases e^{2 pi i 64 b x} are built from it by multiplication
    (_powers, by doubling), and E is their product summed over the points.

    The error is in the class of angles (2 pi h) * x taken one by one: the
    rounding of 2 pi x, scaled by h through the powers, dominates the
    2 log2(h) roundings of the products.  Against exact sums it measured
    4.4e-14 * sum(weights) at h = 3432 for 2048 random points, and over
    every h up to 11816 3.3e-13 * sum(weights) for 512 points and
    1.5e-13 * sum(weights) for 2048, under 1e-12 * sum(weights).

    The tables are made one row block of points at a time (row_blocks) and
    their products summed, so memory is O(block * (64 + h_max / 64)).
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if h_max < 0:
        raise ValueError(f"need h_max >= 0, got {h_max}")
    if x.ndim != 1:
        raise ValueError(f"need a 1-D array of points, got shape {x.shape}")
    if weights.shape != x.shape:
        raise ValueError(f"need one weight per point, got shapes {weights.shape} and {x.shape}")
    blocks = h_max // _BLOCK + 1
    sums = np.zeros((blocks, _BLOCK), dtype=complex)
    # a complex entry is two floats wide
    for rows in row_blocks(len(x), 2 * (_BLOCK + blocks)):
        e = np.exp((2j * np.pi) * x[rows])
        inner = _powers(e, _BLOCK)
        outer = _powers(inner[-1] * e, blocks)
        outer *= weights[rows]
        sums += outer @ inner.T
    return sums.ravel()[: h_max + 1]


class Staircase:
    """The real weighted sums R_tau(g) = sum_i w_i prod_c tau_c(2 pi g_c x_ic)
    of a point set, tau_c a cosine or a sine and g >= 0, on the dyadic
    staircase that staircase_sums builds for the basis prefix it keeps (the
    first m positions of basis), and the Gram blocks of those basis
    functions that they give, read by position (gram_block).

    values[tau, starts[g'] + g_d] is R_tau(g', g_d), g' the first d - 1
    coordinates and tau = sum_c [tau_c is a sine] 2^(d - 1 - c): each row g'
    holds the last coordinate from -t to t, t that of its box, the negative
    half copied with its parity (a sine is odd).  At d = 1 starts is a 0-d
    array and there is one row: values[0] and values[1] are Re E and Im E
    of exp_sums from -t to t.  Per position: freq and sine, views of the
    basis's frequencies and sines, and factor, the product of the real
    factors |c| / sqrt(2) (sqrt(1/2) on a constant coordinate, 1
    otherwise).  The staircase covers their pairs by construction.
    """

    def __init__(self, starts: np.ndarray, values: np.ndarray, basis: OrderedBasis, m: int) -> None:
        self.starts, self.values, self.basis, self.m = starts, values, basis, m
        self.freq = basis.frequencies[:m]
        self.factor = np.prod(np.where(self.freq == 0, math.sqrt(0.5), 1.0), axis=1)
        self.sine = basis.sines[:m]

    def gram_block(self, rows: slice, cols: slice) -> np.ndarray:
        """The block (B^T B)[rows, cols] for slices rows and cols of the
        positions 0..m-1 of its basis functions, checked by PointSet.gram.

        In each coordinate the product of a row and a column factor is, by
        product to sum, p (u(f_r + f_c) + v(f_r - f_c)) with p the product of
        their real factors |c| / sqrt(2) (sqrt(1/2) on a constant, 1
        otherwise), u and v cosines when both factors are cosines or both
        sines and sines otherwise: cos cos = cos S + cos D, sin sin =
        cos D - cos S, sin cos = sin S + sin D and cos sin = sin S - sin D,
        with S = f_r + f_c and D = f_r - f_c.  So an entry is p_j p_l times
        2^d reads of the sums, one per choice of S or D in each coordinate.
        The rows are taken one kind (cosine or sine in each coordinate) at a
        time: then tau, the sign of S and the choice of D or -D (a cos sin
        term reads its sine at f_c - f_r, with a plus sign) depend on the
        column alone.  The last coordinate and tau are read at a row part
        plus a column part, one outer sum; each other coordinate reads |D|,
        the sign of a sine term turned where D < 0.  The block is filled
        one row panel of a kind at a time, an eighth of a row block
        (row_blocks) each, with a few arrays per coordinate of a panel's
        size.
        """
        f_r, p_r, sin_r = self.freq[rows], self.factor[rows], self.sine[rows]
        f_c, p_c, sin_c = self.freq[cols], self.factor[cols], self.sine[cols]
        d = f_r.shape[1]
        strides = np.cumprod((1,) + self.starts.shape[:0:-1])[::-1]
        starts, sums, total = self.starts.ravel(), self.values.ravel(), self.values.shape[1]
        block = np.empty((len(f_r), len(f_c)))
        for kind in itertools.product((False, True), repeat=d):
            at = np.flatnonzero((sin_r == kind).all(axis=1))
            toward = np.where(kind, 1, -1)
            # per coordinate and column: whether its terms are sines, and
            # the sign of its S term, -1 on sin sin (None when all are 1)
            sine = sin_c != kind
            s_sign = [np.where(sin_c[:, c], -1.0, 1.0) if kind[c] else None for c in range(d)]
            column = sine @ (1 << np.arange(d - 1, -1, -1)) * total
            # lifts every D of a cosine term above 0, so that the sign of
            # D + lift turns a sine term at a negative frequency alone
            lift = np.where(sine, 0, self.starts.size)
            for panel in row_blocks(len(at), 8 * len(f_c)):
                r = at[panel]
                # per coordinate: the index part (times its stride) and the
                # factor (a sign, or None) of its S and of its D term
                terms = []
                for c in range(d - 1):
                    s_part = np.add.outer(strides[c] * f_r[r, c], strides[c] * f_c[:, c])
                    step = strides[c] * toward[c]
                    d_part = np.subtract.outer(step * f_r[r, c], step * f_c[:, c])
                    flip = np.copysign(1.0, d_part + lift[:, c]) if sine[:, c].any() else None
                    terms.append(((s_part, s_sign[c]), (np.abs(d_part, out=d_part), flip)))
                c = d - 1
                s_last = np.add.outer(f_r[r, c], column + f_c[:, c])
                d_last = np.add.outer(toward[c] * f_r[r, c], column - toward[c] * f_c[:, c])
                out = None
                for choice in itertools.product(*terms):
                    start = starts.take(sum(part for part, _ in choice), mode="clip")
                    pair = sums.take(start + s_last, mode="clip")
                    if s_sign[c] is not None:
                        pair *= s_sign[c]
                    pair += sums.take(start + d_last, mode="clip")
                    for _, factor in choice:
                        if factor is not None:
                            pair *= factor
                    if out is None:
                        out = pair
                    else:
                        out += pair
                # one rounding of p_j p_l, as the complex formula at d = 1
                out *= np.multiply.outer(p_r[r], p_c)
                block[r] = out
        return block


def _khatri_rao(tables: list[np.ndarray]) -> np.ndarray:
    """The row-wise products of (r_c, points) tables, one row of each, the
    first table's rows outermost: a (prod r_c, points) table."""
    out = tables[0]
    for table in tables[1:]:
        out = (out[:, None] * table).reshape(-1, table.shape[1])
    return out


def _distinct_rows(freq: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in lexicographic order, as
    np.unique(freq, axis=0) gives them."""
    # by lexsort: np.unique imports numpy.ma (for its masked check) on first use
    rows = freq[np.lexsort(freq.T[::-1])]
    return rows[np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))]


def _box_sums(x: np.ndarray, weights: np.ndarray, freq: np.ndarray, top: int) -> tuple[list, list]:
    """The boxes of the staircase of an (n, d) point set, d >= 2, and the
    sums on each, for the distinct frequency vectors freq, top twice the
    largest frequency: each box a list of d (lo, hi) ranges, and its sums
    an array whose axes interleave each coordinate's (g, cos/sin), the
    coordinates split between the two axes (see staircase_sums)."""
    d = x.shape[1]
    levels = top.bit_length() + 1
    # reach[l]: the largest f_d + f'_d over pairs whose S or D falls in the
    # levels l of the first d - 1 coordinates (bit_length, by frexp)
    reach = np.full((levels,) * (d - 1), -1, dtype=np.int64)
    for part in row_blocks(len(freq), 8 * len(freq)):
        last = np.add.outer(freq[part, -1], freq[:, -1]).ravel()
        level = [
            (np.frexp(np.add.outer(freq[part, c], freq[:, c]))[1].ravel(),
             np.frexp(np.abs(np.subtract.outer(freq[part, c], freq[:, c])))[1].ravel())
            for c in range(d - 1)
        ]
        for choice in itertools.product((0, 1), repeat=d - 1):
            at = np.ravel_multi_index([level[c][i] for c, i in enumerate(choice)], reach.shape)
            np.maximum.at(reach.reshape(-1), at, last)
    bounds = [(0, 1)] + [(1 << (l - 1), min(1 << l, top + 1)) for l in range(1, levels)]
    boxes = [[bounds[l] for l in box] + [(0, int(reach[box]) + 1)] for box in zip(*np.nonzero(reach >= 0))]
    counts = [max(box[c][1] for box in boxes) for c in range(d)]
    # each box's coordinates split in two where the Khatri-Rao products of
    # the parts are smallest (a part of one coordinate is a slice)
    splits, partial, widest = [], [], 0
    for box in boxes:
        sizes = [2 * (hi - lo) for lo, hi in box]
        made = [(math.prod(sizes[:j]) if j > 1 else 0) + (math.prod(sizes[j:]) if j < d - 1 else 0) for j in range(1, d)]
        splits.append(1 + made.index(min(made)))
        partial.append(np.zeros((math.prod(sizes[: splits[-1]]), math.prod(sizes[splits[-1] :]))))
        widest = max(widest, min(made))
    for rows in row_blocks(len(x), 2 * (sum(counts) + max(counts)) + widest):
        tables = []
        for c, count in enumerate(counts):
            powers = _powers(np.exp((2j * np.pi) * x[rows, c]), count)
            tables.append(np.stack((powers.real, powers.imag), axis=1).reshape(2 * count, -1))
        tables[-1] *= weights[rows]
        for box, j, part in zip(boxes, splits, partial):
            slices = [table[2 * lo : 2 * hi] for table, (lo, hi) in zip(tables, box)]
            part += _khatri_rao(slices[:j]) @ _khatri_rao(slices[j:]).T
    return boxes, partial


def staircase_sums(x, weights, basis: OrderedBasis, m: int) -> Staircase:
    """The sums R_tau(g) = sum_i weights_i prod_c tau_c(2 pi g_c x_ic) of an
    (n, d) point set on the dyadic staircase that covers every vector
    |f_j +- f_l| (per coordinate) of two frequency vectors of the first m
    positions of an ordered basis, as the Staircase of that prefix.

    At d = 1 the staircase is one box, [0, t] with t twice the largest
    frequency, and its cosine and sine sums are the real and imaginary
    parts of exp_sums's E(h), h = 0..t.  At d >= 2 it cuts the first d - 1
    coordinates into dyadic levels {0} and [2^(l-1), 2^l) up to twice the
    largest frequency, and holds one box per combination of levels that
    some pair reaches: the product of those levels and the prefix [0, t] of
    the last coordinate, t the largest f_d + f'_d over those pairs
    (Doehler, Kunis & Potts, Nonequispaced hyperbolic cross fast Fourier
    transform, SIAM J. Numer. Anal., 2010).  Per row block of points
    (row_blocks) and coordinate, the powers of e^{2 pi i x_ic} are built by
    multiplication (_powers) and split into a (g, cos/sin, point) table;
    each box is then one real product of the Khatri-Rao products of its
    slices (the last coordinate's prefix weighted) on either side of a
    split of its coordinates (_box_sums).  So the error is in exp_sums's
    class, the rounding of 2 pi x scaled by the frequency, and the cost
    n 2^d times the staircase's size.
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"need an (n, d) array of points, got shape {x.shape}")
    d = x.shape[1]
    if weights.shape != x.shape[:1]:
        raise ValueError(f"need one weight per point, got shapes {weights.shape} and {x.shape}")
    if basis.params.d != d or not 1 <= m <= len(basis):
        raise ValueError(f"need the first 1..{len(basis)} positions of a d = {d} basis, got m={m} at d = {basis.params.d}")
    top = 2 * basis.max_frequency(m)
    if d == 1:
        e = exp_sums(x[:, 0], weights, top)
        boxes, partial = [[(0, top + 1)]], [np.stack((e.real, e.imag), axis=1)]
    else:
        boxes, partial = _box_sums(x, weights, _distinct_rows(basis.frequencies[:m]), top)
    # each box as (tau, g', g_d) rows from -t to t, and the starts of its rows
    starts = np.full((top + 1,) * (d - 1), -1, dtype=np.intp)
    size = sum(math.prod(hi - lo for lo, hi in box[:-1]) * (2 * box[-1][1] - 1) for box in boxes)
    sums = np.empty((1 << d, size))
    offset = 0
    for box, part in zip(boxes, partial):
        t = box[-1][1] - 1
        shape = [hi - lo for lo, hi in box]
        part = part.reshape([axis for n in shape for axis in (n, 2)])
        part = part.transpose(list(range(1, 2 * d, 2)) + list(range(0, 2 * d, 2))).reshape(1 << d, -1, t + 1)
        count = part.shape[1]
        held = sums[:, offset : offset + count * (2 * t + 1)].reshape(1 << d, count, 2 * t + 1)
        held[:, :, t:] = part
        held[:, :, :t] = part[:, :, :0:-1]
        held[1::2, :, :t] *= -1.0
        rows = (offset + t + (2 * t + 1) * np.arange(count)).reshape(shape[:-1])
        starts[tuple(slice(lo, hi) for lo, hi in box[:-1])] = rows
        offset += count * (2 * t + 1)
    return Staircase(starts, sums, basis, m)


class TailGram:
    """Gamma^T Gamma = diag(sigma) (B^T B)[k:m, k:m] diag(sigma) of a d = 1
    instance, from its one-box staircase (the sums of E), with
    Gamma = B[:, k:m] diag(sigma) for the tail positions k..m-1 of the
    staircase's basis functions (distinct and nonconstant), as a symmetric
    positive semidefinite operator of size m - k: a Gram operator for
    samplerec.lsq.spectral_norm, with shape and matvec (the product with
    one vector), and no matrix.

    A product maps the tail coefficients to the exponentials |f| <= F (F the
    largest tail frequency), multiplies by the Toeplitz matrix
    T[f, g] = E(g - f) as a circular convolution of length L, the power of
    two above 4F, whose kernel transform is taken once here, and maps back.
    Coefficients, kernel and product are all Hermitian in f, so their
    transforms are real: one pair of half-length real FFTs (hfft, ihfft).
    """

    def __init__(self, sums: Staircase, k: int, sigma: np.ndarray) -> None:
        m = sums.m
        if sums.basis.params.d != 1:
            raise ValueError("need a d = 1 staircase")
        if not 0 <= k < m or len(sigma) != m - k:
            raise ValueError(f"need tail positions k..{m - 1} with 0 <= k < {m}, one sigma each, got k={k}")
        freq, sine = sums.freq[k:, 0], sums.sine[k:, 0]
        # coefficients c(f) on e^{2 pi i f x}, |f| <= F, at f mod L:
        # sqrt(2) cos = (e_f + e_-f) / sqrt(2), sqrt(2) sin = -i (e_f - e_-f) / sqrt(2),
        # so c(-f) = conj c(f); a tail coefficient is Re c(f) (a cosine) or
        # -Im c(f) (a sine), the float at 2 f or 2 f + 1 of c(0..L/2)
        self._at = 2 * freq + sine
        # a hand-made OrderedBasis may repeat an index or hold the constant in
        # its tail; repeats by sorted differences (np.unique imports numpy.ma)
        if np.any(freq == 0) or np.any(np.diff(np.sort(self._at)) == 0):
            raise ValueError("need distinct nonconstant tail indices")
        sigma = np.asarray(sigma, dtype=float)
        top = int(freq.max())
        # the staircase's one row holds Re E and Im E from -t to t, t >= 2F
        origin = int(sums.starts)
        self._length = length = 1 << (4 * top).bit_length()
        # the circular kernel K[t mod L] = E(-t), |t| <= 2F, is Hermitian
        # (K[-t] = conj K[t]), so its transform is real: hfft of its first half
        kernel = np.zeros(length // 2 + 1, dtype=complex)
        kernel.real[: 2 * top + 1], kernel.imag[: 2 * top + 1] = sums.values[:, origin - 2 * top : origin + 1][:, ::-1]
        self._kernel = np.fft.hfft(kernel, length)
        sign = np.where(sine, -1.0, 1.0)
        self._scale_in = sign * (math.sqrt(0.5) * sigma)
        self._scale_out = sign * (math.sqrt(2.0) * sigma)
        self._spectrum = np.zeros(length // 2 + 1, dtype=complex)
        self.shape = (m - k, m - k)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Gamma^T Gamma v for a vector v of length q."""
        # each product writes the same floats, the rest stay zero; hfft takes
        # c(0..L/2), and the correlation y(f) = sum_g E(g - f) c(g) is Hermitian
        self._spectrum.view(float)[self._at] = self._scale_in * v
        y = np.fft.ihfft(self._kernel * np.fft.hfft(self._spectrum, self._length))
        return self._scale_out * y.view(float)[self._at]
