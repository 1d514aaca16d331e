"""Weighted exponential sums of a point set in one or two dimensions, and
the Gram blocks of the density-weighted basis matrix that they determine.

At d = 1 every basis function is a real trigonometric monomial,
b_j(x) = Re(c_j e^{2 pi i f_j x}) with c_j = 1 for the constant, sqrt(2)
for a cosine and -i sqrt(2) for a sine.  So every entry of the Gram matrix
B^T B of the weighted matrix B[i, j] = b_j(x_i) / sqrt(rho_i) is read off
the weighted exponential sums E(h) = sum_i rho_i^-1 e^{2 pi i h x_i}:

    (B^T B)[j, l] = Re(c_j c_l E(f_j + f_l) + c_j conj(c_l) E(f_j - f_l)) / 2,

with E(-h) = conj(E(h)).  On the exponentials e^{2 pi i f x}, |f| <= F, the
same Gram matrix is the Hermitian Toeplitz matrix T[f, g] = E(g - f), so a
product with it is one correlation: one FFT pair.  None of this forms an
n x m matrix; it is the structure behind the NFFT least squares of
Kammerer, Ullrich & Volkmer (2021) and Greengard & Lee (2004).

At d = 2 a basis function is a product of two such factors, and the product
of two factors in one coordinate is a sum of two cosines or two sines, at
f_j + f_l and f_j - f_l.  So a Gram entry is four terms of the real sums
sum_i rho_i^-1 t1(2 pi h1 x_i1) t2(2 pi h2 x_i2), t1 and t2 each a cosine
or a sine, and these are read off the two-dimensional sums
E(g1, g2) = sum_i rho_i^-1 e^{2 pi i (g1 x_i1 + g2 x_i2)} (exp_sums_2d,
gram_block_2d).
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import row_blocks

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
    4.4e-14 * sum(weights) at h = 3432 for 2048 random points, and stays
    under 1e-12 * sum(weights) up to h = 8192.

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


def exp_sums_2d(x, weights, h_max: int) -> np.ndarray:
    """E(g1, g2) = sum_i weights_i e^{2 pi i (g1 x_i1 + g2 x_i2)} for
    0 <= g1 <= h_max and |g2| <= h_max, as an (h_max + 1, 2 h_max + 1)
    array whose column g2 mod (2 h_max + 1) holds g2, so that E[g1, -g2]
    reads E(g1, -g2); the other half plane is E(-g) = conj(E(g)).

    From one complex exponential per coordinate and point, the powers
    z1^g1 and z2^g2, g1, g2 = 0..h_max, are built by multiplication
    (_powers, by doubling) and the negative g2 are their conjugates, so E is
    one complex matrix product of the two tables per row block of points
    (row_blocks), as for exp_sums, in its error class: the rounding of
    2 pi x scaled by the frequency.  Memory is O(block * h_max).
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if h_max < 0:
        raise ValueError(f"need h_max >= 0, got {h_max}")
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"need an (n, 2) array of points, got shape {x.shape}")
    if weights.shape != x.shape[:1]:
        raise ValueError(f"need one weight per point, got shapes {weights.shape} and {x.shape}")
    width = 2 * h_max + 1
    sums = np.zeros((h_max + 1, width), dtype=complex)
    # a complex entry is two floats wide
    for rows in row_blocks(len(x), 2 * (h_max + 1 + width)):
        e = np.exp((2j * np.pi) * x[rows].T)
        first = _powers(e[0], h_max + 1)
        first *= weights[rows]
        half = _powers(e[1], h_max + 1)
        second = np.concatenate((half, half[:0:-1].conj()))
        del half
        sums += first @ second.T
    return sums


def _split(flat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequency f_j, the real factor |c_j| / sqrt(2) (sqrt(1/2) on the
    constant, 1 otherwise) and the sine flag of one-coordinate flat
    indices, elementwise, so an (r, 2) array gives them per coordinate."""
    flat = np.asarray(flat, dtype=np.int64)
    return (flat + 1) // 2, np.where(flat == 0, math.sqrt(0.5), 1.0), flat % 2 == 1


def gram_block(sums: np.ndarray, rows, cols) -> np.ndarray:
    """The block (B^T B)[rows, cols] of a d = 1 instance, for flat basis
    indices rows and cols, from its sums E(h) up to the largest f_j + f_l.

    With p = |c_j c_l| / 2 and E(-h) = conj(E(h)), the module formula gives
    each entry as Re E(f_j + f_l) p + Re E(f_j - f_l) p between two cosines,
    Re E(f_j - f_l) p - Re E(f_j + f_l) p between two sines, and
    Im E(f_j + f_l) p -+ Im E(f_j - f_l) p between a cosine row and a sine
    column (-) or a sine row and a cosine column (+); these are the real
    parts of the complex products term by term, so the block is the same to
    the bit.  It is filled one cos/sin quadrant at a time from the real or
    imaginary parts of the sums, so nothing complex of the block's size is
    made and the call holds under three real blocks at a time.
    """
    f_r, a_r, sin_r = _split(rows)
    f_c, a_c, sin_c = _split(cols)
    block = np.empty((len(f_r), len(f_c)))
    for row_sin in (False, True):
        r = np.flatnonzero(sin_r == row_sin)
        for col_sin in (False, True):
            c = np.flatnonzero(sin_c == col_sin)
            mixed = row_sin != col_sin
            part = sums.imag if mixed else sums.real
            p = np.multiply.outer(a_r[r], a_c[c])
            h = np.add.outer(f_r[r], f_c[c])
            plus = part[h]
            plus *= p
            np.subtract.outer(f_r[r], f_c[c], out=h)
            negative = h < 0
            minus = part[np.abs(h, out=h)]
            if mixed:
                # Im E(-h) = -Im E(h)
                np.negative(minus, out=minus, where=negative)
            minus *= p
            if row_sin and col_sin:
                np.subtract(minus, plus, out=plus)
            elif col_sin:
                plus -= minus
            else:
                plus += minus
            block[np.ix_(r, c)] = plus
    return block


def _real_tables(sums: np.ndarray, top: int) -> np.ndarray:
    """The real sums sum_i w_i t1(2 pi g1 x_i1) t2(2 pi g2 x_i2) for
    g1, g2 = -top..2 top, as a (4, 3 top + 1, 3 top + 1) array: table
    2 * (t1 is a sine) + (t2 is a sine), that is CC, CS, SC and SS, from the
    sums E of exp_sums_2d:

        CC = Re(E(g1, g2) + E(g1, -g2)) / 2,  SS = Re(E(g1, -g2) - E(g1, g2)) / 2,
        SC = Im(E(g1, g2) + E(g1, -g2)) / 2,  CS = Im(E(g1, g2) - E(g1, -g2)) / 2.

    The rows g1 < 0 are the rows -g1 with the parity in g1 (a sine is
    odd), so a term at a negative frequency is a plain read.  Only the
    tables and two real (2 top + 1, 3 top + 1) arrays are made.
    """
    g = np.arange(-top, 2 * top + 1)
    tables = np.empty((4, len(g), len(g)))
    ahead = tables[:, top:]  # g1 = 0..2 top
    lead = sums[: 2 * top + 1]
    plus, minus = lead.real.take(g, axis=1), lead.real.take(-g, axis=1)
    np.add(plus, minus, out=ahead[0])
    np.subtract(minus, plus, out=ahead[3])
    del plus, minus
    plus, minus = lead.imag.take(g, axis=1), lead.imag.take(-g, axis=1)
    np.subtract(plus, minus, out=ahead[1])
    np.add(plus, minus, out=ahead[2])
    ahead *= 0.5  # the rows g1 < 0 are not filled yet
    # CC and CS are even in g1, SC and SS odd
    tables[:, :top] = ahead[:, top:0:-1]
    np.negative(tables[2:, :top], out=tables[2:, :top])
    return tables


def gram_block_2d(sums: np.ndarray, rows, cols) -> np.ndarray:
    """The block (B^T B)[rows, cols] of a d = 2 instance, for (r, 2) and
    (c, 2) arrays of flat basis indices rows and cols, from its sums
    E = exp_sums_2d(x, 1 / rho, h) with h at least twice the largest
    frequency of rows and cols.

    In each coordinate the product of a row and a column factor is, by
    product to sum, p (u(f_r + f_c) + v(f_r - f_c)) with p the product of
    their real factors |c| / sqrt(2) (sqrt(1/2) on a constant, 1
    otherwise), u and v cosines when both factors are cosines or both
    sines and sines otherwise: cos cos = cos S + cos D, sin sin =
    cos D - cos S, sin cos = sin S + sin D and cos sin = sin S - sin D, with
    S = f_r + f_c and D = f_r - f_c.  So an entry is p_j p_l times four
    reads of the real tables (_real_tables), one per choice of S or D in
    each coordinate.  The rows are taken one kind (cosine or sine in each
    coordinate) at a time: then the table, the sign of a term and the
    choice of D or -D (a cos sin term reads its sine at f_c - f_r) depend
    on the column alone, so every read is at a row part plus a column part
    of a flat index, one outer sum, and every sign is a column weight.  The
    block is filled one row panel of a kind at a time, with three arrays
    of the panel's size, an eighth of a row block (row_blocks) each, so the
    call holds the block, the tables and about half a row block more.
    """
    f_r, a_r, sin_r = _split(rows)
    f_c, a_c, sin_c = _split(cols)
    top = int(max(f_r.max(initial=0), f_c.max(initial=0)))
    h = sums.shape[0]
    if sums.shape != (h, 2 * h - 1) or 2 * top >= h:
        raise ValueError(f"need E(g1, g2) up to twice the largest frequency, got shape {sums.shape}")
    tables = _real_tables(sums, top).ravel()
    width = 3 * top + 1
    p_r, p_c = a_r[:, 0] * a_r[:, 1], a_c[:, 0] * a_c[:, 1]
    block = np.empty((len(f_r), len(f_c)))
    for kind in ((False, False), (False, True), (True, False), (True, True)):
        at = np.flatnonzero((sin_r == kind).all(axis=1))
        # per coordinate: the row part, column part and column sign (-1 on
        # S of sin sin) of the frequencies of its S and D terms, and whether
        # its terms are sines (the row and column kinds differ)
        coordinates, sines = [], []
        for c, row_sine in enumerate(kind):
            col_sine = sin_c[:, c]
            toward = 1 if row_sine else -1
            sines.append(col_sine != row_sine)
            coordinates.append((
                (f_r[at, c], f_c[:, c], np.where(col_sine & row_sine, -1.0, 1.0)),
                (toward * f_r[at, c], -toward * f_c[:, c], 1.0),
            ))
        table = (2 * sines[0] + sines[1]) * width * width + top * (width + 1)
        terms = [
            (row1 * width + row2, table + col1 * width + col2, p_c * sign1 * sign2)
            for row1, col1, sign1 in coordinates[0]
            for row2, col2, sign2 in coordinates[1]
        ]
        for panel in row_blocks(len(at), 8 * len(f_c)):
            rows_at = at[panel]
            index = np.empty((len(rows_at), len(f_c)), dtype=np.int64)
            value = np.empty(index.shape)
            out = np.empty(index.shape)
            for i, (row_part, col_part, weight) in enumerate(terms):
                np.add.outer(row_part[panel], col_part, out=index)
                tables.take(index, out=value, mode="clip")
                if i == 0:
                    np.multiply(value, weight, out=out)
                else:
                    value *= weight
                    out += value
            out *= p_r[rows_at, None]
            block[rows_at] = out
    return block


class TailGram:
    """Gamma^T Gamma = diag(sigma) (B^T B)[tail, tail] diag(sigma) of a d = 1
    instance, with Gamma = B[:, tail] diag(sigma) for the distinct
    nonconstant flat basis indices tail (positions k..m-1 of the basis), as
    a symmetric positive semidefinite operator of size len(tail): a Gram
    operator for samplerec.lsq.spectral_norm, with shape and matvec (the
    product with one vector), diagonal and trace, and no matrix.

    A product maps the tail coefficients to the exponentials |f| <= F (F the
    largest tail frequency), multiplies by the Toeplitz matrix
    T[f, g] = E(g - f) as a circular convolution of length L, the power of
    two above 4F, whose kernel transform is taken once here, and maps back.
    Coefficients, kernel and product are all Hermitian in f, so their
    transforms are real: one pair of half-length real FFTs (hfft, ihfft).
    """

    def __init__(self, sums: np.ndarray, tail, sigma: np.ndarray) -> None:
        tail = np.asarray(tail, dtype=np.int64)
        if len(tail) == 0 or np.any(tail <= 0) or len(np.unique(tail)) != len(tail) or len(sigma) != len(tail):
            raise ValueError("need distinct nonconstant tail indices, one sigma each")
        self._freq = (tail + 1) // 2
        self._cos = tail % 2 == 0
        self._sigma = np.asarray(sigma, dtype=float)
        top = int(self._freq.max())
        if len(sums) <= 2 * top:
            raise ValueError(f"need E(h) up to h={2 * top}, got {len(sums) - 1}")
        self._length = length = 1 << (4 * top).bit_length()
        # the circular kernel K[t mod L] = E(-t), |t| <= 2F, is Hermitian
        # (K[-t] = conj K[t]), so its transform is real: hfft of its first half
        kernel = np.zeros(length // 2 + 1, dtype=complex)
        kernel[: 2 * top + 1] = sums[: 2 * top + 1].conj()
        self._kernel = np.fft.hfft(kernel, length)
        self._diagonal = sums[0].real + np.where(self._cos, 1.0, -1.0) * sums[2 * self._freq].real
        self._cos_at, self._sin_at = np.flatnonzero(self._cos), np.flatnonzero(~self._cos)
        self._cos_freq, self._sin_freq = self._freq[self._cos_at], self._freq[self._sin_at]
        self.shape = (len(tail), len(tail))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Gamma^T Gamma v for a vector v of length q."""
        u = math.sqrt(0.5) * self._sigma * v
        # coefficients c(f) on e^{2 pi i f x}, |f| <= F, at f mod L:
        # sqrt(2) cos = (e_f + e_-f) / sqrt(2), sqrt(2) sin = -i (e_f - e_-f) / sqrt(2),
        # so c(-f) = conj c(f); hfft takes c(0..L/2) and gives the real transform
        c = np.zeros(self._length // 2 + 1, dtype=complex)
        c.real[self._cos_freq] = u[self._cos_at]
        c.imag[self._sin_freq] = -u[self._sin_at]
        # the correlation y(f) = sum_g E(g - f) c(g) is Hermitian as well
        y = np.fft.ihfft(self._kernel * np.fft.hfft(c, self._length))
        y = y[self._freq]
        return math.sqrt(2.0) * self._sigma * np.where(self._cos, y.real, -y.imag)

    def diagonal(self) -> np.ndarray:
        """Squared column norms of Gamma: sigma^2 (E(0) +- Re E(2 f))."""
        return self._sigma ** 2 * self._diagonal

    def trace(self) -> float:
        """Squared Frobenius norm of Gamma."""
        return float(np.sum(self.diagonal()))
