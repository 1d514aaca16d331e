"""Weighted exponential sums of a one-dimensional point set, and the Gram
blocks of the density-weighted basis matrix that they determine.

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
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import row_blocks

# E(64 b + j) = sum_i w_i e^{2 pi i 64 b x_i} e^{2 pi i j x_i}: one complex
# matrix product of a (rows, #blocks) and a (rows, 64) table of exponentials
# per row block of points.
_BLOCK = 64


def exp_sums(x, weights, h_max: int) -> np.ndarray:
    """E(h) = sum_i weights_i e^{2 pi i h x_i} for h = 0..h_max, by blocked
    powers: the block bases e^{2 pi i 64 b x} times the first 64 powers.
    Each angle is (2 pi h) * x, in the association basis_matrix uses.

    The tables are made one row block of points at a time (row_blocks) and
    their products summed, so memory is O(block * (64 + h_max / 64)).
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    blocks = h_max // _BLOCK + 1
    inner_freq = (2.0 * np.pi) * np.arange(_BLOCK)
    outer_freq = (2.0 * np.pi * _BLOCK) * np.arange(blocks)
    sums = np.zeros((blocks, _BLOCK), dtype=complex)
    # a complex entry is two floats wide
    for rows in row_blocks(len(x), 2 * (_BLOCK + blocks)):
        inner = np.exp(1j * np.multiply.outer(x[rows], inner_freq))
        outer = np.exp(1j * np.multiply.outer(x[rows], outer_freq))
        outer *= weights[rows, None]
        sums += outer.T @ inner
    return sums.ravel()[: h_max + 1]


def _split(flat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequency f_j, the real factor |c_j| / sqrt(2) (sqrt(1/2) on the
    constant, 1 otherwise) and the sine flag of one-coordinate flat
    indices."""
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


class TailGram:
    """Gamma^T Gamma = diag(sigma) (B^T B)[tail, tail] diag(sigma) of a d = 1
    instance, with Gamma = B[:, tail] diag(sigma) for the distinct
    nonconstant flat basis indices tail (positions k..m-1 of the basis), as
    a symmetric positive semidefinite operator of size len(tail): a Gram
    operator for samplerec.lsq.spectral_norm, with shape, matmat and matvec
    (one method, for a vector or a block), diagonal and trace, and no
    matrix.

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

    def matmat(self, v: np.ndarray) -> np.ndarray:
        """Gamma^T Gamma v for a vector or a (q, p) block v."""
        column = (-1,) + (1,) * (v.ndim - 1)
        sigma = self._sigma.reshape(column)
        u = math.sqrt(0.5) * sigma * v
        # coefficients c(f) on e^{2 pi i f x}, |f| <= F, at f mod L:
        # sqrt(2) cos = (e_f + e_-f) / sqrt(2), sqrt(2) sin = -i (e_f - e_-f) / sqrt(2),
        # so c(-f) = conj c(f); hfft takes c(0..L/2) and gives the real transform
        c = np.zeros((self._length // 2 + 1,) + v.shape[1:], dtype=complex)
        c.real[self._cos_freq] = u[self._cos_at]
        c.imag[self._sin_freq] = -u[self._sin_at]
        # the correlation y(f) = sum_g E(g - f) c(g) is Hermitian as well
        y = np.fft.ihfft(self._kernel.reshape(column) * np.fft.hfft(c, self._length, axis=0), axis=0)
        y = y[self._freq]
        return math.sqrt(2.0) * sigma * np.where(self._cos.reshape(column), y.real, -y.imag)

    matvec = matmat

    def diagonal(self) -> np.ndarray:
        """Squared column norms of Gamma: sigma^2 (E(0) +- Re E(2 f))."""
        return self._sigma ** 2 * self._diagonal

    def trace(self) -> float:
        """Squared Frobenius norm of Gamma."""
        return float(np.sum(self.diagonal()))
