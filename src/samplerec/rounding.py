"""The rounding model of every certified bound, and the certified total of
the full series of sigma^2 that rests on it.

IEEE double arithmetic rounds to nearest with unit roundoff U = 2^-53,
math.fsum rounds its exact sum once, and C pow (behind Python's float **) is
faithful, within one ulp (2U relative) of the exact power.  n roundings in a
chain of products and quotients, or in a recursive sum of terms of one sign,
stay within gamma(n) = nU / (1 - nU) relative (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, ch. 3).
"""

import itertools
import math

import numpy as np

U = 2.0 ** -53

# Terms of the one-coordinate series summed directly; the rest is a short
# alternating series of Hurwitz zeta values at a = _SERIES_HEAD + 1.
_SERIES_HEAD = 1000

# Euler-Maclaurin coefficients B_2k / (2k)! for k = 1..5, from B_2k as
# num / den; the last one only bounds the remainder.
_EM_COEFFS = tuple(
    # int / int rounds correctly, as float(Fraction) does, with no fractions import
    num / (den * math.factorial(2 * k))
    for k, (num, den) in enumerate(((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66)), start=1)
)


class PrecisionError(RuntimeError):
    """A certified enclosure cannot reach the requested width."""


def up(x: float) -> float:
    """The next float above x."""
    return math.nextafter(x, math.inf)


def outward(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) each one step outward."""
    return math.nextafter(lo, -math.inf), up(hi)


def gamma(n: int) -> float:
    """Relative error bound n U / (1 - n U) of n roundings, rounded up."""
    return up(n * U / (1.0 - n * U))


def widen(x: float, err: float) -> tuple[float, float]:
    """Enclosure of the exact value of a computed x with |error| <= err; the
    step outward covers the rounding of x -+ err itself."""
    return outward(x - err, x + err)


def sub_up(a: float, b: float) -> float:
    """a - b rounded up: exact by Sterbenz's lemma when 0 <= b <= a <= 2b."""
    diff = a - b
    return diff if 0.0 <= b <= a <= 2.0 * b else up(diff)


def prefix_sums(terms: np.ndarray, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """head = [0, cumsum(terms)] and a bound head_err on its error, for terms
    each within gamma(rounds) of exact.  np.cumsum adds in order, so TwoSum
    on consecutive entries gives the error e of each addition, and
    head[k] + sum(e[:k]) is the exact sum of terms[:k].  Two more roundings
    cover the cumsum of e (below m^2 U^2 of the head) and head_err itself."""
    head = np.concatenate(([0.0], np.cumsum(terms)))
    step = head[1:] - head[:-1]
    e = (head[:-1] - (head[1:] - step)) + (terms - step)
    return head, np.abs(np.concatenate(([0.0], np.cumsum(e)))) + gamma(rounds + 2) * head


def _hurwitz_bracket(t: float) -> tuple[float, float]:
    """Certified (lo, hi) of zeta(t, a) = sum_{n>=0} (a + n)^-t at
    a = _SERIES_HEAD + 1, for t > 1.

    Euler-Maclaurin at a gives

        zeta(t, a) = a^-t (a / (t-1) + 1/2 + sum_{k=1}^{p} c_k (t)_{2k-1} a^{1-2k}) + R_p

    with c_k = B_2k / (2k)! and the rising factorial (t)_j.  Every even
    derivative of x^-t is positive (it is completely monotone), so R_p is
    theta times the k = p+1 term for some theta in [0, 1] (Graham, Knuth &
    Patashnik, Concrete Mathematics, (9.78); Johansson, "Rigorous
    high-precision computation of the Hurwitz zeta function and its
    derivatives", 2015).
    """
    a = _SERIES_HEAD + 1
    if t * math.log2(a) > 1000.0:
        # a^-t < 2^-999 with room for the rounding of the test, and
        # zeta(t, a) <= a^-t + int_a^inf x^-t dx
        return 0.0, up(2.0 ** -999 * (1.0 + a / (t - 1.0)))
    rising = t / a  # (t)_{2k-1} / a^{2k-1}
    corrections = [_EM_COEFFS[0] * rising]
    for k in range(1, len(_EM_COEFFS)):
        rising *= (t + (2 * k - 1)) / a * ((t + 2 * k) / a)
        corrections.append(_EM_COEFFS[k] * rising)
    rem = corrections.pop()
    scale = a ** -t  # at least 2^-1000, a normal number
    value = scale * math.fsum([a / (t - 1.0), 0.5] + corrections)
    # the leading term takes two roundings, fsum one, a^-t two (ulps count
    # double) and the product one, and the sums below two beyond the final
    # step outward: gamma(8) of the value; correction term k takes at most
    # 6k - 3 roundings, 27 at k = 5
    err = gamma(8) * value + gamma(27) * scale * math.fsum(abs(c) for c in corrections + [rem])
    rem *= scale
    return outward(value - err + min(rem, 0.0), value + err + max(rem, 0.0))


def _partial_sum_bracket(s: float) -> tuple[float, float]:
    """Certified (lo, hi) of sum_{f=1}^{M} 1/(1 + f^(2s)), M = _SERIES_HEAD."""
    # terms x / (1 + x) with x = f^(-2s), so no power can overflow; each term
    # takes four roundings (pow counting two) and fsum one more, which
    # gamma(6) covers with the second-order terms; a subnormal term errs by
    # at most 2^-1073 absolute instead
    terms = [x / (1.0 + x) for x in (float(f) ** (-2.0 * s) for f in range(1, _SERIES_HEAD + 1))]
    partial = math.fsum(terms)
    return widen(partial, gamma(6) * partial + _SERIES_HEAD * 2.0 ** -1073)


def _is_exact_multiple(t: float, factor: int, s: float) -> bool:
    """Whether the finite float t equals factor * s exactly."""
    # Fraction(t) == factor * Fraction(s), cross-multiplied: no fractions (and decimal) import
    tn, td = t.as_integer_ratio()
    sn, sd = s.as_integer_ratio()
    return tn * sd == factor * sn * td


def _tail_bracket(s: float, stop: float) -> tuple[float, float]:
    """Certified (lo, hi) of sum_{f>M} 1/(1 + f^(2s)), M = _SERIES_HEAD.

    With x = f^(-2s) < 1 the tail expands as sum_{f>M} (x - x^2 + x^3 - ...)
    = sum_{j>=1} (-1)^(j+1) zeta(2js, M+1).  Its terms decrease in j, so the
    rest after any partial sum lies between 0 and the next term; the
    expansion ends at the first term at most stop.
    """
    lo: list[float] = []
    hi: list[float] = []
    for j in itertools.count(1):
        t = 2.0 * j * s
        if math.isinf(t) or _is_exact_multiple(t, 2 * j, s):
            z_lo, z_hi = _hurwitz_bracket(t)
        else:
            # zeta(t, a) decreases in t; the exact exponent lies within one
            # step of the rounded one
            t_lo, t_hi = outward(t, t)
            z_lo, z_hi = _hurwitz_bracket(t_hi)[0], _hurwitz_bracket(t_lo)[1]
        odd = j % 2 == 1
        if z_hi <= stop:
            (hi if odd else lo).append(z_hi if odd else -z_hi)
            break
        lo.append(z_lo if odd else -z_hi)
        hi.append(z_hi if odd else -z_lo)
    return outward(math.fsum(lo), math.fsum(hi))


def _power_bracket(s_lo: float, s_hi: float, d: int) -> tuple[float, float]:
    """Certified (lo, hi) of (1 + 2 S)^d for S in [s_lo, s_hi]."""
    # d - 1 products of a base rounded outward
    lo, hi = (math.prod(itertools.repeat(base, d)) for base in outward(1.0 + 2.0 * s_lo, 1.0 + 2.0 * s_hi))
    return outward(lo - gamma(d - 1) * lo, hi + gamma(d - 1) * hi)


def series_enclosure(s: float, d: int, tol: float) -> tuple[float, float]:
    """Certified (total_lo, total_hi) of the full series sum_j sigma_j^2.

    The one-coordinate series S = sum_{f>=1} 1/(1 + f^(2s)) is a partial sum
    to f = _SERIES_HEAD plus the tail as an alternating Hurwitz zeta series,
    cut at the first term below the float resolution of the partial sum.  The
    total over d coordinates is (1 + 2 S)^d.  Every step is widened by its
    rounding-error bound, so the width is some dozens of ulps of the total
    (14 at d = 1, s = 1; 72 at d = 4, s = 0.6).  PrecisionError if the
    width exceeds tol, which happens when tol is below that many ulps of
    the total (for tol = 1e-10, from totals of about 1e4), or if the total
    is beyond float range.
    """
    part_lo, part_hi = _partial_sum_bracket(s)
    tail_lo, tail_hi = _tail_bracket(s, U * part_lo)
    total_lo, total_hi = _power_bracket(*outward(part_lo + tail_lo, part_hi + tail_hi), d)
    if not math.isfinite(total_hi):
        raise PrecisionError(f"series total (1 + 2 S)^{d} at s={s:g} is beyond float range")
    width = total_hi - total_lo
    if width > tol:
        ulp = math.ulp(total_hi)
        raise PrecisionError(
            f"enclosure width {width:.3e} of the series total {total_hi:.6g} above tol {tol:.1e}: "
            f"the width is {width / ulp:.3g} ulps of the total, tol {tol / ulp:.3g}"
        )
    return total_lo, total_hi
