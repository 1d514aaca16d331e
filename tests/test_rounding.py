import math
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from samplerec import rounding

FINITE = st.floats(-1e300, 1e300)


def test_gamma_is_an_upper_bound_as_computed():
    # n U / (1 - n U) rounded to nearest falls below the exact gamma_n for
    # about half of these n; the step up puts every one above it, within
    # one and a half ulps
    u = Fraction(rounding.U)
    for n in range(2001):
        exact = n * u / (1 - n * u)
        g = Fraction(rounding.gamma(n))
        assert exact <= g <= exact + Fraction(3, 2) * Fraction(math.ulp(rounding.gamma(n)))


@given(x=FINITE, err=st.floats(0.0, 1e300))
def test_widen_encloses_everything_within_err(x, err):
    lo, hi = rounding.widen(x, err)
    exact_lo, exact_hi = Fraction(x) - Fraction(err), Fraction(x) + Fraction(err)
    assert Fraction(lo) <= exact_lo and exact_hi <= Fraction(hi)
    # one step beyond the rounded ends, no further
    assert exact_lo - Fraction(lo) <= 2 * Fraction(math.ulp(lo))
    assert Fraction(hi) - exact_hi <= 2 * Fraction(math.ulp(hi))


@given(a=FINITE, b=FINITE)
@example(a=1.0, b=3.0)  # a < b
@example(a=5.0, b=0.0)  # b = 0
@example(a=0.0, b=0.0)
@example(a=-2.0, b=-1.5)  # b <= a <= 2b fails for b < 0
def test_sub_up_rounds_up(a, b):
    diff = rounding.sub_up(a, b)
    exact = Fraction(a) - Fraction(b)
    if 0.0 <= b <= a <= 2.0 * b:
        assert Fraction(diff) == exact
    else:
        assert exact <= Fraction(diff) <= exact + 2 * Fraction(math.ulp(diff))


@given(b=st.floats(0.0, 1e300), t=st.floats(1.0, 2.0))
def test_sub_up_is_exact_under_sterbenz(b, t):
    # b <= a <= 2b: a - b is a float (Sterbenz's lemma), returned as it is
    a = b * t
    assert b <= a <= 2.0 * b
    assert Fraction(rounding.sub_up(a, b)) == Fraction(a) - Fraction(b)
