import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invpack.exact import (
    FieldMismatchError,
    QuadExt,
    parse_scalar,
    scalar_sign,
)


def q(a, b=0, den=1, d=3):
    return QuadExt(a, b, den, d)


def field_sqrt(x: QuadExt) -> "QuadExt | None":
    """Exact square root of x within its field, or None; the radical-center
    solve of the wallpaper reference builder takes its radius with it.

    Solves (u + v*sqrt(d))^2 = x over the rationals: u^2 and v^2 d are the
    roots of t^2 - A t + (B^2 d)/4 with A, B the rational and sqrt(d)
    parts, which is solvable in the field iff the norm A^2 - B^2 d has a
    rational square root.
    """
    s = x.sign()
    if s < 0:
        return None
    if s == 0:
        return QuadExt(0, 0, 1, x.d)
    A = Fraction(x.a, x.q)
    B = Fraction(x.b, x.q)
    if B == 0:
        r = _frac_sqrt(A)
        if r is not None:
            return QuadExt(r.numerator, 0, r.denominator, x.d)
        r = _frac_sqrt(A / x.d)
        if r is not None:
            return QuadExt(0, r.numerator, r.denominator, x.d)
        return None
    n = _frac_sqrt(A * A - B * B * x.d)
    if n is None:
        return None
    for u2 in ((A + n) / 2, (A - n) / 2):
        if u2 <= 0:
            continue
        u = _frac_sqrt(u2)
        if u is None:
            continue
        v = B / (2 * u)
        cand = QuadExt(
            u.numerator * v.denominator,
            v.numerator * u.denominator,
            u.denominator * v.denominator,
            x.d,
        )
        if cand * cand == x:
            return abs(cand)
    return None


def _frac_sqrt(f: Fraction) -> "Fraction | None":
    """Rational square root of a nonnegative Fraction, or None."""
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


class TestNormalization:
    def test_gcd_reduction(self):
        x = QuadExt(2, 0, 4, 3)
        assert (x.a, x.b, x.q, x.d) == (1, 0, 2, 3)

    def test_zero(self):
        x = QuadExt(0, 0, 7, 2)
        assert (x.a, x.b, x.q, x.d) == (0, 0, 1, 2)

    def test_sign_normalization(self):
        x = QuadExt(-3, 3, -3, 3)
        assert (x.a, x.b, x.q, x.d) == (1, -1, 1, 3)

    def test_d1_folds_root(self):
        x = QuadExt(1, 2, 1, 1)
        assert (x.a, x.b) == (3, 0)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 0, 0, 2)

    def test_canonical_representation_unique(self):
        assert QuadExt(2, -2, 4, 3) == QuadExt(1, -1, 2, 3)
        assert hash(QuadExt(2, -2, 4, 3)) == hash(QuadExt(1, -1, 2, 3))


class TestSign:
    def test_one_minus_sqrt3(self):
        assert q(1, -1).sign() == -1

    def test_zero(self):
        assert QuadExt(0, 0, 1, 2).sign() == 0

    def test_close_call_positive(self):
        # 3*sqrt(3) = 5.196... > 5, decided by 75 > 25
        assert q(-5, 3).sign() == 1

    def test_close_call_negative(self):
        assert q(5, -3).sign() == -1

    def test_matches_float_on_samples(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                for d in (2, 3):
                    x = QuadExt(a, b, 5, d)
                    f = float(x)
                    expect = 0 if f == 0 else (1 if f > 0 else -1)
                    assert x.sign() == expect, (a, b, d)


class TestFloat:
    def test_unit(self):
        assert float(q(1, 0)) == 1.0

    def test_sqrt3(self):
        assert float(q(0, 1)) == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_frozen_oracle_value(self):
        # (5 - 3*sqrt(2))/7, high-precision evaluation frozen as a double
        assert float(QuadExt(5, -3, 7, 2)) == 0.10819418755438784

    @given(
        st.integers(-(10**30), 10**30),
        st.integers(-(10**20), 10**20),
        st.integers(1, 10**9),
        st.sampled_from([1, 2, 3]),
        st.integers(-(2**62), 2**62),
    )
    def test_float_terms_round_every_multiple(self, a, b, den, d, k):
        # the Fraction evaluation float() used before float_terms
        root = Fraction(math.isqrt(d * 10**140), 10**70)
        x = QuadExt(a, b, den, d)
        assert float(x) == float((Fraction(x.a) + x.b * root) / x.q)
        num, den_ = x.float_terms()
        assert float(k * x) == k * num / den_


class TestArithmetic:
    def test_division_exact(self):
        x = q(1, 1, 2)  # (1+sqrt(3))/2
        y = q(0, 1)  # sqrt(3)
        assert (x / y) * y == x

    def test_int_mixing(self):
        assert q(1, 1) + 1 == q(2, 1)
        assert 2 * q(1, 1) == q(2, 2)
        assert 1 - q(1, 1) == q(0, -1)
        assert (q(0, 1) / 2) * 2 == q(0, 1)

    def test_rational_coerces_across_fields(self):
        half = QuadExt(1, 0, 2, 1)
        root2 = QuadExt(0, 1, 1, 2)
        assert half * root2 == QuadExt(0, 1, 2, 2)

    def test_mixed_roots_rejected(self):
        with pytest.raises(FieldMismatchError):
            QuadExt(1, 1, 1, 2) + QuadExt(1, 1, 1, 3)

    def test_pow(self):
        x = q(1, 1)
        assert x**3 == x * x * x
        assert x**0 == q(1)

    def test_comparisons(self):
        assert q(0, 1) > 1
        assert q(0, 1) < 2
        assert abs(q(1, -1)) == q(-1, 1)


class TestSqrt:
    def test_rational_square(self):
        assert field_sqrt(QuadExt(9, 0, 4, 2)) == QuadExt(3, 0, 2, 2)

    def test_sqrt_of_d(self):
        assert field_sqrt(QuadExt(3, 0, 1, 3)) == QuadExt(0, 1, 1, 3)

    def test_full_quadratic(self):
        # (17 - 12*sqrt(2)) = (3 - 2*sqrt(2))^2
        x = QuadExt(17, -12, 1, 2)
        assert field_sqrt(x) == QuadExt(3, -2, 1, 2)

    def test_negative(self):
        assert field_sqrt(QuadExt(-1, 0, 1, 2)) is None

    def test_unrepresentable(self):
        assert field_sqrt(QuadExt(2, 0, 1, 3)) is None
        assert field_sqrt(QuadExt(1, 1, 1, 3)) is None

    def test_squares_always_invert(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                for den in (1, 2, 3):
                    x = QuadExt(a, b, den, 2)
                    s = field_sqrt(x * x)
                    assert s is not None and s * s == x * x


class TestStringForm:
    def test_canonical_forms(self):
        assert str(QuadExt(5, -3, 7, 2)) == "(5-3*sqrt(2))/7"
        assert str(QuadExt(0, 1, 1, 3)) == "(0+1*sqrt(3))"
        assert str(QuadExt(3, 0, 2, 3)) == "3/2"
        assert str(QuadExt(-4, 0, 1, 1)) == "-4"

    def test_parse_spec_form(self):
        assert parse_scalar("(5-3*sqrt(2))/7") == QuadExt(5, -3, 7, 2)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_scalar("five")
        with pytest.raises(ValueError):
            parse_scalar("(1+sqrt(2))/3")  # missing explicit coefficient

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(1, 30),
        st.sampled_from([1, 2, 3]),
    )
    def test_roundtrip(self, a, b, den, d):
        x = QuadExt(a, b, den, d)
        y = parse_scalar(str(x))
        assert x == y
        assert (y.a, y.b, y.q) == (x.a, x.b, x.q)


small = st.integers(-20, 20)


@given(small, small, small, small, small, small, st.sampled_from([2, 3]))
def test_distributivity(a1, b1, a2, b2, a3, b3, d):
    x = QuadExt(a1, b1, 3, d)
    y = QuadExt(a2, b2, 2, d)
    z = QuadExt(a3, b3, 5, d)
    assert (x + y) * z == x * z + y * z


@given(small, small, st.sampled_from([2, 3]))
def test_multiplicative_inverse(a, b, d):
    x = QuadExt(a, b, 7, d)
    if x:
        assert x * (QuadExt(1, 0, 1, d) / x) == 1


@given(small, small, st.sampled_from([1, 2, 3]))
def test_square_is_nonnegative(a, b, d):
    x = QuadExt(a, b, 4, d)
    if x:
        assert (x * x).sign() == 1
    assert scalar_sign(x * x) >= 0
