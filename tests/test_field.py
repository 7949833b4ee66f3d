from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toeppencil.field import (
    FieldMismatchError,
    GF,
    GFElement,
    NotPrimeError,
    PRIME_CHECK_BOUND,
    PrimeField,
    QQ,
    is_prime,
)
from oracles import extended_euclid_inverse, is_prime_trial

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
gf7 = st.integers(min_value=0, max_value=6).map(lambda v: GFElement(v, 7))


def test_rational_arithmetic_examples():
    assert Fraction(2, 3) + Fraction(1, 6) == Fraction(5, 6)


def test_gf_arithmetic_examples():
    f = GF(7)
    assert f.of(5) * f.of(4) == f.of(6)
    assert f.of(3).inverse() == f.one / f.of(3) == f.of(5)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


def test_characteristic_is_the_modulus_of_the_int_cores():
    # 0 over QQ, where the cores keep plain ints; p over GF(p), where they reduce
    assert QQ.characteristic == 0
    for p in (2, 7, 10**9 + 7):
        assert GF(p).characteristic == p


def test_gf_inverse_matches_extended_euclid():
    for p in (2, 3, 5, 7, 11, 101):
        f = GF(p)
        for a in range(1, p):
            assert f.of(a).inverse().val == extended_euclid_inverse(a, p)


def test_frac_matches_field_division():
    big = 3**200
    nums = (0, 1, -1, 12, -35, 2**64 + 1, big, -big - 7)
    dens = (1, -1, 2, -6, 7, 10**9 + 8, big + 2, -(2**61 - 1))
    for fld in (QQ, GF(2), GF(7), GF(10**9 + 7)):
        zero_dens = (0,) if fld == QQ else (0, fld.p, 2 * fld.p, -fld.p)
        for num in nums:
            for den in dens + zero_dens:
                if fld.of(den) == fld.zero:
                    with pytest.raises(ZeroDivisionError):
                        fld.frac(num, den)
                    continue
                got = fld.frac(num, den)
                assert got == fld.of(num) / fld.of(den)
                assert type(got) is type(fld.one)


def test_modulus_must_be_prime():
    with pytest.raises(NotPrimeError):
        PrimeField(4)
    with pytest.raises(NotPrimeError):
        PrimeField(1)
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def test_is_prime_matches_trial_division():
    assert [p for p in range(10**5) if is_prime(p)] == [
        p for p in range(10**5) if is_prime_trial(p)
    ]


def test_is_prime_large_moduli():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    assert not is_prime(561) and not is_prime(3215031751)
    assert is_prime(2**61 - 1) and is_prime(10**18 + 9)
    assert PrimeField(2**61 - 1).of(-1).val == 2**61 - 2


def test_is_prime_refuses_beyond_proven_range():
    # the bound itself fools every base up to 37, so it must be refused
    assert PRIME_CHECK_BOUND == 399165290221 * 798330580441
    for p in (PRIME_CHECK_BOUND, PRIME_CHECK_BOUND + 2, 2**89 - 1):
        with pytest.raises(NotPrimeError):
            PrimeField(p)


def test_field_mixing_is_an_error():
    a = GFElement(3, 7)
    with pytest.raises(FieldMismatchError):
        a + GFElement(3, 5)
    with pytest.raises(FieldMismatchError):
        a + Fraction(1, 2)
    with pytest.raises(FieldMismatchError):
        Fraction(1, 2) * a


def test_gf_equality_keeps_the_field_contract():
    a = GFElement(3, 7)
    with pytest.raises(FieldMismatchError):
        a == Fraction(3)
    with pytest.raises(FieldMismatchError):
        a == GFElement(3, 5)
    with pytest.raises(FieldMismatchError):
        Fraction(1, 2) != a
    assert a == 3 and a == 10 and a == -4 and a != 4
    assert a == GFElement(10, 7) and a != GFElement(4, 7)
    assert a != "3" and a != None  # noqa: E711
    for k in range(7):
        assert hash(GF(7).of(k)) == hash(k)
    # an int key finds the equal residue
    assert {GF(7).of(k): k for k in range(7)}[5] == 5


def test_gf_reflected_operators_and_negative_powers():
    f = GF(7)
    a = f.of(5)
    assert 3 - a == f.of(5) and 3 / a == f.of(2)  # -2 and 3 * 3
    assert a**-2 == f.of(2) and a**-1 == a.inverse() and a**0 == f.one
    for op in (
        lambda: a + "x", lambda: "x" + a, lambda: a - "x", lambda: "x" - a,
        lambda: a * "x", lambda: a / "x", lambda: "x" / a,
    ):
        with pytest.raises(TypeError):
            op()


def test_field_hashes_follow_equality():
    assert hash(QQ) == hash(type(QQ)())
    assert {QQ, type(QQ)()} == {QQ}
    assert hash(GF(7)) == hash(PrimeField(7))
    assert len({GF(7), PrimeField(7), GF(5), QQ}) == 3


def test_parsing():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.parse("5") == Fraction(5)
    assert GF(7).parse("12") == GFElement(5, 7)


@given(gf7, gf7, gf7)
def test_gf_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == GFElement(0, 7)


@given(gf7)
def test_gf_double_inverse(a):
    if a != 0:
        assert a.inverse().inverse() == a
        assert a * a.inverse() == GFElement(1, 7)


@given(rationals, rationals, rationals)
def test_rational_exactness_order_independent(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_gf_residues_canonical():
    assert GFElement(-1, 7).val == 6
    assert GFElement(14, 7).val == 0
    assert (GFElement(6, 7) + GFElement(6, 7)).val == 5
