from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toeppencil.field import (
    FieldMismatchError,
    GF,
    GFElement,
    NotPrimeError,
    PrimeField,
    QQ,
    is_prime,
)
from oracles import extended_euclid_inverse

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
gf7 = st.integers(min_value=0, max_value=6).map(lambda v: GFElement(v, 7))


def test_rational_arithmetic_examples():
    assert Fraction(2, 3) + Fraction(1, 6) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_gf_arithmetic_examples():
    f = GF(7)
    assert f.of(5) * f.of(4) == f.of(6)
    assert f.inv(f.of(3)) == f.of(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_gf_inverse_matches_extended_euclid():
    for p in (2, 3, 5, 7, 11, 101):
        f = GF(p)
        for a in range(1, p):
            assert f.inv(f.of(a)).val == extended_euclid_inverse(a, p)


def test_modulus_must_be_prime():
    with pytest.raises(NotPrimeError):
        PrimeField(4)
    with pytest.raises(NotPrimeError):
        PrimeField(1)
    assert is_prime(2) and is_prime(97) and not is_prime(91)


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
