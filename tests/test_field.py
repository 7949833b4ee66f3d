import re
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


# The nine binary operators of a = GF(7)[5], each reached as the expression a
# caller writes: a reflected one with the other operand on the left, so an
# int, a Fraction, a str or None on the left lands in a's reflected method.
_OPERATORS = {
    "__add__": lambda a, o: a + o,
    "__radd__": lambda a, o: o + a,
    "__sub__": lambda a, o: a - o,
    "__rsub__": lambda a, o: o - a,
    "__mul__": lambda a, o: a * o,
    "__rmul__": lambda a, o: o * a,
    "__truediv__": lambda a, o: a / o,
    "__rtruediv__": lambda a, o: o / a,
    "__eq__": lambda a, o: (a == o, a != o),
}
# each operator's outcome for 5 and 3 in GF(7): a residue, or (==, !=)
_VALUES = {
    "__add__": 1, "__radd__": 1, "__sub__": 2, "__rsub__": 5, "__mul__": 1,
    "__rmul__": 1, "__truediv__": 4, "__rtruediv__": 2, "__eq__": (False, True),
}
# the other operand, and the outcome for a non-member: None for the value above
_OPERANDS = {
    "int": (3, None),
    "same field": (GFElement(3, 7), None),
    "other modulus": (GFElement(3, 5), FieldMismatchError),
    "Fraction": (Fraction(3), FieldMismatchError),
    "str": ("3", TypeError),
    "None": (None, TypeError),
}


@pytest.mark.parametrize("kind", list(_OPERANDS))
@pytest.mark.parametrize("name", list(_OPERATORS))
def test_operator_contract_table(name, kind):
    # the one coercion: a member gives the value, another field's element a
    # FieldMismatchError, anything else NotImplemented, so Python's TypeError
    # (and for == and != plain inequality)
    a, (other, error) = GFElement(5, 7), _OPERANDS[kind]
    op = _OPERATORS[name]
    if error is None:
        want = _VALUES[name]
        got = op(a, other)
        assert got == (want if name == "__eq__" else GFElement(want, 7)), (name, kind)
        assert name == "__eq__" or (type(got), got.p) == (GFElement, 7)
    elif error is TypeError and name == "__eq__":
        assert op(a, other) == (False, True)
    else:
        with pytest.raises(error) as info:
            op(a, other)
        # a str or None is no field's element: Python's plain TypeError
        assert (info.type is FieldMismatchError) == (error is FieldMismatchError)


_FOREIGN = {QQ: GF(7).of(3), GF(7): GF(5).of(3)}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_of_and_lift_refuse_non_members(field):
    for bad in (0.5, "1", _FOREIGN[field]):
        with pytest.raises(FieldMismatchError):
            field.of(bad)
        for xs, index in (([bad], 0), ([1, field.one, bad, 2.5], 2), ((field.of(4), bad), 1)):
            message = rf"^entry {index} = {re.escape(repr(bad))} is not in {re.escape(repr(field))}$"
            with pytest.raises(FieldMismatchError, match=message):
                field.lift(xs)
    # the members: ints and the field's own elements
    assert field.lift([3, field.of(-2), field.one])[0] == (
        [3, -2, 1] if field == QQ else [3, 5, 1]
    )


def test_gf_of_refuses_a_fraction():
    for frac in (Fraction(1, 2), Fraction(3)):
        with pytest.raises(FieldMismatchError, match=rf"^cannot mix the rational {frac} with GF\(7\)$"):
            GF(7).of(frac)
        with pytest.raises(FieldMismatchError, match=r"^entry 1 = Fraction\("):
            GF(7).lift([1, frac])
    assert GF(7).of(GF(7).of(3)) == GF(7).of(10) == GFElement(3, 7)
