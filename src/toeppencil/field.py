"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields GF(p).

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator). Prime-field residues are ``GFElement`` instances kept in the
canonical range [0, p). Mixing elements of different fields is a hard error,
never a coercion; plain Python ints embed into either field. There is no
floating-point path anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple


class FieldMismatchError(TypeError):
    """Raised when an operation combines elements of different fields."""


class NotPrimeError(ValueError):
    """Raised when a prime-field modulus fails, or is beyond, the primality check."""


# The least strong pseudoprime to all twelve prime bases up to 37 (Sorenson
# and Webster, Math. Comp. 86, 2017): Miller-Rabin with them is exact below.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_CHECK_BOUND = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; refuses p >= PRIME_CHECK_BOUND."""
    if p >= PRIME_CHECK_BOUND:
        raise NotPrimeError(f"{p} is too large to certify as prime (limit {PRIME_CHECK_BOUND})")
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    return not any(
        pow(b, d, p) != 1 and all(pow(b, d << i, p) != p - 1 for i in range(s))
        for b in _MR_BASES
    )


class GFElement:
    """A residue in GF(p), stored canonically in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"mixed moduli: GF({self.p}) vs GF({other.p})"
                )
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        if isinstance(other, Fraction):
            raise FieldMismatchError("cannot mix rational and GF(p) elements")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return GFElement(-self.val, self.p)

    def inverse(self) -> "GFElement":
        if self.val == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return GFElement(pow(self.val, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return GFElement(pow(self.val, k, self.p), self.p)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.val == o.val

    def __hash__(self):
        # agrees with hash(k) for the canonical residue k, which == treats as equal
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"GF({self.p})[{self.val}]"

    def __str__(self):
        return str(self.val)


class RationalField:
    """The field of rationals; elements are ``Fraction`` values."""

    zero = Fraction(0)
    one = Fraction(1)
    characteristic = 0

    def of(self, x) -> Fraction:
        return Fraction(x)

    def parse(self, s: str) -> Fraction:
        # accepts "p", "-p", "p/q"
        return Fraction(s.strip())

    def lift(self, xs: Sequence) -> Tuple[List[int], int]:
        """Plain ints over one common denominator: (L*x for x in xs) and L,
        the lcm of the denominators."""
        L = lcm(*(x.denominator for x in xs))
        return [x.numerator * (L // x.denominator) for x in xs], L

    def frac(self, num: int, den: int) -> Fraction:
        """num / den for plain ints: the way back from ``lift``."""
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime modulus p; elements are ``GFElement`` values."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = self.characteristic = p
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)

    def of(self, x: int) -> GFElement:
        return GFElement(x, self.p)

    def parse(self, s: str) -> GFElement:
        return GFElement(int(s.strip()), self.p)

    def lift(self, xs: Sequence) -> Tuple[List[int], int]:
        """Plain ints: the residues in [0, p), with scale 1."""
        z = self.zero
        return [z._coerce(x).val for x in xs], 1

    def frac(self, num: int, den: int) -> GFElement:
        """num / den for plain ints, mod p: the way back from ``lift``."""
        if den % self.p == 0:
            raise ZeroDivisionError(f"{den} is 0 in GF({self.p})")
        return GFElement(num * pow(den, -1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
