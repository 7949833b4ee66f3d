"""Dense exact matrices over an exact field, and the kernel's polynomials:
containers only.

A ``Mat`` holds entries of one exact field (rationals or GF(p)); no
elimination runs on it. Every row reduction of the library runs on plain
ints, in ``pencil._eliminate``. ``Poly`` is the container in which the
kernel extraction returns a vector polynomial.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ShapeError(ValueError):
    """Raised on dimension mismatches (ragged rows, non-square pencil matrices)."""


class Mat:
    """Immutable dense matrix over one exact field."""

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field, rows: Sequence[Sequence]):
        self.field = field
        # from a list, not a generator: a growing tuple fragments the heap
        self.data = tuple([tuple(r) for r in rows])
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for r in self.data:
            if len(r) != self.cols:
                raise ShapeError("ragged rows")

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Mat[{body}]"

    def drop_row_col(self, row: Optional[int], col: Optional[int]) -> "Mat":
        rows = [
            [e for j, e in enumerate(r) if j != col]
            for i, r in enumerate(self.data)
            if i != row
        ]
        return Mat(self.field, rows)


class Poly:
    """Univariate polynomial with exact field coefficients, canonical form:
    the entries of a kernel vector polynomial f(x).

    ``coeffs[k]`` is the coefficient of x^k; trailing zeros are stripped so
    the zero polynomial is the empty tuple. ``degree`` is ``None`` for the
    zero polynomial, deliberately not an integer.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Sequence):
        z = field.zero
        cs = list(coeffs)
        while cs and cs[-1] == z:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k: int):
        return self.coeffs[k] if k < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly[0]"
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != self.field.zero]
        return "Poly[" + " + ".join(terms) + "]"
