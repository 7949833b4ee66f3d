"""Dense exact matrices over an exact field, and the kernel's polynomials.

A ``Mat`` holds entries of one exact field (rationals or GF(p)); it is a
container, and no elimination runs on it. The kernel extraction needs one
null vector of rows it lifts to Python ints itself, and ``_null_vector``
reduces them only up to the first column without a pivot, over GF(p) on
residues. ``Poly`` is the container in which it returns a vector
polynomial.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


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


def _null_vector(a: List[List[int]], fld) -> Optional[Tuple]:
    """A null vector of the int rows ``a`` lifted from ``fld`` (over GF(p)
    the residues in [0, p); the rows are overwritten): 1 at the first column
    f without a pivot, -a[r][f] / a[r][r] at every column r < f of the
    reduced rows, 0 right of f; None at full column rank. Of the null-space
    basis with one vector per free column, 1 there and 0 at the other free
    columns, it is the first vector.

    Gauss-Jordan stops at f, so when column c is reduced every column left
    of it is a pivot column: row r holds its pivot at column r, and a row
    below row c is zero left of c. A row with a nonzero in column c is live
    only right of c and, above row c, at its own pivot; every entry skipped
    is zero in both rows, and column c itself is never read again. Pivots
    right of f would scale each row by a unit and keep column f zero below
    row f, so they would not change the vector. Over QQ a row with entry e
    in column c becomes (piv*x - e*y) // level, exact by Sylvester's
    identity, with level the pivot the row was last updated with (Bareiss,
    as in ``pencil._det_int``); over GF(p) the update is reduced mod p and
    the levels are dropped, since a row scaled by a unit keeps its ratios."""
    p = fld.characteristic
    m = len(a)
    cols = len(a[0]) if a else 0
    level = [1] * m
    prev = 1
    for c in range(cols):
        pr = next((i for i in range(c, m) if a[i][c]), None)
        if pr is None:
            head = [fld.frac(-a[r][c], a[r][r]) for r in range(c)]
            return tuple(head + [fld.one] + [fld.zero] * (cols - c - 1))
        if pr != c:
            a[c], a[pr], level[c], level[pr] = a[pr], a[c], level[pr], level[c]
        top = a[c]
        if not p and level[c] != prev:
            top[c:] = [x * prev // level[c] for x in top[c:]]
        piv = top[c]
        tail = top[c + 1 :]
        for i in range(m):
            row = a[i]
            f = row[c]
            if f and i != c:
                if p:
                    row[c + 1 :] = [(piv * x - f * y) % p for x, y in zip(row[c + 1 :], tail)]
                    if i < c:
                        row[i] = piv * row[i] % p
                else:
                    lv = level[i]
                    row[c + 1 :] = [(piv * x - f * y) // lv for x, y in zip(row[c + 1 :], tail)]
                    if i < c:
                        row[i] = piv * row[i] // lv
                    level[i] = piv
        level[c] = prev = piv
    return None


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
