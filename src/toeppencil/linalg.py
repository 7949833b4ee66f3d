"""Dense exact matrices over an exact field, and the kernel's polynomials.

A ``Mat`` holds entries of one exact field (rationals or GF(p)). The
determinant is fraction-free (Bareiss) elimination; rank, kernel and inverse
share one Gauss-Jordan elimination with exact division. ``Poly`` is the
container in which the kernel extraction returns a vector polynomial.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class ShapeError(ValueError):
    """Raised on dimension mismatches (non-square determinant, bad products)."""


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix."""


class Mat:
    """Immutable dense matrix over one exact field."""

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field, rows: Sequence[Sequence]):
        self.field = field
        self.data = tuple(tuple(r) for r in rows)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for r in self.data:
            if len(r) != self.cols:
                raise ShapeError("ragged rows")

    @classmethod
    def identity(cls, field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, r: int, c: int) -> "Mat":
        z = field.zero
        return cls(field, [[z] * c for _ in range(r)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Mat[{body}]"

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeError("product shape mismatch")
        z = self.field.zero
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                s = z
                for k in range(self.cols):
                    s = s + self.data[i][k] * other.data[k][j]
                row.append(s)
            out.append(row)
        return Mat(self.field, out)

    def transpose(self) -> "Mat":
        return Mat(
            self.field,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def drop_row_col(self, row: Optional[int], col: Optional[int]) -> "Mat":
        rows = [
            [e for j, e in enumerate(r) if j != col]
            for i, r in enumerate(self.data)
            if i != row
        ]
        return Mat(self.field, rows)

    def det(self):
        """Exact determinant over the entry field by fraction-free (Bareiss)
        elimination."""
        if self.rows != self.cols:
            raise ShapeError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return self.field.one
        a = [list(row) for row in self.data]
        z, one = self.field.zero, self.field.one
        prev = one
        sign = 1
        for k in range(n - 1):
            if a[k][k] == z:
                for i in range(k + 1, n):
                    if a[i][k] != z:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return z
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev
                a[i][k] = z
            prev = a[k][k]
        d = a[n - 1][n - 1]
        return d if sign == 1 else -d

    def _row_echelon(self):
        """Row echelon form with exact division; returns (rows, pivot cols)."""
        a = [list(row) for row in self.data]
        z = self.field.zero
        pivots: List[int] = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if a[i][c] != z:
                    pr = i
                    break
            if pr is None:
                continue
            a[r], a[pr] = a[pr], a[r]
            inv = self.field.inv(a[r][c])
            a[r] = [e * inv for e in a[r]]
            for i in range(self.rows):
                if i != r and a[i][c] != z:
                    f = a[i][c]
                    a[i] = [ei - f * er for ei, er in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return a, pivots

    def rank(self) -> int:
        _, pivots = self._row_echelon()
        return len(pivots)

    def kernel_basis(self) -> List[Tuple]:
        """Basis of the right null space, deterministic (free columns ascending,
        leftmost pivots first); empty list iff full column rank."""
        a, pivots = self._row_echelon()
        z, o = self.field.zero, self.field.one
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [z] * self.cols
            v[f] = o
            for r, c in enumerate(pivots):
                v[c] = -a[r][f]
            basis.append(tuple(v))
        return basis

    def inv(self) -> "Mat":
        """Inverse by Gauss-Jordan on [A | I]: A is invertible exactly when the
        pivots of the reduced form are the first n columns."""
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        eye = Mat.identity(self.field, n).data
        a, pivots = Mat(self.field, [r + e for r, e in zip(self.data, eye)])._row_echelon()
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Mat(self.field, [row[n:] for row in a])


def mat_vec(M: Mat, v: Sequence) -> Tuple:
    if M.cols != len(v):
        raise ShapeError("matrix-vector shape mismatch")
    z = M.field.zero
    out = []
    for i in range(M.rows):
        s = z
        for j in range(M.cols):
            s = s + M.data[i][j] * v[j]
        out.append(s)
    return tuple(out)


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

    def __str__(self):
        return repr(self)
