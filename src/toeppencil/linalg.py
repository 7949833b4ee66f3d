"""Dense exact matrices over an exact field, and the kernel's polynomials.

A ``Mat`` holds entries of one exact field (rationals or GF(p)). The
determinant, rank, kernel and inverse all read one fraction-free (Bareiss)
Gauss-Jordan reduction of the entries lifted to Python ints; values become
field elements again only at the return. ``Poly`` is the
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
        # from a list, not a generator: a growing tuple fragments the heap
        self.data = tuple([tuple(r) for r in rows])
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
        return isinstance(other, Mat) and self.data == other.data

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

    def _reduce(self):
        """Fraction-free Gauss-Jordan on the lifted ints: (rows, pivot cols,
        swap sign, scale L). The pivot is the first entry nonzero in the field;
        a row with f != 0 in its column becomes (piv*x - f*y) // level, exact
        by Sylvester's identity (Bareiss). Rows with f = 0 are left alone, so
        row i is its Bareiss row times level[i]/prev: a[r][j] / a[r][c] on
        pivot row r is the reduced echelon form, and the last pivot row holds
        the last pivot."""
        fld = self.field
        flat, L = fld.lift([e for row in self.data for e in row])
        k = self.cols
        a = [flat[i * k : (i + 1) * k] for i in range(self.rows)]
        level = [1] * self.rows
        pivots: List[int] = []
        sign, prev, r = 1, 1, 0
        for c in range(k):
            pr = next((i for i in range(r, self.rows) if fld.of(a[i][c])), None)
            if pr is None:
                continue
            if pr != r:
                a[r], a[pr], level[r], level[pr] = a[pr], a[r], level[pr], level[r]
                sign = -sign
            if level[r] != prev:
                a[r] = [x * prev // level[r] for x in a[r]]
            top = a[r]
            piv = top[c]
            for i in range(self.rows):
                f = a[i][c]
                if f and i != r:
                    a[i] = [(piv * x - f * y) // level[i] for x, y in zip(a[i], top)]
                    level[i] = piv
            level[r] = prev = piv
            pivots.append(c)
            r += 1
        return a, pivots, sign, L

    def det(self):
        """Exact determinant: sign * last pivot / L^n of the reduction."""
        if self.rows != self.cols:
            raise ShapeError("determinant of non-square matrix")
        a, pivots, sign, L = self._reduce()
        if len(pivots) < self.rows:
            return self.field.zero
        return self.field.frac(sign * a[-1][-1] if a else 1, L**self.rows)

    def rank(self) -> int:
        return len(self._reduce()[1])

    def kernel_basis(self) -> List[Tuple]:
        """Basis of the right null space, one vector per free column f (ascending):
        1 at f, 0 at the other free columns; empty list iff full column rank."""
        a, pivots, _, _ = self._reduce()
        fld = self.field
        z, o = fld.zero, fld.one
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [z] * self.cols
            v[f] = o
            for r, c in enumerate(pivots):
                v[c] = fld.frac(-a[r][f], a[r][c])
            basis.append(tuple(v))
        return basis

    def inv(self) -> "Mat":
        """Inverse from the reduction of [A | I]: A is invertible exactly when
        the pivots are the first n columns."""
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        fld = self.field
        eye = Mat.identity(fld, n).data
        a, pivots, _, _ = Mat(fld, [r + e for r, e in zip(self.data, eye)])._reduce()
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Mat(fld, [[fld.frac(e, row[r]) for e in row[n:]] for r, row in enumerate(a)])


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
