"""Dense exact matrices over an exact field, and the kernel's polynomials.

A ``Mat`` holds entries of one exact field (rationals or GF(p)). The
determinant, rank, kernel and inverse all lift the entries to Python ints and
run one fraction-free (Bareiss) Gauss-Jordan reduction, ``_eliminate``, on
them; values become field elements again only at the return. The kernel
extraction needs one null vector of rows it lifts itself, and
``_null_vector`` reduces them only up to the first column without a pivot,
over GF(p) on residues. ``Poly`` is the container in which it returns a
vector polynomial.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .field import PrimeField


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

    def _lift(self) -> Tuple[List[List[int]], int]:
        """The rows as plain ints over one common scale L, and L."""
        flat, L = self.field.lift([e for row in self.data for e in row])
        k = self.cols
        return [flat[i * k : (i + 1) * k] for i in range(self.rows)], L

    def det(self):
        """Exact determinant: sign * last pivot / L^n of the reduction."""
        if self.rows != self.cols:
            raise ShapeError("determinant of non-square matrix")
        a, L = self._lift()
        a, pivots, sign = _eliminate(a, self.field)
        if len(pivots) < self.rows:
            return self.field.zero
        return self.field.frac(sign * a[-1][-1] if a else 1, L**self.rows)

    def rank(self) -> int:
        return len(_eliminate(self._lift()[0], self.field)[1])

    def kernel_basis(self) -> List[Tuple]:
        """Basis of the right null space, one vector per free column f (ascending):
        1 at f, 0 at the other free columns; empty list iff full column rank."""
        a, pivots, _ = _eliminate(self._lift()[0], self.field)
        return list(_kernel_vectors(a, pivots, self.cols, self.field))

    def inv(self) -> "Mat":
        """Inverse from the reduction of [A | I]: A is invertible exactly when
        the pivots are the first n columns."""
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        fld = self.field
        aug = Mat(fld, [r + e for r, e in zip(self.data, Mat.identity(fld, n).data)])
        a, pivots, _ = _eliminate(aug._lift()[0], fld)
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Mat(fld, [[fld.frac(e, row[r]) for e in row[n:]] for r, row in enumerate(a)])


def _eliminate(a: List[Sequence[int]], fld) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free Gauss-Jordan on int rows, lifted from ``fld``: (rows,
    pivot cols, swap sign). The list ``a`` is reordered in place; its rows
    are replaced, never written. The pivot is the first entry nonzero in the
    field; a row with f != 0 in its column becomes (piv*x - f*y) // level,
    exact by Sylvester's identity (Bareiss). Rows with f = 0 are left alone,
    so row i is its Bareiss row times level[i]/prev: a[r][j] / a[r][c] on
    pivot row r is the reduced echelon form, and the last pivot row holds
    the last pivot."""
    m = len(a)
    level = [1] * m
    pivots: List[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(r, m) if fld.of(a[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr], level[r], level[pr] = a[pr], a[r], level[pr], level[r]
            sign = -sign
        if level[r] != prev:
            a[r] = [x * prev // level[r] for x in a[r]]
        top = a[r]
        piv = top[c]
        for i in range(m):
            f = a[i][c]
            if f and i != r:
                a[i] = [(piv * x - f * y) // level[i] for x, y in zip(a[i], top)]
                level[i] = piv
        level[r] = prev = piv
        pivots.append(c)
        r += 1
    return a, pivots, sign


def _kernel_vectors(a: List[Sequence[int]], pivots: List[int], cols: int, fld) -> Iterator[Tuple]:
    """The null-space basis read off a reduction by ``_eliminate``, one field
    vector per free column f (ascending): 1 at f, -a[r][f] / a[r][c] at the
    pivot c of row r, 0 at the other free columns."""
    z, o = fld.zero, fld.one
    pivot_set = set(pivots)
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [z] * cols
        v[f] = o
        for r, c in enumerate(pivots):
            v[c] = fld.frac(-a[r][f], a[r][c])
        yield tuple(v)


def _null_vector(a: List[List[int]], fld) -> Optional[Tuple]:
    """The first vector of ``kernel_basis`` for the int rows ``a`` lifted
    from ``fld`` (over GF(p) the residues in [0, p); the rows are
    overwritten): 1 at the first column f without a pivot, -a[r][f] / a[r][r]
    at every column r < f, 0 right of f; None at full column rank.

    Gauss-Jordan stops at f, so when column c is reduced every column left
    of it is a pivot column: row r holds its pivot at column r, and a row
    below row c is zero left of c. A row with a nonzero in column c is live
    only right of c and, above row c, at its own pivot; every entry skipped
    is zero in both rows, and column c itself is never read again. Pivots
    right of f would scale each row by a unit and keep column f zero below
    row f, so the vector is ``_kernel_vectors``'s. Over QQ the update is
    ``_eliminate``'s Bareiss rule with its levels; over GF(p) it is reduced
    mod p and the levels are dropped, since a row scaled by a unit keeps its
    ratios."""
    p = fld.p if isinstance(fld, PrimeField) else 0
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
