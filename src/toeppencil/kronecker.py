"""Minimal kernel degree of a square pencil via the stacked block matrix.

For the pencil M0 + x*M1, the block matrix with M0 on the diagonal and M1 on
the first block subdiagonal (d+1 block columns, d+2 block rows) has linearly
dependent columns exactly when a nonzero vector polynomial f(x) of degree
<= d satisfies (M0 + x*M1) f(x) = 0. The smallest such d is the minimal
index; a singular n x n pencil always has one below n, so the search is
bounded. "Regular" needs an entry of a certificate of det T(x) != 0 that
is nonzero in the field, read lazily before C(d) is built. A Toeplitz
pencil from ``BlockPencil.from_pencil`` keeps its c: only the n+1
coefficients are lifted to ints, its int rows come from c, and it reads
the det route's own ``pencil._det_certificate``, whose first entry (the
O(1) top coefficient) comes before any row is built. A general pencil
lifts its 2n^2 matrix entries and reads the det route's point stream,
``pencil._point_certificate``, at its own n+1 points 0..n. A stacked
matrix is reduced only up to its first dependent column by the library's
one elimination, ``pencil._eliminate`` (on residues over GF(p)), and that
column's null vector (a 1 there, 0 right of it), times the last minor D
so that every entry is an int, is back-substituted on the pivot rows. The
identity and degree checks read those ints; field values are built once,
v / D for each entry, as the ``Poly``s of the kernel. Inputs are general
square pencils: the machinery does not need the nonzero-coefficient
hypothesis of the Toeplitz construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterator, List, Optional, Tuple

from .criteria import ConsistencyAlarm
from .field import FieldMismatchError
from .linalg import Mat, Poly, ShapeError
from .pencil import PencilInstance, _det_certificate, _eliminate, _first_violation, _point_certificate
from .pencil import _rows, build_M0, build_M1


@dataclass(frozen=True)
class BlockPencil:
    M0: Mat
    M1: Mat
    # the Toeplitz coefficients M0 and M1 were built from; set only by
    # from_pencil, so a c never disagrees with the matrices, and not compared
    c: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M0.rows != self.M0.cols or self.M1.rows != self.M1.cols:
            raise ShapeError("pencil matrices must be square")
        if self.M0.rows != self.M1.rows:
            raise ShapeError("pencil matrices must have equal size")
        if self.M0.field != self.M1.field:
            raise FieldMismatchError(f"pencil matrices over {self.M0.field} and {self.M1.field}")

    @property
    def n(self) -> int:
        return self.M0.rows

    @classmethod
    def from_pencil(cls, p: PencilInstance) -> "BlockPencil":
        bp = cls(build_M0(p), build_M1(p))
        object.__setattr__(bp, "c", p.c)
        return bp


@dataclass(frozen=True)
class KroneckerResult:
    minimal_index_d: Optional[int]
    kernel_poly: Optional[List[Poly]]  # f with (M0 + x*M1) f(x) = 0, deg f = d


def _stack(m0, m1, d: int) -> list:
    """The rows of C(d) from the rows of M0 and M1, padded with int zeros:
    block row bi holds M1 in block column bi-1 and M0 in block column bi."""
    n = len(m0)
    rows = []
    for bi in range(d + 2):
        for i in range(n):
            row = [0] * (n * max(bi - 1, 0))
            if bi > 0:
                row += m1[i]
            if bi <= d:
                row += m0[i]
            rows.append(row + [0] * (n * (d - bi)))
    return rows


def _null_vector(a: List[List[int]], p: int) -> Optional[Tuple[List[int], int]]:
    """(y, D) for the int rows ``a`` in characteristic p (over GF(p) the
    residues in [0, p), and y reduced into [0, p); the rows are
    overwritten), or None at full column rank. y is the int vector
    (y_0, ..., y_{f-1}, D, 0, ..., 0), f the first column without a pivot:
    D times the null vector with 1 at f, 0 right of f, and at every column
    r < f the entry x_r of the one solution with those entries. Of the
    null-space basis with one vector per free column, 1 there and 0 at the
    other free columns, that vector, y / D, is the first.

    ``pencil._eliminate`` reduces the rows up to f; a row it leaves zero is
    passed over, as a tall C(d) has dependent rows. Its last minor D is the
    determinant of the pivot rows' f x f block, so y_r = D*x_r is an int by
    Cramer's rule, and back-substitution on the pivot rows U reads
    y_r = -(D*U[r][f] + sum_{r<j<f} U[r][j]*y_j) / U[r][r], exact over QQ
    and by the inverse of U[r][r] over GF(p)."""
    cols = len(a[0]) if a else 0
    f, D = 0, 1
    for k, D, _ in _eliminate(a, p):
        f = k + 1
    if f == cols:
        return None
    y = [0] * f
    for r in range(f - 1, -1, -1):
        row = a[r]
        s = D * row[f] + sum(map(mul, row[r + 1 : f], y[r + 1 :]))
        y[r] = -s * pow(row[r], -1, p) % p if p else -s // row[r]
    return y + [D] + [0] * (cols - f - 1), D


def analyze(bp: BlockPencil) -> KroneckerResult:
    """The minimal index d and a degree-d nonzero f(x) with
    (M0 + x*M1) f(x) = 0, or (None, None) for a regular pencil.

    A pencil from ``BlockPencil.from_pencil`` keeps its c: only the n+1
    coefficients are lifted (L*c, L = 1 over GF(p)), and the int rows are
    those of T'(x) = L*M0 + x*M1, the same ints as the lift of M0 and M1
    over their common scale L. Its certificate is the det route's
    ``pencil._det_certificate``, whose first entry, the O(1) top
    coefficient, is read before any row is built. A general pencil lifts
    its 2n^2 entries over one common scale, and its certificate is
    ``pencil._point_certificate`` of T(d) = A0 + d*A1 transposed at the n+1
    points d = 0..n, exact over every field as deg det T <= n: the values
    det T(d), on residues over GF(p) for p > n, and the Newton coefficients
    of the values over Z for p <= n, where the points repeat mod p."""
    n = bp.n
    fld = bp.M0.field
    if bp.c is not None:
        c, L = fld.lift(bp.c)
        cert = _det_certificate(c, fld.characteristic)
        if next(cert):  # the top coefficient, nonzero in the field
            return KroneckerResult(minimal_index_d=None, kernel_poly=None)
        return _analyze(_rows(c, 0, 0), _rows((0,) * (n + 1), L, 0), fld, cert)
    flat, _ = fld.lift([e for M in (bp.M0, bp.M1) for row in M.data for e in row])
    A0 = [flat[i * n : (i + 1) * n] for i in range(n)]
    A1 = [flat[(n + i) * n : (n + i + 1) * n] for i in range(n)]

    def rows(d, q):  # T(d) transposed, reduced mod q > 0: row j is column j of A0 and of A1
        return [[(x + d * y) % q if q else x + d * y for x, y in zip(*col)] for col in zip(zip(*A0), zip(*A1))]

    return _analyze(A0, A1, fld, _point_certificate(rows, n + 1, fld.characteristic))


def _analyze(A0: List[List[int]], A1: List[List[int]], fld, cert: Iterator[int]) -> KroneckerResult:
    """``analyze`` on the int rows A0, A1 of L*M0 and L*M1 lifted from
    ``fld``, and the rest of the pencil's regularity certificate ``cert``,
    one int per d = 0..n, read as 0 once it ends; every step runs on them,
    and every zero test is ``pencil._first_violation`` in characteristic p.
    An entry nonzero in the field proves the pencil regular before C(d) is
    built. Otherwise, for d < n, ``_null_vector`` reduces C(d) up to its
    first column without a pivot and returns that column's null vector (1
    there, 0 right of it) times the last minor D, in ints. The first d with
    a rank-deficient C(d) is minimal, because the first n*d columns of C(d)
    are those of C(d-1) padded with zero rows, so they stay independent;
    the free column thus lies in block column d, and f has degree d. A zero
    det T without a null vector below n raises ``ConsistencyAlarm``: a
    singular n x n pencil has its minimal index below n. The identity and
    the degree (f_d, the top block, nonzero) are re-verified on those ints;
    ``fld`` then builds the ``Poly``s' coefficients, y_r / D, the only field
    values of the call."""
    n, p = len(A0), fld.characteristic
    for d in range(n + 1):
        if _first_violation([next(cert, 0)], p):
            return KroneckerResult(minimal_index_d=None, kernel_poly=None)
        if d == n:
            raise ConsistencyAlarm("det T(x) is zero, yet no C(d) with d < n has a null vector")
        found = _null_vector(_stack(A0, A1, d), p)
        if found is not None:
            break
    # the coefficient of x^k in (M0 + x*M1) f(x) is M0 f_k + M1 f_{k-1}
    # (f_{-1} = f_{d+1} = 0); checked on D*f's ints, apart from C(d)
    y, D = found
    fk = [[0] * n, *(y[k * n : (k + 1) * n] for k in range(d + 1)), [0] * n]
    for lo, hi in zip(fk[1:], fk):
        coeff = (sum(map(mul, r0, lo)) + sum(map(mul, r1, hi)) for r0, r1 in zip(A0, A1))
        if _first_violation(coeff, p):
            raise ConsistencyAlarm("kernel vector fails the pencil identity")
    if _first_violation(fk[-2], p) is None:  # f_d = 0: deg f < d
        raise ConsistencyAlarm("kernel vector degree disagrees with minimal index")
    vec = [fld.frac(v, D) for v in y]  # the one conversion to field values
    return KroneckerResult(minimal_index_d=d, kernel_poly=[Poly(fld, vec[i :: n]) for i in range(n)])
