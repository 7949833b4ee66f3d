"""Construction and basic queries for the banded lower-triangular Toeplitz
pencil T(x) = M0 + x*M1 defined by nonzero coefficients c1..c_{n+1}.

M0 carries c2 on the main diagonal, c1 on the first superdiagonal and the
longer c-tail below; M1 has ones on the second superdiagonal only (and is
the 2x2 zero matrix for n=2). The power and minor conditions are stated on
the blocks M0 = [[v, Q], [c_{n+1}, w]] and M1 = [[0, B], [0, 0]]: Q is
lower-triangular Toeplitz with c1 on its diagonal, v = (c2..cn), w is v
reversed and B is the shift. No block is built: each route reads them off c.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .field import QQ, FieldMismatchError
from .linalg import Mat


class PencilError(ValueError):
    """Invalid pencil coefficients (zero entry or too few)."""


@dataclass(frozen=True)
class PencilInstance:
    field: object
    c: Tuple  # c[0] = c1, ..., c[n] = c_{n+1}

    @property
    def n(self) -> int:
        return len(self.c) - 1

    def coeff(self, k: int):
        """c_k, 1-based as in the defining display."""
        return self.c[k - 1]


def build_pencil(c: Sequence, field=None) -> PencilInstance:
    if field is None:
        field = QQ
    c = tuple(field.of(ci) if isinstance(ci, int) else ci for ci in c)
    if len(c) < 3:
        raise PencilError(f"need at least 3 coefficients, got {len(c)}")
    zero = field.zero
    for i, ci in enumerate(c):
        if not isinstance(ci, type(zero)):  # a GF(q) element of another modulus fails at ==
            raise FieldMismatchError(f"coefficient c{i + 1} = {ci!r} is not in {field!r}")
        if ci == zero:
            raise PencilError(f"coefficient c{i + 1} is zero")
    return PencilInstance(field, c)


def _rows(c: Sequence, x, zero) -> List[list]:
    """The rows of T(x) = M0 + x*M1 for c = (c1, ..., c_{n+1}): entry (i, j),
    0-based, is c_{i-j+2} when j <= i+1, x when j = i+2, else zero: row i is
    c_{i+2}, ..., c_1, then x, then zeros, cut to n entries."""
    n = len(c) - 1
    return [[*c[i + 1 :: -1], x, *[zero] * (n - i - 3)][:n] for i in range(n)]


def build_M0(p: PencilInstance) -> Mat:
    z = p.field.zero
    return Mat(p.field, _rows(p.c, z, z))


def build_M1(p: PencilInstance) -> Mat:
    # the coefficient of x: every c_k zero, x one
    z = p.field.zero
    return Mat(p.field, _rows((z,) * len(p.c), p.field.one, z))


def _eliminate(a: List[List[int]], p: int) -> Iterator[Tuple[int, int, bool]]:
    """The one forward elimination of the int rows ``a`` (overwritten), column
    by column: fraction-free (Bareiss) for p = 0, every division exact; for a
    prime p > 0, on residues in [0, p), each row update reduced mod p with
    the pivot's inverse and no levels. For column k it yields (k, minor,
    vanished), minor the signed leading minor of order k+1 of the rows in
    their current order (mod p in [0, p) for p > 0): (k, minor, True) as
    soon as an update leaves a row zero right of column k, before that row
    or a later one is written, and (k, minor, False) once the column is
    done. It returns at the first column without a pivot, or after the
    last one; each caller decides where to stop. Pivot row r then holds its
    pivot at column r, and its entries left of r are stale.

    Sylvester's identity: after the steps at the pivots 0..k-1, a Bareiss
    entry (i, j) is the minor of rows 0..k-1, i and columns 0..k-1, j, so
    (akk*x - aik*y) is divisible by the previous pivot. A row with a zero
    in the pivot column is not touched: it keeps the pivot it was last
    updated with, level[i], and is its Bareiss row times level[i]/prev.
    Its next update, (akk*x - aik*y) // level[i], is therefore exact, and
    a pivot row whose level is behind is first brought up to date. A matrix
    with lower bandwidth w, such as T(x0) transposed (w = 2), thus costs
    O(w n^2). Mod p the minor is the product of the pivots."""
    m = len(a)
    level = [1] * m
    sign, prev = 1, 1
    for k in range(min(m, len(a[0]) if a else 0)):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
            if swap is None:
                return
            a[k], a[swap], level[k], level[swap] = a[swap], a[k], level[swap], level[k]
            sign = -sign
        rk = a[k]
        if not p and level[k] != prev:
            rk[k:] = [x * prev // level[k] for x in rk[k:]]
        akk, rt = rk[k], rk[k + 1 :]
        if p:
            inv, prev = pow(akk, -1, p), akk * prev % p
            minor = sign * prev % p
        else:
            minor, prev = sign * akk, akk
        for i in range(k + 1, m):
            ri = a[i]
            aik = ri[k]
            if aik:
                if p:
                    f = aik * inv % p
                    tail = [(x - f * y) % p for x, y in zip(ri[k + 1 :], rt)]
                else:
                    lv = level[i]
                    tail = [(akk * x - aik * y) // lv for x, y in zip(ri[k + 1 :], rt)]
                    level[i] = akk
                if not any(tail):
                    yield k, minor, True
                ri[k + 1 :] = tail
        yield k, minor, False


def _det_int(a: List[List[int]], p: int) -> int:
    """Determinant of a square plain-int matrix (rows are overwritten), or for
    a prime p > 0 the determinant mod p in [0, p) of rows of residues in
    [0, p): the last minor of ``_eliminate``. The first row that an update
    leaves zero proves det = 0, and so does a column without a pivot. The
    empty matrix has det 1."""
    det, k = 1, -1
    for k, det, vanished in _eliminate(a, p):
        if vanished:
            return 0
    return det if k == len(a) - 1 else 0


def _newton_coefficients(values: Iterable[int]) -> Iterator[int]:
    """The lazy stream a_0, a_1, ... with P(x) = sum_k a_k x(x-1)...(x-k+1)
    for values = P(0), P(1), ... of an integer polynomial P: a_k is yielded
    right after P(k) is read. One difference diagonal is kept (diag[j] is
    the j-th forward difference at k-j), so P(k) costs O(k). The k-th
    forward difference at 0 is k! a_k, so a_k is an integer, and P is zero
    mod p exactly when every a_k is (the falling factorials are monic, so
    they stay a basis mod p); k! a_k itself is 0 mod p for every k >= p."""
    diag = []
    for k, v in enumerate(values):
        for j, prev in enumerate(diag):
            diag[j], v = v, v - prev
        diag.append(v)
        yield v // factorial(k)


def _top_coefficient(c: Sequence[int]) -> int:
    """[x^(n-2)] det T(x) for c = (c1, ..., c_{n+1}). A term of x^(n-2) takes
    every x, at (i, i+2) 0-based, so it sends rows n-2, n-1 to columns 0, 1:
    the coefficient is the 2x2 minor there, with the sign of the shift by 2
    mod n, which is even."""
    return c[-2] ** 2 - c[-3] * c[-1]


def _point_certificate(rows: Callable[[int, int], List[List[int]]], count: int, p: int) -> Iterator[int]:
    """For an int polynomial P(x) = det rows(x, 0) of degree < count: a lazy
    stream of ints, reduced into [0, p) for p > 0, that are all zero iff P is
    zero in characteristic p. ``rows(x0, q)`` gives the int rows of the
    matrix at x0, as residues in [0, q) for q > 0. Where the points
    0..count-1 are distinct mod p (p = 0 or p >= count) the stream is P(x0)
    for x0 = 0..count-1, by ``_det_int`` in characteristic p; for
    0 < p < count they repeat mod p, and it is the Newton coefficients
    a_0..a_{count-1} of the values over Z, reduced mod p. The one place
    that decides between the two."""
    q = p if p >= count else 0  # the points 0..count-1 are distinct mod q
    values = (_det_int(rows(x0, q), q) for x0 in range(count))
    for v in values if q == p else _newton_coefficients(values):
        yield v % p if p else v


def _det_certificate(c: Sequence[int], p: int) -> Iterator[int]:
    """The det route's certificate for c lifted to plain ints (L*c, L = 1
    over GF(p)), p the characteristic: a lazy stream of ints, reduced into
    [0, p) for p > 0, that are all zero iff det T(x) is the zero polynomial.
    First the O(1) top coefficient, then, as deg det T' <= n-3 once it is
    zero, ``_point_certificate`` of T'(x) transposed at the n-2 points
    0..n-3 (none for n = 2, where det T is its top coefficient). The rows
    need no reduction mod q: c holds residues over GF(p), and the points
    are below q."""
    n, top = len(c) - 1, _top_coefficient(c)
    yield top % p if p else top

    # T'(x0) transposed: row i is column i of T'(x0), x0 at i-2 and then c_1..c_{n+1-i}
    def rows(x0, q):
        return [[*[0] * (i - 2), x0, *c[: n + 1 - i]][-n:] for i in range(n)]

    yield from _point_certificate(rows, n - 2, p)


def _singular(c: Sequence[int], p: int) -> bool:
    """True iff det T(x) is the zero polynomial, for c lifted to plain ints
    (L*c, L = 1 over GF(p)) and p the characteristic: the det route's int
    core, see ``is_singular``."""
    return not any(_det_certificate(c, p))


def is_singular(p: PencilInstance) -> bool:
    """True iff det T(x) is the zero polynomial.

    Runs on plain ints. Lifting c to L*c (L = 1 over GF(p)) gives the integer
    pencil T'(x) = L*M0 + x*M1 with det T'(x) = L^n det T(x/L), and over GF(p)
    det T(x) is det T'(x) with its coefficients reduced mod p. x sits in the
    n-2 entries (i, i+2), so deg det T' <= n-2. Only the permutations that
    take all of them reach x^(n-2), and they send rows n-2, n-1 to columns
    0, 1: the top coefficient is the 2x2 minor c_n^2 - c_{n-1} c_{n+1} of
    the lifted c (L^2 times that of c).

    The certificate, ``_det_certificate``, is read lazily and the first
    entry nonzero in the field proves the pencil regular. The top
    coefficient comes first, in O(1) and before any determinant; for n = 2
    it is all of det T. Only when it is zero in the field, deg det T' <= n-3,
    and the values det T'(x0) at x0 = 0..n-3 decide: n-2 distinct points.
    At distinct points the first nonzero value and the first nonzero Newton
    coefficient a_k have the same index, since P(k) = k! a_k + (terms in
    a_0..a_{k-1}) with k! a unit, so the values are read as they are: over
    QQ, and over GF(p) with p >= n-2, where the determinants run on
    residues. For p < n-2 the points repeat mod p, and the Newton
    coefficients a_0..a_{n-3} of the int values decide instead: a_k reads
    only the values at 0..k, and the falling factorials stay a basis mod p.
    That choice is ``_point_certificate``'s alone. Each value is
    ``_det_int`` of T'(x0) transposed, which has lower bandwidth 2: O(n^2)
    per point, its rows built directly from c. ``kronecker.analyze`` reads
    the same certificate for a pencil from c, and the same point stream at
    its n+1 points d = 0..n for a general pencil.
    """
    return _singular(p.field.lift(p.c)[0], p.field.characteristic)


def _first_violation(values: Iterable[int], p: int) -> Optional[Tuple[int, int]]:
    """(k, v) of the first int v of values, counting from 0, that is nonzero in
    characteristic p (mod p for p > 0), or None; reads no further. The one zero
    test of the int cores, which builds no field element."""
    return next(((k, v) for k, v in enumerate(values) if (v % p if p else v)), None)


def _geometric(c: Sequence[int], fld) -> Optional[object]:
    """The common ratio c_2 / c_1 if c_{k+1} c_1 = c_2 c_k in the field for
    all k, else None, for c lifted to plain ints; the lift's scale cancels."""
    cross = (c[k + 1] * c[0] - c[1] * c[k] for k in range(1, len(c) - 1))
    return None if _first_violation(cross, fld.characteristic) else fld.frac(c[1], c[0])


def is_geometric(p: PencilInstance) -> Optional[object]:
    """The common ratio if c_{k+1} = ratio * c_k for all k, else None."""
    return _geometric(p.field.lift(p.c)[0], p.field)
