"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths under test: determinants
by cofactor expansion, inverses by extended Euclid, primality by trial
division, linear solves by cofactor-based Cramer rule, ranks by nonzero
minors. The determinant polynomial det T(x) comes from Laplace expansion on
coefficient tuples (ring operations only, no division or elimination), and
kernel vectors are checked by multiplying out (M0 + x*M1) f(x) on the same
tuples. The minor-space scan is checked
against a direct enumeration of coefficient space on plain ints mod p, which
uses no toeppencil arithmetic at all, and the random hunt against the loop
that evaluates every trial, duplicates included. The S and SM values, which the
library computes on plain ints, are checked against the field-typed matrix
formulas they replaced: Gauss-Jordan ``inv(Q)`` and matrix-vector products
over the field. The orbit-reduced integer hunt is checked against the
per-tuple scan it replaced, which recovers the coefficients and evaluates SM
on field elements for every one of the p^(n-1) tuples. The kernel extraction
on lifted ints, with its det-probe exit, is checked against the stacked search
it replaced: ``kernel_basis`` of every ``build_C`` and ``Fraction``/GF(p)
matrix-vector products for the identity. The int geometric test is checked
against the field-division loop it replaced, the lazy Newton stream against
the list version it replaced, the general kernel's point stream against the
Newton certificate over Z it replaced, the det route's lazily built rows
against the eager certificate that built all n rows at every point, and the
hunt's cross-check subsampling rule is defined here, apart from the scan
that applies it.

``det``, ``rank``, ``kernel_basis`` and ``inv`` share one fraction-free
Gauss-Jordan reduction, ``_eliminate``, on the entries lifted to ints: the
library's determinants and its null vector run on its one forward
elimination, ``pencil._eliminate``, so this reduction is apart from it. The
tests hold it to the cofactor oracles above.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import factorial
from typing import Iterator, List, Sequence, Tuple

from toeppencil.criteria import ConsistencyAlarm, evaluate_instance, sm_condition_values
from toeppencil.field import QQ, PrimeField
from toeppencil.hunt import _CROSSCHECK_STRIDE, HuntReport, _random_instances
from toeppencil.kronecker import BlockPencil, KroneckerResult, _stack
from toeppencil.linalg import Mat, Poly, ShapeError
from toeppencil.minors import MinorVector, build_sm_objects, recover_c_from_minors
from toeppencil.pencil import PencilInstance, _det_int, _point_certificate, _top_coefficient, build_M0, build_M1
from toeppencil.pencil import build_pencil


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix."""


def identity(field, n: int) -> Mat:
    z, o = field.zero, field.one
    return Mat(field, [[o if i == j else z for j in range(n)] for i in range(n)])


def zeros(field, r: int, c: int) -> Mat:
    z = field.zero
    return Mat(field, [[z] * c for _ in range(r)])


def matmul(A: Mat, B: Mat) -> Mat:
    if A.cols != B.rows:
        raise ShapeError("product shape mismatch")
    z = A.field.zero
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            s = z
            for k in range(A.cols):
                s = s + A.data[i][k] * B.data[k][j]
            row.append(s)
        out.append(row)
    return Mat(A.field, out)


def transpose(M: Mat) -> Mat:
    return Mat(M.field, [[M.data[i][j] for i in range(M.rows)] for j in range(M.cols)])


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


def _lift(M: Mat) -> Tuple[List[List[int]], int]:
    """The rows as plain ints over one common scale L, and L."""
    flat, L = M.field.lift([e for row in M.data for e in row])
    return [flat[i * M.cols : (i + 1) * M.cols] for i in range(M.rows)], L


def det(M: Mat):
    """Exact determinant: sign * last pivot / L^n of the reduction."""
    if M.rows != M.cols:
        raise ShapeError("determinant of non-square matrix")
    a, L = _lift(M)
    a, pivots, sign = _eliminate(a, M.field)
    if len(pivots) < M.rows:
        return M.field.zero
    return M.field.frac(sign * a[-1][-1] if a else 1, L**M.rows)


def rank(M: Mat) -> int:
    return len(_eliminate(_lift(M)[0], M.field)[1])


def kernel_basis(M: Mat) -> List[Tuple]:
    """Basis of the right null space, one vector per free column f (ascending):
    1 at f, 0 at the other free columns; empty list iff full column rank."""
    a, pivots, _ = _eliminate(_lift(M)[0], M.field)
    return list(_kernel_vectors(a, pivots, M.cols, M.field))


def inv(M: Mat) -> Mat:
    """Inverse from the reduction of [A | I]: A is invertible exactly when
    the pivots are the first n columns."""
    if M.rows != M.cols:
        raise ShapeError("inverse of non-square matrix")
    n, fld = M.rows, M.field
    aug = Mat(fld, [r + e for r, e in zip(M.data, identity(fld, n).data)])
    a, pivots, _ = _eliminate(_lift(aug)[0], fld)
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


@dataclass(frozen=True)
class PencilPartition:
    Q: Mat
    v: Tuple
    w: Tuple
    B: Mat


def partition(p: PencilInstance) -> PencilPartition:
    """The blocks read off M0 = [[v, Q], [c_{n+1}, w]] and M1 = [[0, B], [0, 0]]."""
    n = p.n
    M0 = build_M0(p)
    return PencilPartition(
        Q=M0.drop_row_col(n - 1, 0),
        v=tuple(row[0] for row in M0.data[: n - 1]),
        w=M0.data[n - 1][1:],
        B=build_M1(p).drop_row_col(n - 1, 0),
    )


def normalize_c1(p: PencilInstance) -> PencilInstance:
    """Divide every coefficient by c1; singularity is preserved (each
    determinant coefficient is homogeneous in the c's)."""
    scale = p.field.one / p.coeff(1)
    return PencilInstance(p.field, tuple(ci * scale for ci in p.c))


def build_C(bp: BlockPencil, d: int) -> Mat:
    """The ((d+2)*n) x ((d+1)*n) stacked matrix; block column j holds the
    coefficient slot of x^j in a candidate kernel polynomial."""
    if d < 0:
        raise ValueError("block depth must be nonnegative")
    z = bp.M0.field.zero  # _stack pads with int zeros
    return Mat(bp.M0.field, [[e or z for e in row] for row in _stack(bp.M0.data, bp.M1.data, d)])


def _crosscheck_selected(mtuple) -> bool:
    """The exhaustive hunt's subsampling rule: a valid tuple (m_1, ..., m_{n-1})
    is cross-checked when sum_r r*m_r = 0 mod the stride."""
    return sum((i + 1) * v for i, v in enumerate(mtuple)) % _CROSSCHECK_STRIDE == 0


def geometric_ratio(p):
    """The common ratio c_2 / c_1 if c_{k+1} = ratio * c_k for all k, else
    None, by field division and multiplication."""
    lam = p.coeff(2) / p.coeff(1)
    for k in range(1, p.n + 1):
        if p.coeff(k + 1) != lam * p.coeff(k):
            return None
    return lam


def det_cofactor(M: Mat):
    """Determinant by first-row cofactor expansion (exponential, small only);
    zero entries of the row contribute nothing and are skipped."""
    n = M.rows
    if n == 0:
        return M.field.one
    if n == 1:
        return M[0, 0]
    total = M.field.zero
    for j in range(n):
        if M[0, j] == M.field.zero:
            continue
        sub = M.drop_row_col(0, j)
        term = M[0, j] * det_cofactor(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + tuple(a[len(b) :])


def _poly_mul(a, b, field):
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def _trim(a, field):
    a = list(a)
    while a and a[-1] == field.zero:
        a.pop()
    return tuple(a)


def poly_eval(a, x0, field):
    """The coefficient tuple a (x^k at index k) evaluated at x0."""
    s = field.zero
    for c in reversed(a):
        s = s * x0 + c
    return s


def rank_by_minors(M: Mat) -> int:
    """The largest k with a nonzero k x k minor (cofactor determinants)."""
    for k in range(min(M.rows, M.cols), 0, -1):
        for rows in combinations(range(M.rows), k):
            for cols in combinations(range(M.cols), k):
                sub = Mat(M.field, [[M.data[i][j] for j in cols] for i in rows])
                if det_cofactor(sub) != M.field.zero:
                    return k
    return 0


def det_laplace(field, grid):
    """Determinant of a square grid of polynomials, each a coefficient
    sequence (x^k at index k), as a tuple without trailing zeros.

    Laplace expansion along the rows, top down. The minor left below row i
    depends only on the columns rows 0..i-1 did not take, so it is memoised
    on that column set. Only +, - and *: no division, no elimination. Zero
    entries are skipped, so a grid whose row i is zero right of column i+2,
    as T(x) is, reaches O(n^3) column sets.
    """
    n = len(grid)
    grid = [[_trim(e, field) for e in row] for row in grid]
    memo = {}

    def minor(cols):
        if not cols:
            return (field.one,)
        if cols not in memo:
            row = grid[n - len(cols)]
            total = ()
            for pos, j in enumerate(cols):
                entry = row[j]
                if not entry:
                    continue
                term = _poly_mul(entry, minor(cols[:pos] + cols[pos + 1 :]), field)
                total = _poly_add(total, term if pos % 2 == 0 else tuple(-t for t in term))
            memo[cols] = total
        return memo[cols]

    return _trim(minor(tuple(range(n))), field)


def pencil_det(p):
    """det T(x) of a pencil instance as a coefficient tuple (x^k at index k,
    no trailing zeros; () when T(x) is singular), read off p.c: entry (i, j),
    1-based, is c_{i-j+2} for j <= i+1, x for j = i+2 and 0 otherwise."""
    f, c, n = p.field, p.c, p.n
    x = (f.zero, f.one)
    grid = [
        [(c[i - j + 1],) if j <= i + 1 else x if j == i + 2 else () for j in range(n)]
        for i in range(n)
    ]
    return det_laplace(f, grid)


def jacobi_det(c, x0: int) -> int:
    """det T(x0) for integer coefficients c = (c1, ..., c_{n+1}) and an
    integer x0 != 0, in O(n^2) integer operations and without elimination.

    T(x0) is rows 2..n+1 and columns 0..n-1 of the lower-triangular Toeplitz
    matrix of b(t) = x0 + c1 t + ... + c_{n+1} t^{n+1}, whose inverse is the
    Toeplitz matrix of 1/b(t) = sum_r G_r t^r / x0^(r+1). Jacobi's
    complementary-minor theorem leaves det T(x0) = (G_n^2 - G_{n-1} G_{n+1})
    / x0^n, with G_0 = 1 and G_r = -sum_{k=1..r} b_k x0^(k-1) G_{r-k}.
    """
    n = len(c) - 1
    b = (x0, *c)
    G = [1]
    for r in range(1, n + 2):
        G.append(-sum(b[k] * x0 ** (k - 1) * G[r - k] for k in range(1, r + 1)))
    det, rem = divmod(G[n] ** 2 - G[n - 1] * G[n + 1], x0**n)
    if rem:
        raise ArithmeticError(f"Jacobi's identity left a remainder at x0 = {x0}")
    return det


def newton_coefficients(values: Sequence[int]) -> List[int]:
    """a_0, a_1, ... with P(x) = sum_k a_k x(x-1)...(x-k+1), where P is the
    polynomial of degree < len(values) with P(x0) = values[x0]: the k-th
    forward difference at 0 is k! a_k."""
    out = []
    for k in range(len(values)):
        out.append(values[0] // factorial(k))
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def general_certificate(bp: BlockPencil) -> List[int]:
    """The general kernel's regularity certificate as it read before it took
    values at distinct points: the Newton coefficients over Z of det T(d),
    d = 0..n, for T(d) = L*M0 + d*L*M1 lifted over one common scale L, each
    reduced mod p over GF(p). The determinants are ``det`` over QQ."""
    n, fld = bp.n, bp.M0.field
    flat, _ = fld.lift([e for M in (bp.M0, bp.M1) for row in M.data for e in row])
    values = []
    for d in range(n + 1):
        T = [[QQ.of(flat[i * n + j] + d * flat[(n + i) * n + j]) for j in range(n)] for i in range(n)]
        values.append(int(det(Mat(QQ, T))))
    p = fld.characteristic
    return [a % p if p else a for a in newton_coefficients(values)]


def det_certificate_eager(c: Sequence[int], p: int) -> Iterator[int]:
    """The det route's certificate as it read before its rows were built
    lazily: the top coefficient, then ``_point_certificate`` of T'(x0)
    transposed with all n rows built at every point and eliminated as one
    list by ``_det_int``."""
    n, top = len(c) - 1, _top_coefficient(c)
    yield top % p if p else top

    def det(x0, q):  # row i is column i of T'(x0): x0 at i-2, then c_1..c_{n+1-i}
        return _det_int([[*[0] * (i - 2), x0, *c[: n + 1 - i]][-n:] for i in range(n)], q)

    yield from _point_certificate(det, n - 2, p)


def pencil_residual(M0: Mat, M1: Mat, f):
    """(M0 + x*M1) f(x) for a vector of ``Poly``, row by row as coefficient
    tuples without trailing zeros; all empty exactly when f is a kernel vector."""
    field = M0.field
    out = []
    for r0, r1 in zip(M0.data, M1.data):
        s = ()
        for a, b, fj in zip(r0, r1, f, strict=True):
            s = _poly_add(s, _poly_mul((a, b), fj.coeffs, field))
        out.append(_trim(s, field))
    return out


def _dot(u, v, field):
    return sum((a * b for a, b in zip(u, v, strict=True)), field.zero)


def s_values_field(p, kmax: int):
    """star = c_{n+1} - w Q^{-1} v and w Q^{-1} (B Q^{-1})^k v, k = 1..kmax,
    from the partition blocks with Q inverted over the field."""
    part = partition(p)
    Qinv = inv(part.Q)
    s = mat_vec(Qinv, part.v)
    star = p.coeff(p.n + 1) - _dot(part.w, s, p.field)
    values = []
    for _ in range(kmax):
        s = mat_vec(Qinv, mat_vec(part.B, s))
        values.append(_dot(part.w, s, p.field))
    return star, values


def sm_values_field(mv, kmax: int):
    """(t_y P) X^k y for k = 0..kmax, with X, y and P as field-typed matrices."""
    sm = build_sm_objects(mv)
    z = sm.y
    values = []
    for _ in range(kmax + 1):
        values.append(_dot(mat_vec(sm.P, sm.y), z, mv.field))
        z = mat_vec(sm.X, z)
    return values


def extended_euclid_inverse(a: int, p: int) -> int:
    """Modular inverse by the extended Euclidean algorithm."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1, f"{a} not invertible mod {p}"
    return old_s % p


def is_prime_trial(p: int) -> bool:
    """Primality by trial division up to the square root."""
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def solve_cramer(M: Mat, b):
    """Solve M x = b by Cramer's rule with cofactor determinants."""
    d = det_cofactor(M)
    assert d != M.field.zero
    xs = []
    for j in range(M.cols):
        cols = [
            [b[i] if k == j else M[i, k] for k in range(M.cols)]
            for i in range(M.rows)
        ]
        xs.append(det_cofactor(Mat(M.field, cols)) / d)
    return tuple(xs)


def _det_mod_p(rows, p: int) -> int:
    """Determinant mod p of a plain-int matrix by Gaussian elimination."""
    a = [[e % p for e in r] for r in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def nongeometric_singular_minor_tuples(n: int, p: int):
    """Sorted minor tuples (m_1, ..., m_{n-1}) of every non-geometric
    singular pencil over GF(p), p prime, with c1 = 1.

    Enumerates c2..c_{n+1} in GF(p)* and evaluates det T(x) at every
    x in GF(p); deg det T(x) <= n-2 < p, so vanishing at all p points means
    det T(x) is the zero polynomial. The minors are the leading principal
    minors of M0, computed on the same plain ints.
    """
    if p <= n - 2:
        raise ValueError(f"GF({p}) has too few points to decide det T(x) at n={n}")
    found = []
    for tail in product(range(1, p), repeat=n):
        c = (1,) + tail
        # M0, 0-based: entry (i, j) is c_{i-j+2} when j <= i+1; M1 adds x at j = i+2
        m0 = [[c[i - j + 1] if j <= i + 1 else 0 for j in range(n)] for i in range(n)]
        if any(
            _det_mod_p(
                [[e + x if j == i + 2 else e for j, e in enumerate(row)] for i, row in enumerate(m0)],
                p,
            )
            for x in range(p)
        ):
            continue
        if all(c[k + 1] == c[1] * c[k] % p for k in range(n)):
            continue  # geometric with ratio c2
        found.append(tuple(_det_mod_p([row[:r] for row in m0[:r]], p) for r in range(1, n)))
    return sorted(found)


def exhaustive_scan_reference(n: int, p: int) -> dict:
    """The exhaustive hunt of (n, p) in ``HuntReport.to_dict()`` form, one
    tuple (m_1, ..., m_{n-1}, m_n = 0) at a time over GF(p): coefficients by
    ``recover_c_from_minors``, SM by ``sm_condition_values``, and
    ``evaluate_instance`` on every SM solution and every stride-selected
    valid tuple."""
    gf = PrimeField(p)
    zero = gf.zero
    valid = sm_solutions = 0
    counterexamples, violations = [], []
    for mtuple in product(range(p), repeat=n - 1):
        ms = [gf.of(v) for v in mtuple] + [zero]
        cs = recover_c_from_minors(ms, gf)
        if any(ci == zero for ci in cs):
            continue
        valid += 1
        sm_ok = all(v == zero for v in sm_condition_values(MinorVector(field=gf, m=(gf.one, *ms))))
        if sm_ok or _crosscheck_selected(mtuple):
            try:
                if evaluate_instance(build_pencil([gf.one] + cs, gf)).sm_holds != sm_ok:
                    violations.append((mtuple, "sm-mismatch"))
            except ConsistencyAlarm:
                violations.append((mtuple, "criterion-disagreement"))
        if sm_ok:
            sm_solutions += 1
            if any(mtuple[1:]):
                counterexamples.append(mtuple)
    note = "finite-field evidence only; not lifted to characteristic 0"
    return {
        "scanned": p ** (n - 1),
        "valid": valid,
        "sm_solutions": sm_solutions,
        "counterexamples": [list(t) for t in sorted(counterexamples)],
        "violations": [list(t) for t in sorted(violations)],
        "note": note if counterexamples else None,
    }


def random_scan_reference(cfg) -> HuntReport:
    """The random hunt's report with ``evaluate_instance`` called once per
    trial, on the scan's own coefficient lists."""
    report = HuntReport()
    for c in _random_instances(cfg):
        report.tuples_scanned += 1
        report.valid_instances += 1
        shown = tuple(str(ci) for ci in c)
        try:
            rep = evaluate_instance(build_pencil(c, cfg.field))
        except ConsistencyAlarm:
            report.equivalence_violations.append((shown, "criterion-disagreement"))
            continue
        if rep.sm_holds:
            report.sm_solutions += 1
            if not rep.y_is_zero:
                report.counterexamples.append(shown)
    return report.canonicalize()


def analyze_reference(bp: BlockPencil) -> KroneckerResult:
    """The minimal index d and a degree-d nonzero f(x) with
    (M0 + x*M1) f(x) = 0, or (None, None) for a regular pencil. The first d
    with a rank-deficient stacked matrix is minimal: the first n*d columns of
    C(d) are those of C(d-1) padded with zero rows, so they stay independent.
    Both the identity and the degree are re-verified exactly before returning."""
    n = bp.n
    field = bp.M0.field
    for d in range(n):
        basis = kernel_basis(build_C(bp, d))
        if basis:
            break
    else:
        return KroneckerResult(minimal_index_d=None, kernel_poly=None)
    vec = basis[0]
    fk = [vec[k * n : (k + 1) * n] for k in range(d + 1)]  # coefficient of x^k
    # the coefficient of x^k in (M0 + x*M1) f(x) is M0 f_k + M1 f_{k-1}
    # (f_{-1} = f_{d+1} = 0); checked apart from build_C, which found f
    zero = (field.zero,) * n
    for k in range(d + 2):
        low = mat_vec(bp.M0, fk[k]) if k <= d else zero
        high = mat_vec(bp.M1, fk[k - 1]) if k > 0 else zero
        if any(a + b != field.zero for a, b in zip(low, high)):
            raise ConsistencyAlarm("kernel vector fails the pencil identity")
    f = [Poly(field, [fk[k][i] for k in range(d + 1)]) for i in range(n)]
    degrees = [fi.degree for fi in f if not fi.is_zero]
    if not degrees or max(degrees) != d:
        raise ConsistencyAlarm("kernel vector degree disagrees with minimal index")
    return KroneckerResult(minimal_index_d=d, kernel_poly=f)
