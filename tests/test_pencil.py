import random
from fractions import Fraction
from itertools import product
from math import perm

import pytest

from toeppencil import pencil
from toeppencil.criteria import evaluate_instance
from toeppencil.field import GF, QQ, FieldMismatchError
from toeppencil.hunt import HuntConfig, exhaustive_scan
from toeppencil.linalg import Mat
from toeppencil.minors import recover_c_from_minors
from toeppencil.pencil import (
    PencilError,
    _det_certificate,
    _det_int,
    _eliminate,
    _newton_coefficients,
    _rows,
    _top_coefficient,
    build_M0,
    build_M1,
    build_pencil,
    is_geometric,
    is_singular,
)

from conftest import geometric_pencil, random_gf_pencil, random_rational_pencil
import oracles
from oracles import (
    det_certificate_eager,
    det_laplace,
    geometric_ratio,
    jacobi_det,
    newton_coefficients,
    normalize_c1,
    partition,
    pencil_det,
    poly_eval,
    zeros,
)


def qp(*cs):
    return build_pencil([Fraction(c) for c in cs])


def test_build_pencil_validation():
    p = qp(1, 2, 4, 8)
    assert p.n == 3
    with pytest.raises(PencilError):
        qp(1, 0, 4, 8)
    with pytest.raises(PencilError):
        qp(1, 3)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_build_pencil_refuses_non_field_coefficients(field):
    for bad in (1.5, "2"):
        for pos in range(3):
            c = [1, 2, 3]
            c[pos] = bad
            with pytest.raises(FieldMismatchError, match=f"^coefficient c{pos + 1} = "):
                build_pencil(c, field)
    # an element of another field: the mixed-moduli error over GF(7) is unchanged
    mixed = r"^mixed moduli: GF\(5\) vs GF\(7\)$" if field == GF(7) else "^coefficient c2 = "
    with pytest.raises(FieldMismatchError, match=mixed):
        build_pencil([1, GF(5).of(2), 3], field)


def test_m0_display():
    M0 = build_M0(qp(1, 2, 4, 8))
    assert M0 == Mat(QQ, [[Fraction(e) for e in r] for r in [[2, 1, 0], [4, 2, 1], [8, 4, 2]]])


def test_m1_zero_for_n2():
    M1 = build_M1(qp(1, 3, 2))
    assert M1 == zeros(QQ, 2, 2)


def test_m1_second_superdiagonal_n4():
    M1 = build_M1(qp(1, 1, 1, 1, 1))
    for i in range(4):
        for j in range(4):
            expected = 1 if j == i + 2 else 0
            assert M1[i, j] == expected


def test_rows_follow_the_entry_rule_and_are_persymmetric():
    # T(x0) is Toeplitz, so J T J (the rows reversed, each reversed) is its transpose
    rng = random.Random(149)
    for n in range(2, 13):
        for p in (random_rational_pencil(rng, n), random_gf_pencil(rng, n, 7)):
            c = p.c
            for x0 in (0, 1, 3):
                T = _rows(c, x0, 0)
                assert T == [
                    [c[i - j + 1] if j <= i + 1 else x0 if j == i + 2 else 0 for j in range(n)]
                    for i in range(n)
                ]
                assert [r[::-1] for r in reversed(T)] == [list(col) for col in zip(*T)]


def test_partition_example():
    part = partition(qp(1, 2, 4, 8))
    assert part.Q == Mat(QQ, [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(1)]])
    assert part.v == (Fraction(2), Fraction(4))
    assert part.w == (Fraction(4), Fraction(2))
    assert part.B == Mat(QQ, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])


def test_partition_smallest_case():
    part = partition(qp(1, 3, 2))
    assert part.Q == Mat(QQ, [[Fraction(1)]])
    assert part.v == (Fraction(3),)
    assert part.w == (Fraction(3),)
    assert part.B == Mat(QQ, [[Fraction(0)]])


def test_partition_roundtrip():
    rng = random.Random(23)
    for n in range(2, 8):
        p = random_rational_pencil(rng, n)
        part = partition(p)
        M0 = build_M0(p)
        M1 = build_M1(p)
        for i in range(n - 1):
            assert M0[i, 0] == part.v[i]
            for j in range(n - 1):
                assert M0[i, j + 1] == part.Q[i, j]
                assert M1[i, j + 1] == part.B[i, j]
        assert M0[n - 1, 0] == p.coeff(n + 1)
        for j in range(n - 1):
            assert M0[n - 1, j + 1] == part.w[j]
        assert part.w == tuple(reversed(part.v))


def test_singularity():
    assert is_singular(qp(1, 2, 4, 8))
    assert not is_singular(qp(1, 1, 1, 2))
    assert is_singular(qp(2, 4, 8, 16))
    assert pencil_det(qp(1, 1, 1, 2)) == (Fraction(1), Fraction(-1))


def test_n2_constant_determinant():
    assert pencil_det(qp(1, 3, 2)) == (Fraction(7),)


def test_is_geometric():
    assert is_geometric(qp(1, 2, 4, 8)) == 2
    assert is_geometric(qp(1, 1, 1, 2)) is None
    assert is_geometric(qp(3, 3, 3, 3, 3)) == 1


def test_is_geometric_matches_the_division_loop():
    # the int cross-multiplication against the c2/c1 loop on field elements:
    # equal value, type and repr; over GF(3) the ratios 2 and -1 coincide
    rng = random.Random(59)
    cases = []
    for n in range(2, 13):
        for lam in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 5), Fraction(1)):
            c1 = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4, 7]))  # c1 < 0 too
            geo = [c1 * lam**k for k in range(n + 1)]
            cases.append(build_pencil(geo))
            for i in (2, n):  # off the sequence in one entry: c_3, or the last
                cases.append(build_pencil(geo[:i] + [geo[i] * 3] + geo[i + 1 :]))
        cases.append(random_rational_pencil(rng, n))
        for p in (2, 3, 5, 7):
            gf = GF(p)
            for lam in (2, -1, *range(1, p)):
                if lam % p:
                    c1 = gf.of(rng.randrange(1, p))
                    geo = [c1 * gf.of(lam) ** k for k in range(n + 1)]
                    cases.append(build_pencil(geo, gf))
                    if p > 2:
                        cases.append(build_pencil(geo[:-1] + [geo[-1] * gf.of(-1)], gf))
            cases.append(random_gf_pencil(rng, n, p))
    geometric = 0
    for p in cases:
        got, want = is_geometric(p), geometric_ratio(p)
        assert (got, type(got), repr(got)) == (want, type(want), repr(want)), p.c
        geometric += got is not None
    assert 0 < geometric < len(cases)
    gf3 = GF(3)
    assert is_geometric(build_pencil([1, 2, 1, 2], gf3)) == gf3.of(-1) == gf3.of(2)


def test_normalize_c1():
    p = normalize_c1(qp(2, 4, 8, 16))
    assert p.c == (Fraction(1), Fraction(2), Fraction(4), Fraction(8))
    q = qp(1, 1, 1, 2)
    assert normalize_c1(q).c == q.c


def test_normalize_preserves_singularity():
    rng = random.Random(31)
    for _ in range(20):
        p = random_rational_pencil(rng, rng.randint(2, 6))
        assert is_singular(p) == is_singular(normalize_c1(p))


def test_geometric_implies_singular():
    for lam in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
        for n in range(2, 8):
            assert is_singular(geometric_pencil(lam, n))


def test_degree_bound():
    rng = random.Random(37)
    for n in range(2, 9):
        for _ in range(10):
            d = pencil_det(random_rational_pencil(rng, n))
            assert len(d) <= n - 1  # deg <= n-2; () is the zero polynomial


def test_homogeneity_of_det_coefficients():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(2, 6)
        p = random_rational_pencil(rng, n)
        t = Fraction(rng.choice([2, 3, -2, 5]), rng.choice([1, 1, 3]))
        scaled = build_pencil([ci * t for ci in p.c])
        d = pencil_det(p)
        ds = pencil_det(scaled)
        assert ds == tuple(t ** (n - k) * a for k, a in enumerate(d))


def test_gf_pencils_work():
    gf = GF(7)
    p = build_pencil([gf.of(1), gf.of(2), gf.of(4), gf.of(1)], gf)
    assert is_geometric(p) == gf.of(2)  # 8 = 1 mod 7
    assert is_singular(p)


def test_is_singular_matches_polynomial_determinant():
    # reference: det T(x) by Laplace expansion, no elimination
    rng = random.Random(43)
    cases = [random_rational_pencil(rng, n) for n in range(2, 13) for _ in range(4)]
    for lam in (Fraction(-2, 3), Fraction(3)):
        cases += [geometric_pencil(lam, n) for n in (2, 5, 9, 12)]
    for p in cases:
        assert is_singular(p) == (pencil_det(p) == ()), p.c
    # every tail over GF(2) and GF(3), c1 = 1; for p < n-2 the points
    # x0 = 0..n-3 repeat mod p, so the zero test must interpolate
    regular_vanishing = 0
    for q in (2, 3):
        gf = GF(q)
        for n in range(2, 9):
            for tail in product(range(1, q), repeat=n):
                p = build_pencil([1, *tail], gf)
                det = pencil_det(p)
                assert is_singular(p) == (det == ()), (q, p.c)
                if det and all(poly_eval(det, gf.of(x0), gf) == 0 for x0 in range(q)):
                    regular_vanishing += 1
    assert regular_vanishing > 0


def test_top_coefficient_matches_laplace():
    # [x^(n-2)] det T'(x) of the lifted pencil is L^2 [x^(n-2)] det T(x), sign included
    rng = random.Random(47)
    for fld in (QQ, GF(2), GF(3), GF(7)):
        for n in range(2, 11):
            for _ in range(4):
                if fld == QQ:
                    p = random_rational_pencil(rng, n)
                else:
                    p = random_gf_pencil(rng, n, fld.p)
                det = pencil_det(p)
                top = det[n - 2] if len(det) == n - 1 else fld.zero
                c, L = fld.lift(p.c)
                assert fld.of(_top_coefficient(c)) == fld.of(L) ** 2 * top, (fld, p.c)


def test_is_singular_when_the_top_coefficient_vanishes_mod_p():
    # lifted residues whose top coefficient is a nonzero multiple of p: the
    # det route reads x0 = 0..n-3, which repeat mod p for p < n-2, and the
    # Newton coefficients decide
    rng = random.Random(53)
    tails = [(3, tail) for n in range(4, 10) for tail in product((1, 2), repeat=n)]
    tails += [(5, [rng.randrange(1, 5) for _ in range(n)]) for n in (7, 8) for _ in range(600)]
    cases = []
    for q, tail in tails:
        top = _top_coefficient((1, *tail))
        if top and top % q == 0:
            cases.append(build_pencil([1, *tail], GF(q)))
    singular = reached_newton = 0
    for p in cases:
        det = pencil_det(p)
        assert is_singular(p) == (det == ()), (p.field, p.c)
        points = [poly_eval(det, p.field.of(x0), p.field) for x0 in range(p.n - 2)]
        singular += det == ()
        reached_newton += bool(det) and not any(points)  # regular, every point zero
    assert len(cases) > 300 and singular > 0 and reached_newton > 0


def _counting_det_int(monkeypatch):
    """Patch the det route's determinant to record the size of each call:
    the rows it holds once it returns, as the elimination builds them."""
    read = []
    det_int = pencil._det_int

    def counting(a, *p):
        det = det_int(a, *p)
        read.append(len(a))
        return det

    monkeypatch.setattr(pencil, "_det_int", counting)
    return read


@pytest.mark.parametrize("n", [2, 3, 12])
@pytest.mark.parametrize("fld", [QQ, GF(7), GF(3)], ids=["QQ", "GF7", "GF3"])
def test_nonzero_top_coefficient_reads_no_determinant(monkeypatch, fld, n):
    # c_n^2 - c_{n-1} c_{n+1} nonzero in the field proves the pencil regular
    # before any det T(x0); GF(3) at n = 12 has p < n-2
    rng = random.Random(157 + n)
    while True:
        p = random_rational_pencil(rng, n) if fld == QQ else random_gf_pencil(rng, n, fld.p)
        if fld.of(_top_coefficient(fld.lift(p.c)[0])):
            break
    read = _counting_det_int(monkeypatch)
    assert not is_singular(p)
    assert not evaluate_instance(p).singular_det
    assert read == []


# a zero top coefficient: the stream reads det T(0), whose a_0 is nonzero,
# and stops (at n = 3, det T is the constant a_0)
@pytest.mark.parametrize("c", [(1, 1, 2, 4), (1, 3, 3, 3, 3)], ids=["qq-1-1-2-4", "qq-1-3-3-3-3"])
def test_zero_top_coefficient_reads_det_t_at_0(monkeypatch, c):
    p = qp(*c)
    assert _top_coefficient(c) == 0
    read = _counting_det_int(monkeypatch)
    assert not is_singular(p)
    assert read == [p.n]
    assert not evaluate_instance(p).singular_det
    assert read == [p.n] * 2


def _lazy_row_lists(rng):
    """(c, p) lifted lists for the lazy rows: over QQ and GF(2), GF(3), GF(5),
    GF(7), GF(11), GF(257) at n = 2..15, a quarter geometric, a quarter with
    c_{n+1} = c_n^2 / c_{n-1} (top coefficient 0), the rest at random."""
    cases = []
    for q in (0, 2, 3, 5, 7, 11, 257):
        pick = (lambda: rng.choice([-3, -2, -1, 1, 2, 3])) if q == 0 else (lambda: rng.randrange(1, q))
        for n in range(2, 16):
            for t in range(44):
                c = [pick() for _ in range(n + 1)]
                if t % 4 == 0:  # geometric: c1 * r^k
                    r = pick()
                    c = [c[0] * r**k % q if q else c[0] * r**k for k in range(n + 1)]
                elif t % 4 == 1 and q:
                    c[n] = c[n - 1] ** 2 * pow(c[n - 2], -1, q) % q
                elif t % 4 == 1:  # c_{n-1}, c_n, c_{n+1} = a, a*b, a*b^2
                    c[n - 1], c[n] = c[n - 2] * c[n], c[n - 2] * c[n] ** 2
                cases.append((c, q))
    return cases


def test_lazy_rows_match_the_eager_certificate():
    # the det route builds row k+2 of T'(x0) transposed when its elimination
    # reaches column k; its whole stream, every point read, is the eager one's
    rng = random.Random(173)
    cases = _lazy_row_lists(rng)
    gf7 = GF(7)
    for n in (5, 6):  # the 30 GF(7) counterexamples: singular over GF(7)
        for t in exhaustive_scan(HuntConfig(n=n, field=gf7, mode="exhaustive")).counterexamples:
            tail = recover_c_from_minors([gf7.of(m) for m in t] + [gf7.zero], gf7)
            cases.append((gf7.lift([gf7.one] + tail)[0], 7))
    # CI's two GF(3) lists at n = 32: top coefficients 2 and 0 mod 3
    for ci in (
        "1,1,1,1,2,1,1,2,2,2,1,2,2,2,1,2,2,1,2,1,1,2,2,1,1,1,2,1,1,1,1,1,2",
        "1,2,1,1,2,1,1,2,2,1,2,2,2,1,2,2,2,1,1,1,2,2,2,2,1,1,1,2,2,1,2,1,2",
    ):
        cases.append(([int(x) for x in ci.split(",")], 3))
    assert len(cases) >= 4000 + 30 + 2
    singular = 0
    for c, q in cases:
        got = list(_det_certificate(c, q))
        assert got == list(det_certificate_eager(c, q)), (c, q)
        singular += not any(got)
    assert 1000 < singular < len(cases) - 1000


@pytest.mark.parametrize("fld", [QQ, GF(257)], ids=["QQ", "GF257"])
def test_geometric_pencil_builds_three_rows_per_point(monkeypatch, fld):
    # a geometric pencil's elimination stops at column 0 at every point: row 1
    # is row 0 over the ratio, so it builds rows 0..2 of T'(x0) transposed, not n
    n = 64
    if fld == QQ:
        p = geometric_pencil(Fraction(3, 2), n)
    else:
        p = build_pencil([fld.of(3) ** k for k in range(n + 1)], fld)
    read = _counting_det_int(monkeypatch)
    assert is_singular(p)
    assert read == [3] * (n - 2)


def test_newton_stream_matches_the_list_version():
    rng = random.Random(67)
    for n in range(12):
        for _ in range(20):
            values = [rng.randint(-10**6, 10**6) for _ in range(n)]
            assert list(_newton_coefficients(iter(values))) == newton_coefficients(values), values


def test_first_nonzero_value_and_newton_coefficient_share_an_index():
    # at distinct points P(k) = k! a_k + (terms in a_0..a_{k-1}), with k! a
    # unit over QQ and mod p for k < p: the first nonzero value and the first
    # nonzero Newton coefficient have one index, so the det route reads the
    # values as they are wherever its points are distinct
    rng = random.Random(79)

    def first(xs):
        return next((k for k, x in enumerate(xs) if x), None)

    firsts = set()
    for p in (0, 2, 3, 5, 7, 11, 257):
        for _ in range(60):
            # an integer polynomial sum_k a_k x(x-1)...(x-k+1), at m <= p points
            m = rng.randint(1, min(p, 12) if p else 12)
            lead = rng.randint(0, m)  # a_0..a_{lead-1} are zero in the field
            a = [rng.randint(-9, 9) * p if k < lead else rng.randint(-10**6, 10**6) for k in range(m)]
            values = [sum(ak * perm(x, k) for k, ak in enumerate(a)) for x in range(m)]
            assert list(_newton_coefficients(values)) == a
            if p:
                values, a = [v % p for v in values], [ak % p for ak in a]
            assert first(values) == first(a), (p, a)
            firsts.add(first(a))
    assert None in firsts and len(firsts) > 6


@pytest.mark.parametrize("k", range(6))
def test_newton_stream_reads_no_value_past_its_caller(k):
    values = random.Random(71 + k).sample(range(-99, 99), 8)

    def reads():
        yield from values[: k + 1]
        raise AssertionError(f"value {k + 1} read for a_{k}")

    a = _newton_coefficients(reads())
    assert [next(a) for _ in range(k + 1)] == newton_coefficients(values)[: k + 1]


def _int_det(grid):
    det = det_laplace(QQ, [[(Fraction(e),) for e in row] for row in grid])
    return int(det[0]) if det else 0


def test_jacobi_det_matches_laplace_and_mat_det():
    # det T'(x0) = L^n det T(x0/L) for the lifted pencil T'(x) = L*M0 + x*M1;
    # oracles.det runs on a Gauss-Jordan reduction, not on _det_int
    rng = random.Random(61)
    cases = [random_rational_pencil(rng, n) for n in range(2, 10) for _ in range(3)]
    cases += [random_gf_pencil(rng, n, q) for q in (3, 5, 7, 11) for n in range(2, 8)]
    for p in cases:
        fld = p.field
        c, L = fld.lift(p.c)
        det = pencil_det(p)
        M0, M1 = build_M0(p), build_M1(p)
        points = range(1, p.n + 2) if fld == QQ else range(1, fld.p)
        for x0 in points:
            x = fld.frac(x0, L)
            rows = [[a + x * b for a, b in zip(r0, r1)] for r0, r1 in zip(M0.data, M1.data)]
            want = fld.of(L) ** p.n * poly_eval(det, x, fld)
            got = fld.of(L) ** p.n * oracles.det(Mat(fld, rows))
            assert fld.of(jacobi_det(c, x0)) == want == got


def test_jacobi_det_vanishes_on_singular_pencils():
    for lam in (2, -3, 5):
        for n in range(2, 20):
            c = [lam**k for k in range(n + 1)]
            assert all(jacobi_det(c, x0) == 0 for x0 in range(1, n + 2)), (lam, n)
    # the 30 non-geometric singular pencils over GF(7), n = 5 and 6
    gf = GF(7)
    fixtures = 0
    for n in (5, 6):
        for ms in exhaustive_scan(HuntConfig(n=n, field=gf, mode="exhaustive")).counterexamples:
            tail = recover_c_from_minors([gf.of(m) for m in ms] + [gf.zero], gf)
            c = [1] + [e.val for e in tail]
            assert all(jacobi_det(c, x0) % 7 == 0 for x0 in range(1, 7)), (n, c)
            assert is_singular(build_pencil(c, gf))
            fixtures += 1
    assert fixtures == 30


def test_det_int_banded_matches_jacobi_at_large_n():
    rng = random.Random(67)
    for n in (32, 64, 128):
        pencils = [random_rational_pencil(rng, n), random_gf_pencil(rng, n, 7)]
        pencils.append(random_gf_pencil(rng, n, 1_000_003))
        for p in pencils:
            c, _ = p.field.lift(p.c)
            points = (1, 2, n - 1) if p.field == QQ else (1, p.field.p - 1)
            for x0 in points:
                # T(x0) transposed, lower bandwidth 2, as is_singular passes it
                banded = [list(col) for col in zip(*_rows(c, x0, 0))]
                want = jacobi_det(c, x0)
                if p.field != QQ:  # the residue elimination, on a copy
                    q = p.field.p
                    assert _det_int([row[:] for row in banded], q) == want % q, (n, q, x0)
                assert _det_int(banded, 0) == want, (n, p.field, x0)


def test_is_singular_matches_jacobi_at_large_n():
    # deg det T(x) <= n-2, so the n-1 points x0 = 1..n-1 decide it; over
    # GF(101) they are distinct and nonzero
    rng = random.Random(71)
    gf = GF(101)
    for n in (32, 48, 64):
        cases = [random_rational_pencil(rng, n), geometric_pencil(Fraction(-2, 3), n)]
        cases += [random_gf_pencil(rng, n, 101)]
        cases += [build_pencil([gf.of(3) ** k for k in range(n + 1)], gf)]
        for p in cases:
            c, _ = p.field.lift(p.c)
            vanish = all(p.field.of(jacobi_det(c, x0)) == p.field.zero for x0 in range(1, n))
            assert is_singular(p) == vanish, (n, p.field)
        assert [is_singular(p) for p in cases] == [False, True, False, True]


def _sparse(rng, n, density=0.5):
    return [
        [rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)
    ]


def test_det_int_rules_match_laplace():
    rng = random.Random(73)
    cases = []
    for _ in range(150):
        n = rng.randint(4, 8)
        # a stale pivot after a swap: row 1 is idle at step 0 and zero at
        # column 1, so at step 1 a row below is swapped up with its level,
        # and row 1 moves down with its old one
        a = _sparse(rng, n)
        a[0][0] = rng.choice([-4, -3, -2, 2, 3, 4])
        a[1][0] = a[1][1] = 0
        a[2][0] = rng.choice([-3, -1, 1, 2, 5])
        cases.append(a)
        # a row that goes to zero mid-elimination: row 3 is a combination
        # of rows 0..2, so it vanishes once they are pivot rows
        a = _sparse(rng, n)
        s = [rng.randint(-2, 2) for _ in range(3)]
        a[3] = [sum(si * row[j] for si, row in zip(s, a)) for j in range(n)]
        cases.append(a)
        # the only zero shows at the last pivot: the last row combines all
        # the others with nonzero weights
        a = _sparse(rng, n, 0.7)
        s = [rng.choice([-2, -1, 1, 3]) for _ in range(n - 1)]
        a[-1] = [sum(si * row[j] for si, row in zip(s, a)) for j in range(n)]
        cases.append(a)
        cases.append(_sparse(rng, n, rng.choice([0.3, 0.6, 1.0])))
    nonzero = 0
    for a in cases:
        want = _int_det(a)
        assert _det_int([row[:] for row in a], 0) == want, a
        nonzero += want != 0
    assert nonzero > 150


def test_residue_det_matches_the_int_det():
    # mod p the elimination takes the pivot's inverse and keeps no levels; a
    # pivot that is zero mod p but not over Z forces a swap only there
    rng = random.Random(83)
    cases = []
    for p in (2, 3, 5, 7, 257):
        for _ in range(120):
            n = rng.randint(1, 8)
            entries = [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n * n)]
            cases.append((p, [entries[i * n : (i + 1) * n] for i in range(n)]))
    # T'(0) transposed for c = (1, 3, 2, 5, 4, 6) over GF(7): after step 0 the
    # pivot (1, 1) is (c_2^2 - c_1 c_3) / c_2 = 7/3, zero mod 7 only
    c = (1, 3, 2, 5, 4, 6)
    assert (c[1] ** 2 - c[0] * c[2]) % 7 == 0 != c[1] ** 2 - c[0] * c[2]
    for x0 in range(4):
        cases.append((7, [list(col) for col in zip(*_rows(c, x0, 0))]))
    nonzero = 0
    for p, a in cases:
        want = _det_int([row[:] for row in a], 0) % p
        assert _det_int([row[:] for row in a], p) == want, (p, a)
        nonzero += want != 0
    assert nonzero > 250


def test_det_int_stops_at_first_zero_row():
    # row 1 = 2 * row 0 vanishes at step 0; the rows below are not touched
    a = [[2, 1, 3, 1], [4, 2, 6, 2], [1, 5, 2, 7], [3, 1, 1, 4]]
    rows = [row[:] for row in a]
    assert _det_int(rows, 0) == 0
    assert rows[2:] == a[2:]


def _minors_by_det(a, fld):
    """(k, minor) per column of ``_eliminate`` by oracles.det: the pivot of
    column k is the first row, from row k on in the current order, that
    makes the leading minor of order k+1 nonzero; it swaps with row k, which
    flips the sign. Stops at the first column without one. Also the swap count."""
    order, sign, out, swaps = list(range(len(a))), 1, [], 0

    def minor(k, i):
        rows = [a[j][: k + 1] for j in order[:k] + [order[i]]]
        return oracles.det(Mat(fld, [[fld.of(x) for x in row] for row in rows]))

    for k in range(min(len(a), len(a[0]) if a else 0)):
        i = next((i for i in range(k, len(a)) if minor(k, i) != fld.zero), None)
        if i is None:
            break
        if i != k:
            order[k], order[i], sign, swaps = order[i], order[k], -sign, swaps + 1
        out.append((k, sign * minor(k, k)))
    return out, swaps


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3), GF(7), GF(257)], ids=str)
def test_eliminate_minors_match_the_leading_blocks(fld):
    # square, tall and wide int rows (residues over GF(p)), with a zero
    # leading entry, a leading 2x2 minor of 0 (both force a row swap) and a
    # column that combines the ones before it (no pivot: the stream stops)
    rng = random.Random(181)
    p = fld.characteristic
    entry = (lambda: rng.randint(-5, 5)) if p == 0 else (lambda: rng.randrange(p))
    swapped = stopped = 0
    for r, k in [(1, 1), (3, 3), (4, 4), (6, 6), (7, 4), (3, 6), (8, 8)]:
        for case in range(24):
            a = [[entry() if rng.random() < 0.8 else 0 for _ in range(k)] for _ in range(r)]
            if case % 4 == 1:
                a[0][0] = 0
            elif case % 4 == 2 and min(r, k) > 1:
                a[1][:2] = [a[0][0] * 2, a[0][1] * 2]
            elif case % 4 == 3 and k > 2:
                for row in a:
                    row[2] = row[0] - row[1]
            if p:
                a = [[x % p for x in row] for row in a]
            want, swaps = _minors_by_det(a, fld)
            events = list(_eliminate([row[:] for row in a], p))
            assert [(j, fld.of(m)) for j, m, vanished in events if not vanished] == want, a
            done = {(j, m) for j, m, vanished in events if not vanished}
            assert all((j, m) in done for j, m, vanished in events if vanished)
            swapped += swaps > 0
            stopped += len(want) < min(r, k)
    assert swapped > 20 and stopped > 20


@pytest.mark.parametrize("p", [0, 7])
def test_eliminate_stops_at_the_first_column_without_a_pivot(p):
    # column 2 = column 0 + column 1, so column 2 has no pivot and the
    # stream returns there, before column 3 is read
    a = [[1, 2, 3, 4], [3, 1, 4, 1], [2, 2, 4, 5], [1, 1, 2, 0]]
    events = list(_eliminate([row[:] for row in a], p))
    assert [k for k, _, vanished in events if not vanished] == [0, 1]
    assert events[-1] == (1, -5 % p if p else -5, False)
    assert _det_int([row[:] for row in a], p) == 0


@pytest.mark.parametrize("p", [0, 7])
def test_eliminate_yields_a_vanished_row_before_writing_it(p):
    # row 1 = 2 * row 0 vanishes at column 0: the event comes before row 1
    # or a later one is written, so a caller that stops there leaves them
    a = [[2, 1, 3, 1], [4, 2, 6, 2], [1, 5, 2, 7], [3, 1, 1, 4]]
    rows = [row[:] for row in a]
    assert next(_eliminate(rows, p)) == (0, 2, True)
    assert rows == a
