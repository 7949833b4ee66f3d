import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import perm

import pytest

from toeppencil import kronecker, pencil
from toeppencil.criteria import ConsistencyAlarm
from toeppencil.field import GF, QQ, FieldMismatchError
from toeppencil.kronecker import BlockPencil, analyze
from toeppencil.linalg import Mat, ShapeError
from toeppencil.minors import recover_c_from_minors
from toeppencil.pencil import _top_coefficient, build_M0, build_M1, build_pencil, is_singular

from conftest import geometric_pencil, random_gf_pencil, random_rational_pencil
from oracles import (
    analyze_reference,
    build_C,
    general_certificate,
    identity,
    jacobi_det,
    kernel_basis,
    nongeometric_singular_minor_tuples,
    pencil_residual,
    rank,
    zeros,
)


def qp(*cs):
    return build_pencil([Fraction(c) for c in cs])


def qmat(rows):
    return Mat(QQ, [[Fraction(e) for e in r] for r in rows])


SHIFT_EXAMPLE = BlockPencil(
    qmat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
    qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
)


def test_build_c_shapes():
    bp = BlockPencil.from_pencil(qp(1, 2, 4, 8))
    C0 = build_C(bp, 0)
    assert (C0.rows, C0.cols) == (6, 3)
    C1 = build_C(bp, 1)
    assert (C1.rows, C1.cols) == (9, 6)
    bp2 = BlockPencil.from_pencil(qp(1, 3, 2))
    C2 = build_C(bp2, 2)
    assert (C2.rows, C2.cols) == (8, 6)
    # n=2 pencils have a zero x-part, so every off-diagonal block is zero
    assert all(C2[i, j] == 0 for i in range(8) for j in range(6) if not (i // 2 == j // 2))


def test_build_c_block_layout():
    bp = BlockPencil.from_pencil(qp(1, 2, 4, 8))
    M0, M1 = bp.M0, bp.M1
    C = build_C(bp, 1)
    for i in range(3):
        for j in range(3):
            assert C[i, j] == M0[i, j]
            assert C[i, j + 3] == 0
            assert C[i + 3, j] == M1[i, j]
            assert C[i + 3, j + 3] == M0[i, j]
            assert C[i + 6, j] == 0
            assert C[i + 6, j + 3] == M1[i, j]


def test_build_c_negative_depth():
    with pytest.raises(ValueError):
        build_C(SHIFT_EXAMPLE, -1)


def test_geometric_gives_d0_constant_kernel():
    bp = BlockPencil.from_pencil(qp(1, 2, 4, 8))
    res = analyze(bp)
    assert res.minimal_index_d == 0
    f = res.kernel_poly
    assert all(fi.is_zero or fi.degree == 0 for fi in f)
    assert not any(pencil_residual(bp.M0, bp.M1, f))


def test_regular_pencil_has_no_index():
    bp = BlockPencil.from_pencil(qp(1, 1, 1, 2))
    res = analyze(bp)
    assert res.minimal_index_d is None
    assert res.kernel_poly is None


def test_shift_example_d2():
    res = analyze(SHIFT_EXAMPLE)
    assert res.minimal_index_d == 2
    f = res.kernel_poly
    # f = (x^2, -x, 1) up to a scalar
    scale = f[2].coeff(0)
    assert scale != 0
    assert f[0].coeffs == (Fraction(0), Fraction(0), scale)
    assert f[1].coeffs == (Fraction(0), -scale)
    assert f[2].coeffs == (scale,)
    # rank oracle: stacked matrices below the minimal depth have full column rank
    assert rank(build_C(SHIFT_EXAMPLE, 0)) == 3
    assert rank(build_C(SHIFT_EXAMPLE, 1)) == 6


def test_minimal_index_iff_singular_det():
    rng = random.Random(113)
    for _ in range(40):
        n = rng.randint(2, 5)
        p = random_rational_pencil(rng, n)
        bp = BlockPencil.from_pencil(p)
        assert (analyze(bp).minimal_index_d is not None) == is_singular(p)
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 2)):
        p = geometric_pencil(lam, 5)
        assert analyze(BlockPencil.from_pencil(p)).minimal_index_d == 0


def test_kernel_identity_on_synthetic_pencils():
    rng = random.Random(127)
    gf = GF(5)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        # sparse entries make singular pencils (including d > 0) common
        M0 = Mat(gf, [[gf.of(rng.choice([0, 0, 0, 1, 2])) for _ in range(n)] for _ in range(n)])
        M1 = Mat(gf, [[gf.of(rng.choice([0, 0, 0, 1, 3])) for _ in range(n)] for _ in range(n)])
        bp = BlockPencil(M0, M1)
        f = analyze(bp).kernel_poly
        if f is None:
            continue
        found += 1
        assert any(not fi.is_zero for fi in f)
        assert not any(pencil_residual(bp.M0, bp.M1, f))
        d = max(fi.degree for fi in f if not fi.is_zero)
        if d > 0:
            assert rank(build_C(bp, d - 1)) == n * d
    assert found > 10


def test_toeplitz_singular_small_n_means_d0():
    rng = random.Random(131)
    checked = 0
    for lam in (Fraction(2), Fraction(1, 3), Fraction(-2)):
        for n in range(2, 7):
            p = geometric_pencil(lam, n)
            bp = BlockPencil.from_pencil(p)
            assert analyze(bp).minimal_index_d == 0
            checked += 1
    assert checked == 15


# the stacked all-ones vector is offered as the kernel at d = 0, wherever
# T(0) is singular; with M0 = 0 it fails only M1 f_0 = 0 (the top
# coefficient), with M1 = 0 only M0 f_0 = 0 (the bottom one)
@pytest.mark.parametrize(
    "bp, entry",
    [
        (BlockPencil.from_pencil(qp(1, 2, 4, 8)), 1),
        (BlockPencil.from_pencil(qp(1, 2, 4, 8)), 0),
        (BlockPencil(zeros(QQ, 2, 2), identity(QQ, 2)), 1),
        (BlockPencil(qmat([[1, 0], [0, 0]]), zeros(QQ, 2, 2)), 1),
    ],
    ids=["fails-identity", "zero-vector", "fails-top-only", "fails-bottom-only"],
)
def test_kernel_poly_rejects_wrong_kernel_vector(monkeypatch, bp, entry):
    monkeypatch.setattr(kronecker, "_null_vector", lambda a, p: ([entry] * len(a[0]), 1))
    with pytest.raises(ConsistencyAlarm):
        analyze(bp)


def test_kernel_poly_rejects_degree_below_index(monkeypatch):
    # a true degree-0 kernel vector, offered at d = 1 padded with a zero
    # top block: it passes the identity, so only the degree check stops it
    bp = BlockPencil.from_pencil(qp(1, 2, 4, 8))
    (v,) = kernel_basis(build_C(bp, 0))
    y, D = QQ.lift(v)  # the null vector's int form: D times v

    def late_vector(a, p):
        return (y + [0] * 3, D) if len(a[0]) == 6 else None

    monkeypatch.setattr(kronecker, "_null_vector", late_vector)
    with pytest.raises(ConsistencyAlarm, match="degree"):
        analyze(bp)


@pytest.mark.parametrize(
    "f0, f1",
    [(QQ, GF(7)), (GF(7), QQ), (GF(5), GF(7))],
    ids=["qq-gf7", "gf7-qq", "gf5-gf7"],
)
def test_block_pencil_refuses_mixed_fields(f0, f1):
    with pytest.raises(FieldMismatchError):
        BlockPencil(identity(f0, 2), identity(f1, 2))


def test_block_pencil_refuses_non_square_or_unequal_sizes():
    wide = qmat([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ShapeError, match="^pencil matrices must be square$"):
        BlockPencil(wide, wide)
    with pytest.raises(ShapeError, match="^pencil matrices must be square$"):
        BlockPencil(identity(QQ, 2), wide)
    with pytest.raises(ShapeError, match="^pencil matrices must have equal size$"):
        BlockPencil(identity(QQ, 2), identity(QQ, 3))


def _sparse_pencil(rng, field, n, dens=(1,)):
    def entry():
        return field.frac(rng.choice([0, 0, 0, 1, 2, -1]), rng.choice(dens))

    return BlockPencil(
        Mat(field, [[entry() for _ in range(n)] for _ in range(n)]),
        Mat(field, [[entry() for _ in range(n)] for _ in range(n)]),
    )


def _differential_cells():
    yield "shift", SHIFT_EXAMPLE
    for lam in (Fraction(2), Fraction(-1, 3)):
        for n in range(2, 13):
            yield f"geometric {lam} n={n}", BlockPencil.from_pencil(geometric_pencil(lam, n))
    rng = random.Random(139)
    for n in range(2, 8):
        for _ in range(3):
            yield f"random QQ n={n}", BlockPencil.from_pencil(random_rational_pencil(rng, n))
    gf3 = GF(3)
    for n in range(2, 6):
        for tail in product((1, 2), repeat=n):
            yield f"GF(3) {tail}", BlockPencil.from_pencil(build_pencil([1, *tail], gf3))
    # det T vanishes on all of GF(3) and 3 <= n-2, so the points repeat mod 3:
    # the singular ones and the regular ones that only the Newton stream tells
    for n in range(6, 9):
        for tail in product((1, 2), repeat=n):
            if all(jacobi_det((1, *tail), x0) % 3 == 0 for x0 in (1, 2, 3)):
                yield f"GF(3) vanishing {tail}", BlockPencil.from_pencil(build_pencil([1, *tail], gf3))
    gf2 = GF(2)
    for n in range(2, 9):
        yield f"GF(2) ones n={n}", BlockPencil.from_pencil(build_pencil([gf2.one] * (n + 1), gf2))
    gf7 = GF(7)
    for n in (5, 6):
        for mt in nongeometric_singular_minor_tuples(n, 7):
            c = recover_c_from_minors([gf7.of(m) for m in mt] + [gf7.zero], gf7)
            yield f"GF(7) minors {mt}", BlockPencil.from_pencil(build_pencil([gf7.one] + c, gf7))
    rng = random.Random(149)
    for p in (2, 3, 5):
        for _ in range(60):
            yield f"sparse GF({p})", _sparse_pencil(rng, GF(p), rng.randint(1, 5))
    # M0 and M1 with different denominators: the two must share one scale
    for _ in range(60):
        yield "sparse QQ", _sparse_pencil(rng, QQ, rng.randint(1, 5), dens=(1, 2, 3))


def test_analyze_matches_stacked_reference():
    singular = regular = from_c = 0
    for label, bp in _differential_cells():
        res = analyze(bp)
        assert res == analyze_reference(bp), label
        if bp.c is not None:
            # the c path against the lift of the 2n^2 matrix entries
            assert analyze(BlockPencil(bp.M0, bp.M1)) == res, label
            from_c += 1
        if res.minimal_index_d is None:
            regular += 1
        else:
            singular += 1
    # both branches are exercised, the probe exit and the stacked kernel
    assert singular > 50 and regular > 50 and from_c > 100


def _recorded_rows(monkeypatch, bp):
    """The int rows that ``analyze`` hands to its int core for ``bp``."""
    seen = []
    monkeypatch.setattr(kronecker, "_analyze", lambda A0, A1, fld, cert: seen.append((A0, A1, fld)))
    analyze(bp)
    return seen[0]


def test_c_path_rows_equal_the_matrix_lift(monkeypatch):
    # every pencil falls through the top-coefficient exit, so the rows of the
    # c path are read even for regular pencils; over QQ every known singular
    # pencil has d = 0, so only this pins the scale L of the x-part
    monkeypatch.setattr(pencil, "_top_coefficient", lambda c: 0)
    rng = random.Random(157)
    pencils = [random_rational_pencil(rng, n) for n in range(2, 9) for _ in range(3)]
    pencils += [geometric_pencil(Fraction(3, 2), n, Fraction(1, 3)) for n in (2, 4, 7)]
    pencils += [build_pencil([GF(7).of(k) for k in (1, 1, 6, 4, 4, 1, 2)], GF(7))]
    scaled = 0
    for p in pencils:
        scaled += p.field == QQ and p.field.lift(p.c)[1] > 1
        from_c = _recorded_rows(monkeypatch, BlockPencil.from_pencil(p))
        assert from_c == _recorded_rows(monkeypatch, BlockPencil(build_M0(p), build_M1(p))), p.c
    assert scaled > 15


def _diag(field, roots, n):
    """diag(x - r_1, ..., x - r_k, 1, ..., 1), n x n."""
    k = len(roots)
    d0 = [field.of(-r) for r in roots] + [field.one] * (n - k)
    d1 = [field.one] * k + [field.zero] * (n - k)

    def mat(diagonal):
        return Mat(field, [[e if i == j else field.zero for j in range(n)] for i, e in enumerate(diagonal)])

    return BlockPencil(mat(d0), mat(d1))


# k is the index of the first certificate entry after the top coefficient
# that is nonzero in the field (a value at distinct points, else a Newton
# coefficient of det T(x) at 0, 1, ...), so the stacked C(0..k-1) (full
# column rank) are built before it proves regularity. The GF(7) diagonal
# reads residues (p > n); x(x-1)(x-2) is x^3 - x over GF(3), zero on all of
# GF(3), as is the GF(3) n = 12 pencil's det, which at the points 0..11
# only the stacked search would tell.
@pytest.mark.parametrize(
    "bp, k",
    [
        *((_diag(QQ, range(n), n), n) for n in range(1, 6)),
        (_diag(GF(2), [0, 1], 2), 2),
        (_diag(QQ, [0, 1], 4), 2),
        (_diag(GF(7), [0, 1, 2], 4), 3),
        (_diag(GF(3), [0, 1, 2], 3), 3),
        (BlockPencil.from_pencil(build_pencil([1, 2, 1, 1, 2, 1, 1, 2, 1, 2, 2, 2, 2], GF(3))), 4),
    ],
    ids=[*(f"qq-diag-n{n}" for n in range(1, 6)), "gf2-x-x1", "qq-x-x1-1-1", "gf7-residues", "gf3-x3-x", "gf3-n12"],
)
def test_regular_pencil_det_vanishing_at_probes(monkeypatch, bp, k):
    built = []
    stack = kronecker._stack

    def counting_stack(m0, m1, d):
        built.append(d)
        return stack(m0, m1, d)

    monkeypatch.setattr(kronecker, "_stack", counting_stack)
    res = analyze(bp)
    assert (res.minimal_index_d, res.kernel_poly) == (None, None)
    assert built == list(range(k))


def test_regular_pencil_exits_before_any_stacked_matrix(monkeypatch):
    # a top coefficient c_n^2 - c_{n-1} c_{n+1} of det T nonzero in the field
    # proves the pencil regular before any determinant or stacked matrix
    def refuse(*args):
        raise AssertionError("determinant or stacked matrix built for a regular pencil")

    monkeypatch.setattr(kronecker, "_stack", refuse)
    monkeypatch.setattr(pencil, "_det_int", refuse)
    rng = random.Random(151)
    gf3, gf7 = GF(3), GF(7)
    pencils = [random_rational_pencil(rng, n) for n in (2, 3, 12, 40)]
    # det T of the GF(3) pencil vanishes on all of GF(3); its top coefficient is 2 mod 3
    gf3_c = "1,1,1,1,2,1,1,2,2,2,1,2,2,2,1,2,2,1,2,1,1,2,2,1,1,1,2,1,1,1,1,1,2"
    pencils += [
        build_pencil([gf7.of(k) for k in (1, 1, 5, 4, 1, 3)], gf7),
        build_pencil([gf3.parse(k) for k in gf3_c.split(",")], gf3),
    ]
    for p in pencils:
        assert p.field.of(_top_coefficient(p.field.lift(p.c)[0]))
        assert not is_singular(p)
        res = analyze(BlockPencil.from_pencil(p))
        assert (res.minimal_index_d, res.kernel_poly) == (None, None)


# regular pencils whose top coefficient is 0 read det T at 0, the next entry
# of the det route's certificate; the GF(3) n = 12 pencil of the probe test
# reads the Newton coefficients a_0..a_4
@pytest.mark.parametrize("c", [(1, 1, 2, 4), (1, 3, 3, 3, 3)], ids=["qq-1-1-2-4", "qq-1-3-3-3-3"])
def test_zero_top_coefficient_reaches_the_newton_stream(monkeypatch, c):
    p = qp(*c)
    assert _top_coefficient(c) == 0 and not is_singular(p)
    read = []
    det_int = pencil._det_int

    def counting_det_int(a, *p):
        read.append(len(a))
        return det_int(a, *p)

    monkeypatch.setattr(pencil, "_det_int", counting_det_int)
    res = analyze(BlockPencil.from_pencil(p))
    assert (res.minimal_index_d, res.kernel_poly) == (None, None)
    assert read == [p.n]


def _recorded_certificate(monkeypatch, bp):
    """The whole regularity certificate that ``analyze`` hands to its int core for ``bp``."""
    seen = []
    monkeypatch.setattr(kronecker, "_analyze", lambda A0, A1, fld, cert: seen.append(list(cert)))
    analyze(bp)
    return seen[0]


def _dense_pencil(rng, field, n):
    """M0 and M1 with entries uniform in GF(p), so T(d)'s int entries pass p."""
    p = field.characteristic

    def mat():
        return Mat(field, [[field.of(rng.randrange(p)) for _ in range(n)] for _ in range(n)])

    return BlockPencil(mat(), mat())


def test_general_certificate_matches_the_newton_reference(monkeypatch):
    # a general pencil's point stream against the certificate it replaced,
    # the Newton coefficients a_k of det T(d) over Z, d = 0..n: entry for
    # entry where the points repeat mod p (p <= n); at distinct points (QQ
    # and p > n) entry d is det T(d) = sum_k a_k d(d-1)...(d-k+1), and the
    # first nonzero entries of the two share an index
    rng = random.Random(167)
    cases = [_sparse_pencil(rng, QQ, n, dens=(1, 2, 3)) for n in range(7) for _ in range(8)]
    for q in (2, 3, 5, 7, 11):
        cases += [_sparse_pencil(rng, GF(q), n) for n in range(7) for _ in range(6)]
        cases += [_dense_pencil(rng, GF(q), n) for n in range(7) for _ in range(6)]
    # det vanishing on all of GF(p): x(x-1)...(x-p+1) times x - r for more roots r
    cases += [_diag(GF(q), [*range(q), *range(n - q)], n) for q in (2, 3, 5) for n in range(q, 7)]

    def first(xs):
        return next((k for k, x in enumerate(xs) if x), None)

    sides = {True: 0, False: 0}
    for bp in cases:
        p, n = bp.M0.field.characteristic, bp.n
        got, want = _recorded_certificate(monkeypatch, bp), general_certificate(bp)
        assert len(got) == len(want) == n + 1
        repeat = 0 < p <= n
        sides[repeat] += 1
        if repeat:
            assert got == want, (p, bp)
        else:
            values = [sum(a * perm(d, k) for k, a in enumerate(want)) for d in range(n + 1)]
            assert got == [v % p if p else v for v in values], (p, bp)
            assert first(got) == first(want), (p, bp)
    assert sides[True] > 60 and sides[False] > 200


def _zero_top(p):
    """p with c_{n+1} set to c_n^2 / c_{n-1}: its top coefficient is 0."""
    return build_pencil([*p.c[:-1], p.c[-2] * p.c[-2] / p.c[-3]], p.field)


def test_n2_zero_top_coefficient_reads_no_determinant(monkeypatch):
    # at n = 2 det T is the constant c_2^2 - c_1 c_3, the top coefficient:
    # once it is 0, neither the det route nor the kernel reads det T(0)
    read = []
    det_int = pencil._det_int
    monkeypatch.setattr(pencil, "_det_int", lambda a, *p: read.append(len(a)) or det_int(a, *p))
    for p in (qp(1, 2, 4), build_pencil([1, 1, 1], GF(2))):
        assert not p.field.of(_top_coefficient(p.field.lift(p.c)[0]))
        assert is_singular(p)
        assert analyze(BlockPencil.from_pencil(p)).minimal_index_d == 0
        assert read == [], p


def test_newton_stream_runs_only_where_the_points_repeat(monkeypatch):
    # at distinct points the certificate's values decide as they are: neither
    # is_singular, nor the kernel from c, nor a general pencil's kernel runs
    # the Newton stream over QQ or where the points are distinct mod p (the
    # n-2 points of the det route for p >= n-2, the n+1 of a general pencil
    # for p > n); each runs it where its points repeat mod p
    calls, moduli = [], []
    newton, det_int = pencil._newton_coefficients, pencil._det_int
    monkeypatch.setattr(pencil, "_newton_coefficients", lambda values: calls.append(1) or newton(values))
    monkeypatch.setattr(pencil, "_det_int", lambda a, p: moduli.append(p) or det_int(a, p))

    def newton_calls(p):
        assert not p.field.of(_top_coefficient(p.field.lift(p.c)[0]))
        calls.clear()
        is_singular(p)
        by_det_route = len(calls)
        analyze(BlockPencil.from_pencil(p))
        return by_det_route, len(calls) - by_det_route

    rng = random.Random(163)
    gf7, gf257 = GF(7), GF(257)
    distinct = [qp(1, 1, 2, 4), qp(1, 3, 3, 3, 3)]
    distinct += [geometric_pencil(Fraction(3, 2), n) for n in (2, 5, 9)]
    distinct += [_zero_top(random_rational_pencil(rng, n)) for n in range(2, 13)]
    distinct += [_zero_top(random_gf_pencil(rng, n, 7)) for n in range(2, 9) for _ in range(3)]
    distinct += [build_pencil([gf7.of(3) ** k for k in range(n + 1)], gf7) for n in (4, 8)]
    distinct += [_zero_top(random_gf_pencil(rng, n, 257)) for n in (2, 6, 12, 20)]
    distinct += [build_pencil([gf257.of(3) ** k for k in range(17)], gf257)]
    # p = n-2: the points 0..n-3 are all of GF(p), distinct
    distinct += [_zero_top(random_gf_pencil(rng, q + 2, q)) for q in (2, 3, 5, 7) for _ in range(3)]
    for p in distinct:
        assert newton_calls(p) == (0, 0), (p.field, p.c)
    # CI's GF(3) list at n = 32, top coefficient 0 mod 3: p < n-2
    gf3_c = "1,2,1,1,2,1,1,2,2,1,2,2,2,1,2,2,2,1,1,1,2,2,2,2,1,1,1,2,2,1,2,1,2"
    assert newton_calls(build_pencil([int(k) for k in gf3_c.split(",")], GF(3))) == (1, 1)

    def general_calls(bp):
        calls.clear()
        moduli.clear()
        analyze(bp)
        return len(calls), set(moduli)

    # general pencils at d = 0..n: residues for p > n (p = n+1 included), ints over QQ
    repeat = 0
    for fld in (QQ, GF(2), GF(3), GF(5), GF(7), gf257):
        for n in range(7):
            for _ in range(3):
                bp = _sparse_pencil(rng, fld, n, dens=(1, 2) if fld == QQ else (1,))
                p = fld.characteristic
                if 0 < p <= n:  # p = n included: the points repeat mod p
                    repeat += 1
                    assert general_calls(bp) == (1, {0}), (fld, n)
                else:
                    assert general_calls(bp) == (0, {p}), (fld, n)
    assert repeat == 3 * (5 + 4 + 2)


def test_block_pencil_keeps_c_out_of_equality_and_the_constructor():
    p = qp(1, 2, 4, 8)
    bp = BlockPencil.from_pencil(p)
    general = BlockPencil(build_M0(p), build_M1(p))
    assert bp.c == p.c and general.c is None
    assert bp == general and hash(bp) == hash(general) and repr(bp) == repr(general)
    # no public way gives a BlockPencil a c that its matrices do not come from
    with pytest.raises(TypeError):
        BlockPencil(bp.M0, bp.M1, p.c)
    with pytest.raises(TypeError):
        BlockPencil(bp.M0, bp.M1, c=p.c)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bp.c = qp(1, 1, 1, 2).c
    assert dataclasses.replace(bp, M0=identity(QQ, 3)).c is None


def test_zero_det_without_a_null_vector_alarms(monkeypatch):
    # det T of the geometric pencil is zero, so a stacked search that finds no
    # null vector below n contradicts the minimal index bound
    monkeypatch.setattr(kronecker, "_null_vector", lambda a, p: None)
    with pytest.raises(ConsistencyAlarm, match="no C\\(d\\) with d < n has a null vector"):
        analyze(BlockPencil.from_pencil(qp(1, 2, 4, 8)))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_null_vector_passes_over_a_vanished_row(field):
    # row 1 = 2 * row 0 vanishes at column 0, and column 2 = column 0 +
    # column 1: the kernel reads past the vanished event, to the pivot rows
    # 0 and 2 and the first column without a pivot
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 0, 1]]
    assert next(pencil._eliminate([row[:] for row in rows], field.characteristic)) == (0, 1, True)
    M = Mat(field, [[field.of(x) for x in row] for row in rows])
    y, D = kronecker._null_vector([row[:] for row in rows], field.characteristic)
    assert y == [D * e for e in kernel_basis(M)[0]]


def _lift_once_cells():
    gf7 = GF(7)
    d1 = BlockPencil.from_pencil(build_pencil([gf7.of(k) for k in (1, 1, 5, 4, 1, 2)], gf7))
    yield "QQ geometric", BlockPencil.from_pencil(geometric_pencil(Fraction(3, 2), 6, Fraction(1, 3))), 0
    yield "QQ general d=1", BlockPencil(qmat([[1, 0], [0, 0]]), qmat([[0, 1], [0, 0]])), 1
    yield "QQ general d=2", SHIFT_EXAMPLE, 2
    yield "GF(7) geometric", BlockPencil.from_pencil(build_pencil([gf7.of(3) ** k for k in range(7)], gf7)), 0
    yield "GF(7) d=1", d1, 1
    yield "GF(7) general d=1", BlockPencil(d1.M0, d1.M1), 1


def test_analyze_lifts_once(monkeypatch):
    # the kernel vector stays in ints from the one lift of the input to its Polys
    for label, bp, d in _lift_once_cells():
        fld, calls = bp.M0.field, []
        real = fld.lift
        with monkeypatch.context() as m:
            m.setattr(fld, "lift", lambda xs: calls.append(len(xs)) or real(xs))
            res = analyze(bp)
        assert res == analyze_reference(bp) and res.minimal_index_d == d, label
        assert calls == [bp.n + 1 if bp.c is not None else 2 * bp.n**2], label


def test_empty_pencil_is_regular():
    res = analyze(BlockPencil(Mat(QQ, []), Mat(QQ, [])))
    assert (res.minimal_index_d, res.kernel_poly) == (None, None)


def test_analyze_refuses_entries_outside_the_field():
    # BlockPencil checks shapes and the two Mats' fields, not their entries:
    # the lift of the 2n^2 entries (M0's rows, then M1's) names the first bad one
    gf7 = GF(7)
    cases = [
        (QQ, [[1, Fraction(1, 2)], [gf7.of(3), 0]], [[0, 1], [0, 0]], r"^entry 2 = GF\(7\)\[3\] is not in QQ$"),
        (gf7, [[gf7.one, 0], [0, gf7.one]], [[0, 0.5], [0, 0]], r"^entry 5 = 0\.5 is not in GF\(7\)$"),
        (gf7, [[1.0, 0], [0, 2.0]], [[0, 1], [0, 0]], r"^entry 0 = 1\.0 is not in GF\(7\)$"),
    ]
    for fld, m0, m1, message in cases:
        with pytest.raises(FieldMismatchError, match=message):
            analyze(BlockPencil(Mat(fld, m0), Mat(fld, m1)))
