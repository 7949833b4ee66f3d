import random
from fractions import Fraction
from itertools import product

import pytest

from toeppencil import minors
from toeppencil.field import GF, QQ, FieldMismatchError
from toeppencil.hunt import HuntConfig, exhaustive_scan
from toeppencil.linalg import Mat
from toeppencil.minors import (
    DimensionError,
    MinorVector,
    build_sm_objects,
    det_X,
    principal_minors,
    q_inv_v_closed_form,
    q_inverse_closed_form,
    recover_c_from_minors,
)
from toeppencil.pencil import PencilInstance, build_M0, build_pencil
from oracles import (
    det,
    det_cofactor,
    identity,
    inv,
    mat_vec,
    matmul,
    normalize_c1,
    partition,
    solve_cramer,
    transpose,
)

from conftest import geometric_pencil, random_gf_pencil, random_rational, random_rational_pencil


def qp(*cs):
    return build_pencil([Fraction(c) for c in cs])


def cofactor_minors(p):
    """m_0..m_n of the normalized instance by cofactor expansion of the
    leading blocks of M0; zeros in c2..c_{n+1} are allowed."""
    M0 = build_M0(normalize_c1(p))
    return tuple(
        det_cofactor(Mat(p.field, [row[:r] for row in M0.data[:r]])) for r in range(p.n + 1)
    )


def test_principal_minors_match_cofactor_oracle():
    rng = random.Random(41)
    pencils = [random_rational_pencil(rng, n) for n in range(2, 9) for _ in range(3)]
    pencils += [
        geometric_pencil(lam, n, c1=Fraction(-3, 2))
        for lam in (Fraction(2), Fraction(-1, 3))
        for n in (2, 5, 8)
    ]
    for p in pencils:
        assert principal_minors(p).m == cofactor_minors(p)
    # every GF(7) coefficient tail at n = 4, zeros included, with c1 = 3
    gf = GF(7)
    for tail in product(range(7), repeat=4):
        p = PencilInstance(gf, tuple(gf.of(v) for v in (3, *tail)))
        mv = principal_minors(p)
        assert mv.m == cofactor_minors(p)
        assert recover_c_from_minors(mv.m[1:], gf) == list(normalize_c1(p).c[1:])


def test_minor_map_on_every_small_field_tail():
    # GF(2) alone hides sign slips (-1 = 1 there); GF(3) with c1 = 2 = -1 also
    # shows a wrong power of c1
    for p, c1, n_max in ((3, 2, 5), (2, 1, 6)):
        gf = GF(p)
        for n in range(2, n_max + 1):
            for tail in product(range(p), repeat=n):
                pi = PencilInstance(gf, tuple(gf.of(v) for v in (c1, *tail)))
                mv = principal_minors(pi)
                assert mv.m == cofactor_minors(pi)
                assert recover_c_from_minors(mv.m[1:], gf) == list(normalize_c1(pi).c[1:])


def test_minor_examples():
    mv = principal_minors(qp(1, 1, 1, 2))
    assert mv.m == (Fraction(1), Fraction(1), Fraction(0), Fraction(1))


def test_minor_formulas_m1_m2():
    rng = random.Random(43)
    for _ in range(20):
        p = normalize_c1(random_rational_pencil(rng, rng.randint(2, 6)))
        mv = principal_minors(p)
        assert mv.m[0] == 1
        assert mv.m[1] == p.coeff(2)
        assert mv.m[2] == p.coeff(2) ** 2 - p.coeff(3)


def test_geometric_minors_vanish():
    mv = principal_minors(qp(1, 2, 4, 8))
    assert mv.m[2] == 0 and mv.m[3] == 0


def test_q_inverse_closed_form_display_n4():
    mv = principal_minors(qp(1, 2, 3, 4, 5))
    m1, m2 = mv.m[1], mv.m[2]
    expect = Mat(
        QQ,
        [
            [Fraction(1), Fraction(0), Fraction(0)],
            [-m1, Fraction(1), Fraction(0)],
            [m2, -m1, Fraction(1)],
        ],
    )
    assert q_inverse_closed_form(mv) == expect


def test_q_inverse_closed_form_n2():
    mv = principal_minors(qp(1, 3, 2))
    assert q_inverse_closed_form(mv) == Mat(QQ, [[Fraction(1)]])


def test_q_inverse_matches_generic_inverse():
    rng = random.Random(47)
    for n in range(2, 13):
        for _ in range(10):
            p = normalize_c1(random_rational_pencil(rng, n))
            mv = principal_minors(p)
            Q = partition(p).Q
            closed = q_inverse_closed_form(mv)
            assert matmul(closed, Q) == identity(QQ, n - 1)
            assert closed == inv(Q)


def test_q_inv_v_closed_form_matches_cramer_solve():
    rng = random.Random(53)
    for n in range(2, 8):
        for _ in range(8):
            p = normalize_c1(random_rational_pencil(rng, n))
            mv = principal_minors(p)
            part = partition(p)
            assert q_inv_v_closed_form(mv) == solve_cramer(part.Q, part.v)


def test_q_inv_v_example():
    p = qp(1, 2, 4, 8)
    mv = principal_minors(p)
    assert q_inv_v_closed_form(mv) == (Fraction(2), Fraction(0))


def test_b_shift_of_q_inv_v():
    rng = random.Random(59)
    for n in range(2, 9):
        p = normalize_c1(random_rational_pencil(rng, n))
        mv = principal_minors(p)
        part = partition(p)
        shifted = mat_vec(part.B, q_inv_v_closed_form(mv))
        closed = q_inv_v_closed_form(mv)[1:] + (QQ.zero,)
        assert shifted == closed


def test_sm_objects_n4():
    mv = principal_minors(qp(1, 2, 3, 4, 5))
    m1, m2, m3 = mv.m[1], mv.m[2], mv.m[3]
    sm = build_sm_objects(mv)
    assert sm.X == Mat(QQ, [[-m1, Fraction(1)], [m2, -m1]])
    assert sm.y == (-m2, m3)
    assert sm.P == Mat(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])


def test_sm_objects_n3_and_n2():
    mv = principal_minors(qp(1, 2, 3, 4))
    sm = build_sm_objects(mv)
    assert sm.X == Mat(QQ, [[-mv.m[1]]])
    assert sm.y == (-mv.m[2],)
    assert sm.P == Mat(QQ, [[Fraction(1)]])

    mv2 = principal_minors(qp(1, 3, 2))
    sm2 = build_sm_objects(mv2)
    assert sm2.X.rows == 0 and sm2.y == ()


def test_x_is_qinv_minus_first_row_last_col():
    # against the generic inverse of the Q block, not the closed form X is read from
    rng = random.Random(61)
    for n in range(3, 10):
        p = normalize_c1(random_rational_pencil(rng, n))
        part = partition(p)
        qinv = inv(part.Q)
        sm = build_sm_objects(principal_minors(p))
        assert sm.X == qinv.drop_row_col(0, n - 2)
        assert sm.y == mat_vec(qinv, part.v)[1:]


def test_det_x_property():
    rng = random.Random(67)
    pencils = [random_rational_pencil(rng, n) for n in range(3, 13) for _ in range(8)]
    # over GF(p) the lift's scale is 1; GF(2) and GF(3) include p <= n-2
    pencils += [
        random_gf_pencil(rng, n, q) for q in (2, 3, 7) for n in range(3, 11) for _ in range(4)
    ]
    for p in map(normalize_c1, pencils):
        n = p.n
        mv = principal_minors(p)
        sign = 1 if n % 2 == 0 else -1
        assert det_X(mv) == sign * p.coeff(n - 1)
        assert det_X(mv) != 0


def test_det_x_matches_the_built_x(monkeypatch):
    # det_X reads X transposed off the n+1 signed minors and builds no X: it
    # equals the oracle det of build_sm_objects' X for any minor vector,
    # zeros and a lift scale D > 1 included
    rng = random.Random(83)
    vectors = []
    for n in range(3, 15):
        for _ in range(12):
            m = [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4])) for _ in range(n)]
            vectors.append(MinorVector(QQ, (Fraction(1), *m)))
        for q in (2, 3, 7, 257):
            gf = GF(q)
            vectors.append(MinorVector(gf, (gf.one, *(gf.of(rng.randrange(q)) for _ in range(n)))))
    want = [det(build_sm_objects(mv).X) for mv in vectors]
    monkeypatch.setattr(minors, "build_sm_objects", lambda mv: pytest.fail("det_X built the SM objects"))
    assert [det_X(mv) for mv in vectors] == want
    assert sum(mv.field == QQ and QQ.lift(mv.m)[1] > 1 for mv in vectors) > 100


def test_det_x_n3_example():
    mv = principal_minors(qp(1, 2, 4, 8))
    assert det_X(mv) == Fraction(-2)


def test_det_x_dimension_error():
    mv = principal_minors(qp(1, 3, 2))
    with pytest.raises(DimensionError):
        det_X(mv)


def test_px_powers_symmetric():
    rng = random.Random(71)
    for n in range(3, 13):
        p = normalize_c1(random_rational_pencil(rng, n))
        sm = build_sm_objects(principal_minors(p))
        acc = sm.X
        for _ in range(3):
            prod = matmul(sm.P, acc)
            assert prod == transpose(prod)
            acc = matmul(acc, sm.X)


def test_recover_c_examples():
    got = recover_c_from_minors([Fraction(2), Fraction(0), Fraction(0)], QQ)
    assert got == [Fraction(2), Fraction(4), Fraction(8)]
    got = recover_c_from_minors([Fraction(1), Fraction(0)], QQ)
    assert got == [Fraction(1), Fraction(1)]


def test_recover_roundtrip_both_directions():
    rng = random.Random(73)
    for n in range(2, 9):
        for _ in range(10):
            ms = [random_rational(rng) for _ in range(n)]
            cs = recover_c_from_minors(ms, QQ)
            # forward check against the minor definition, zeros permitted in c
            full = [QQ.one] + cs
            assert cofactor_minors(PencilInstance(QQ, tuple(full))) == (QQ.one, *ms)
            # and when all c are nonzero, through the public pencil path
            if all(ci != 0 for ci in cs):
                p = build_pencil(full)
                assert principal_minors(p).m[1:] == tuple(ms)


def test_recover_over_gf():
    gf = GF(7)
    ms = [gf.of(3), gf.of(0), gf.of(0), gf.of(0)]
    cs = recover_c_from_minors(ms, gf)
    # all-later-minors-zero forces the geometric sequence c_k = c_2^(k-1)
    assert cs == [gf.of(3), gf.of(2), gf.of(6), gf.of(4)]


def test_geometric_iff_trailing_minors_vanish():
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 2)):
        mv = principal_minors(geometric_pencil(lam, 6))
        assert all(mv.m[r] == 0 for r in range(2, 7))
    rng = random.Random(79)
    for _ in range(20):
        p = random_rational_pencil(rng, 5)
        mv = principal_minors(p)
        from toeppencil.pencil import is_geometric

        trailing_zero = all(mv.m[r] == 0 for r in range(2, 6))
        assert (is_geometric(p) is not None) == trailing_zero


def test_gf_minor_map_runs_on_residues(monkeypatch):
    # over GF(p) both directions of the minor map pass the characteristic to
    # _reciprocal, and their values are the int path's: the reciprocal over
    # Z, then frac
    rng = random.Random(173)
    cases = []  # (pencil, minors m_1..m_n), zeros permitted in the minors
    for q in (2, 7, 257):
        gf = GF(q)
        for n in range(2, 41):
            cases.append((random_gf_pencil(rng, n, q), [gf.of(rng.randrange(q)) for _ in range(n)]))
    gf7 = GF(7)
    for n in (5, 6):  # the 30 GF(7) counterexamples
        for t in exhaustive_scan(HuntConfig(n=n, field=gf7, mode="exhaustive")).counterexamples:
            ms = [gf7.of(m) for m in t] + [gf7.zero]
            cases.append((build_pencil([gf7.one] + recover_c_from_minors(ms, gf7), gf7), ms))
    assert len(cases) == 3 * 39 + 30
    real = minors._reciprocal

    def outputs():
        return [(principal_minors(p), recover_c_from_minors(ms, p.field)) for p, ms in cases]

    with monkeypatch.context() as m:
        m.setattr(minors, "_reciprocal", lambda a, p: real(a, 0))
        want = outputs()
    moduli = []
    monkeypatch.setattr(minors, "_reciprocal", lambda a, p: moduli.append(p) or real(a, p))
    assert outputs() == want
    assert moduli == [p.field.characteristic for p, _ in cases for _ in range(2)]


def test_minor_doors_refuse_entries_outside_the_field():
    # the minors as the caller gave them: the index is the caller's, not that
    # of (1, m_1, ..., m_n) or of the signed minors
    with pytest.raises(FieldMismatchError, match=r"^entry 0 = 0\.5 is not in QQ$"):
        recover_c_from_minors([0.5, 1], QQ)
    with pytest.raises(FieldMismatchError, match=r"^entry 1 = '2' is not in GF\(7\)$"):
        recover_c_from_minors([GF(7).one, "2"], GF(7))
    one = Fraction(1)
    cases = [
        (QQ, (one, one, 0.5, one, 0), r"^entry 2 = 0\.5 is not in QQ$"),
        (QQ, (one, GF(7).of(2), one, one, 0), r"^entry 1 = GF\(7\)\[2\] is not in QQ$"),
        (GF(7), (1, 1, 2, "3", 0), r"^entry 3 = '3' is not in GF\(7\)$"),
        (GF(7), (1, 1, 2, 3, GF(5).of(1)), r"^entry 4 = GF\(5\)\[1\] is not in GF\(7\)$"),
    ]
    for fld, m, message in cases:
        with pytest.raises(FieldMismatchError, match=message):
            det_X(MinorVector(fld, m))
