import dataclasses
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from toeppencil import criteria, hunt, kronecker, pencil
from toeppencil.criteria import (
    _minor_ints,
    _s_ints,
    _s_value,
    _sm_value,
    _sm_values,
    _sm_witness,
    _verdicts,
    check_S,
    check_SM,
    evaluate_instance,
    s_condition_values,
    sm_condition_values,
)
from toeppencil.field import GF, QQ, FieldMismatchError
from toeppencil.hunt import HuntConfig, exhaustive_scan
from toeppencil.kronecker import BlockPencil, analyze
from toeppencil.linalg import Mat
from toeppencil.minors import (
    _reciprocal,
    build_sm_objects,
    det_X,
    principal_minors,
    q_inv_v_closed_form,
    q_inverse_closed_form,
    recover_c_from_minors,
)
from toeppencil.pencil import (
    PencilInstance, _det_certificate, _det_int, _newton_coefficients, _point_certificate, _singular, build_pencil,
    is_geometric, is_singular,
)

from conftest import (
    geometric_pencil,
    random_gf_pencil,
    random_rational_pencil,
)
import oracles
from oracles import normalize_c1, s_values_field, sm_values_field


def qp(*cs):
    return build_pencil([Fraction(c) for c in cs])


def test_s_holds_on_geometric():
    holds, witness = check_S(qp(1, 2, 4, 8, 16))
    assert holds and witness is None


def test_s_fails_with_star_witness():
    holds, witness = check_S(qp(1, 1, 1, 2))
    assert not holds
    k, value = witness
    assert k == 0 and value != 0


def test_s_true_forces_det_m0_zero():
    rng = random.Random(83)
    from toeppencil.pencil import build_M0

    for _ in range(200):
        p = random_rational_pencil(rng, rng.randint(2, 5))
        holds, _ = check_S(p)
        if holds:
            assert oracles.det(build_M0(p)) == 0
    for lam in (Fraction(2), Fraction(-1)):
        p = geometric_pencil(lam, 4)
        assert check_S(p)[0]
        assert oracles.det(build_M0(p)) == 0


def test_sm_examples():
    holds, witness, _ = check_SM(qp(1, 2, 4, 8))
    assert holds and witness is None
    holds, witness, _ = check_SM(qp(1, 1, 1, 2))
    assert not holds
    assert witness == (-1, Fraction(1))  # m_n = 1 != 0


def test_sm_n4_truncated_system():
    # for n=4 the truncated conditions must expand to
    # k=0: -2*m2*m3 and k=1: m2^3 + m3^2 + 2*m1*m2*m3
    rng = random.Random(89)
    for _ in range(50):
        p = normalize_c1(random_rational_pencil(rng, 4))
        mv = principal_minors(p)
        m1, m2, m3 = mv.m[1], mv.m[2], mv.m[3]
        v0, v1 = sm_condition_values(mv)
        assert v0 == -2 * m2 * m3
        assert v1 == m2**3 + m3**2 + 2 * m1 * m2 * m3


def test_evaluate_instance_reports():
    rep = evaluate_instance(qp(1, 2, 4, 8))
    assert rep.singular_det and rep.s_holds and rep.sm_holds
    assert rep.y_is_zero and rep.geometric == 2
    rep = evaluate_instance(qp(1, 1, 1, 2))
    assert not (rep.singular_det or rep.s_holds or rep.sm_holds)
    assert rep.geometric is None
    rep = evaluate_instance(qp(5, 5, 5, 5, 5, 5))
    assert rep.singular_det and rep.s_holds and rep.sm_holds
    assert rep.geometric == 1


def test_equivalence_chain_rationals():
    rng = random.Random(97)
    for n in range(2, 8):
        for _ in range(60):
            p = random_rational_pencil(rng, n)
            rep = evaluate_instance(p)  # raises ConsistencyAlarm on disagreement
            assert rep.singular_det == rep.s_holds == rep.sm_holds


def test_equivalence_chain_gf():
    rng = random.Random(101)
    for n in range(2, 7):
        for p_mod in (5, 7, 11):
            if p_mod <= n + 2:
                continue
            for _ in range(40):
                p = random_gf_pencil(rng, n, p_mod)
                rep = evaluate_instance(p)
                assert rep.singular_det == rep.s_holds == rep.sm_holds


def test_small_prime_census():
    # every c1 = 1 pencil of the small-prime cells, p <= n+2 included: evaluate_instance
    # raises ConsistencyAlarm on any disagreement, and the singular pencils are the p-1
    # geometric ones, plus the hunt's 18 non-geometric ones at (n, p) = (5, 7)
    cells = [(n, q) for q in (2, 3) for n in range(2, 9)]
    cells += [(n, q) for q in (5, 7) for n in range(2, 6)]
    for n, q in cells:
        fld = GF(q)
        reports = [
            evaluate_instance(build_pencil([1, *tail], fld))
            for tail in product(range(1, q), repeat=n)
        ]
        singular = [r for r in reports if r.singular_det]
        assert sum(r.geometric is not None for r in singular) == q - 1, (n, q)
        assert len(singular) == (24 if (n, q) == (5, 7) else q - 1), (n, q)


def test_truncation_soundness_extended_range():
    rng = random.Random(103)
    for n in range(2, 8):
        cases = [random_rational_pencil(rng, n) for _ in range(30)]
        cases.append(geometric_pencil(Fraction(2), n))
        cases.append(geometric_pencil(Fraction(-1), n))
        for p in cases:
            star, vals = s_values_field(p, 2 * n)
            truncated_ok = star == 0 and all(v == 0 for v in vals[: n - 2])
            if truncated_ok:
                assert all(v == 0 for v in vals[n - 2 :])


def test_sm_values_invariant_under_scaling():
    rng = random.Random(107)
    for _ in range(20):
        n = rng.randint(3, 6)
        p = random_rational_pencil(rng, n)
        t = Fraction(rng.choice([2, 3, -2]))
        scaled = build_pencil([ci * t for ci in p.c])
        assert list(sm_condition_values(principal_minors(p))) == list(
            sm_condition_values(principal_minors(scaled))
        )


def test_routes_invariant_under_beta_scaling():
    # c_k -> beta^(k-1) c_k is diag(beta^i) T(x) diag(beta^-j) times beta, with
    # x rescaled: each route keeps its verdict and its first-violation index,
    # and the minors scale as m_r -> beta^r m_r
    def k_of(witness):
        return None if witness is None else witness[0]

    rng = random.Random(113)
    checked = 0
    for p_mod in (None, 7, 11):
        for n in range(2, 9):
            if p_mod is None:
                fld = QQ
                cases = [random_rational_pencil(rng, n) for _ in range(12)]
                cases.append(geometric_pencil(Fraction(2), n))
                cases.append(geometric_pencil(Fraction(-1, 3), n, Fraction(3)))
                betas = [Fraction(b) for b in (2, -1, "1/2", "-3/2", 3)]
            else:
                fld = GF(p_mod)
                cases = [random_gf_pencil(rng, n, p_mod) for _ in range(12)]
                for lam in (2, 3):
                    cases.append(build_pencil([fld.of(lam**k) for k in range(n + 1)], fld))
                betas = [fld.of(b) for b in range(2, p_mod)]
            for p in cases:
                beta = rng.choice(betas)
                q = build_pencil([ci * beta**k for k, ci in enumerate(p.c)], fld)
                assert is_singular(q) == is_singular(p)
                (s_p, w_p), (s_q, w_q) = check_S(p), check_S(q)
                (sm_p, v_p, y_p), (sm_q, v_q, y_q) = check_SM(p), check_SM(q)
                assert (s_q, sm_q, y_q) == (s_p, sm_p, y_p)
                assert (k_of(w_q), k_of(v_q)) == (k_of(w_p), k_of(v_p))
                mv_p, mv_q = principal_minors(p), principal_minors(q)
                assert mv_q.m == tuple(m * beta**r for r, m in enumerate(mv_p.m))
                checked += 1
    assert checked == 3 * 7 * 14


def test_geometric_has_identically_zero_y():
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2)):
        for n in range(3, 8):
            p = geometric_pencil(lam, n)
            mv = principal_minors(p)
            from toeppencil.minors import build_sm_objects

            sm = build_sm_objects(mv)
            assert all(e == 0 for e in sm.y)
            holds, _, _ = check_SM(p)
            assert holds


def test_smallest_violated_k_reported():
    # regular instance with det(M0) = 0 exercises a k >= 1 witness
    rng = random.Random(109)
    found = 0
    for _ in range(3000):
        p = random_rational_pencil(rng, 4)
        holds, witness = check_S(p)
        if holds or witness[0] == 0:
            continue
        k, value = witness
        star, *vals = s_condition_values(p)
        assert star == 0
        assert all(v == 0 for v in vals[: k - 1]) and vals[k - 1] == value != 0
        found += 1
        if found >= 3:
            break
    assert found >= 1


def _leaves(x):
    if isinstance(x, (tuple, list)):
        for e in x:
            yield from _leaves(e)
    else:
        yield x


def test_int_coefficients_stay_exact():
    for field in (None, GF(7)):
        p = build_pencil([3, 1, 1, 2], field)
        exact = build_pencil([p.field.of(c) for c in (3, 1, 1, 2)], p.field)
        minors = principal_minors(p).m
        rep = evaluate_instance(p)
        values = [getattr(rep, f.name) for f in dataclasses.fields(rep)]
        assert not any(isinstance(e, float) for e in _leaves([p.c, minors, values]))
        assert minors == principal_minors(exact).m
        assert rep == evaluate_instance(exact)


def _first_nonzero(values, zero, start):
    return next(((k, v) for k, v in enumerate(values, start=start) if v != zero), None)


def test_s_and_sm_values_match_field_formulas():
    # reference: inv(Q) and field-typed matrix-vector products (tests/oracles.py)
    rng = random.Random(113)
    cases = [random_rational_pencil(rng, n) for n in range(2, 10) for _ in range(6)]
    for lam, c1 in ((Fraction(2), Fraction(-3, 2)), (Fraction(-1, 3), Fraction(5))):
        cases += [geometric_pencil(lam, n, c1) for n in (2, 4, 7)]
    for q in (2, 3, 5, 7, 11):
        cases += [random_gf_pencil(rng, n, q) for n in range(2, 9) for _ in range(3)]
    # non-geometric singular pencils over GF(7), y != 0
    cases += [build_pencil(c, GF(7)) for c in ([1, 1, 5, 4, 1, 2], [1, 2, 6, 4, 2, 1])]
    for p in cases:
        zero = p.field.zero
        # production stops at the algebra's bounds, k = n-2 for S and n-3 for SM
        star, vals = s_values_field(p, 2 * p.n)
        assert list(s_condition_values(p)) == [star] + vals[: p.n - 2], p.c
        holds, witness = check_S(p)
        expected = _first_nonzero([star] + vals[: p.n - 2], zero, 0)
        assert holds == (expected is None) and witness == expected, p.c
        mv = principal_minors(p)
        sm_vals = sm_values_field(mv, p.n)
        assert list(sm_condition_values(mv)) == sm_vals[: p.n - 2], p.c
        holds, witness, _ = check_SM(p)
        expected = _first_nonzero([mv.m[p.n]] + sm_vals[: p.n - 2], zero, -1)
        assert holds == (expected is None) and witness == expected, p.c


def _sm_by_minor_vector(p):
    """check_SM's (holds, witness, y_is_zero) read off the MinorVector route."""
    mv = principal_minors(p)
    m_n = mv.m[p.n]
    witness = (-1, m_n) if m_n else _first_nonzero(sm_condition_values(mv), p.field.zero, 0)
    return witness is None, witness, all(m == p.field.zero for m in mv.m[2 : p.n])


def test_check_sm_matches_the_minor_vector_route():
    rng = random.Random(139)
    cases = [random_rational_pencil(rng, n) for n in range(2, 13) for _ in range(8)]
    for q in (2, 3, 5, 7, 11):
        cases += [random_gf_pencil(rng, n, q) for n in range(2, 13) for _ in range(4)]
    for lam, c1 in ((Fraction(2), Fraction(1)), (Fraction(-1, 3), Fraction(5, 2))):
        cases += [geometric_pencil(lam, n, c1) for n in (2, 3, 6, 11)]
    # m_n = 0 over QQ: the k >= 0 stream runs on large B
    for n in range(16, 49, 4):
        cs = [QQ.zero]
        while QQ.zero in cs:
            ms = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n - 1)]
            cs = recover_c_from_minors(ms + [QQ.zero], QQ)
        c1 = Fraction(rng.choice([-2, 3]), rng.choice([1, 5]))
        cases.append(build_pencil([c1] + [c1 * ci for ci in cs]))
    # the GF(7) counterexamples: SM holds with y != 0
    gf7 = GF(7)
    for n in (5, 6):
        rep = exhaustive_scan(HuntConfig(n=n, field=gf7, mode="exhaustive", workers=1))
        for t in rep.counterexamples:
            cs = recover_c_from_minors([gf7.of(m) for m in t] + [gf7.zero], gf7)
            cases.append(build_pencil([gf7.one] + cs, gf7))
    outcomes = [check_SM(p) for p in cases]
    for p, got in zip(cases, outcomes):
        assert got == _sm_by_minor_vector(p), p.c
    assert any(w is not None and w[0] >= 0 for _, w, _ in outcomes)
    assert sum(holds and not y_zero for holds, _, y_zero in outcomes) == 30


def _int_routes(monkeypatch):
    """Run every verdict core on unreduced ints: each is called without the
    modulus it takes as its second argument."""
    for module, name in (
        (pencil, "_det_int"),
        (criteria, "_s_ints"),
        (criteria, "_minor_ints"),
        (criteria, "_sm_values"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda first, p=0, real=real: real(first, 0))


def _verdict_outputs(p):
    mv = principal_minors(p)
    return (
        repr(evaluate_instance(p)),
        is_singular(p),
        check_S(p),
        check_SM(p),
        list(s_condition_values(p)),
        list(sm_condition_values(mv)),
    )


def test_residue_routes_match_the_int_routes(monkeypatch):
    # over GF(p) the cores reduce mod p (the det route only for p >= n-2); the
    # verdicts and the field values of the witnesses are those of the ints
    rng = random.Random(149)
    cases = []
    for q, sizes in ((7, range(2, 9)), (11, range(2, 13)), (257, range(2, 21, 3))):
        cases += [random_gf_pencil(rng, n, q) for n in sizes for _ in range(6)]
    for q in (2, 3, 5):  # p = n-2 at n = q+2, p < n-2 from n = q+3 on
        cases += [random_gf_pencil(rng, n, q) for n in range(2, 15) for _ in range(4)]
    for q in (2, 3, 5, 7, 11, 257):
        gf = GF(q)
        for lam in (1, q - 1):  # geometric: every route reads its whole stream
            cases += [build_pencil([gf.of(lam) ** k for k in range(n + 1)], gf) for n in (4, 9, 16)]
    gf7 = GF(7)
    for n in (5, 6):  # the 30 GF(7) counterexamples: singular, S and SM hold
        for t in exhaustive_scan(HuntConfig(n=n, field=gf7, mode="exhaustive")).counterexamples:
            tail = recover_c_from_minors([gf7.of(m) for m in t] + [gf7.zero], gf7)
            cases.append(build_pencil([gf7.one] + tail, gf7))
    # top coefficient 4^2 - 5*6 = 0 mod 7, and T'(0) transposed has the pivot
    # (3^2 - 1*2) / 3 = 0 mod 7 after its first step: the residue det swaps
    cases.append(build_pencil([1, 3, 2, 5, 4, 6], gf7))
    # the GF(3) pencil at n = 32 that CI verifies: a zero top coefficient, p < n-2
    gf3_list = "1,2,1,1,2,1,1,2,2,1,2,2,2,1,2,2,2,1,1,1,2,2,2,2,1,1,1,2,2,1,2,1,2"
    cases.append(build_pencil([int(ch) for ch in gf3_list.split(",")], GF(3)))
    want = [_verdict_outputs(p) for p in cases]
    with monkeypatch.context() as m:
        _int_routes(m)
        c = cases[-3].field.lift(cases[-3].c)[0]  # the first GF(7) counterexample
        assert any(v >= 7 for v in criteria._s_ints(c, 7))  # the patch leaves ints unreduced
        got = [_verdict_outputs(p) for p in cases]
    assert got == want
    singular = [w[1] for w in want]
    assert sum(singular) > 60 and len(singular) - sum(singular) > 200


def test_int_cores_build_no_field_elements(monkeypatch):
    # every zero test of the int cores is pencil._first_violation on ints, so
    # no verdict, geometric test or kernel calls a field's ``of`` (one
    # Fraction or GFElement each); the geometric pencils reach every site
    rng = random.Random(167)
    gf7 = GF(7)
    pencils = [geometric_pencil(Fraction(2), 16), build_pencil([gf7.of(3) ** k for k in range(11)], gf7)]
    pencils += [random_rational_pencil(rng, n) for n in (3, 9, 16)]
    pencils += [random_gf_pencil(rng, n, 7) for n in (3, 10, 14)]
    blocks = [BlockPencil.from_pencil(p) for p in pencils]
    blocks += [BlockPencil(bp.M0, bp.M1) for bp in blocks]  # general pencils, without c
    calls = []
    for cls in (type(QQ), type(gf7)):
        real = cls.of
        monkeypatch.setattr(cls, "of", lambda self, x, real=real: calls.append(x) or real(self, x))
    reports = [(evaluate_instance(p), check_SM(p), is_geometric(p)) for p in pencils]
    kernels = [analyze(bp).minimal_index_d for bp in blocks]
    assert calls == []
    assert [r.geometric for r, _, _ in reports[:2]] == [2, gf7.of(3)]
    assert [r.y_is_zero for r, _, _ in reports[:2]] == [True, True]
    assert [(sm[2], geo) for r, sm, geo in reports] == [(r.y_is_zero, r.geometric) for r, _, _ in reports]
    assert kernels[: len(pencils)] == kernels[len(pencils) :]
    assert kernels[:2] == [0, 0]


def _toeppencil_calls(fn, *args):
    """(module, code object) of every toeppencil function that fn(*args) enters."""
    seen = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("toeppencil"):
            seen.add((module, frame.f_code))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


def _codes(*fns):
    return {fn.__code__ for fn in fns}


def test_routes_stay_independent():
    # the three verdicts are evidence only while no route reads another's work
    minors_route = _codes(
        principal_minors, recover_c_from_minors, build_sm_objects,
        q_inverse_closed_form, q_inv_v_closed_form, det_X, _reciprocal, _minor_ints,
    )
    s_route = _codes(s_condition_values, check_S, oracles.partition, _s_ints, _s_value)
    sm_route = _codes(sm_condition_values, check_SM, _sm_values, _sm_witness, _sm_value)
    det_route = _codes(
        is_singular, oracles.det, oracles.inv, _singular, _det_certificate, _point_certificate, _det_int,
        _newton_coefficients,
    )
    cases = [
        random_rational_pencil(random.Random(127), 7),
        geometric_pencil(Fraction(3, 2), 6),
        random_gf_pencil(random.Random(131), 6, 3),
        build_pencil([1, 1, 5, 4, 1, 2], GF(7)),
    ]
    for p in cases:
        calls = _toeppencil_calls(is_singular, p)
        modules = {module for module, _ in calls}
        assert not modules & {"toeppencil.criteria", "toeppencil.minors", "toeppencil.linalg"}
        assert not {code for _, code in calls} & (minors_route | s_route | sm_route)
        codes = {code for _, code in _toeppencil_calls(check_S, p)}
        assert _s_ints.__code__ in codes
        assert not codes & (minors_route | sm_route | det_route)
        codes = {code for _, code in _toeppencil_calls(check_SM, p)}
        assert _codes(_reciprocal, _sm_witness) <= codes
        m_n_is_zero = principal_minors(p).m[p.n] == p.field.zero
        assert (_sm_values.__code__ in codes) == m_n_is_zero
        # the verdict reads the reciprocal's ints, never the MinorVector
        assert not codes & _codes(principal_minors, sm_condition_values)
        assert not codes & (s_route | det_route | _codes(q_inverse_closed_form))
        # the hunt's one entry runs each route's own int core on one lift, and
        # nothing of the kernel or the field-typed matrices
        assert hunt._verdicts is _verdicts
        c, L = p.field.lift(p.c)
        calls = _toeppencil_calls(_verdicts, c, L, p.field)
        codes = {code for _, code in calls}
        assert _codes(_singular, _s_ints, _reciprocal, _sm_witness) <= codes
        assert (_sm_values.__code__ in codes) == m_n_is_zero
        assert not {module for module, _ in calls} & {"toeppencil.kronecker", "toeppencil.linalg"}


def test_det_and_kernel_reach_the_one_elimination():
    # is_singular's det T'(x0), det X and both analyze paths (the certificate
    # and the null vector) run on the one row reduction, pencil._eliminate,
    # and both analyze paths read the det route's one point stream
    gf7 = GF(7)
    pencils = [geometric_pencil(Fraction(3, 2), 7), build_pencil([gf7.of(3) ** k for k in range(8)], gf7)]
    for p in pencils:
        for fn, arg in ((is_singular, p), (det_X, principal_minors(p))):
            assert pencil._eliminate.__code__ in {code for _, code in _toeppencil_calls(fn, arg)}, fn
        bp = BlockPencil.from_pencil(p)
        for kernel in (bp, BlockPencil(bp.M0, bp.M1)):
            codes = {code for _, code in _toeppencil_calls(analyze, kernel)}
            assert _codes(pencil._det_int, kronecker._null_vector, pencil._eliminate, _point_certificate) <= codes


def test_kernel_stays_apart_from_the_verdicts():
    # the kernel shares the det route's certificate, but no verdict: it never
    # enters a verdict route, and no verdict route enters it
    verdicts = _codes(is_singular, _singular, check_S, check_SM, evaluate_instance)
    pencils = [
        random_rational_pencil(random.Random(137), 6),
        geometric_pencil(Fraction(2), 5),
        build_pencil([1, 1, 5, 4, 1, 2], GF(7)),
    ]
    shift = BlockPencil(  # not Toeplitz, and singular
        Mat(QQ, [[QQ.of(int(i == j < 2)) for j in range(3)] for i in range(3)]),
        Mat(QQ, [[QQ.of(int(j == i + 1)) for j in range(3)] for i in range(3)]),
    )
    for bp in [BlockPencil.from_pencil(p) for p in pencils] + [shift]:
        codes = {code for _, code in _toeppencil_calls(analyze, bp)}
        assert analyze.__code__ in codes
        assert not codes & verdicts
    for p in pencils:
        for fn in (is_singular, check_S, check_SM, evaluate_instance):
            assert analyze.__code__ not in {code for _, code in _toeppencil_calls(fn, p)}


def test_routes_refuse_a_hand_built_pencil_outside_the_field():
    # a PencilInstance skips build_pencil's checks; every route's lift names
    # the first entry that is not in the field, instead of an AttributeError
    gf7 = GF(7)
    cases = [
        (QQ, (Fraction(1), 0.5, Fraction(2), 3.5), r"^entry 1 = 0\.5 is not in QQ$"),
        (QQ, (Fraction(1), 2, gf7.of(3)), r"^entry 2 = GF\(7\)\[3\] is not in QQ$"),
        (gf7, (gf7.one, gf7.of(2), 2.0, "4"), r"^entry 2 = 2\.0 is not in GF\(7\)$"),
        (gf7, ("1", gf7.of(2), gf7.of(3)), r"^entry 0 = '1' is not in GF\(7\)$"),
        (gf7, (gf7.one, GF(5).of(2), gf7.of(3)), r"^entry 1 = GF\(5\)\[2\] is not in GF\(7\)$"),
    ]
    for fld, c, message in cases:
        p = PencilInstance(fld, c)
        for door in (evaluate_instance, is_singular, check_S, check_SM, is_geometric):
            with pytest.raises(FieldMismatchError, match=message):
                door(p)
