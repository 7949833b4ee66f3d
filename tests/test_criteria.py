import dataclasses
import random
import sys
from fractions import Fraction

from toeppencil.criteria import (
    check_S,
    check_SM,
    evaluate_instance,
    s_condition_values,
    sm_condition_values,
)
from toeppencil.field import GF, QQ
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
from toeppencil.pencil import build_pencil, is_singular, normalize_c1, partition

from conftest import (
    geometric_pencil,
    random_gf_pencil,
    random_rational_pencil,
)
from oracles import s_values_field, sm_values_field


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
            assert build_M0(p).det() == 0
    for lam in (Fraction(2), Fraction(-1)):
        p = geometric_pencil(lam, 4)
        assert check_S(p)[0]
        assert build_M0(p).det() == 0


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


def test_truncation_soundness_extended_range():
    rng = random.Random(103)
    for n in range(2, 8):
        cases = [random_rational_pencil(rng, n) for _ in range(30)]
        cases.append(geometric_pencil(Fraction(2), n))
        cases.append(geometric_pencil(Fraction(-1), n))
        for p in cases:
            star, vals = s_condition_values(p, kmax=2 * n)
            truncated_ok = star == 0 and all(v == 0 for v in vals[: n - 1])
            if truncated_ok:
                assert all(v == 0 for v in vals)


def test_sm_values_invariant_under_scaling():
    rng = random.Random(107)
    for _ in range(20):
        n = rng.randint(3, 6)
        p = random_rational_pencil(rng, n)
        t = Fraction(rng.choice([2, 3, -2]))
        scaled = build_pencil([ci * t for ci in p.c])
        assert sm_condition_values(principal_minors(p)) == sm_condition_values(
            principal_minors(scaled)
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
                (sm_p, v_p, mv_p), (sm_q, v_q, mv_q) = check_SM(p), check_SM(q)
                assert (s_q, sm_q) == (s_p, sm_p)
                assert (k_of(w_q), k_of(v_q)) == (k_of(w_p), k_of(v_p))
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
        star, vals = s_condition_values(p)
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
    # reference: Q.inv() and field-typed matrix-vector products (tests/oracles.py)
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
        star, vals = s_condition_values(p, kmax=2 * p.n)
        assert (star, vals) == s_values_field(p, 2 * p.n), p.c
        holds, witness = check_S(p)
        expected = _first_nonzero([star] + vals[: p.n - 1], zero, 0)
        assert holds == (expected is None) and witness == expected, p.c
        mv = principal_minors(p)
        sm_vals = sm_condition_values(mv, kmax=p.n)
        assert sm_vals == sm_values_field(mv, p.n), p.c
        holds, witness, _ = check_SM(p)
        expected = _first_nonzero([mv.m[p.n]] + sm_vals[: p.n - 2], zero, -1)
        assert holds == (expected is None) and witness == expected, p.c


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
        q_inverse_closed_form, q_inv_v_closed_form, det_X, _reciprocal,
    )
    s_route = _codes(s_condition_values, check_S, partition)
    sm_route = _codes(sm_condition_values, check_SM)
    det_route = _codes(is_singular, Mat.det, Mat.inv)
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
        assert s_condition_values.__code__ in codes
        assert not codes & (minors_route | sm_route | det_route)
        codes = {code for _, code in _toeppencil_calls(check_SM, p)}
        assert principal_minors.__code__ in codes
        m_n_is_zero = principal_minors(p).m[p.n] == p.field.zero
        assert (sm_condition_values.__code__ in codes) == m_n_is_zero
        assert not codes & (s_route | det_route | _codes(q_inverse_closed_form))
