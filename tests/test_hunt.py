import json

import pytest

from toeppencil.criteria import evaluate_instance
from toeppencil.field import GF, PrimeField, QQ
from toeppencil.hunt import (
    HuntConfig,
    HuntConfigError,
    exhaustive_scan,
    random_scan,
    verify_conjecture_smalln,
)
from toeppencil.minors import recover_c_from_minors
from toeppencil.pencil import build_pencil, is_geometric


def test_config_validation():
    with pytest.raises(HuntConfigError):
        HuntConfig(n=4, field=QQ, mode="exhaustive")
    with pytest.raises(HuntConfigError):
        HuntConfig(n=4, field=QQ, mode="random", trials=0)
    with pytest.raises(HuntConfigError):
        HuntConfig(n=4, field=GF(5), mode="typo")
    for n in (1, 0, -3):
        with pytest.raises(HuntConfigError):
            HuntConfig(n=n, field=GF(5), mode="exhaustive")
        with pytest.raises(HuntConfigError):
            HuntConfig(n=n, field=QQ, mode="random", trials=5)
    for workers in (2, 4):  # random scans never shard
        with pytest.raises(HuntConfigError):
            HuntConfig(n=4, field=QQ, mode="random", trials=5, workers=workers)
    for extra in ({"trials": 7}, {"seed": 9}, {"trials": 7, "seed": 9}):
        with pytest.raises(HuntConfigError):  # exhaustive scans draw nothing at random
            HuntConfig(n=4, field=GF(5), mode="exhaustive", **extra)
    for n, p in ((3, 1000003), (11, 7), (2, 100000007), (10**9, 7)):  # p^(n-1) > 10^8
        with pytest.raises(HuntConfigError, match="exceeds the limit"):
            HuntConfig(n=n, field=GF(p), mode="exhaustive")
    # the cells up to (10,7) at 7^9 = 40M tuples stay allowed, and 99999989 is prime
    for n, p in ((3, 7), (5, 7), (6, 7), (9, 7), (8, 11), (10, 7), (2, 99999989)):
        HuntConfig(n=n, field=GF(p), mode="exhaustive")


def test_exhaustive_n4_gf5():
    r = exhaustive_scan(HuntConfig(n=4, field=GF(5), mode="exhaustive"))
    assert r.tuples_scanned == 125
    assert r.sm_solutions == 4
    assert r.counterexamples == []
    assert r.equivalence_violations == []


def test_exhaustive_n3_gf7():
    r = exhaustive_scan(HuntConfig(n=3, field=GF(7), mode="exhaustive"))
    assert r.counterexamples == []
    # solutions are exactly the geometric tuples (m1, 0) with m1 != 0
    assert r.sm_solutions == 6


def test_exhaustive_n2_vacuous():
    for p in (5, 7):
        r = exhaustive_scan(HuntConfig(n=2, field=GF(p), mode="exhaustive"))
        assert r.counterexamples == []
        assert r.valid_instances == p - 1


def test_n4_solution_count_is_p_minus_1():
    for p in (5, 7, 11):
        r = exhaustive_scan(HuntConfig(n=4, field=GF(p), mode="exhaustive"))
        assert r.sm_solutions == p - 1


def test_zero_y_solutions_are_geometric():
    # re-enumerate n=4 solutions directly: the condition with y = 0 means
    # m2 = m3 = 0, and the recovered instance must be a geometric sequence
    from itertools import product

    from toeppencil.criteria import sm_condition_values
    from toeppencil.minors import MinorVector

    gf = GF(5)
    solutions = 0
    for m1, m2, m3 in product(range(5), repeat=3):
        ms = [gf.of(m1), gf.of(m2), gf.of(m3), gf.zero]
        cs = recover_c_from_minors(ms, gf)
        if any(ci == gf.zero for ci in cs):
            continue
        mv = MinorVector(field=gf, m=(gf.one, *ms))
        if all(v == gf.zero for v in sm_condition_values(mv)):
            solutions += 1
            assert m2 == 0 and m3 == 0
            assert is_geometric(build_pencil([gf.one] + cs, gf)) is not None
    assert solutions == 4


def test_sharded_scans_identical():
    base = exhaustive_scan(HuntConfig(n=4, field=GF(5), mode="exhaustive", workers=1))
    for w in (2, 4):
        r = exhaustive_scan(HuntConfig(n=4, field=GF(5), mode="exhaustive", workers=w))
        assert json.dumps(r.to_dict(), sort_keys=True) == json.dumps(
            base.to_dict(), sort_keys=True
        )


def test_random_scan_deterministic():
    cfg = HuntConfig(n=5, field=QQ, mode="random", trials=60, seed=1)
    a = random_scan(cfg)
    b = random_scan(cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert a.equivalence_violations == []
    # injected geometric instances satisfy the condition every run
    assert a.sm_solutions >= 4


def test_random_scan_gf():
    r = random_scan(HuntConfig(n=4, field=GF(11), mode="random", trials=80, seed=3))
    assert r.equivalence_violations == []
    assert r.counterexamples == []


def test_random_scan_injects_only_existing_ratios():
    # 2 and 1/2 are not nonzero ratios in GF(2); in GF(3) they equal -1 and stay
    for p, injected in ((2, 2), (3, 4), (5, 4)):
        r = random_scan(HuntConfig(n=3, field=GF(p), mode="random", trials=3, seed=0))
        assert r.tuples_scanned == 3 + injected
        assert r.equivalence_violations == []


def test_verify_conjecture_smalln():
    rows = verify_conjecture_smalln(4, [5, 7])
    assert [(n, p) for n, p, _ in rows] == [
        (2, 5), (2, 7), (3, 5), (3, 7), (4, 5), (4, 7)
    ]
    for n, p, rep in rows:
        assert rep.counterexamples == []
        if n == 4:
            assert rep.sm_solutions == p - 1
    with pytest.raises(HuntConfigError):
        verify_conjecture_smalln(1, [5])


def test_nonprime_rejected():
    from toeppencil.field import NotPrimeError

    with pytest.raises(NotPrimeError):
        verify_conjecture_smalln(3, [4])


def test_gf7_n5_counterexamples_are_real_and_marked():
    # the minor condition does not force y = 0 over GF(7) at n = 5; the
    # scan must report these as finite-field evidence, each re-verifying
    gf = GF(7)
    r = exhaustive_scan(HuntConfig(n=5, field=gf, mode="exhaustive"))
    assert len(r.counterexamples) > 0
    assert r.note is not None and "characteristic 0" in r.note
    for t in r.counterexamples[:4]:
        ms = [gf.of(v) for v in t] + [gf.zero]
        cs = recover_c_from_minors(ms, gf)
        p = build_pencil([gf.one] + cs, gf)
        rep = evaluate_instance(p)
        assert rep.singular_det and rep.sm_holds and not rep.y_is_zero
        assert is_geometric(p) is None


def test_gf7_n5_counterexamples_closed_under_beta_scaling():
    # c_k -> beta^(k-1) c_k preserves singularity and maps m_r to beta^r m_r
    found = set(exhaustive_scan(HuntConfig(n=5, field=GF(7), mode="exhaustive")).counterexamples)
    assert len(found) == 18
    for beta in range(2, 7):
        scaled = {tuple(m * beta**r % 7 for r, m in enumerate(t, start=1)) for t in found}
        assert scaled == found
