import json
import multiprocessing
import tracemalloc
from fractions import Fraction
from itertools import chain, islice, product

import pytest

import oracles
from oracles import _crosscheck_selected, exhaustive_scan_reference, random_scan_reference
from toeppencil import criteria, hunt
from toeppencil.criteria import evaluate_instance
from toeppencil.field import GF, PrimeField, QQ
from toeppencil.hunt import (
    HuntConfig,
    HuntConfigError,
    exhaustive_scan,
    random_scan,
    verify_conjecture_smalln,
)
from toeppencil.minors import _reciprocal, recover_c_from_minors
from toeppencil.pencil import build_pencil, is_geometric


def test_config_validation():
    with pytest.raises(HuntConfigError):
        HuntConfig(n=4, field=QQ, mode="exhaustive")
    with pytest.raises(HuntConfigError, match="^workers must be >= 1$"):
        HuntConfig(n=4, field=GF(5), mode="exhaustive", workers=0)
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
    with pytest.raises(HuntConfigError, match="^workers = 65 exceeds the limit 64$"):
        HuntConfig(n=4, field=GF(5), mode="exhaustive", workers=65)
    HuntConfig(n=4, field=GF(5), mode="exhaustive", workers=64)  # builds the config only
    for extra in (
        {"trials": 7}, {"seed": 9}, {"trials": 7, "seed": 9}, {"trials": 0}, {"seed": 0},
    ):
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


def test_sharded_scans_identical(monkeypatch):
    pools = []
    real_get_context = multiprocessing.get_context

    class CountingContext:
        def __init__(self, method):
            self.ctx = real_get_context(method)

        def Pool(self, processes):
            pools.append(processes)
            return self.ctx.Pool(processes)

    monkeypatch.setattr(multiprocessing, "get_context", CountingContext)
    cells = [((4, 5), (2, 4))] + [((n, p), (2, p, p + 3)) for n in (2, 3) for p in (3, 5)]
    for (n, p), worker_counts in cells:
        base = exhaustive_scan(HuntConfig(n=n, field=GF(p), mode="exhaustive", workers=1))
        for w in worker_counts:
            pools.clear()
            r = exhaustive_scan(HuntConfig(n=n, field=GF(p), mode="exhaustive", workers=w))
            assert json.dumps(r.to_dict(), sort_keys=True) == json.dumps(
                base.to_dict(), sort_keys=True
            )
            # n = 2 has one representative; otherwise one process per m_2 chunk, at most p
            assert pools == ([] if n == 2 else [min(w, p)])


_TWO_WORKER_CELLS = ((5, 7), (6, 7))


@pytest.mark.parametrize(
    "n,p", [(n, p) for p in (2, 3, 5, 7) for n in range(2, 6)] + [(6, 5), (6, 7), (7, 5)]
)
def test_orbit_scan_matches_per_tuple_reference(n, p):
    want = exhaustive_scan_reference(n, p)
    for w in (1, 2) if (n, p) in _TWO_WORKER_CELLS else (1,):
        got = exhaustive_scan(HuntConfig(n=n, field=GF(p), mode="exhaustive", workers=w))
        assert got.to_dict() == want


def _record_pencils(monkeypatch, module, name, residues):
    """Record the coefficient residues of every call of module.name; residues
    reads them off the call's arguments."""
    seen, real = [], getattr(module, name)

    def record(*args):
        seen.append(residues(*args))
        return real(*args)

    monkeypatch.setattr(module, name, record)
    return seen


@pytest.mark.parametrize(
    "n,p,count",
    [
        pytest.param(5, 7, 86, id="5-86"),
        pytest.param(6, 7, 414, id="6-414"),
        (6, 5, 51),
        (5, 11, 557),
        (5, 19, 5859),  # several selected u per beta
        (18, 2, 1),  # the stride 17 divides n-1
    ],
)
def test_orbit_scan_crosschecks_the_reference_pencils(monkeypatch, n, p, count):
    # the scan hands its entry the residues c with scale 1; the reference builds pencils
    got = _record_pencils(monkeypatch, hunt, "_verdicts", lambda c, L, fld: tuple(c))
    want = _record_pencils(
        monkeypatch, oracles, "evaluate_instance", lambda p: tuple(ci.val for ci in p.c)
    )
    report = exhaustive_scan(HuntConfig(n=n, field=GF(p), mode="exhaustive"))
    assert report.to_dict() == exhaustive_scan_reference(n, p)
    assert len(want) == count
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("stride", [2, 3, 4, 5])
def test_stride_listing_matches_the_reference_at_every_stride(monkeypatch, stride):
    # the selected tuples are listed per beta from u = beta^(n-1)*leaf; a small
    # stride selects many of them, and divides n-1 in some of the cells
    monkeypatch.setattr(hunt, "_CROSSCHECK_STRIDE", stride)
    monkeypatch.setattr(oracles, "_CROSSCHECK_STRIDE", stride)
    got = _record_pencils(monkeypatch, hunt, "_verdicts", lambda c, L, fld: tuple(c))
    want = _record_pencils(
        monkeypatch, oracles, "evaluate_instance", lambda p: tuple(ci.val for ci in p.c)
    )
    cells = [(3, 7), (4, 5), (5, 7), (6, 5), (7, 3), (5, 2)]
    assert any((n - 1) % stride == 0 for n, _ in cells)
    for n, p in cells:
        got.clear()
        want.clear()
        report = exhaustive_scan(HuntConfig(n=n, field=GF(p), mode="exhaustive"))
        assert report.to_dict() == exhaustive_scan_reference(n, p), (n, p)
        assert sorted(got) == sorted(want), (n, p)
        # over GF(2) the one valid tuple is all ones, an SM solution
        assert len(want) > report.sm_solutions or p == 2, (n, p)


def test_stride_rows_stay_bounded():
    # one representative at n = 3 over GF(1009): a row per value of the last
    # coordinate would hold p(p-1) stride terms, tens of MB
    tracemalloc.start()
    try:
        r = hunt._scan_shard(3, 1009, (5,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.tuples_scanned == 1009
    assert peak < 2 * 2**20


def test_flipped_orbit_verdict_is_an_sm_mismatch(monkeypatch):
    # the orbit's verdict is inferred from its representative (m_1 = 1); a wrong
    # inference must surface in the cross-checks of the orbit's tuples
    p, cfg = 7, HuntConfig(n=5, field=GF(7), mode="exhaustive")
    base = exhaustive_scan(cfg)

    def orbit(rep):
        return [tuple(b**r * m % p for r, m in enumerate(rep, start=1)) for b in range(1, p)]

    real = hunt._sm_values
    # an SM orbit read as not SM: only its stride-selected tuples are cross-checked
    sm_rep = next(
        t for t in base.counterexamples if t[0] == 1 and any(map(_crosscheck_selected, orbit(t)))
    )
    # a valid orbit outside SM read as SM: every one of its tuples is cross-checked
    other_rep = (1, 0, 0, 2)
    gf = GF(p)
    assert gf.zero not in recover_c_from_minors([gf.of(v) for v in other_rep] + [gf.zero], gf)
    assert other_rep not in base.counterexamples
    for rep, planted, checked, solutions in (
        (sm_rep, [1], [t for t in orbit(sm_rep) if _crosscheck_selected(t)], -(p - 1)),
        (other_rep, [], orbit(other_rep), p - 1),
    ):
        monkeypatch.setattr(
            hunt, "_sm_values", lambda N, p: iter(planted) if N[1:-1] == rep else real(N, p)
        )
        r = exhaustive_scan(cfg)
        assert r.equivalence_violations == sorted((t, "sm-mismatch") for t in checked)
        assert r.sm_solutions == base.sm_solutions + solutions


def _plant_s_fault(monkeypatch):
    """S's int core with a nonzero first value: S never holds, so each
    singular pencil is a three-way disagreement and each regular one is not."""
    real = criteria._s_ints
    monkeypatch.setattr(
        criteria, "_s_ints", lambda c, p: chain([1], islice(real(c, p), 1, None))
    )


def test_planted_s_fault_alarms_on_exactly_the_sm_orbits(monkeypatch):
    cfg = HuntConfig(n=5, field=GF(7), mode="exhaustive")
    base = exhaustive_scan(cfg)
    # the SM solutions: the 18 counterexamples and the geometric (m_1, 0, 0, 0)
    sm_tuples = base.counterexamples + [(m, 0, 0, 0) for m in range(1, 7)]
    assert len(sm_tuples) == base.sm_solutions == 24
    _plant_s_fault(monkeypatch)
    for w in (1, 2):
        r = exhaustive_scan(HuntConfig(n=5, field=GF(7), mode="exhaustive", workers=w))
        assert r.equivalence_violations == sorted((t, "criterion-disagreement") for t in sm_tuples)
        assert (r.sm_solutions, r.counterexamples) == (base.sm_solutions, base.counterexamples)


def test_planted_s_fault_alarms_on_exactly_the_singular_random_pencils(monkeypatch):
    cfg = HuntConfig(n=5, field=QQ, mode="random", trials=60, seed=1)
    singular, real = [], hunt._verdicts

    def record(c, L, fld):
        verdicts = real(c, L, fld)
        if verdicts[0]:
            singular.append(tuple(str(fld.frac(ci, L)) for ci in c))
        return verdicts

    with monkeypatch.context() as m:
        m.setattr(hunt, "_verdicts", record)
        base = random_scan(cfg)
    assert base.equivalence_violations == [] and len(singular) == base.sm_solutions
    for lam in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):  # the injected ones
        assert tuple(str(lam**k) for k in range(6)) in singular
    _plant_s_fault(monkeypatch)
    r = random_scan(cfg)
    assert r.equivalence_violations == sorted((t, "criterion-disagreement") for t in singular)
    assert (r.tuples_scanned, r.sm_solutions, r.counterexamples) == (base.tuples_scanned, 0, [])


@pytest.mark.parametrize(
    "n,p", [(3, 7), (4, 5), (5, 7), (6, 5), (2, 2), (2, 5), (3, 2), (4, 2), (5, 2), (5, 3)]
)
def test_leaf_ends_match_the_reciprocal(n, p):
    # B_{n-1}, B_n from the reciprocal at leaf 0, and the leaves where one
    # vanishes, against the reciprocal of each whole N, for every head and
    # leaf (zero residues in Bh included); over GF(2), B_n has no root or
    # vanishes at every leaf
    for head in product(range(p), repeat=max(n - 3, 0)):
        prefix = (1, 1, *head)[: n - 1]
        Bh = _reciprocal(prefix, n - 1, p)
        want = {
            leaf: tuple(_reciprocal((*prefix, leaf, 0), n + 1, p)[n - 1 :])
            for leaf in range(p)
        }
        Z = _reciprocal((*prefix, 0, 0), n + 1, p)
        assert Z[: n - 1] == Bh
        ends, bad = hunt._leaf_ends(Z, p)
        assert {leaf: ends(leaf) for leaf in range(p)} == want, head
        assert bad == {leaf for leaf, e in want.items() if not all(e)}, head


@pytest.mark.parametrize(
    "n,field,trials", [(4, GF(2), 50), (3, GF(3), 40), (2, GF(5), 120), (5, QQ, 20)]
)
def test_random_scan_evaluates_each_distinct_list_once(monkeypatch, n, field, trials):
    cfg = HuntConfig(n=n, field=field, mode="random", trials=trials, seed=2)
    instances = list(hunt._random_instances(cfg))
    distinct = {tuple(c) for c in instances}
    if field != QQ:
        assert len(distinct) < trials
    want = random_scan_reference(cfg)
    calls = _record_pencils(
        monkeypatch, hunt, "_verdicts", lambda c, L, fld: tuple(fld.frac(ci, L) for ci in c)
    )
    got = random_scan(cfg)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.tuples_scanned == len(instances)
    # over GF(2) the 50 trials and the 2 ratios are one list, all ones
    assert len(calls) == len(distinct) and set(calls) == distinct
    # a planted alarm is listed once per trial, not once per distinct list
    _plant_s_fault(monkeypatch)
    assert random_scan(cfg).to_dict() == random_scan_reference(cfg).to_dict()


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_random_scan_lifts_each_distinct_list_once(monkeypatch, field):
    # both scans reach the routes through _verdicts, on one lift per list;
    # the public evaluate_instance is the random scan's reference only
    assert not hasattr(hunt, "evaluate_instance") and not hasattr(hunt, "build_pencil")
    cfg = HuntConfig(n=4, field=field, mode="random", trials=40, seed=5)
    distinct = {tuple(c) for c in hunt._random_instances(cfg)}
    want = random_scan_reference(cfg)
    lifted = _record_pencils(monkeypatch, field, "lift", tuple)
    monkeypatch.setattr(criteria, "evaluate_instance", None)
    assert random_scan(cfg).to_dict() == want.to_dict()
    assert len(lifted) == len(distinct) and set(lifted) == distinct


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


def test_random_scan_lists_counterexamples():
    # SM holds with y != 0 on 2 of the 2000 seeded GF(7) lists at n = 5
    cfg = HuntConfig(n=5, field=GF(7), mode="random", trials=2000, seed=0)
    r = random_scan(cfg)
    assert json.dumps(r.to_dict()) == json.dumps(random_scan_reference(cfg).to_dict())
    assert len(r.counterexamples) == 2 and r.equivalence_violations == []
    for shown in r.counterexamples:
        p = build_pencil([int(ci) for ci in shown], cfg.field)
        rep = evaluate_instance(p)
        assert rep.singular_det and rep.sm_holds and not rep.y_is_zero
        assert is_geometric(p) is None


def test_scans_refuse_the_other_mode():
    with pytest.raises(HuntConfigError, match="^config is not in exhaustive mode$"):
        exhaustive_scan(HuntConfig(n=4, field=GF(5), mode="random", trials=3))
    with pytest.raises(HuntConfigError, match="^config is not in random mode$"):
        random_scan(HuntConfig(n=4, field=GF(5), mode="exhaustive"))


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
