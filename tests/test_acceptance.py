"""Acceptance suite: one test per criterion, exact (zero-tolerance) equality.

Each test prints a single PASS/FAIL line; run with `pytest -s` to see them.
Criterion 7 asserts conjecture evidence only where it is true. GF(5) is
clean for every n <= 6. Over GF(7) the minor condition admits non-geometric
solutions at n = 5 (18 minor tuples) and n = 6 (12); the scan must find
exactly those of an independent coefficient-space enumeration. Its sibling
test proves over Q that the minor condition forces y = 0 for n = 3..6, and
shows that the modular proof fails exactly in those two GF(7) cells: 7 is a
bad prime, and its counterexamples do not lift to characteristic 0.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from toeppencil.criteria import evaluate_instance, sm_condition_values
from toeppencil.field import GF, QQ
from toeppencil.hunt import HuntConfig, exhaustive_scan, random_scan
from toeppencil.kronecker import BlockPencil, analyze
from toeppencil.linalg import Mat
from toeppencil.minors import (
    MinorVector,
    build_sm_objects,
    det_X,
    principal_minors,
    q_inv_v_closed_form,
    q_inverse_closed_form,
    recover_c_from_minors,
)
from toeppencil.pencil import build_pencil

from conftest import geometric_pencil, random_rational_pencil
from oracles import (
    build_C,
    identity,
    inv,
    mat_vec,
    matmul,
    nongeometric_singular_minor_tuples,
    normalize_c1,
    partition,
    pencil_det,
    pencil_residual,
    rank,
    s_values_field,
)

GEOMETRIC_RATIOS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))

# The desk-scale cells (n, p) that hold non-geometric singular pencils, with
# their number of minor tuples: bad-prime phenomena of GF(7).
COUNTEREXAMPLE_CELLS = {(5, 7): 18, (6, 7): 12}


def _report(num, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _sweep(seed, n_lo, n_hi, per_n):
    rng = random.Random(seed)
    for n in range(n_lo, n_hi + 1):
        for _ in range(per_n):
            yield n, normalize_c1(random_rational_pencil(rng, n))


def test_criterion_01_q_inverse_closed_form():
    t0 = time.time()
    for n, p in _sweep(201, 2, 12, 100):
        mv = principal_minors(p)
        Q = partition(p).Q
        closed = q_inverse_closed_form(mv)
        assert matmul(closed, Q) == identity(QQ, n - 1)
        assert closed == inv(Q)
    elapsed = time.time() - t0
    _report(1, elapsed < 30, f"n=2..12 x100 instances, {elapsed:.1f}s (< 30s target)")


def test_criterion_02_q_inverse_v_closed_form():
    ok = True
    for n, p in _sweep(202, 2, 12, 100):
        mv = principal_minors(p)
        part = partition(p)
        ok = ok and q_inv_v_closed_form(mv) == mat_vec(inv(part.Q), part.v)
        assert ok
    _report(2, ok, "closed-form Q^-1 v equals solver-based, n=2..12 x100")


def test_criterion_03_det_x():
    ok = True
    for n, p in _sweep(203, 3, 12, 100):
        mv = principal_minors(p)
        sign = 1 if n % 2 == 0 else -1
        d = det_X(mv)
        ok = ok and d == sign * p.coeff(n - 1) and d != 0
        assert ok
    _report(3, ok, "det X = (-1)^n c_{n-1} and nonzero, n=3..12 x100")


def test_criterion_04_equivalence_chain():
    t0 = time.time()
    checked = 0
    for n in range(2, 11):
        rng = random.Random(204000 + n)
        cases = [random_rational_pencil(rng, n) for _ in range(1000)]
        cases += [geometric_pencil(lam, n) for lam in GEOMETRIC_RATIOS]
        for p in cases:
            rep = evaluate_instance(p)  # alarms on any three-way disagreement
            assert rep.singular_det == rep.s_holds == rep.sm_holds
            checked += 1
    _report(4, True, f"{checked} instances, zero violations ({time.time() - t0:.0f}s)")


def test_criterion_05_truncation_soundness():
    nonvacuous = 0
    for n in range(2, 11):
        rng = random.Random(205000 + n)
        cases = [random_rational_pencil(rng, n) for _ in range(200)]
        cases += [geometric_pencil(lam, n) for lam in GEOMETRIC_RATIOS]
        for p in cases:
            star, vals = s_values_field(p, 2 * n)
            if star == 0 and all(v == 0 for v in vals[: n - 2]):
                assert all(v == 0 for v in vals[n - 2 :])
                nonvacuous += 1
    _report(5, nonvacuous >= 36, f"extended k=n-1..2n vanish on {nonvacuous} holding instances")


def test_criterion_06_n4_sm_system():
    # random-point confirmation of the truncated system, up to one overall sign
    rng = random.Random(206)
    sign0 = sign1 = None
    for _ in range(200):
        ms = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(3)]
        m1, m2, m3 = ms
        mv = MinorVector(field=QQ, m=(QQ.one, m1, m2, m3, QQ.zero))
        v0, v1 = sm_condition_values(mv)
        e0 = -2 * m2 * m3
        e1 = m2**3 + m3**2 + 2 * m1 * m2 * m3
        if e0 != 0:
            s = 1 if v0 == e0 else (-1 if v0 == -e0 else None)
            assert s is not None and sign0 in (None, s)
            sign0 = s
        else:
            assert v0 == 0
        if e1 != 0:
            s = 1 if v1 == e1 else (-1 if v1 == -e1 else None)
            assert s is not None and sign1 in (None, s)
            sign1 = s
        else:
            assert v1 == 0
    # the system forces m2 = m3 = 0: exhaustively over GF(5) and GF(7)
    for p in (5, 7):
        gf = GF(p)
        for m1, m2, m3 in product(range(p), repeat=3):
            mv = MinorVector(field=gf, m=(gf.one, gf.of(m1), gf.of(m2), gf.of(m3), gf.zero))
            if all(v == gf.zero for v in sm_condition_values(mv)):
                assert m2 == 0 and m3 == 0
    # and over the rationals by dense sampling away from m2 = m3 = 0
    for _ in range(500):
        m1 = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
        m2 = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
        m3 = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
        if m2 == 0 and m3 == 0:
            continue
        assert not (-2 * m2 * m3 == 0 and m2**3 + m3**2 + 2 * m1 * m2 * m3 == 0)
    _report(6, True, "n=4 system == {-2 m2 m3, m2^3+m3^2+2 m1 m2 m3}, forces m2=m3=0")


def test_criterion_07_conjecture_evidence_desk_scale():
    t0 = time.time()
    rows = []
    for n in range(2, 7):
        for p in (5, 7):
            cfg = HuntConfig(n=n, field=GF(p), mode="exhaustive", workers=4)
            rep = exhaustive_scan(cfg)
            rows.append((n, p, rep))
    elapsed = time.time() - t0
    for n, p, rep in rows:
        if n == 4:
            assert rep.sm_solutions == p - 1
        if p == 5:
            assert not rep.counterexamples, (n, p)
        # the p - 1 geometric pencils plus the counterexamples, and the latter
        # exactly those of a coefficient-space enumeration on plain ints
        assert rep.sm_solutions == (p - 1) + len(rep.counterexamples), (n, p)
        assert rep.counterexamples == nongeometric_singular_minor_tuples(n, p), (n, p)
        assert all(any(t[1:]) for t in rep.counterexamples)  # y != 0: some m_2..m_{n-1}
        if rep.counterexamples:
            assert "not lifted to characteristic 0" in rep.note
    cells = {(n, p): len(rep.counterexamples) for n, p, rep in rows if rep.counterexamples}
    assert cells == COUNTEREXAMPLE_CELLS
    _report(
        7,
        elapsed < 300,
        f"GF(5) clean for n=2..6; GF(7) counterexample cells {cells} match an "
        f"independent enumeration tuple for tuple; elapsed {elapsed:.0f}s (< 300s target)",
    )


def _sm_polynomials(sp, n):
    """The minor condition (t_y P) X^k y, k = 0..n-3, as polynomials in the
    symbols m_1..m_{n-1}, built from the closed forms alone: Q^{-1} has
    entries (-1)^(i+j) m_{i-j}, X is Q^{-1} without its first row and last
    column, y is the alternating minor vector Q^{-1} v without its first
    entry, and t_y P is y reversed."""
    ms = sp.symbols(f"m1:{n}")
    m = (sp.Integer(1),) + ms
    qinv = sp.Matrix(n - 1, n - 1, lambda i, j: (-1) ** (i + j) * m[i - j] if i >= j else 0)
    X = qinv[1:, : n - 2]
    y = sp.Matrix([(-1) ** i * m[i + 1] for i in range(1, n - 1)])
    polys, z = [], y
    for _ in range(n - 2):
        polys.append(sp.expand(y[::-1, :].dot(z)))
        z = X * z
    return ms, polys


def _uncertified(sp, n, **domain):
    """The k in 2..n-1 for which 1 is not in the ideal <SM, 1 - t m_k>.

    By Rabinowitsch, 1 in that ideal means m_k vanishes at every solution of
    the minor condition over the algebraic closure; an empty result is a
    certificate that the minor condition forces y = 0 there."""
    ms, polys = _sm_polynomials(sp, n)
    t = sp.Symbol("t")
    return tuple(
        k
        for k in range(2, n)
        if sp.groebner(polys + [1 - t * ms[k - 1]], *ms, t, order="grevlex", **domain).exprs
        != [1]
    )


def test_criterion_07_characteristic_zero_certificate():
    sp = pytest.importorskip("sympy")
    # the symbolic system is the library's minor condition, at random points
    rng = random.Random(207)
    for n in range(3, 7):
        ms, polys = _sm_polynomials(sp, n)
        for _ in range(50):
            vals = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in ms]
            mv = MinorVector(field=QQ, m=(QQ.one, *vals, QQ.zero))
            at = {s: sp.Rational(v.numerator, v.denominator) for s, v in zip(ms, vals)}
            symbolic = [poly.xreplace(at) for poly in polys]
            expected = [Fraction(int(e.p), int(e.q)) for e in symbolic]
            assert expected == list(sm_condition_values(mv))
    # over Q the minor condition forces y = 0, so no scan counterexample lifts
    for n in range(3, 7):
        assert _uncertified(sp, n) == (), n
    # modulo p the certificate fails exactly where the scans find counterexamples
    failing = {}
    for n in range(3, 7):
        for p in (5, 7):
            bad_k = _uncertified(sp, n, modulus=p)
            assert bool(bad_k) == ((n, p) in COUNTEREXAMPLE_CELLS), (n, p, bad_k)
            if bad_k:
                failing[(n, p)] = bad_k
    _report(
        7,
        True,
        f"SM forces y=0 over Q for n=3..6; modular certificate fails only at {failing} (bad prime 7)",
    )


def test_criterion_08_observation_machinery():
    # (a) geometric instances: d = 0 with a verified constant kernel vector
    for lam in GEOMETRIC_RATIOS:
        for n in range(2, 7):
            bp = BlockPencil.from_pencil(geometric_pencil(lam, n))
            res = analyze(bp)
            assert res.minimal_index_d == 0
            f = res.kernel_poly
            assert all(fi.is_zero or fi.degree == 0 for fi in f)
            assert not any(pencil_residual(bp.M0, bp.M1, f))
    # (b) the synthetic shift pencil: d = 2, f = (x^2, -x, 1) up to scalar
    M0 = Mat(QQ, [[Fraction(e) for e in r] for r in [[1, 0, 0], [0, 1, 0], [0, 0, 0]]])
    M1 = Mat(QQ, [[Fraction(e) for e in r] for r in [[0, 1, 0], [0, 0, 1], [0, 0, 0]]])
    bp = BlockPencil(M0, M1)
    assert rank(build_C(bp, 0)) == 3
    assert rank(build_C(bp, 1)) == 6
    res = analyze(bp)
    assert res.minimal_index_d == 2
    f = res.kernel_poly
    scale = f[2].coeff(0)
    assert scale != 0
    assert f[0].coeffs == (Fraction(0), Fraction(0), scale)
    assert f[1].coeffs == (Fraction(0), -scale)
    assert f[2].coeffs == (scale,)
    # (c) the exact identity holds on every returned kernel vector
    rng = random.Random(208)
    gf = GF(5)
    verified = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        A = Mat(gf, [[gf.of(rng.choice([0, 0, 1, 2, 3])) for _ in range(n)] for _ in range(n)])
        B = Mat(gf, [[gf.of(rng.choice([0, 0, 0, 1, 4])) for _ in range(n)] for _ in range(n)])
        g = analyze(BlockPencil(A, B)).kernel_poly
        if g is not None:
            assert not any(pencil_residual(A, B, g))
            verified += 1
    assert verified > 10
    _report(8, True, f"d=0 geometric, d=2 shift example, identity on {verified} pencils")


def test_criterion_09_degree_and_homogeneity():
    rng = random.Random(209)
    for n in range(2, 13):
        for _ in range(8):
            p = random_rational_pencil(rng, n)
            d = pencil_det(p)
            assert len(d) <= n - 1  # deg <= n-2; () is the zero polynomial
            t = Fraction(rng.choice([2, 3, -2, 5]), rng.choice([1, 3]))
            ds = pencil_det(build_pencil([ci * t for ci in p.c]))
            assert ds == tuple(t ** (n - k) * a for k, a in enumerate(d))
    _report(9, True, "deg <= n-2 and t^(n-k) coefficient scaling, n=2..12")


def test_criterion_10_determinism():
    base = exhaustive_scan(HuntConfig(n=4, field=GF(7), mode="exhaustive", workers=1))
    base_doc = json.dumps(base.to_dict(), sort_keys=True)
    for w in (2, 4):
        rep = exhaustive_scan(HuntConfig(n=4, field=GF(7), mode="exhaustive", workers=w))
        assert json.dumps(rep.to_dict(), sort_keys=True) == base_doc
    cfg = HuntConfig(n=5, field=QQ, mode="random", trials=100, seed=1)
    a = json.dumps(random_scan(cfg).to_dict(), sort_keys=True)
    b = json.dumps(random_scan(cfg).to_dict(), sort_keys=True)
    assert a == b
    _report(10, True, "sharded hunts (1,2,4 workers) and seeded scans byte-identical")
