import random
from fractions import Fraction
from itertools import product

import pytest

from toeppencil.field import GF, QQ, FieldMismatchError
from toeppencil.linalg import Mat
from toeppencil.pencil import (
    PencilError,
    build_M0,
    build_M1,
    build_pencil,
    is_geometric,
    is_singular,
    normalize_c1,
    partition,
)

from conftest import geometric_pencil, random_rational_pencil
from oracles import pencil_det, poly_eval


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
    assert M1 == Mat.zeros(QQ, 2, 2)


def test_m1_second_superdiagonal_n4():
    M1 = build_M1(qp(1, 1, 1, 1, 1))
    for i in range(4):
        for j in range(4):
            expected = 1 if j == i + 2 else 0
            assert M1[i, j] == expected


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
    # every tail over GF(2) and GF(3), c1 = 1; for p <= n-2 the points
    # x0 = 0..n-2 repeat mod p, so the zero test must interpolate
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
