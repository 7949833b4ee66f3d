import random
from fractions import Fraction

import pytest

from toeppencil.field import GF, QQ
from toeppencil.linalg import Mat, Poly, PolyRing, ShapeError, SingularMatrixError
from oracles import det_cofactor, det_cofactor_poly

from conftest import random_rational


def qmat(rows):
    return Mat(QQ, [[Fraction(e) for e in r] for r in rows])


def test_det_examples():
    assert qmat([[2, 1], [4, 2]]).det() == 0
    assert qmat([[1, 1, 0], [1, 1, 1], [2, 1, 1]]).det() == 1
    assert Mat.identity(QQ, 4).det() == 1


def test_det_cofactor_oracle_confirms_example():
    assert det_cofactor(qmat([[1, 1, 0], [1, 1, 1], [2, 1, 1]])) == 1


def test_det_non_square_raises():
    with pytest.raises(ShapeError):
        qmat([[1, 2, 3], [4, 5, 6]]).det()


def test_det_matches_cofactor_randomized():
    rng = random.Random(7)
    for size in range(1, 6):
        for _ in range(30):
            M = Mat(QQ, [[random_rational(rng) for _ in range(size)] for _ in range(size)])
            assert M.det() == det_cofactor(M)


def test_det_matches_cofactor_over_gf():
    rng = random.Random(11)
    gf = GF(5)
    for size in range(1, 6):
        for _ in range(20):
            M = Mat(gf, [[gf.of(rng.randrange(5)) for _ in range(size)] for _ in range(size)])
            assert M.det() == det_cofactor(M)


def test_rank_examples():
    assert Mat.zeros(QQ, 3, 2).rank() == 0
    assert qmat([[2, 1], [4, 2]]).rank() == 1
    for n in (1, 3, 5):
        assert Mat.identity(QQ, n).rank() == n


def test_kernel_examples():
    basis = qmat([[2, 1], [4, 2]]).kernel_basis()
    assert len(basis) == 1
    (v,) = basis
    assert 2 * v[0] + 1 * v[1] == 0 and v != (0, 0)
    assert Mat.identity(QQ, 3).kernel_basis() == []
    assert len(Mat.zeros(QQ, 2, 3).kernel_basis()) == 3


def test_rank_nullity_randomized():
    rng = random.Random(3)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        M = Mat(QQ, [[random_rational(rng) for _ in range(c)] for _ in range(r)])
        assert M.rank() + len(M.kernel_basis()) == c
        for v in M.kernel_basis():
            from toeppencil.linalg import mat_vec

            assert all(e == 0 for e in mat_vec(M, v))


def test_inverse_examples():
    assert qmat([[1, 0], [2, 1]]).inv() == qmat([[1, 0], [-2, 1]])
    assert Mat.identity(QQ, 3).inv() == Mat.identity(QQ, 3)
    with pytest.raises(SingularMatrixError):
        qmat([[2, 1], [4, 2]]).inv()
    gf = GF(7)

    def gmat(rows):
        return Mat(gf, [[gf.of(e) for e in r] for r in rows])

    assert gmat([[1, 0], [2, 1]]).inv() == gmat([[1, 0], [5, 1]])
    assert gmat([[3, 1], [0, 2]]).inv() == gmat([[5, 1], [0, 4]])
    assert Mat.identity(gf, 3).inv() == Mat.identity(gf, 3)
    with pytest.raises(SingularMatrixError):
        gmat([[2, 1], [4, 2]]).inv()
    with pytest.raises(SingularMatrixError):
        gmat([[1, 2, 3], [0, 1, 4], [1, 3, 0]]).inv()  # row 3 = row 1 + row 2 mod 7


def test_inverse_two_sided_randomized():
    rng = random.Random(5)
    gf = GF(7)
    for field, entry in ((QQ, random_rational), (gf, lambda r: gf.of(r.randrange(7)))):
        done = 0
        while done < 25:
            size = rng.randint(1, 5)
            M = Mat(field, [[entry(rng) for _ in range(size)] for _ in range(size)])
            if M.det() == 0:
                with pytest.raises(SingularMatrixError):
                    M.inv()
                continue
            Minv = M.inv()
            I = Mat.identity(field, size)
            assert Minv * M == I and M * Minv == I
            done += 1


def test_poly_canonical_form():
    p = Poly(QQ, [Fraction(1), Fraction(0), Fraction(0)])
    assert p.coeffs == (Fraction(1),)
    z = Poly(QQ, [Fraction(0), Fraction(0)])
    assert z.is_zero and z.degree is None
    assert Poly(QQ, [Fraction(0), Fraction(2)]).degree == 1


def test_poly_arithmetic_and_eval():
    x = Poly.x(QQ)
    one = Poly.const(QQ, Fraction(1))
    p = (x + one) * (x - one)
    assert p == Poly(QQ, [Fraction(-1), Fraction(0), Fraction(1)])
    assert p(Fraction(3)) == 8


def test_poly_exact_division():
    x = Poly.x(QQ)
    one = Poly.const(QQ, Fraction(1))
    prod = (x + one) * (x + x + one)
    assert prod / (x + one) == x + x + one
    with pytest.raises(ValueError):
        (x * x + one) / (x + one)


def test_polymat_det_matches_cofactor():
    rng = random.Random(13)
    gf = GF(5)
    for field, entry in ((QQ, random_rational), (gf, lambda r: gf.of(r.randrange(5)))):
        for size in range(1, 5):
            for _ in range(15):
                grid = [
                    [
                        Poly(field, [entry(rng) for _ in range(rng.randint(1, 3))])
                        for _ in range(size)
                    ]
                    for _ in range(size)
                ]
                T = Mat(PolyRing(field), grid)
                assert T.det() == det_cofactor_poly(field, [list(r) for r in grid])


def test_polymat_det_evaluation_commutes():
    rng = random.Random(17)
    for _ in range(25):
        size = rng.randint(1, 4)
        grid = [
            [Poly(QQ, [random_rational(rng), random_rational(rng)]) for _ in range(size)]
            for _ in range(size)
        ]
        d = Mat(PolyRing(QQ), grid).det()
        for _ in range(3):
            x0 = random_rational(rng)
            assert d(x0) == Mat(QQ, [[e(x0) for e in row] for row in grid]).det()
