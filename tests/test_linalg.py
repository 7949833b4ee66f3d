import random
from fractions import Fraction

import pytest

from toeppencil.field import GF, QQ
from toeppencil.kronecker import _null_vector
from toeppencil.linalg import Mat, Poly, ShapeError
from toeppencil.pencil import build_M0, build_M1
from oracles import (
    SingularMatrixError,
    det,
    det_cofactor,
    det_laplace,
    identity,
    inv,
    kernel_basis,
    mat_vec,
    matmul,
    pencil_det,
    poly_eval,
    rank,
    rank_by_minors,
    zeros,
)

from conftest import random_gf_pencil, random_rational, random_rational_pencil


def qmat(rows):
    return Mat(QQ, [[Fraction(e) for e in r] for r in rows])


def test_det_examples():
    assert det(qmat([[2, 1], [4, 2]])) == 0
    assert det(qmat([[1, 1, 0], [1, 1, 1], [2, 1, 1]])) == 1
    assert det(identity(QQ, 4)) == 1


def test_det_cofactor_oracle_confirms_example():
    assert det_cofactor(qmat([[1, 1, 0], [1, 1, 1], [2, 1, 1]])) == 1


def test_det_non_square_raises():
    with pytest.raises(ShapeError):
        det(qmat([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_cofactor_randomized():
    rng = random.Random(7)
    for size in range(1, 6):
        for _ in range(30):
            M = Mat(QQ, [[random_rational(rng) for _ in range(size)] for _ in range(size)])
            assert det(M) == det_cofactor(M)


def test_det_matches_cofactor_over_gf():
    rng = random.Random(11)
    gf = GF(5)
    for size in range(1, 6):
        for _ in range(20):
            M = Mat(gf, [[gf.of(rng.randrange(5)) for _ in range(size)] for _ in range(size)])
            assert det(M) == det_cofactor(M)


def test_rank_examples():
    assert rank(zeros(QQ, 3, 2)) == 0
    assert rank(qmat([[2, 1], [4, 2]])) == 1
    for n in (1, 3, 5):
        assert rank(identity(QQ, n)) == n


def test_kernel_examples():
    basis = kernel_basis(qmat([[2, 1], [4, 2]]))
    assert len(basis) == 1
    (v,) = basis
    assert 2 * v[0] + 1 * v[1] == 0 and v != (0, 0)
    assert kernel_basis(identity(QQ, 3)) == []
    assert len(kernel_basis(zeros(QQ, 2, 3))) == 3


def test_rank_nullity_randomized():
    rng = random.Random(3)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        M = Mat(QQ, [[random_rational(rng) for _ in range(c)] for _ in range(r)])
        assert rank(M) + len(kernel_basis(M)) == c
        for v in kernel_basis(M):
            assert all(e == 0 for e in mat_vec(M, v))


def test_inverse_examples():
    assert inv(qmat([[1, 0], [2, 1]])) == qmat([[1, 0], [-2, 1]])
    assert inv(identity(QQ, 3)) == identity(QQ, 3)
    with pytest.raises(SingularMatrixError):
        inv(qmat([[2, 1], [4, 2]]))
    gf = GF(7)

    def gmat(rows):
        return Mat(gf, [[gf.of(e) for e in r] for r in rows])

    assert inv(gmat([[1, 0], [2, 1]])) == gmat([[1, 0], [5, 1]])
    assert inv(gmat([[3, 1], [0, 2]])) == gmat([[5, 1], [0, 4]])
    assert inv(identity(gf, 3)) == identity(gf, 3)
    with pytest.raises(SingularMatrixError):
        inv(gmat([[2, 1], [4, 2]]))
    with pytest.raises(SingularMatrixError):
        inv(gmat([[1, 2, 3], [0, 1, 4], [1, 3, 0]]))  # row 3 = row 1 + row 2 mod 7


def test_inverse_two_sided_randomized():
    rng = random.Random(5)
    gf = GF(7)
    for field, entry in ((QQ, random_rational), (gf, lambda r: gf.of(r.randrange(7)))):
        done = 0
        while done < 25:
            size = rng.randint(1, 5)
            M = Mat(field, [[entry(rng) for _ in range(size)] for _ in range(size)])
            if det(M) == 0:
                with pytest.raises(SingularMatrixError):
                    inv(M)
                continue
            Minv = inv(M)
            I = identity(field, size)
            assert matmul(Minv, M) == I and matmul(M, Minv) == I
            done += 1


def _random_matrix(rng, field, entry):
    """A random r x c product through a k-dimensional middle; half the time
    k < min(r, c), so the matrix is rank-deficient."""
    r, c = rng.randint(1, 5), rng.randint(1, 5)
    k = rng.randint(0, min(r, c) - 1) if rng.random() < 0.5 else min(r, c)
    left = [[entry(rng) for _ in range(k)] for _ in range(r)]
    right = [[entry(rng) for _ in range(c)] for _ in range(k)]
    return Mat(
        field,
        [[sum((left[i][t] * right[t][j] for t in range(k)), field.zero) for j in range(c)]
         for i in range(r)],
    )


def test_kernel_basis_is_unit_on_free_columns():
    # the vector of free column f is 1 at f and 0 at every other free column,
    # which fixes the basis uniquely; its last nonzero entry is at f
    rng = random.Random(19)
    fields = [(QQ, random_rational)]
    for p in (5, 7):
        gf = GF(p)
        fields.append((gf, lambda r, gf=gf, p=p: gf.of(r.randrange(p))))
    for field, entry in fields:
        for _ in range(80):
            M = _random_matrix(rng, field, entry)
            basis = kernel_basis(M)
            true_rank = rank_by_minors(M)
            assert rank(M) == true_rank and len(basis) == M.cols - true_rank
            free = [max(j for j, e in enumerate(v) if e != field.zero) for v in basis]
            assert free == sorted(set(free))
            for v, f in zip(basis, free):
                assert all(v[g] == (field.one if g == f else field.zero) for g in free)
                assert all(e == field.zero for e in mat_vec(M, v))


def test_pivot_is_chosen_by_field_zero_not_integer_zero():
    gf = GF(5)

    def gmat(rows):
        return Mat(gf, [[gf.of(e) for e in r] for r in rows])

    # after the first step the second column holds 5: zero mod 5, not as an int
    M = gmat([[2, 1, 0], [1, 3, 1]])
    assert rank(M) == 2
    (v,) = kernel_basis(M)
    assert v == (gf.of(2), gf.one, gf.zero) and mat_vec(M, v) == (gf.zero, gf.zero)
    # integer determinant -5
    S = gmat([[1, 2], [3, 1]])
    assert det(S) == gf.zero and rank(S) == 1
    with pytest.raises(SingularMatrixError):
        inv(S)


def _rows_free_at(rng, field, r, k, f):
    """r x k int rows lifted from ``field``: column f is a random combination
    of columns 0..f-1 (zero for f = 0, or when every weight is 0), so column f
    has no pivot unless the columns left of it are dependent already; half
    the time a column right of f is zero as well."""
    p = getattr(field, "p", None)

    def entry():
        return rng.randint(-3, 3) if p is None else rng.randrange(p)

    rows = [[entry() for _ in range(k)] for _ in range(r)]
    if f < k:
        w = [entry() for _ in range(f)]
        for row in rows:
            row[f] = sum(wj * x for wj, x in zip(w, row))
            if p is not None:
                row[f] %= p
    if f + 1 < k and rng.random() < 0.5:
        j = rng.randrange(f + 1, k)
        for row in rows:
            row[j] = 0
    return rows


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
def test_null_vector_is_the_first_kernel_basis_vector(field):
    # tall, square and wide shapes, with the first free column at every
    # position up to the rank bound, and None (full column rank) on tall ones
    rng = random.Random(23)
    for r, k in [(1, 1), (1, 4), (3, 6), (4, 4), (5, 3), (9, 4), (12, 7)]:
        seen = set()
        for f in range(min(r, k) + 1):
            for _ in range(6):
                rows = _rows_free_at(rng, field, r, k, f)
                M = Mat(field, [[field.of(x) for x in row] for row in rows])
                basis = kernel_basis(M)
                found = _null_vector([list(row) for row in rows], field.characteristic)
                assert (found is None) == (not basis) == (rank(M) == k)
                if found is None:
                    seen.add(k)
                    continue
                # ints, D times the first basis vector: D at its free column f, 0 right of f
                y, D = found
                assert all(type(v) is int for v in (*y, D)) and field.of(D)
                if field != QQ:
                    assert all(0 <= v < field.characteristic for v in (*y, D))
                assert y == [D * e for e in basis[0]]
                seen.add(max(j for j, v in enumerate(y) if field.of(v)))
        assert seen == set(range(min(r, k) + 1)), (r, k)


def test_poly_canonical_form():
    p = Poly(QQ, [Fraction(1), Fraction(0), Fraction(0)])
    assert p.coeffs == (Fraction(1),)
    z = Poly(QQ, [Fraction(0), Fraction(0)])
    assert z.is_zero and z.degree is None
    assert Poly(QQ, [Fraction(0), Fraction(2)]).degree == 1


def test_poly_repr_and_hash_follow_the_canonical_form():
    gf7 = GF(7)
    assert repr(Poly(QQ, [Fraction(1), Fraction(0), Fraction(-2, 3)])) == "Poly[1*x^0 + -2/3*x^2]"
    assert repr(Poly(gf7, [gf7.zero, gf7.of(3), gf7.zero])) == "Poly[3*x^1]"
    assert repr(Poly(QQ, [Fraction(0)])) == "Poly[0]"
    padded = Poly(QQ, [Fraction(1), Fraction(2), Fraction(0)])
    assert padded == Poly(QQ, [Fraction(1), Fraction(2)])
    assert hash(padded) == hash(Poly(QQ, [Fraction(1), Fraction(2)]))
    assert len({padded, Poly(QQ, [Fraction(1), Fraction(2)]), Poly(QQ, [])}) == 2


def test_mat_refuses_ragged_rows():
    with pytest.raises(ShapeError, match="^ragged rows$"):
        Mat(QQ, [[Fraction(1), Fraction(2)], [Fraction(3)]])


def test_polymat_det_matches_cofactor():
    # det_laplace on grids of polynomials, evaluated at random points, equals
    # the Gauss-Jordan det and the cofactor expansion of the evaluated grid
    rng = random.Random(13)
    gf = GF(5)
    for field, entry in ((QQ, random_rational), (gf, lambda r: gf.of(r.randrange(5)))):
        for size in range(1, 5):
            for _ in range(15):
                grid = [
                    [[entry(rng) for _ in range(rng.randint(1, 3))] for _ in range(size)]
                    for _ in range(size)
                ]
                d = det_laplace(field, grid)
                for _ in range(3):
                    x0 = entry(rng)
                    at = Mat(field, [[poly_eval(e, x0, field) for e in row] for row in grid])
                    assert poly_eval(d, x0, field) == det(at) == det_cofactor(at)


def test_polymat_det_evaluation_commutes():
    # pencil_det evaluated at x0 equals the Gauss-Jordan det of
    # T(x0) = M0 + x0*M1, built entry by entry
    rng = random.Random(17)
    for n in range(2, 7):
        for p in (random_rational_pencil(rng, n), random_gf_pencil(rng, n, 5)):
            M0, M1, field = build_M0(p), build_M1(p), p.field
            d = pencil_det(p)
            for x0 in (field.of(rng.randint(-4, 4)) for _ in range(3)):
                at = Mat(field, [[M0[i, j] + x0 * M1[i, j] for j in range(n)] for i in range(n)])
                assert poly_eval(d, x0, field) == det(at)
