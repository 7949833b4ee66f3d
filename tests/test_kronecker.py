import random
from fractions import Fraction

import pytest

from toeppencil.criteria import ConsistencyAlarm
from toeppencil.field import GF, QQ
from toeppencil.kronecker import BlockPencil, analyze, build_C
from toeppencil.linalg import Mat
from toeppencil.pencil import build_pencil, is_singular

from conftest import geometric_pencil, random_rational_pencil
from oracles import pencil_residual


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
    assert build_C(SHIFT_EXAMPLE, 0).rank() == 3
    assert build_C(SHIFT_EXAMPLE, 1).rank() == 6


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
            assert build_C(bp, d - 1).rank() == n * d
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


# the stacked all-ones vector is offered as the kernel at d = 0; with M0 = 0
# it fails only M1 f_0 = 0 (the top coefficient), with M1 = 0 only M0 f_0 = 0
@pytest.mark.parametrize(
    "bp, entry",
    [
        (BlockPencil.from_pencil(qp(1, 2, 4, 8)), 1),
        (BlockPencil.from_pencil(qp(1, 2, 4, 8)), 0),
        (BlockPencil(Mat.zeros(QQ, 2, 2), Mat.identity(QQ, 2)), 1),
        (BlockPencil(Mat.identity(QQ, 2), Mat.zeros(QQ, 2, 2)), 1),
    ],
    ids=["fails-identity", "zero-vector", "fails-top-only", "fails-bottom-only"],
)
def test_kernel_poly_rejects_wrong_kernel_vector(monkeypatch, bp, entry):
    monkeypatch.setattr(Mat, "kernel_basis", lambda self: [(QQ.of(entry),) * self.cols])
    with pytest.raises(ConsistencyAlarm):
        analyze(bp)
