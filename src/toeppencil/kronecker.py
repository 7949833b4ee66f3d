"""Minimal kernel degree of a square pencil via the stacked block matrix.

For the pencil M0 + x*M1, the block matrix with M0 on the diagonal and M1 on
the first block subdiagonal (d+1 block columns, d+2 block rows) has linearly
dependent columns exactly when a nonzero vector polynomial f(x) of degree
<= d satisfies (M0 + x*M1) f(x) = 0. The smallest such d is the minimal
index; a singular n x n pencil always has one below n, so the search is
bounded. Inputs are general square pencils: the machinery does not need the
nonzero-coefficient hypothesis of the Toeplitz construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .criteria import ConsistencyAlarm
from .linalg import Mat, Poly, ShapeError, mat_vec
from .pencil import PencilInstance, build_M0, build_M1


@dataclass(frozen=True)
class BlockPencil:
    M0: Mat
    M1: Mat

    def __post_init__(self):
        if self.M0.rows != self.M0.cols or self.M1.rows != self.M1.cols:
            raise ShapeError("pencil matrices must be square")
        if self.M0.rows != self.M1.rows:
            raise ShapeError("pencil matrices must have equal size")

    @property
    def n(self) -> int:
        return self.M0.rows

    @classmethod
    def from_pencil(cls, p: PencilInstance) -> "BlockPencil":
        return cls(build_M0(p), build_M1(p))


@dataclass(frozen=True)
class KroneckerResult:
    minimal_index_d: Optional[int]
    kernel_poly: Optional[List[Poly]]  # f with (M0 + x*M1) f(x) = 0, deg f = d


def build_C(bp: BlockPencil, d: int) -> Mat:
    """The ((d+2)*n) x ((d+1)*n) stacked matrix; block column j holds the
    coefficient slot of x^j in a candidate kernel polynomial."""
    if d < 0:
        raise ValueError("block depth must be nonnegative")
    n = bp.n
    field = bp.M0.field
    z = field.zero
    rows = []
    for bi in range(d + 2):
        for i in range(n):
            row = []
            for bj in range(d + 1):
                if bi == bj:
                    row.extend(bp.M0.data[i])
                elif bi == bj + 1:
                    row.extend(bp.M1.data[i])
                else:
                    row.extend([z] * n)
            rows.append(row)
    return Mat(field, rows)


def analyze(bp: BlockPencil) -> KroneckerResult:
    """The minimal index d and a degree-d nonzero f(x) with
    (M0 + x*M1) f(x) = 0, or (None, None) for a regular pencil. The first d
    with a rank-deficient stacked matrix is minimal: the first n*d columns of
    C(d) are those of C(d-1) padded with zero rows, so they stay independent.
    Both the identity and the degree are re-verified exactly before returning."""
    n = bp.n
    field = bp.M0.field
    for d in range(n):
        basis = build_C(bp, d).kernel_basis()
        if basis:
            break
    else:
        return KroneckerResult(minimal_index_d=None, kernel_poly=None)
    vec = basis[0]
    fk = [vec[k * n : (k + 1) * n] for k in range(d + 1)]  # coefficient of x^k
    # the coefficient of x^k in (M0 + x*M1) f(x) is M0 f_k + M1 f_{k-1}
    # (f_{-1} = f_{d+1} = 0); checked apart from build_C, which found f
    zero = (field.zero,) * n
    for k in range(d + 2):
        low = mat_vec(bp.M0, fk[k]) if k <= d else zero
        high = mat_vec(bp.M1, fk[k - 1]) if k > 0 else zero
        if any(a + b != field.zero for a, b in zip(low, high)):
            raise ConsistencyAlarm("kernel vector fails the pencil identity")
    f = [Poly(field, [fk[k][i] for k in range(d + 1)]) for i in range(n)]
    degrees = [fi.degree for fi in f if not fi.is_zero]
    if not degrees or max(degrees) != d:
        raise ConsistencyAlarm("kernel vector degree disagrees with minimal index")
    return KroneckerResult(minimal_index_d=d, kernel_poly=f)
