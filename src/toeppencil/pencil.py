"""Construction and basic queries for the banded lower-triangular Toeplitz
pencil T(x) = M0 + x*M1 defined by nonzero coefficients c1..c_{n+1}.

M0 carries c2 on the main diagonal, c1 on the first superdiagonal and the
longer c-tail below; M1 has ones on the second superdiagonal only (and is
the 2x2 zero matrix for n=2). The partition splits M0 into the invertible
lower-triangular Toeplitz block Q, the column v = (c2..cn), the row
w = reversed v, and the shift block B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .field import QQ
from .linalg import Mat, pencil_matrix


class PencilError(ValueError):
    """Invalid pencil coefficients (zero entry or too few)."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class PencilInstance:
    field: object
    c: Tuple  # c[0] = c1, ..., c[n] = c_{n+1}

    @property
    def n(self) -> int:
        return len(self.c) - 1

    def coeff(self, k: int):
        """c_k, 1-based as in the defining display."""
        return self.c[k - 1]


@dataclass(frozen=True)
class PencilPartition:
    Q: Mat
    v: Tuple
    w: Tuple
    B: Mat


def build_pencil(c: Sequence, field=None) -> PencilInstance:
    if field is None:
        field = QQ
    c = tuple(field.of(ci) if isinstance(ci, int) else ci for ci in c)
    if len(c) < 3:
        raise PencilError(f"need at least 3 coefficients, got {len(c)}")
    zero = field.zero
    for i, ci in enumerate(c):
        if ci == zero:
            raise PencilError(f"coefficient c{i + 1} is zero", index=i + 1)
    return PencilInstance(field, c)


def build_M0(p: PencilInstance) -> Mat:
    n = p.n
    z = p.field.zero
    # entry (i, j), 1-based: c_{i-j+2} when j <= i+1, else 0
    return Mat(
        p.field,
        [
            [p.coeff(i - j + 2) if j <= i + 1 else z for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ],
    )


def build_M1(p: PencilInstance) -> Mat:
    n = p.n
    z, o = p.field.zero, p.field.one
    return Mat(
        p.field,
        [[o if j == i + 2 else z for j in range(1, n + 1)] for i in range(1, n + 1)],
    )


def build_T(p: PencilInstance) -> Mat:
    """T(x) = M0 + x*M1 as a matrix over F[x]."""
    return pencil_matrix(build_M0(p), build_M1(p))


def partition(p: PencilInstance) -> PencilPartition:
    """The blocks read off M0 = [[v, Q], [c_{n+1}, w]] and M1 = [[0, B], [0, 0]]."""
    n = p.n
    M0 = build_M0(p)
    return PencilPartition(
        Q=M0.drop_row_col(n - 1, 0),
        v=tuple(row[0] for row in M0.data[: n - 1]),
        w=M0.data[n - 1][1:],
        B=build_M1(p).drop_row_col(n - 1, 0),
    )


def is_singular(p: PencilInstance) -> bool:
    """True iff det T(x) is the zero polynomial (every coefficient zero)."""
    return build_T(p).det().is_zero


def is_geometric(p: PencilInstance) -> Optional[object]:
    """The common ratio if c_{k+1} = ratio * c_k for all k, else None."""
    lam = p.coeff(2) / p.coeff(1)
    for k in range(1, p.n + 1):
        if p.coeff(k + 1) != lam * p.coeff(k):
            return None
    return lam


def normalize_c1(p: PencilInstance) -> PencilInstance:
    """Divide every coefficient by c1; singularity is preserved (each
    determinant coefficient is homogeneous in the c's)."""
    inv = p.field.inv(p.coeff(1))
    return PencilInstance(p.field, tuple(ci * inv for ci in p.c))
