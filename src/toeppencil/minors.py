"""Principal minors of M0 and the closed forms built from them.

m_r is the determinant of the leading r x r block of M0 normalized to
c1 = 1, with m_0 = 1; the public entry points take unnormalized instances.
M0 is lower Hessenberg with unit superdiagonal, so expanding along the last
row gives sum_{k=0..r} (-1)^k c_{k+1} m_{r-k} = 0 for r >= 1: A(t) =
sum_k (-1)^k c_{k+1} t^k and M(t) = sum_r m_r t^r are reciprocal power
series, and both directions of the map run one integer ``_reciprocal``.
With t -> -t: Q^{-1} is lower-triangular Toeplitz with column 0 the signed
minors (-1)^r m_r, Q^{-1} v is minus entries 1..n-1 of it, X is Q^{-1}
without its first row and last column, y is Q^{-1} v without its first
entry, and det X = (-1)^n c_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Sequence, Tuple

from .linalg import Mat
from .pencil import PencilInstance


class DimensionError(ValueError):
    """Raised for minor-formula sizes that do not exist (e.g. det X at n < 3)."""


@dataclass(frozen=True)
class MinorVector:
    field: object
    m: Tuple  # m[0] = m_0 = 1, ..., m[n] = m_n

    @property
    def n(self) -> int:
        return len(self.m) - 1


@dataclass(frozen=True)
class SMObjects:
    X: Mat
    y: Tuple
    P: Mat  # anti-diagonal exchange matrix, same size as X


def _reciprocal(a: Sequence[int], count: int) -> List[int]:
    """B_0..B_{count-1} on plain ints, with B_r / a_0^(r+1) = [t^r] 1/A(t) for
    A(t) = sum_k a_k t^k: B_0 = 1 and B_r = -sum_{k=1..r} a_k a_0^(k-1) B_{r-k}."""
    w = [a[k] * a[0] ** (k - 1) for k in range(1, count)]
    B = [1]
    for _ in range(1, count):
        B.append(-sum(map(mul, w, reversed(B))))
    return B


def principal_minors(p: PencilInstance) -> MinorVector:
    """m_r = B_r / a_0^r for the reciprocal of the lifted, alternating c;
    B_r is homogeneous of degree r, so neither the lift nor c1 needs dividing out."""
    c, _ = p.field.lift(p.c)
    a = [ci if k % 2 == 0 else -ci for k, ci in enumerate(c)]
    frac, B = p.field.frac, _reciprocal(a, p.n + 1)
    return MinorVector(field=p.field, m=tuple(frac(b, a[0] ** r) for r, b in enumerate(B)))


def _alternating_minors(mv: MinorVector) -> List:
    """(-1)^r m_r for r = 0..n: column 0 of the closed-form Q^{-1}."""
    return [m if r % 2 == 0 else -m for r, m in enumerate(mv.m)]


def q_inverse_closed_form(mv: MinorVector) -> Mat:
    """Closed-form inverse of Q: lower-triangular Toeplitz in the signed minors."""
    s, z, size = _alternating_minors(mv), mv.field.zero, mv.n - 1
    return Mat(mv.field, [[s[i - j] if j <= i else z for j in range(size)] for i in range(size)])


def q_inv_v_closed_form(mv: MinorVector) -> Tuple:
    """Q^{-1} v = (m_1, -m_2, m_3, ..., (-1)^(n-2) m_{n-1})."""
    return tuple(-s for s in _alternating_minors(mv)[1 : mv.n])


def build_sm_objects(mv: MinorVector) -> SMObjects:
    size = mv.n - 2
    X = q_inverse_closed_form(mv).drop_row_col(0, size)
    y = q_inv_v_closed_form(mv)[1:]
    z, o = mv.field.zero, mv.field.one
    P = Mat(
        mv.field,
        [[o if i + j == size - 1 else z for j in range(size)] for i in range(size)],
    )
    return SMObjects(X=X, y=y, P=P)


def det_X(mv: MinorVector):
    """det X; equals (-1)^n c_{n-1} of the normalized instance, nonzero."""
    if mv.n < 3:
        raise DimensionError("det X needs n >= 3")
    return build_sm_objects(mv).X.det()


def recover_c_from_minors(ms: Sequence, field) -> List:
    """(c_2, ..., c_{n+1}) from (m_1, ..., m_n) with the c1 = 1 convention,
    zeros permitted. A(t) = 1/M(t): on N = D*(1, m_1, ..., m_n),
    c_{k+1} = (-1)^k B_k / D^k."""
    N, D = field.lift([field.one, *ms])
    B = _reciprocal(N, len(N))
    return [field.frac(-B[k] if k % 2 else B[k], D**k) for k in range(1, len(N))]
