"""Principal minors of M0 and the closed forms built from them.

All formulas here assume the leading coefficient is normalized to 1; the
public entry points accept unnormalized instances and normalize internally.
m_r is the determinant of the leading r x r block of M0, with m_0 = 1.
The closed forms: the inverse of Q is again lower-triangular Toeplitz with
entries (-1)^(i+j) m_{i-j}; Q^{-1} v is the alternating minor vector; X is
Q^{-1} with its first row and last column deleted; y is the alternating
minor vector shifted by one; det X = (-1)^n c_{n-1}.

M0 is lower Hessenberg with unit superdiagonal, so expanding the r-th leading
block along its last row gives m_r = sum_{k=1..r} (-1)^(k-1) c_{k+1} m_{r-k}.
Both directions of the minors <-> coefficients map run this recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .linalg import Mat
from .pencil import PencilInstance, normalize_c1


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


def _recurrence_head(c: Sequence, m: Sequence, r: int, zero):
    """m_r minus its c_{r+1} term, sum_{k=1..r-1} (-1)^(k-1) c_{k+1} m_{r-k},
    from c = [c1 = 1, c2, ..., c_r] and m = [m_0, ..., m_{r-1}]."""
    s = zero
    for k in range(1, r):
        t = c[k] * m[r - k]
        s = s + t if k % 2 == 1 else s - t
    return s


def principal_minors(p: PencilInstance) -> MinorVector:
    c = normalize_c1(p).c
    ms = [p.field.one]
    for r in range(1, p.n + 1):
        t = c[r]  # c_{r+1}, with coefficient (-1)^(r-1) m_0
        ms.append(_recurrence_head(c, ms, r, p.field.zero) + (t if r % 2 == 1 else -t))
    return MinorVector(field=p.field, m=tuple(ms))


def _signed_minor(mv: MinorVector, i: int, j: int):
    """(-1)^(i+j) m_{i-j}, zero when i < j (1-based indices)."""
    if i < j:
        return mv.field.zero
    m = mv.m[i - j]
    return m if (i + j) % 2 == 0 else -m


def q_inverse_closed_form(mv: MinorVector) -> Mat:
    """Closed-form inverse of Q: lower-triangular Toeplitz in the minors."""
    n = mv.n
    return Mat(
        mv.field,
        [[_signed_minor(mv, i, j) for j in range(1, n)] for i in range(1, n)],
    )


def q_inv_v_closed_form(mv: MinorVector) -> Tuple:
    """Q^{-1} v = (m_1, -m_2, m_3, ..., (-1)^(n-2) m_{n-1})."""
    n = mv.n
    out = []
    for i in range(1, n):
        m = mv.m[i]
        out.append(m if i % 2 == 1 else -m)
    return tuple(out)


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
    """Solve the minor recurrence for c_{r+1}, whose coefficient is
    (-1)^(r-1) m_0 = (-1)^(r-1).

    Input is (m_1, ..., m_n) with the c1 = 1 convention; output is
    (c_2, ..., c_{n+1}), zeros permitted.
    """
    c = [field.one]
    m = [field.one, *ms]
    for r in range(1, len(m)):
        diff = m[r] - _recurrence_head(c, m, r, field.zero)
        c.append(diff if r % 2 == 1 else -diff)
    return c[1:]
