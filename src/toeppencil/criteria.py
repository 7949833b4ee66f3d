"""The two singularity tests and the aggregated verdict.

Power condition (on the partition blocks): w Q^{-1} v = c_{n+1} together
with w Q^{-1} (B Q^{-1})^k v = 0 for all k >= 1. Minor condition (on the
principal minors only): m_n = 0 together with (t_y P) X^k y = 0 for all
k >= 0. The infinite quantifiers are truncated at k <= n-1 and k <= n-3
respectively: powers of a matrix beyond its dimension are linear
combinations of lower powers (Cayley-Hamilton), and both conditions are
linear in the power, so the finite range is equivalent.

Both tests must agree with the direct zero-polynomial test on det T(x);
a disagreement is an implementation bug and raises ConsistencyAlarm.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Tuple

from .minors import MinorVector, principal_minors
from .pencil import PencilInstance, is_geometric, is_singular


class ConsistencyAlarm(RuntimeError):
    """The determinant test and the two criteria disagreed: a bug, never math."""


@dataclass(frozen=True)
class CriterionReport:
    n: int
    singular_det: bool
    s_holds: bool
    sm_holds: bool
    s_witness: Optional[Tuple[int, object]]  # first violated condition; k=0 is the star condition
    sm_witness: Optional[Tuple[int, object]]  # k=-1 denotes the m_n condition
    m_n: object  # n-th principal minor of the normalized instance
    y_is_zero: bool
    geometric: Optional[object]  # common ratio, when the sequence is geometric


def s_condition_values(p: PencilInstance, kmax: Optional[int] = None):
    """star = c_{n+1} - w Q^{-1} v, and the list of w Q^{-1} (B Q^{-1})^k v
    for k = 1..kmax (default kmax = n-1).

    Runs on plain ints. c is lifted to L*c (L = 1 over GF(p)); Q, v and w
    scale by L and B does not, so star = star_L / L and
    value_k = value_k,L * L^(k-1). Q is lower-triangular Toeplitz with
    diagonal c1, and Q^{-1} is applied by forward substitution on numerators:
    entry i of the running vector after k shifts by B has denominator
    c1^(2k+1+i). Over GF(p) the rational results are reduced at the end,
    where c1 is a unit.
    """
    if kmax is None:
        kmax = p.n - 1
    c, L = p.field.lift(p.c)
    fld, n, size = p.field, p.n, p.n - 1
    c1 = c[0]
    pw = [c1**i for i in range(size + 1)]
    # Q's subdiagonals c_{k+1} times c1^(k-1), for k = size-1 down to 1
    sub = [c[k] * pw[k - 1] for k in range(size - 1, 0, -1)]

    def solve(b):
        """Numerators of Q^{-1} b: entry i over c1^(f+1+i) when b's is over c1^(f+i)."""
        s = []
        for i, bi in enumerate(b):
            s.append(bi - sum(map(mul, sub[size - 1 - i :], s)))
        return s

    v = c[1:n]
    w = [wi * pw[size - 1 - i] for i, wi in enumerate(reversed(v))]  # w.u is over c1^(2k+size)
    u = solve([vi * pw[i] for i, vi in enumerate(v)])
    star = fld.frac(c[n] * pw[size] - sum(map(mul, w, u)), pw[size] * L)
    values = []
    for k in range(1, kmax + 1):
        u = solve(u[1:] + [0])  # B shifts up by one
        values.append(fld.frac(sum(map(mul, w, u)) * L ** (k - 1), c1 ** (2 * k + size)))
    return star, values


def check_S(p: PencilInstance) -> Tuple[bool, Optional[Tuple[int, object]]]:
    """Power condition, truncated at k = n-1; witness is the first violation."""
    star, values = s_condition_values(p)
    zero = p.field.zero
    if star != zero:
        return False, (0, star)
    for k, val in enumerate(values, start=1):
        if val != zero:
            return False, (k, val)
    return True, None


def sm_condition_values(mv: MinorVector, kmax: Optional[int] = None) -> List:
    """(t_y P) X^k y for k = 0..kmax (default kmax = n-3; empty for n = 2).

    Runs on plain ints: N = D*m over one common denominator D (D = 1 over
    GF(p)). X and y are linear in the minors, so the k-th value is
    homogeneous of degree k+2 in them and equals V_k(N) / D^(k+2).
    """
    if kmax is None:
        kmax = mv.n - 3
    N, D = mv.field.lift(mv.m)
    fld, size = mv.field, mv.n - 2
    # 0-based: X[a][b] = (-1)^(a+b+1) m_{a+1-b} for b <= a+1, y[a] = (-1)^(a+1) m_{a+2}
    X = [
        [N[a + 1 - b] if (a + b) % 2 else -N[a + 1 - b] for b in range(min(a + 2, size))]
        for a in range(size)
    ]
    y = [N[a + 2] if a % 2 else -N[a + 2] for a in range(size)]
    yP = y[::-1]  # t_y P is y reversed
    z = y
    values = []
    for k in range(kmax + 1):
        if k:
            z = [sum(map(mul, row, z)) for row in X]
        values.append(fld.frac(sum(map(mul, yP, z)), D ** (k + 2)))
    return values


def check_SM(p: PencilInstance) -> Tuple[bool, Optional[Tuple[int, object]], MinorVector]:
    """Minor condition, truncated at k = n-3; for n = 2 it is just m_2 = 0."""
    mv = principal_minors(p)
    zero = p.field.zero
    if mv.m[mv.n] != zero:
        return False, (-1, mv.m[mv.n]), mv
    for k, val in enumerate(sm_condition_values(mv)):
        if val != zero:
            return False, (k, val), mv
    return True, None, mv


def evaluate_instance(p: PencilInstance) -> CriterionReport:
    singular = is_singular(p)
    s_holds, s_witness = check_S(p)
    sm_holds, sm_witness, mv = check_SM(p)
    y_is_zero = all(mv.m[r] == p.field.zero for r in range(2, mv.n))
    report = CriterionReport(
        n=p.n,
        singular_det=singular,
        s_holds=s_holds,
        sm_holds=sm_holds,
        s_witness=s_witness,
        sm_witness=sm_witness,
        m_n=mv.m[mv.n],
        y_is_zero=y_is_zero,
        geometric=is_geometric(p),
    )
    if not (singular == s_holds == sm_holds):
        raise ConsistencyAlarm(
            f"criteria disagree on c={p.c}: det={singular} S={s_holds} SM={sm_holds}"
        )
    return report
