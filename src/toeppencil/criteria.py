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
from typing import List, Optional, Tuple

from .linalg import mat_vec, dot
from .minors import MinorVector, build_sm_objects, principal_minors
from .pencil import PencilInstance, is_geometric, is_singular, partition


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
    star_value: object  # c_{n+1} - w Q^{-1} v
    m_n: object  # n-th principal minor of the normalized instance
    y_is_zero: bool
    geometric: Optional[object]  # common ratio, when the sequence is geometric


def s_condition_values(p: PencilInstance, kmax: Optional[int] = None):
    """star = c_{n+1} - w Q^{-1} v, and the list of w Q^{-1} (B Q^{-1})^k v
    for k = 1..kmax (default kmax = n-1)."""
    if kmax is None:
        kmax = p.n - 1
    part = partition(p)
    Qinv = part.Q.inv()
    s = mat_vec(Qinv, part.v)  # Q^{-1} (B Q^{-1})^{k-1} ... running vector
    star = p.coeff(p.n + 1) - dot(part.w, s, p.field)
    values = []
    for _ in range(kmax):
        s = mat_vec(Qinv, mat_vec(part.B, s))
        values.append(dot(part.w, s, p.field))
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
    """(t_y P) X^k y for k = 0..kmax (default kmax = n-3; empty for n = 2)."""
    if kmax is None:
        kmax = mv.n - 3
    sm = build_sm_objects(mv)
    yP = tuple(reversed(sm.y))  # t_y P is y reversed
    z = list(sm.y)
    values = []
    for _ in range(kmax + 1):
        values.append(dot(yP, z, mv.field))
        z = list(mat_vec(sm.X, z))
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
    # check_S stops at the first violation, and k = 0 is the star condition
    star = s_witness[1] if s_witness is not None and s_witness[0] == 0 else p.field.zero
    y_is_zero = all(mv.m[r] == p.field.zero for r in range(2, mv.n))
    report = CriterionReport(
        n=p.n,
        singular_det=singular,
        s_holds=s_holds,
        sm_holds=sm_holds,
        s_witness=s_witness,
        sm_witness=sm_witness,
        star_value=star,
        m_n=mv.m[mv.n],
        y_is_zero=y_is_zero,
        geometric=is_geometric(p),
    )
    if not (singular == s_holds == sm_holds):
        raise ConsistencyAlarm(
            f"criteria disagree on c={p.c}: det={singular} S={s_holds} SM={sm_holds}"
        )
    return report
