"""The two singularity tests and the aggregated verdict.

Power condition (on the partition blocks): w Q^{-1} v = c_{n+1} together
with w Q^{-1} (B Q^{-1})^k v = 0 for all k >= 1. Minor condition (on the
principal minors only): m_n = 0 together with (t_y P) X^k y = 0 for all
k >= 0. The infinite quantifiers are truncated at k <= n-2 and k <= n-3
respectively: powers of a matrix beyond its dimension are linear
combinations of lower powers (Cayley-Hamilton), and both conditions are
linear in the power, so the finite range is equivalent. For S one more
power drops: B is the nilpotent shift, so det(B Q^{-1}) = 0, the
characteristic polynomial of the (n-1) x (n-1) matrix B Q^{-1} has no
constant term, and (B Q^{-1})^(n-1) is a combination of the powers
1..n-2 alone. The values come as bounded lazy streams, and each check
reads its stream only up to the first violated condition. check_SM runs
on the minor map's ints B, m_r = B_r / a_0^r, dividing value k by
a_0^(n+k+1); the public sm_condition_values(mv) divides by D^(k+2).

Both tests must agree with the direct zero-polynomial test on det T(x);
a disagreement is an implementation bug and raises ConsistencyAlarm.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .minors import MinorVector, _minor_ints
from .pencil import PencilInstance, is_geometric, is_singular


class ConsistencyAlarm(RuntimeError):
    """The determinant test and the two criteria disagreed: a bug, never math."""


@dataclass(frozen=True)
class CriterionReport:
    singular_det: bool
    s_holds: bool
    sm_holds: bool
    s_witness: Optional[Tuple[int, object]]  # first violated condition; k=0 is the star condition
    sm_witness: Optional[Tuple[int, object]]  # k=-1 denotes the m_n condition
    y_is_zero: bool
    geometric: Optional[object]  # common ratio, when the sequence is geometric


def s_condition_values(p: PencilInstance, kmax: Optional[int] = None) -> Iterator:
    """Lazily: star = c_{n+1} - w Q^{-1} v, then w Q^{-1} (B Q^{-1})^k v
    for k = 1..kmax (default kmax = n-2).

    Runs on plain ints. c is lifted to L*c (L = 1 over GF(p)); Q, v and w
    scale by L and B does not, so star = star_L / L and
    value_k = value_k,L * L^(k-1). Q is lower-triangular Toeplitz with
    diagonal c1, and Q^{-1} is applied by forward substitution on numerators:
    entry i of the running vector after k shifts by B has denominator
    c1^(2k+1+i). Over GF(p) the rational results are reduced at the end,
    where c1 is a unit.
    """
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
    yield fld.frac(c[n] * pw[size] - sum(map(mul, w, u)), pw[size] * L)
    for k in range(1, size if kmax is None else kmax + 1):
        u = solve(u[1:] + [0])  # B shifts up by one
        yield fld.frac(sum(map(mul, w, u)) * L ** (k - 1), c1 ** (2 * k + size))


def _first_violation(values: Iterable, start: int) -> Optional[Tuple[int, object]]:
    """(k, value) of the first nonzero value, counting from start; reads no further."""
    return next(((k, v) for k, v in enumerate(values, start) if v), None)


def check_S(p: PencilInstance) -> Tuple[bool, Optional[Tuple[int, object]]]:
    """Power condition, truncated at k = n-2; witness is the first violation."""
    witness = _first_violation(s_condition_values(p), 0)
    return witness is None, witness


def _sm_values(N: Sequence[int], kmax: int) -> Iterator[int]:
    """V_k(N) = (t_y P) X^k y for k = 0..kmax, on the plain ints N = (N_0, ..., N_n)
    standing for the minors m_0..m_n up to a scaling; lazy, so a caller may
    stop at the first nonzero value."""
    size = len(N) - 3
    y = N[2 : size + 2]  # 0-based, unsigned: y[a] = m_{a+2}
    yP = y[::-1]  # t_y P is y reversed
    z = y
    for k in range(kmax + 1):
        if k == 1:  # V_0 needs no X; X[a][b] = m_{a+1-b} for b <= a+1
            X = [N[a + 1 :: -1][:size] for a in range(size)]
        if k:
            z = [sum(map(mul, row, z)) for row in X]
        v = sum(map(mul, yP, z))
        # the signs (-1)^(a+b+1) of X and (-1)^(a+1) of y leave (-1)^(k+size+1)
        yield v if (k + size) % 2 else -v


def sm_condition_values(mv: MinorVector, kmax: Optional[int] = None) -> Iterator:
    """Lazily: (t_y P) X^k y for k = 0..kmax (default kmax = n-3; empty for n = 2).

    Runs on plain ints: N = D*m over one common denominator D (D = 1 over
    GF(p)). X and y are linear in the minors, so the k-th value is
    homogeneous of degree k+2 in them and equals V_k(N) / D^(k+2).
    """
    N, D = mv.field.lift(mv.m)
    for k, v in enumerate(_sm_values(N, mv.n - 3 if kmax is None else kmax)):
        yield mv.field.frac(v, D ** (k + 2))


def check_SM(p: PencilInstance) -> Tuple[bool, Optional[Tuple[int, object]], bool]:
    """Minor condition, truncated at k = n-3 (for n = 2 just m_2 = 0), and
    whether y = (m_2, ..., m_{n-1}) is zero. X[a][b] weighs a+1-b and y_a
    weighs a+2, so V_k weighs n+k+1: V_k(m) = V_k(B) / a_0^(n+k+1). a_0 is a
    unit, so the ints V_k(B) are tested in the field and only the witness is
    divided."""
    B, a0 = _minor_ints(p)
    n, fld = p.n, p.field
    m_n = fld.frac(B[n], a0**n)
    if m_n:
        witness = (-1, m_n)
    else:  # the k >= 0 stream is created only when m_n = 0
        witness = _first_violation(map(fld.of, _sm_values(B, n - 3)), 0)
        if witness:
            k, v = witness
            witness = (k, v / fld.of(a0 ** (n + k + 1)))
    return witness is None, witness, not any(map(fld.of, B[2:n]))


def evaluate_instance(p: PencilInstance) -> CriterionReport:
    singular = is_singular(p)
    s_holds, s_witness = check_S(p)
    sm_holds, sm_witness, y_is_zero = check_SM(p)
    report = CriterionReport(
        singular_det=singular,
        s_holds=s_holds,
        sm_holds=sm_holds,
        s_witness=s_witness,
        sm_witness=sm_witness,
        y_is_zero=y_is_zero,
        geometric=is_geometric(p),
    )
    if not (singular == s_holds == sm_holds):
        raise ConsistencyAlarm(
            f"criteria disagree on c={p.c}: det={singular} S={s_holds} SM={sm_holds}"
        )
    return report
