"""The two singularity tests and the aggregated verdict.

Power condition (on the blocks of M0, M1): w Q^{-1} v = c_{n+1} together
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
reads its stream only up to the first violated condition. SM runs on the
minor map's ints B, m_r = B_r / a_0^r, dividing value k by a_0^(n+k+1);
the public sm_condition_values(mv) divides by D^(k+2).

Each route has an int core on c lifted to plain ints: ``pencil._singular``,
``_s_ints`` and ``_minor_ints`` + ``_sm_witness``. Each takes the modulus p
(the field's characteristic, 0 over QQ; no default), runs on residues over
GF(p) (the det route only for p >= n-2, see ``pencil.is_singular``) and
tests its ints, y's too, with ``pencil._first_violation``. ``_verdicts``
runs the three on one lift; the public checks call their own core, and
witnesses become field values only in the reports.
Both tests must agree with the direct zero-polynomial test on det T(x); a
disagreement is an implementation bug and raises ConsistencyAlarm.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .minors import MinorVector, _minor_ints
from .pencil import PencilInstance, _first_violation, _geometric, _singular


class ConsistencyAlarm(RuntimeError):
    """A broken internal contract, a bug and never math: the determinant test
    and the two criteria disagreed, a kernel vector failed its checks, or
    the hunt's walk reached a tuple it must skip."""


@dataclass(frozen=True)
class CriterionReport:
    singular_det: bool
    s_holds: bool
    sm_holds: bool
    s_witness: Optional[Tuple[int, object]]  # first violated condition; k=0 is the star condition
    sm_witness: Optional[Tuple[int, object]]  # k=-1 denotes the m_n condition
    y_is_zero: bool
    geometric: Optional[object]  # common ratio, when the sequence is geometric


def _s_ints(c: Sequence[int], p: int) -> Iterator[int]:
    """The S route's int core: lazily, the numerators of the S values for c
    lifted to L*c (see ``_s_value`` for their denominators), for k = 0..n-2,
    or for a prime p > 0 those numerators mod p, every step reduced.

    Q, v and w scale by L and B does not, so star = star_L / L and
    value_k = value_k,L * L^(k-1). Q is lower-triangular Toeplitz with
    diagonal c1, and Q^{-1} is applied by forward substitution on numerators:
    entry i of the running vector after k shifts by B has denominator
    c1^(2k+1+i). Every denominator is a unit, so a value is zero in the
    field exactly when its numerator is, also mod p.
    """
    n = len(c) - 1
    size, c1 = n - 1, c[0]
    pw = [pow(c1, i, p or None) for i in range(size + 1)]
    # Q's subdiagonals c_{k+1} times c1^(k-1), for k = 1..size-1
    sub = [c[k] * pw[k - 1] for k in range(1, size)]

    def solve(b):
        """Numerators of Q^{-1} b: entry i over c1^(f+1+i) when b's is over c1^(f+i).
        Entry i takes subdiagonal k times entry i-k, so sub meets s reversed."""
        s = []
        for bi in b:
            si = bi - sum(map(mul, sub, reversed(s)))
            s.append(si % p if p else si)
        return s

    v = c[1:n]
    w = [wi * pw[size - 1 - i] for i, wi in enumerate(reversed(v))]  # w.u is over c1^(2k+size)
    u = solve([vi * pw[i] for i, vi in enumerate(v)])
    star = c[n] * pw[size] - sum(map(mul, w, u))
    yield star % p if p else star
    for k in range(1, size):
        u = solve(u[1:] + [0])  # B shifts up by one
        value = sum(map(mul, w, u))
        yield value % p if p else value


def _s_value(k: int, num: int, c: Sequence[int], L: int, fld):
    """S value k from its numerator: star_L / (c1^(n-1) L) for k = 0, else
    value_k,L * L^(k-1) / c1^(2k+n-1)."""
    size = len(c) - 2
    if k == 0:
        return fld.frac(num, c[0] ** size * L)
    return fld.frac(num * L ** (k - 1), c[0] ** (2 * k + size))


def s_condition_values(p: PencilInstance) -> Iterator:
    """Lazily: star = c_{n+1} - w Q^{-1} v, then w Q^{-1} (B Q^{-1})^k v
    for k = 1..n-2.

    Runs on plain ints, ``_s_ints`` of c lifted to L*c (L = 1 over GF(p));
    over GF(p) on residues, where c1 is a unit.
    """
    c, L = p.field.lift(p.c)
    for k, num in enumerate(_s_ints(c, p.field.characteristic)):
        yield _s_value(k, num, c, L, p.field)


def check_S(p: PencilInstance) -> Tuple[bool, Optional[Tuple[int, object]]]:
    """Power condition, truncated at k = n-2; witness is the first violation."""
    c, L = p.field.lift(p.c)
    witness = _first_violation(_s_ints(c, p.field.characteristic), p.field.characteristic)
    return witness is None, witness and (witness[0], _s_value(*witness, c, L, p.field))


def _sm_values(N: Sequence[int], p: int) -> Iterator[int]:
    """V_k(N) = (t_y P) X^k y for k = 0..n-3, on the plain ints
    N = (N_0, ..., N_n) standing for the minors m_0..m_n up to a scaling, or
    mod p for a prime p > 0; lazy, so a caller may stop at the first nonzero
    value."""
    size = len(N) - 3
    y = N[2 : size + 2]  # 0-based, unsigned: y[a] = m_{a+2}
    yP = y[::-1]  # t_y P is y reversed
    z = y
    for k in range(size):
        if k == 1:  # V_0 needs no X; X[a][b] = m_{a+1-b} for b <= a+1
            X = [N[a + 1 :: -1][:size] for a in range(size)]
        if k:
            z = [sum(map(mul, row, z)) for row in X]
            if p:
                z = [e % p for e in z]
        v = sum(map(mul, yP, z))
        # the signs (-1)^(a+b+1) of X and (-1)^(a+1) of y leave (-1)^(k+size+1)
        v = v if (k + size) % 2 else -v
        yield v % p if p else v


def sm_condition_values(mv: MinorVector) -> Iterator:
    """Lazily: (t_y P) X^k y for k = 0..n-3 (empty for n = 2).

    Runs on plain ints: N = D*m over one common denominator D (D = 1 over
    GF(p)). X and y are linear in the minors, so the k-th value is
    homogeneous of degree k+2 in them and equals V_k(N) / D^(k+2).
    """
    N, D = mv.field.lift(mv.m)
    for k, v in enumerate(_sm_values(N, mv.field.characteristic)):
        yield mv.field.frac(v, D ** (k + 2))


def _sm_witness(B: Sequence[int], p: int) -> Optional[Tuple[int, int]]:
    """The SM route's int core on the minor map's ints B (m_r = B_r / a_0^r):
    (k, V_k(B)) of the first violated condition, with k = -1 and V_{-1} = B_n
    for m_n, or None. X[a][b] weighs a+1-b and y_a weighs a+2, so V_k weighs
    n+k+1 (m_n weighs n, as k = -1 gives): V_k(m) = V_k(B) / a_0^(n+k+1).
    a_0 is a unit, so the ints are tested in the field of characteristic p
    (mod p for p > 0)."""
    n = len(B) - 1
    if _first_violation([B[n]], p):
        return -1, B[n]
    return _first_violation(_sm_values(B, p), p)  # drawn only when m_n = 0


def _sm_value(k: int, v: int, c: Sequence[int], fld):
    """SM value k from its int V_k(B): V_k(B) / a_0^(n+k+1), with a_0 = c1."""
    return fld.frac(v, c[0] ** (len(c) + k))


def check_SM(p: PencilInstance) -> Tuple[bool, Optional[Tuple[int, object]], bool]:
    """Minor condition, truncated at k = n-3 (for n = 2 just m_2 = 0), and
    whether y = (m_2, ..., m_{n-1}) is zero."""
    c, _ = p.field.lift(p.c)
    B = _minor_ints(c, p.field.characteristic)
    witness = _sm_witness(B, p.field.characteristic)
    w = witness and (witness[0], _sm_value(*witness, c, p.field))
    return witness is None, w, _first_violation(B[2:-1], p.field.characteristic) is None


def _verdicts(
    c: Sequence[int], L: int, fld
) -> Tuple[bool, Optional[Tuple[int, int]], Optional[Tuple[int, int]], List[int]]:
    """The three verdict routes on c lifted to L*c (L = 1 over GF(p)), each
    on its own algebra: (singular, S witness, SM witness, B), with the
    witnesses as the int pairs of ``_s_ints`` and ``_sm_witness`` and B the
    minor map's ints. Raises ConsistencyAlarm when the routes disagree."""
    p = fld.characteristic
    singular = _singular(c, p)
    s_witness = _first_violation(_s_ints(c, p), p)
    B = _minor_ints(c, p)
    sm_witness = _sm_witness(B, p)
    s_holds, sm_holds = s_witness is None, sm_witness is None
    if not (singular == s_holds == sm_holds):
        shown = ",".join(str(fld.frac(ci, L)) for ci in c)  # as --c takes it
        raise ConsistencyAlarm(
            f"criteria disagree on c={shown}: det={singular} S={s_holds} SM={sm_holds}"
        )
    return singular, s_witness, sm_witness, B


def evaluate_instance(p: PencilInstance) -> CriterionReport:
    fld = p.field
    c, L = fld.lift(p.c)
    singular, s_witness, sm_witness, B = _verdicts(c, L, fld)
    return CriterionReport(
        singular_det=singular,
        s_holds=s_witness is None,
        sm_holds=sm_witness is None,
        s_witness=s_witness and (s_witness[0], _s_value(*s_witness, c, L, fld)),
        sm_witness=sm_witness and (sm_witness[0], _sm_value(*sm_witness, c, fld)),
        y_is_zero=_first_violation(B[2:-1], fld.characteristic) is None,
        geometric=_geometric(c, fld),
    )
