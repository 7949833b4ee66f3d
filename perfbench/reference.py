"""Answers the benchmark checks the library against, computed by its own code.

Nothing here imports toeppencil. Coefficients are Python ints or Fractions
(for GF(p), ints taken mod p), and every decision is an exact elimination:
integer Bareiss over Q, Gaussian elimination over GF(p) or GF(p^2).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence


def m0_rows(c: Sequence) -> List[List]:
    """M0 of the pencil: entry (i, j), 1-based, is c_{i-j+2} when j <= i+1."""
    n = len(c) - 1
    return [[c[i - j + 1] if j <= i + 1 else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]


def m1_rows(n: int) -> List[List[int]]:
    """M1 of the pencil: ones on the second superdiagonal."""
    return [[1 if j == i + 2 else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]


# --- exact zero tests ------------------------------------------------------


def _bareiss_det(rows: List[List[int]]) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    prev, sign = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def rational_det_is_zero(rows: Sequence[Sequence]) -> bool:
    """Scaling a row by a nonzero constant keeps det's zero-ness, so clear
    each row's denominators and run Bareiss on integers."""
    int_rows = []
    for r in rows:
        fr = [Fraction(e) for e in r]
        scale = lcm(*(e.denominator for e in fr)) if fr else 1
        int_rows.append([int(e * scale) for e in fr])
    return _bareiss_det(int_rows) == 0


def _nonresidue(p: int) -> int:
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)


class _GFp2:
    """GF(p^2) = GF(p)[t]/(t^2 - r) for a quadratic non-residue r; elements
    are pairs (a, b) meaning a + b*t."""

    def __init__(self, p: int):
        self.p = p
        self.r = _nonresidue(p) if p > 2 else 1

    def mul(self, x, y):
        p, r = self.p, self.r
        return ((x[0] * y[0] + r * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def inv(self, x):
        p = self.p
        norm = (x[0] * x[0] - self.r * x[1] * x[1]) % p
        ninv = pow(norm, p - 2, p)
        return (x[0] * ninv % p, -x[1] * ninv % p)

    def det_is_zero(self, rows) -> bool:
        a = [list(r) for r in rows]
        n = len(a)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != (0, 0)), None)
            if piv is None:
                return True
            a[k], a[piv] = a[piv], a[k]
            inv = self.inv(a[k][k])
            for i in range(k + 1, n):
                if a[i][k] != (0, 0):
                    f = self.mul(a[i][k], inv)
                    a[i] = [self.sub(a[i][j], self.mul(f, a[k][j])) for j in range(n)]
        return False


def _points(n: int, p: Optional[int]):
    """n+1 distinct points: enough, since deg det T(x) <= n. Over GF(p) with
    p <= n they come from GF(p^2)."""
    if p is None:
        return list(range(n + 1))
    if p > n:
        return [(x, 0) for x in range(n + 1)]
    if p * p <= n:
        raise ValueError(f"GF({p}^2) has too few points for n={n}")
    return [(a, b) for b in range(p) for a in range(p)][: n + 1]


def regular_witness(c: Sequence, p: Optional[int] = None):
    """A point x0 with det T(x0) != 0, or None when det T(x) vanishes at
    n+1 points and is therefore the zero polynomial (a singular pencil)."""
    n = len(c) - 1
    m0, m1 = m0_rows(c), m1_rows(n)
    if p is None:
        for x0 in _points(n, None):
            rows = [[a + x0 * b for a, b in zip(ra, rb)] for ra, rb in zip(m0, m1)]
            if not rational_det_is_zero(rows):
                return x0
        return None
    field = _GFp2(p)
    for x0 in _points(n, p):
        rows = [
            [((a + x0[0] * b) % p, x0[1] * b % p) for a, b in zip(ra, rb)]
            for ra, rb in zip(m0, m1)
        ]
        if not field.det_is_zero(rows):
            return x0
    return None


def leading_minors_mod(c: Sequence[int], p: int) -> List[int]:
    """m_1..m_n of M0 over GF(p) for c with c1 = 1."""
    m0 = m0_rows([ci % p for ci in c])
    return [_det_mod([row[:r] for row in m0[:r]], p) for r in range(1, len(c))]


def _det_mod(rows, p: int) -> int:
    a = [[e % p for e in r] for r in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def y_is_zero(c: Sequence, p: Optional[int] = None) -> bool:
    """m_2 = ... = m_{n-1} = 0 for the principal minors of M0. Dividing c by
    c1 scales m_r by a nonzero power of c1, so zero-ness needs no normalizing."""
    m0 = m0_rows(c)
    n = len(c) - 1
    for r in range(2, n):
        block = [row[:r] for row in m0[:r]]
        zero = rational_det_is_zero(block) if p is None else _det_mod(block, p) == 0
        if not zero:
            return False
    return True


def geometric_ratio(c: Sequence, p: Optional[int] = None):
    """The common ratio c_{k+1}/c_k when it is one value, else None."""
    if p is None:
        ratios = {Fraction(c[k + 1]) / Fraction(c[k]) for k in range(len(c) - 1)}
    else:
        ratios = {c[k + 1] * pow(c[k], p - 2, p) % p for k in range(len(c) - 1)}
    return ratios.pop() if len(ratios) == 1 else None


# --- minimal kernel degree -------------------------------------------------


def _rank(rows, p: Optional[int]) -> int:
    a = [[Fraction(e) if p is None else e % p for e in r] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col] if p is None else pow(a[rank][col], p - 2, p)
        for i in range(rank + 1, len(a)):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
                if p is not None:
                    a[i] = [x % p for x in a[i]]
        rank += 1
    return rank


def stacked_rows(c: Sequence, d: int) -> List[List]:
    """(d+2)n x (d+1)n block matrix: M0 on the block diagonal, M1 below it.
    Its columns are dependent exactly when a kernel f(x) of degree <= d exists."""
    n = len(c) - 1
    m0, m1 = m0_rows(c), m1_rows(n)
    rows = []
    for bi in range(d + 2):
        for i in range(n):
            row = []
            for bj in range(d + 1):
                src = m0 if bi == bj else m1 if bi == bj + 1 else None
                row.extend(src[i] if src else [0] * n)
            rows.append(row)
    return rows


def minimal_index(c: Sequence, p: Optional[int] = None) -> Optional[int]:
    """Smallest degree of a nonzero f(x) with T(x) f(x) = 0; None if regular."""
    if regular_witness(c, p) is not None:
        return None
    n = len(c) - 1
    for d in range(n):
        if _rank(stacked_rows(c, d), p) < n * (d + 1):
            return d
    raise ValueError(f"no kernel of degree below n for singular c={list(c)}")


def kernel_residual_is_zero(c: Sequence, f: Sequence[Sequence], p: Optional[int] = None) -> bool:
    """T(x) f(x) == 0, with f given as coefficient lists (constant term first)."""
    n = len(c) - 1
    m0, m1 = m0_rows(c), m1_rows(n)
    deg = max(len(fi) for fi in f)
    coef = [[Fraction(fi[k]) if k < len(fi) else 0 for k in range(deg)] for fi in f]
    for i in range(n):
        for k in range(deg + 1):
            s = sum(m0[i][j] * coef[j][k] for j in range(n) if k < deg)
            s += sum(m1[i][j] * coef[j][k - 1] for j in range(n) if k >= 1)
            if (s if p is None else s % p) != 0:
                return False
    return True
