"""Evidence engine for the conjecture "the minor condition forces y = 0".

The exhaustive scan enumerates minor tuples (m_1, ..., m_{n-1}) over GF(p)
with m_n fixed to 0 (the condition objects X and y only involve m_1..m_{n-1}),
recovers the coefficient list, drops tuples whose recovered coefficients
contain a zero, evaluates the truncated minor condition, and records any
tuple where the condition holds with y != 0 as a counterexample. Working in
minor space instead of coefficient space makes the m_n = 0 constraint free
and drops one enumeration dimension.

Only the representatives m_1 = 1 are evaluated, on plain ints mod p. The
scaling c_k -> beta^(k-1) c_k (beta != 0) maps m_r to beta^r m_r, so each
tuple with m_1 != 0 lies in the orbit of one representative; tuples with
m_1 = 0 are never valid, because c_2 = m_1. Validity is an orbit invariant,
as c_{k+1} picks up the unit beta^k, and so is the minor condition: X's
entry (a, b) has weight a+1-b and y_a weight a+2, so (X^k y)_a has weight
a+2+k and V_k(beta*m) = beta^(n+k+1) V_k(m). A representative's verdict
holds for its p-1 tuples; each cross-checked tuple is compared against it.

The representatives are walked by head (m_2..m_{n-2}), and for n >= 4 a
head costs O(1) in its leaf m_{n-1}: validity excludes the roots of two
affine forms, V_0 is affine in the leaf, so at most one leaf (or, where
its slope 2*m_2 vanishes mod p, every leaf or none) can solve SM, and the
subsampled tuples are listed per beta rather than found by testing every
leaf. The cross-checks run the three verdict routes on residues mod p.

Scans are deterministic regardless of worker count: the representatives
are partitioned by interleaved heads (m_2, or (m_2, m_3) for n >= 5),
per-shard reports merge by summation and list concatenation, and merged
lists are sorted canonically.
Finite-field validity of the criteria is not assumed: every condition
solution, plus a deterministic subsample of scanned instances, is
re-verified through the full three-way criterion comparison, and any
disagreement is recorded as an equivalence violation rather than trusted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add
from typing import Callable, Iterator, List, Optional, Set, Tuple

from .criteria import ConsistencyAlarm, _sm_values, _verdicts
from .field import PrimeField, RationalField
from .minors import _reciprocal
from .pencil import PencilError, _first_violation

# Deterministic subsampling of full criterion cross-checks during exhaustive
# scans: a valid tuple (m_1, ..., m_{n-1}) is cross-checked when
# sum_r r*m_r = 0 mod the stride, a pure function of the tuple, so shard
# boundaries cannot affect it.
_CROSSCHECK_STRIDE = 17

# Largest exhaustive scan, in p^(n-1) tuples: about 2-3 min on one core at
# the 540k-890k tuples/s of the cells (6,7) to (8,7), (6,11) and (7,11)
# (medians of 6-60 runs; Python 3.11, one core of a 2-core host).
MAX_EXHAUSTIVE_TUPLES = 10**8

# Largest n the CLI takes. CLI wall times at n = 256, `verify` on the
# ratio-2 geometric list (Python 3.11, one core of a 2-core host; two runs
# each, one of the GF(7) hunt): over QQ `verify` takes 0.9-1.0 s and
# `hunt --random --trials 1` 3.9-5.0 s, and the cost grows about as n^3.
# Over GF(p) with p >= n-2 every route runs on residues: over GF(257)
# `verify` takes 1.0-1.2 s and `hunt --n 256 --prime 257 --random
# --trials 1` 3.3 s. For p < n-2 the det route keeps its ints: over GF(7)
# `verify` takes 19-32 s and `hunt --n 256 --prime 7 --random --trials 1`
# 92 s. Library calls take any n.
MAX_N = 256

# Most worker processes an exhaustive scan forks (it forks min(workers, p)).
# Past the core count more of them add only start-up time and memory, and an
# unbounded value would fork thousands of interpreters on a large p.
MAX_WORKERS = 64


class HuntConfigError(ValueError):
    pass


@dataclass(frozen=True)
class HuntConfig:
    n: int
    field: object
    mode: str = "exhaustive"  # "exhaustive" | "random"
    trials: Optional[int] = None  # random scans only, and required there
    seed: Optional[int] = None  # random scans only; None seeds as 0
    workers: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise HuntConfigError("n must be >= 2")
        if self.mode not in ("exhaustive", "random"):
            raise HuntConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "exhaustive":
            if not isinstance(self.field, PrimeField):
                raise HuntConfigError("exhaustive scans require a prime field")
            if (self.trials, self.seed) != (None, None):
                raise HuntConfigError("exhaustive scans take no trials or seed")
            p, e = self.field.p, self.n - 1
            cap = MAX_EXHAUSTIVE_TUPLES.bit_length()  # p^cap >= 2^cap > the limit
            if p ** min(e, cap) > MAX_EXHAUSTIVE_TUPLES:
                count = f"{p}^{e}" + (f" = {p**e}" if e <= cap else "")
                raise HuntConfigError(
                    f"exhaustive scan of {count} tuples exceeds the limit {MAX_EXHAUSTIVE_TUPLES}"
                )
        if self.mode == "random" and (self.trials is None or self.trials < 1):
            raise HuntConfigError("random scans need trials >= 1")
        if self.workers < 1:
            raise HuntConfigError("workers must be >= 1")
        if self.mode == "random" and self.workers != 1:
            raise HuntConfigError("random scans run in one process; workers must be 1")
        if self.workers > MAX_WORKERS:
            raise HuntConfigError(f"workers = {self.workers} exceeds the limit {MAX_WORKERS}")


@dataclass
class HuntReport:
    tuples_scanned: int = 0
    valid_instances: int = 0
    sm_solutions: int = 0
    counterexamples: List[Tuple[int, ...]] = dc_field(default_factory=list)
    equivalence_violations: List[Tuple] = dc_field(default_factory=list)
    note: Optional[str] = None

    def merge(self, other: "HuntReport") -> None:
        self.tuples_scanned += other.tuples_scanned
        self.valid_instances += other.valid_instances
        self.sm_solutions += other.sm_solutions
        self.counterexamples.extend(other.counterexamples)
        self.equivalence_violations.extend(other.equivalence_violations)

    def canonicalize(self) -> "HuntReport":
        self.counterexamples.sort()
        self.equivalence_violations.sort()
        return self

    def to_dict(self) -> dict:
        return {
            "scanned": self.tuples_scanned,
            "valid": self.valid_instances,
            "sm_solutions": self.sm_solutions,
            "counterexamples": [list(t) for t in self.counterexamples],
            "violations": [list(t) for t in self.equivalence_violations],
            "note": self.note,
        }


def _leaf_ends(Z: List[int], p: int) -> Tuple[Callable, Set[int]]:
    """(ends, bad) for the leaf m_{n-1} of N = (m_0, ..., m_{n-2}, leaf, 0),
    m_0 = m_1 = 1, from Z = B_0..B_n mod p, the reciprocal of N at leaf 0:
    ends(leaf) is (B_{n-1}, B_n) mod p at the leaf, and bad the set of leaves
    at which one of them is 0 mod p. B_0..B_{n-2} do not read the leaf.

    For n >= 3 both are affine in the leaf: it enters B_{n-1} only as
    -leaf*B_0, and B_n as -leaf*B_1 = leaf and through -m_1 B_{n-1}, while
    m_n = 0 adds nothing. So B_{n-1} = Z_{n-1} - leaf and B_n = Z_n +
    2*leaf: one reciprocal per head, and one root each, except over GF(2),
    where B_n is Z_n at every leaf. For n = 2 the leaf is m_1 itself,
    B_1 = -m_1 and B_2 = m_1^2."""
    n = len(Z) - 1
    if n == 2:
        return lambda v: (-v % p, v * v % p), {0}
    z1, z0 = Z[n - 1 :]
    if p == 2:
        bad = {z1} if z0 else {0, 1}
    else:
        bad = {z1, -z0 * pow(2, -1, p) % p}
    return lambda v: ((z1 - v) % p, (z0 + 2 * v) % p), bad


def _scan_shard(n: int, p: int, leads: Tuple[int, ...]) -> HuntReport:
    """Scan the representatives m_1 = 1 whose leading coordinates lie in leads
    (m_2 for n = 3 and 4, the pair (m_2, m_3) as m_2*p + m_3 for n >= 5; for
    n = 2 the one representative (1,)) and count each verdict for the p-1
    tuples of its orbit.

    The walk takes each head (m_2, ..., m_{n-2}) once: its reciprocal
    B_0..B_n at leaf 0, mod p, and its terms of the stride sums. B_{n-1}
    and B_n are affine in the leaf m_{n-1} (``_leaf_ends``), so the valid
    leaves are counted, not visited. For n >= 4, V_0 = ±(2*m_2*leaf + terms of the
    head): one evaluation at leaf 0 and the slope give the one leaf that can
    solve SM, and only that leaf, when valid, reads V_1..V_{n-3}; a slope of
    0 mod p leaves no candidate or all of them. For n < 4 every leaf is a
    candidate. The stride sum of the tuple beta*N is the head's sum plus
    (n-1)*u with u = beta^(n-1)*leaf mod p, so for each beta the selected u,
    and from them the leaves, are listed directly; where the stride divides
    n-1, a beta whose head sum is 0 mod the stride selects every leaf. N, B
    and the tuple are built only for the leaves and betas that are checked
    or recorded."""
    gf = PrimeField(p)
    report = HuntReport()
    # beta^r and (-beta)^r mod p for beta = 1..p-1: m_r -> beta^r m_r, c_{r+1} -> beta^r c_{r+1}
    scale_m = [[pow(b, r, p) for b in range(1, p)] for r in range(n + 1)]
    scale_c = [[pow(-b, r, p) for b in range(1, p)] for r in range(n + 1)]
    unscale = [pow(s, -1, p) for s in scale_m[n - 1]]  # the leaf of u, per beta
    # (n-1)*u = -h mod the stride, for the head sum h: with g = gcd(n-1, stride)
    # it needs g | h, and then fixes u mod stride/g (every u where g = stride)
    g = gcd(n - 1, _CROSSCHECK_STRIDE)
    step = _CROSSCHECK_STRIDE // g
    inv = pow((n - 1) // g, -1, step)

    def stride_row(r: int, v: int) -> List[int]:
        """m_r = v's term r*(beta^r v mod p) of the cross-check sum, per beta."""
        return [r * (s * v % p) for s in scale_m[r]]

    def mtuple(N: Tuple[int, ...], i: int) -> Tuple[int, ...]:
        return tuple(scale_m[r][i] * N[r] % p for r in range(1, n))

    def check(N: Tuple[int, ...], B: Tuple[int, ...], i: int, sm_ok: bool) -> None:
        """The three-way check of the tuple beta*N, beta = i + 1, against the
        orbit's verdict sm_ok."""
        c = [s[i] * b % p for s, b in zip(scale_c, B)]  # c_{k+1} = (-beta)^k B_k
        if not all(c):
            raise PencilError(f"coefficient c{c.index(0) + 1} is zero")
        try:
            _, _, sm_witness, _ = _verdicts(c, 1, gf)
            if (sm_witness is None) == sm_ok:
                return
            reason = "sm-mismatch"
        except ConsistencyAlarm:
            reason = "criterion-disagreement"
        report.equivalence_violations.append((mtuple(N, i), reason))

    # the rows of the head coordinates m_2..m_{n-2}; m_1 = 1 needs one
    rows = {(r, v): stride_row(r, v) for r in range(2, n - 1) for v in range(p)}
    rows[1, 1] = stride_row(1, 1)
    if n < 4:  # no head; the leaf is m_2 for n = 3 and m_1 = 1 for n = 2
        heads, leaves = [()], set(leads if n == 3 else (1,))
    else:
        firsts = [divmod(j, p) if n > 4 else (j,) for j in leads]
        heads = (f + t for f in firsts for t in product(range(p), repeat=n - 3 - len(f)))
        leaves = set(range(p))
    for head in heads:
        prefix = (1, 1, *head)[: n - 1]  # m_0..m_{n-2}
        report.tuples_scanned += p * len(leaves)  # with (0, ...), never valid as c_2 = m_1
        N0 = (*prefix, 0, 0)  # the representative at leaf 0
        Z = _reciprocal(N0, n + 1, p=p)  # B_0..B_n at leaf 0
        Bh = Z[: n - 1]
        if not all(Bh):
            continue
        ends, bad = _leaf_ends(Z, p)
        report.valid_instances += (p - 1) * (len(leaves) - len(bad & leaves))
        candidates = leaves
        if n >= 4:  # V_0 = V_0(0) + slope*leaf; V_k has the sign (-1)^(k+n+1)
            v0 = next(_sm_values(N0, p))
            slope = 2 * prefix[2] if n % 2 else -2 * prefix[2]
            if slope % p:
                candidates = (-v0 * pow(slope, -1, p) % p,)
            elif v0:
                candidates = ()
        solutions = set()
        for leaf in candidates:
            N = (*prefix, leaf, 0)  # m_0, m_1 = 1, m_2..m_{n-1}, m_n = 0
            if leaf in bad or any(_sm_values(N, p)):
                continue
            solutions.add(leaf)
            report.sm_solutions += p - 1
            B = (*Bh, *ends(leaf))  # c_{k+1} = (-1)^k B_k
            y_nonzero = any(N[2:n])  # y built from m_2..m_{n-1}
            for i in range(p - 1):
                check(N, B, i, True)
                if y_nonzero:
                    report.counterexamples.append(mtuple(N, i))
        head_sums = [0] * (p - 1)
        for r, v in enumerate(prefix[1:], 1):
            head_sums = list(map(add, head_sums, rows[r, v]))
        for i, h in enumerate(head_sums):  # beta = i + 1
            if h % g:
                continue
            for u in range(-(h // g) * inv % step, p, step):
                leaf = u * unscale[i] % p
                if leaf in leaves and leaf not in bad and leaf not in solutions:
                    check((*prefix, leaf, 0), (*Bh, *ends(leaf)), i, False)
    return report


def exhaustive_scan(cfg: HuntConfig) -> HuntReport:
    if cfg.mode != "exhaustive":
        raise HuntConfigError("config is not in exhaustive mode")
    n, p = cfg.n, cfg.field.p
    w = min(cfg.workers, p) if n > 2 else 1
    # interleaved leads: m_2, or the pairs (m_2, m_3) once a head has two coordinates
    chunks = [tuple(range(i, p * p if n > 4 else p, w)) for i in range(w)]
    if w == 1:
        shards = [_scan_shard(n, p, chunks[0])]
    else:
        from multiprocessing import get_context  # only parallel scans pay for the import

        ctx = get_context("fork")
        with ctx.Pool(w) as pool:
            shards = pool.starmap(_scan_shard, [(n, p, ch) for ch in chunks])
    out = HuntReport()
    for s in shards:
        out.merge(s)
    if out.counterexamples:
        out.note = "finite-field evidence only; not lifted to characteristic 0"
    return out.canonicalize()


def _sample_nonzero(fld, rng: random.Random):
    if isinstance(fld, RationalField):
        num = rng.choice([k for k in range(-4, 5) if k != 0])
        den = rng.choice([1, 1, 1, 2, 3])
        return Fraction(num, den)
    return fld.of(rng.randrange(1, fld.p))


def _random_instances(cfg: HuntConfig) -> Iterator[list]:
    """Lazily, the coefficient lists of a random scan: cfg.trials seeded
    random ones, then the geometric ones for each nonzero ratio 1, 2, -1, 1/2."""
    rng = random.Random(cfg.seed or 0)  # random.Random(None) would seed from the clock
    for _ in range(cfg.trials):
        yield [_sample_nonzero(cfg.field, rng) for _ in range(cfg.n + 1)]
    fld, two = cfg.field, cfg.field.of(2)
    for lam in (fld.one, two, -fld.one, fld.one / two) if two else (fld.one, -fld.one):
        yield [lam**k for k in range(cfg.n + 1)]


def random_scan(cfg: HuntConfig) -> HuntReport:
    """Seeded fuzz of the three-way criterion equivalence on random nonzero
    coefficient lists, plus geometric ones for each nonzero ratio 1, 2, -1, 1/2.
    Each distinct list is lifted once and read by ``_verdicts``, the exhaustive
    scan's entry to the three routes; the counts and lists are per trial."""
    if cfg.mode != "random":
        raise HuntConfigError("config is not in random mode")
    fld, report = cfg.field, HuntReport()
    outcomes = {}  # tuple(c) -> (sm_holds, y_is_zero), or None on an alarm
    for c in _random_instances(cfg):
        report.tuples_scanned += 1
        report.valid_instances += 1
        key = tuple(c)
        if key not in outcomes:
            try:
                _, _, sm_witness, B = _verdicts(*fld.lift(c), fld)
                outcomes[key] = sm_witness is None, _first_violation(B[2:-1], fld.characteristic) is None
            except ConsistencyAlarm:
                outcomes[key] = None
        outcome, shown = outcomes[key], tuple(str(ci) for ci in c)
        if outcome is None:
            report.equivalence_violations.append((shown, "criterion-disagreement"))
        elif outcome[0]:
            report.sm_solutions += 1
            if not outcome[1]:
                report.counterexamples.append(shown)
    return report.canonicalize()


def verify_conjecture_smalln(
    n_max: int, primes: List[int], workers: int = 1
) -> List[Tuple[int, int, HuntReport]]:
    """Exhaustive scans for every n <= n_max and every listed prime; the
    summary rows are (n, p, report)."""
    if n_max < 2:
        raise HuntConfigError("n_max must be >= 2")
    fields = [PrimeField(p) for p in primes]
    # every config is checked before the first scan starts
    cfgs = [
        HuntConfig(n=n, field=f, mode="exhaustive", workers=workers)
        for n in range(2, n_max + 1)
        for f in fields
    ]
    return [(cfg.n, cfg.field.p, exhaustive_scan(cfg)) for cfg in cfgs]
