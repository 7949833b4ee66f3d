"""Evidence engine for the conjecture "the minor condition forces y = 0".

The exhaustive scan enumerates minor tuples (m_1, ..., m_{n-1}) over GF(p)
with m_n fixed to 0 (the condition objects X and y only involve m_1..m_{n-1}),
recovers the coefficient list, drops tuples whose recovered coefficients
contain a zero, evaluates the truncated minor condition, and records any
tuple where the condition holds with y != 0 as a counterexample. Working in
minor space instead of coefficient space makes the m_n = 0 constraint free
and drops one enumeration dimension.

Scans are deterministic regardless of worker count: the search space is
partitioned by the first minor coordinate, per-shard reports merge by
summation and list concatenation, and merged lists are sorted canonically.
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
from typing import List, Optional, Tuple

from .criteria import ConsistencyAlarm, evaluate_instance, sm_condition_values
from .field import PrimeField, RationalField
from .minors import MinorVector, recover_c_from_minors
from .pencil import build_pencil

# Deterministic subsampling of full criterion cross-checks during exhaustive
# scans: a pure function of the tuple, so shard boundaries cannot affect it.
_CROSSCHECK_STRIDE = 17


def _crosscheck_selected(mtuple: Tuple[int, ...]) -> bool:
    return sum((i + 1) * v for i, v in enumerate(mtuple)) % _CROSSCHECK_STRIDE == 0


# Largest exhaustive scan, in p^(n-1) tuples: about 70 min on one core at
# the 23k tuples/s of a (5,7) scan.
MAX_EXHAUSTIVE_TUPLES = 10**8


class HuntConfigError(ValueError):
    pass


@dataclass(frozen=True)
class HuntConfig:
    n: int
    field: object
    mode: str = "exhaustive"  # "exhaustive" | "random"
    trials: int = 0
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise HuntConfigError("n must be >= 2")
        if self.mode not in ("exhaustive", "random"):
            raise HuntConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "exhaustive":
            if not isinstance(self.field, PrimeField):
                raise HuntConfigError("exhaustive scans require a prime field")
            if self.trials or self.seed:
                raise HuntConfigError("exhaustive scans take no trials or seed")
            p, e = self.field.p, self.n - 1
            cap = MAX_EXHAUSTIVE_TUPLES.bit_length()  # p^cap >= 2^cap > the limit
            if p ** min(e, cap) > MAX_EXHAUSTIVE_TUPLES:
                count = f"{p}^{e}" + (f" = {p**e}" if e <= cap else "")
                raise HuntConfigError(
                    f"exhaustive scan of {count} tuples exceeds the limit {MAX_EXHAUSTIVE_TUPLES}"
                )
        if self.mode == "random" and self.trials < 1:
            raise HuntConfigError("random scans need trials >= 1")
        if self.workers < 1:
            raise HuntConfigError("workers must be >= 1")
        if self.mode == "random" and self.workers != 1:
            raise HuntConfigError("random scans run in one process; workers must be 1")


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


def _scan_shard(n: int, p: int, first_coords: Tuple[int, ...]) -> HuntReport:
    """Scan all minor tuples whose first coordinate lies in first_coords."""
    gf = PrimeField(p)
    zero = gf.zero
    report = HuntReport()
    for m1 in first_coords:
        for rest in product(range(p), repeat=n - 2):
            mtuple = (m1,) + rest
            report.tuples_scanned += 1
            ms = [gf.of(v) for v in mtuple] + [zero]  # m_1..m_{n-1}, m_n = 0
            cs = recover_c_from_minors(ms, gf)
            if any(ci == zero for ci in cs):
                continue
            report.valid_instances += 1
            mv = MinorVector(field=gf, m=(gf.one, *ms))
            sm_ok = all(v == zero for v in sm_condition_values(mv))
            crosscheck = sm_ok or _crosscheck_selected(mtuple)
            if crosscheck:
                try:
                    rep = evaluate_instance(build_pencil([gf.one] + cs, gf))
                    if rep.sm_holds != sm_ok:
                        report.equivalence_violations.append((mtuple, "sm-mismatch"))
                except ConsistencyAlarm:
                    report.equivalence_violations.append((mtuple, "criterion-disagreement"))
            if sm_ok:
                report.sm_solutions += 1
                if any(mi != zero for mi in ms[1 : n - 1]):  # y built from m_2..m_{n-1}
                    report.counterexamples.append(mtuple)
    return report


def exhaustive_scan(cfg: HuntConfig) -> HuntReport:
    if cfg.mode != "exhaustive":
        raise HuntConfigError("config is not in exhaustive mode")
    p = cfg.field.p
    coords = list(range(p))
    if cfg.workers == 1:
        shards = [_scan_shard(cfg.n, p, tuple(coords))]
    else:
        from multiprocessing import get_context  # only parallel scans pay for the import

        w = min(cfg.workers, p)
        chunks = [tuple(coords[i::w]) for i in range(w)]
        ctx = get_context("fork")
        with ctx.Pool(w) as pool:
            shards = pool.starmap(_scan_shard, [(cfg.n, p, ch) for ch in chunks])
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


def random_scan(cfg: HuntConfig) -> HuntReport:
    """Seeded fuzz of the three-way criterion equivalence on random nonzero
    coefficient lists, with geometric instances injected every run."""
    if cfg.mode != "random":
        raise HuntConfigError("config is not in random mode")
    rng = random.Random(cfg.seed)
    report = HuntReport()
    instances = []
    for _ in range(cfg.trials):
        instances.append([_sample_nonzero(cfg.field, rng) for _ in range(cfg.n + 1)])
    fld = cfg.field
    for lam in (fld.one, fld.of(2), -fld.one, fld.one / fld.of(2)):
        geo = [fld.one]
        for _ in range(cfg.n):
            geo.append(geo[-1] * lam)
        instances.append(geo)
    for c in instances:
        report.tuples_scanned += 1
        report.valid_instances += 1
        try:
            rep = evaluate_instance(build_pencil(c, cfg.field))
        except ConsistencyAlarm:
            report.equivalence_violations.append(
                (tuple(str(ci) for ci in c), "criterion-disagreement")
            )
            continue
        if rep.sm_holds:
            report.sm_solutions += 1
            if not rep.y_is_zero:
                report.counterexamples.append(tuple(str(ci) for ci in c))
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
