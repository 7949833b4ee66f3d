"""The three workloads: inputs from a seed, warm-up, the timed loop, checks.

One process and one closed-loop caller: each library call starts after the
previous one has returned. The library receives only the generated inputs.
Every output is checked against ``reference`` (the benchmark's own exact
arithmetic); a wrong output or a raised exception is a failed operation.

verify  -- criteria.evaluate_instance on six classes of pencils, plus a few of
           the same instances through cli.main in-process.
hunt    -- hunt.exhaustive_scan of the cell (n, p) = (5, 7) with 1 worker,
           timed, then of (6, 7) once with 1 and once with 2 workers; the
           cells are fixed, so the seed changes nothing.
kernel  -- kronecker.analyze on regular, geometric and the committed GF(7)
           non-geometric singular pencils.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import toeppencil as tp
import toeppencil.cli
import toeppencil.kronecker

import reference as ref
from hostspeed import HostSpeed
from tracer import Tracer

FIXTURES = json.loads((Path(__file__).parent / "data" / "fixtures.json").read_text())
P = 7  # the prime of every GF class
HUNT_WORKERS = 2

# class -> (kind, n at full size, n at tiny size): random over Q, random over
# GF(7), or geometric over Q with random c1 and ratio.
VERIFY_CLASSES = {
    "qq_n4": ("qq", 4, 3),
    "qq_n8": ("qq", 8, 3),
    "qq_n12": ("qq", 12, 4),
    "qq_n16": ("qq", 16, 4),
    "gf7_n10": ("gf7", 10, 4),
    "singular_n12": ("geo", 12, 4),
}
KERNEL_CLASSES = ("regular", "geometric", "gf7_nongeometric")
VERIFY_POOL = {"full": 8, "tiny": 1}  # instances per class
CLI_CLASSES = ("qq_n4", "gf7_n10", "singular_n12")  # first instance of each also goes through the CLI
HUNT_CELLS = {"full": (5, 6), "tiny": (4, 5)}  # (n of the timed rounds, n of the check); p = P
MIN_ROUNDS = {"full": 3, "tiny": 1}


def per_layer_names() -> List[str]:
    names = []
    for cls in VERIFY_CLASSES:
        names += [
            f"pencil.is_singular.ms_p50.{cls}",
            f"criteria.check_S.ms_p50.{cls}",
            f"criteria.check_SM.ms_p50.{cls}",
            f"minors.principal_minors.ms_p50.{cls}",
            f"criteria.evaluate_instance.self_ms_p50.{cls}",
            f"criteria.evaluate_instance.ms_p90.{cls}",
        ]
    names += [
        "minors.recover_c_from_minors.us_p50",
        "criteria.sm_condition_values.us_p50",
        "linalg.Mat.det.calls_per_op",
        "linalg.PolyMat.det.calls_per_op",
        "linalg.Mat.inv.calls_per_op",
        "criteria.evaluate_instance.calls",
        "hunt.valid_ratio",
        "hunt.crosscheck_ratio",
        "hunt.exhaustive_scan.self_share",
        "hunt.parallel_efficiency.w2",
    ]
    for cls in KERNEL_CLASSES:
        names += [
            f"kronecker.build_C.calls_per_op.{cls}",
            f"linalg.Mat.rank.calls_per_op.{cls}",
            f"kronecker.minimal_index.ms_p50.{cls}",
            f"kronecker.kernel_poly.self_ms_p50.{cls}",
            f"linalg.Mat.kernel_basis.ms_p50.{cls}",
        ]
    names += ["cli.main.ms_p50", "cli.main.self_ms_p50", "trace.overhead_share"]
    return names


def unit_of(name: str) -> str:
    for marker, unit in ((".ms_", "ms"), (".self_ms_", "ms"), (".us_", "us"),
                         (".calls", "count"), ("_ratio", "ratio"), ("_share", "ratio"),
                         ("efficiency", "ratio")):
        if marker in name:
            return unit
    raise KeyError(name)


# --- results ---------------------------------------------------------------


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)  # gated or per-layer, by mode
    detail: List[tuple] = field(default_factory=list)  # (name, value, unit, samples)
    info: Dict[str, object] = field(default_factory=dict)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)

    def show(self, name: str, value: float, unit: str, samples: int) -> None:
        self.detail.append((name, value, unit, samples))


def p50(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    return sorted(xs)[math.ceil(0.9 * len(xs)) - 1] if xs else 0.0


def gmean(xs):
    xs = [x for x in xs if x > 0]  # a class whose every call failed has no time
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def scalar(x, p: Optional[int]):
    """A library scalar through its exact string form."""
    v = Fraction(str(x))
    return v if p is None else int(v) % p


# --- inputs ----------------------------------------------------------------


@dataclass
class Case:
    cls: str
    c: list  # Fractions, or ints in [1, p) over GF(p)
    p: Optional[int]
    arg: object  # what the library is called with
    expected: object = None  # filled by the first check


def _rational(rng):
    return Fraction(rng.choice([k for k in range(-4, 5) if k]), rng.choice([1, 1, 2, 3]))


def _geometric(rng, n):
    c = [_rational(rng)]
    ratio = _rational(rng)
    for _ in range(n):
        c.append(c[-1] * ratio)
    return c


def _pencil(c, p):
    if p is None:
        return tp.build_pencil([Fraction(v) for v in c])
    gf = tp.PrimeField(p)
    return tp.build_pencil([gf.of(v) for v in c], gf)


def verify_cases(seed: int, size: str) -> List[Case]:
    """Round-robin over the classes, so drift in host speed hits all alike."""
    rng = random.Random(seed)
    pools = {}
    for cls, (kind, n_full, n_tiny) in VERIFY_CLASSES.items():
        n = n_full if size == "full" else n_tiny
        pool = []
        for _ in range(VERIFY_POOL[size]):
            if kind == "qq":
                c, p = [_rational(rng) for _ in range(n + 1)], None
            elif kind == "gf7":
                c, p = [rng.randrange(1, P) for _ in range(n + 1)], P
            else:
                c, p = _geometric(rng, n), None
            pool.append(Case(cls, c, p, _pencil(c, p)))
        pools[cls] = pool
    return [pools[cls][i] for i in range(VERIFY_POOL[size]) for cls in VERIFY_CLASSES]


def kernel_cases(seed: int, size: str) -> List[Case]:
    rng = random.Random(seed)
    # Group sizes put each class median inside one size group, not between two.
    sizes = {"full": ((5, 6, 7) * 4, (8,) * 3 + (12,) * 12), "tiny": ((4,), (4,))}[size]
    regular = [[_rational(rng) for _ in range(n + 1)] for n in sizes[0]]
    geometric = [_geometric(rng, n) for n in sizes[1]]
    fixtures = [f["c"] for f in FIXTURES["gf7_nongeometric"]]
    if size == "tiny":
        fixtures = [fixtures[0], fixtures[-1]]
    pools = {
        "regular": [Case("regular", c, None, None) for c in regular],
        "geometric": [Case("geometric", c, None, None) for c in geometric],
        "gf7_nongeometric": [Case("gf7_nongeometric", c, P, None) for c in fixtures],
    }
    out = []
    for i in range(max(len(pool) for pool in pools.values())):
        out += [pool[i] for pool in pools.values() if i < len(pool)]
    for case in out:
        case.arg = tp.BlockPencil.from_pencil(_pencil(case.c, case.p))
    return out


# --- checks ----------------------------------------------------------------


def verify_expected(case: Case) -> dict:
    return {
        "singular": ref.regular_witness(case.c, case.p) is None,
        "y_is_zero": ref.y_is_zero(case.c, case.p),
        "ratio": ref.geometric_ratio(case.c, case.p),
    }


def verify_ok(case: Case, rep) -> bool:
    if case.expected is None:
        case.expected = verify_expected(case)
    exp = case.expected
    ratio = None if rep.geometric is None else scalar(rep.geometric, case.p)
    return (
        rep.singular_det == rep.s_holds == rep.sm_holds == exp["singular"]
        and rep.y_is_zero == exp["y_is_zero"]
        and ratio == exp["ratio"]
    )


def kernel_ok(case: Case, res) -> bool:
    if case.expected is None:
        case.expected = ref.minimal_index(case.c, case.p)
    d = case.expected
    if d is None:
        return res.minimal_index_d is None and res.kernel_poly is None
    if res.minimal_index_d != d or res.kernel_poly is None or len(res.kernel_poly) != len(case.c) - 1:
        return False
    f = [[scalar(co, case.p) for co in poly.coeffs] for poly in res.kernel_poly]
    degrees = [max(k for k, co in enumerate(fi) if co) for fi in f if any(fi)]
    return bool(degrees) and max(degrees) == d and ref.kernel_residual_is_zero(case.c, f, case.p)


def fixture_ok(fx: dict) -> bool:
    """A committed counterexample: its minors are the scan's tuple with
    m_n = 0, its coefficients are nonzero, det T(x) is the zero polynomial,
    the sequence is not geometric and y = (m_2..m_{n-1}) is not zero."""
    c = fx["c"]
    return (
        all(v % P for v in c)
        and ref.leading_minors_mod(c, P) == fx["minors"] + [0]
        and ref.regular_witness(c, P) is None
        and ref.geometric_ratio(c, P) is None
        and any(fx["minors"][1:])
    )


def hunt_expected(n: int) -> Optional[dict]:
    """The known report of the cell (n, P), or None if a fixture behind it
    fails its own check."""
    cell = next(h for h in FIXTURES["hunt"] if h["n"] == n and h["p"] == P)
    fixtures = [f for f in FIXTURES["gf7_nongeometric"] if f["n"] == n]
    if not all(fixture_ok(f) for f in fixtures) or cell["scanned"] != P ** (n - 1):
        return None
    return {
        "scanned": cell["scanned"],
        "valid": cell["valid"],
        "sm_solutions": cell["sm_solutions"],
        "counterexamples": sorted(f["minors"] for f in fixtures),
        "violations": [],
    }


def hunt_ok(expected: Optional[dict], report) -> bool:
    got = report.to_dict()
    return expected is not None and all(got[k] == v for k, v in expected.items())


# --- timed loops -----------------------------------------------------------


def show_latencies(res: Result, name: str, scaled: Dict[str, list], wall: Dict[str, list]) -> float:
    """Median per class, scaled (gated, through the geometric mean) and wall."""
    for cls, xs in scaled.items():
        res.show(f"{name}.{cls}", p50(xs), "ms", len(xs))
        res.show(f"{name}.{cls}.wall", p50(wall[cls]), "ms", len(wall[cls]))
    return gmean([p50(xs) for xs in scaled.values()])


class PassWorkload:
    """verify and kernel: repeated passes over a fixed list of cases. Each
    call is timed alone, scaled to the reference host speed, and checked
    outside its timed region."""

    name = ""
    classes: tuple = ()
    latency_name = ""

    def __init__(self, seed: int, size: str):
        self.size = size
        self.cases = self.make_cases(seed, size)
        self.last = {}  # id(case) -> output of its latest call

    def warm_up(self) -> None:
        raise NotImplementedError

    def call(self, case):
        raise NotImplementedError

    def check(self, case, out) -> bool:
        raise NotImplementedError

    def extra_ops(self, res: Result, tracer: Optional[Tracer]) -> None:
        """Checked operations outside the pass timing (the CLI calls of verify)."""

    def run_pass(self, res: Result, hs: HostSpeed, tracer: Optional[Tracer] = None):
        """One pass over the cases; returns (class, scaled s, wall s) per call."""
        timed = []
        for case in self.cases:
            if tracer is not None:
                tracer.label = case.cls
            try:
                out, cpu, wall, token = hs.call(self.call, case)
            except Exception as e:  # a raised result is a failed operation
                res.record(False, f"{self.name} {case.cls} c={case.c}: {e!r}")
                continue
            timed.append((case.cls, cpu, wall, token))
            self.last[id(case)] = out
            res.record(self.check(case, out), f"{self.name} {case.cls} c={case.c}")
        hs.sample()
        self.extra_ops(res, tracer)
        return [(cls, cpu * hs.scale(token), wall) for cls, cpu, wall, token in timed]

    def measure(self, res: Result, seconds: float) -> None:
        hs = HostSpeed()
        scaled, wall = defaultdict(list), defaultdict(list)
        rates, wall_rates, spent, passes = [], [], 0.0, 0
        while passes < MIN_ROUNDS[self.size] or spent < seconds:
            timed = self.run_pass(res, hs)
            for cls, s, w in timed:
                scaled[cls].append(s * 1e3)
                wall[cls].append(w * 1e3)
            if timed:
                rates.append(len(timed) / sum(s for _, s, _ in timed))
                wall_rates.append(len(timed) / sum(w for _, _, w in timed))
            spent += sum(w for _, _, w in timed)
            passes += 1
        res.metrics["ops_per_s"] = p50(rates)
        res.show("ops_per_s", p50(rates), "1/s", len(rates))
        res.show("ops_per_s.wall", p50(wall_rates), "1/s", len(wall_rates))
        res.metrics["class_ms_p50_gmean"] = show_latencies(
            res, self.latency_name, {c: scaled[c] for c in self.classes}, wall)
        res.show("host.kernel_ms_p50", p50(hs.samples) * 1e3, "ms", len(hs.samples))
        res.info["passes"] = passes

    def measure_traced(self, res: Result, seconds: float, spans_path) -> None:
        """Untraced and traced passes alternate; the ratio of their scaled
        medians is the tracing overhead."""
        hs, tracer = HostSpeed(), Tracer()
        plain, traced, ops = [], [], defaultdict(int)
        spent, passes = 0.0, 0
        while passes < 2 * MIN_ROUNDS[self.size] or spent < seconds:
            if passes % 2:
                with tracer:
                    timed = self.run_pass(res, hs, tracer)
                traced.append(sum(s for _, s, _ in timed))
                for cls, _, _ in timed:
                    ops[cls] += 1
            else:
                timed = self.run_pass(res, hs)
                plain.append(sum(s for _, s, _ in timed))
            spent += sum(w for _, _, w in timed)
            passes += 1
        layer_metrics(res, tracer, ops, len(traced), {"trace.overhead_share": p50(traced) / p50(plain) - 1})
        tracer.write(spans_path)


class Verify(PassWorkload):
    name = "verify"
    classes = tuple(VERIFY_CLASSES)
    latency_name = "verdict_ms_p50"
    make_cases = staticmethod(verify_cases)

    def warm_up(self) -> None:
        tp.evaluate_instance(_pencil([1, 2, 4, 8], None))
        tp.evaluate_instance(_pencil([1, 2, 3, 4], P))

    def call(self, case):
        return tp.evaluate_instance(case.arg)

    def check(self, case, out) -> bool:
        return verify_ok(case, out)

    def extra_ops(self, res: Result, tracer: Optional[Tracer]) -> None:
        """The first instance of each CLI class through cli.main --json; its
        parsed verdict must equal the library's verdict from this pass."""
        if tracer is not None:
            tracer.label = "cli"
        for cls in CLI_CLASSES:
            case = next(c for c in self.cases if c.cls == cls)
            argv = ["verify", "--c=" + ",".join(str(v) for v in case.c), "--json"]
            if case.p is not None:
                argv += ["--prime", str(case.p)]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = toeppencil.cli.main(argv)
                doc = json.loads(buf.getvalue())
            except Exception as e:  # a raised result is a failed operation
                res.record(False, f"cli {argv}: {e!r}")
                continue
            rep = self.last.get(id(case))
            ok = (
                code == 0
                and rep is not None
                and verify_ok(case, rep)
                and doc["singular"] == rep.singular_det
                and doc["s_holds"] == rep.s_holds
                and doc["sm_holds"] == rep.sm_holds
                and doc["geometric"] == (rep.geometric is not None)
            )
            res.record(ok, f"cli {argv}")


class Kernel(PassWorkload):
    name = "kernel"
    classes = KERNEL_CLASSES
    latency_name = "kernel_ms_p50"
    make_cases = staticmethod(kernel_cases)

    def warm_up(self) -> None:
        fx = FIXTURES["gf7_nongeometric"][0]["c"]
        toeppencil.kronecker.analyze(tp.BlockPencil.from_pencil(_pencil(fx, P)))

    def call(self, case):
        return toeppencil.kronecker.analyze(case.arg)

    def check(self, case, out) -> bool:
        return kernel_ok(case, out)


class Hunt:
    """1-worker scans of the cell (ROUND_N, P), repeated so the median is
    steady; then one scan per worker count of the cell (CHECK_N, P), whose
    wall times are shown but not gated: with every CPU busy, a share of the
    time off the CPU that varies from run to run goes straight into them."""

    name = "hunt"

    def __init__(self, seed: int, size: str):
        self.size = size
        self.round_n, self.check_n = HUNT_CELLS[size]
        self.expected = {}
        self.last_report = None

    def warm_up(self) -> None:
        tp.exhaustive_scan(tp.HuntConfig(n=3, field=tp.PrimeField(P), mode="exhaustive"))

    def scan(self, res: Result, hs: HostSpeed, n: int, workers: int):
        """A checked scan; (scaled s, wall s), or None if it raised. With more
        than one worker the scan runs in other processes, so it has only a
        wall time."""
        cfg = tp.HuntConfig(n=n, field=tp.PrimeField(P), mode="exhaustive", workers=workers)
        try:
            report, cpu, wall, token = hs.call(tp.exhaustive_scan, cfg)
        except Exception as e:  # a raised result is a failed operation
            res.record(False, f"hunt n={n} workers={workers}: {e!r}")
            return None
        hs.sample()
        if n not in self.expected:
            self.expected[n] = hunt_expected(n)
        res.record(hunt_ok(self.expected[n], report), f"hunt n={n} workers={workers}")
        self.last_report = report
        return (cpu * hs.scale(token) if workers == 1 else None), wall

    def rounds(self, res: Result, seconds: float, steps):
        """steps: (key, workers, tracer or None) of one round, over the cell
        (ROUND_N, P); returns key -> [(scaled s, wall s)] and the samples."""
        hs = HostSpeed()
        walls = {key: [] for key, _, _ in steps}
        spent, rounds = 0.0, 0
        while rounds < MIN_ROUNDS[self.size] or spent < seconds:
            for key, workers, tracer in steps:
                with tracer if tracer is not None else contextlib.nullcontext():
                    got = self.scan(res, hs, self.round_n, workers)
                if got is not None:
                    walls[key].append(got)
                    spent += got[1]
            rounds += 1
        res.info.update(rounds=rounds, round_cell=[self.round_n, P])
        return walls, hs

    def measure(self, res: Result, seconds: float) -> None:
        """Timed 1-worker scans of (ROUND_N, P); then the check scans."""
        walls, hs = self.rounds(res, seconds, [("w1", 1, None)])
        scaled = [s * 1e3 for s, _ in walls["w1"]]
        wall = [w * 1e3 for _, w in walls["w1"]]
        tuples = P ** (self.round_n - 1)
        res.metrics["ops_per_s"] = tuples / p50(scaled) * 1e3 if scaled else 0.0
        res.show("ops_per_s", res.metrics["ops_per_s"], "1/s", len(scaled))
        res.show("ops_per_s.wall", tuples / p50(wall) * 1e3 if wall else 0.0, "1/s", len(wall))
        res.metrics["class_ms_p50_gmean"] = show_latencies(res, "scan_ms_p50", {"w1": scaled}, {"w1": wall})
        res.show("host.kernel_ms_p50", p50(hs.samples) * 1e3, "ms", len(hs.samples))
        for workers in (1, HUNT_WORKERS):
            got = self.scan(res, hs, self.check_n, workers)
            if got is not None:
                res.show(f"hunt_wall_s.w{workers}", got[1], "s", 1)
        res.info.update(check_cell=[self.check_n, P], workers=[1, HUNT_WORKERS])

    def measure_traced(self, res: Result, seconds: float, spans_path) -> None:
        """Traced scans use one worker: spans in forked workers would be lost."""
        tracer = Tracer()
        tracer.label = "w1"
        walls, _ = self.rounds(res, seconds, [("w1", 1, None), ("traced", 1, tracer),
                                              ("w2", HUNT_WORKERS, None)])
        w1, traced = (p50([s for s, _ in walls[k]]) for k in ("w1", "traced"))
        w1_wall, w2_wall = (p50([w for _, w in walls[k]]) for k in ("w1", "w2"))
        total, own = tracer.durations()
        scan_ns = sum(total.get(("hunt.exhaustive_scan", "w1"), []))
        passes = len(walls["traced"])
        extra = {}
        if w1 and w2_wall:
            extra["trace.overhead_share"] = traced / w1 - 1
            extra["hunt.parallel_efficiency.w2"] = w1_wall / (HUNT_WORKERS * w2_wall)
        if scan_ns:
            extra["hunt.exhaustive_scan.self_share"] = sum(own[("hunt.exhaustive_scan", "w1")]) / scan_ns
        if self.last_report is not None and passes:
            report = self.last_report.to_dict()
            extra["hunt.valid_ratio"] = report["valid"] / report["scanned"]
            calls = len(total.get(("criteria.evaluate_instance", "w1"), []))
            extra["hunt.crosscheck_ratio"] = calls / passes / report["valid"]
        layer_metrics(res, tracer, {"w1": passes * P ** (self.round_n - 1)}, passes, extra)
        res.info["workers"] = [1, HUNT_WORKERS]
        tracer.write(spans_path)


WORKLOADS = {"verify": Verify, "hunt": Hunt, "kernel": Kernel}


def layer_metrics(res: Result, tracer: Tracer, ops: Dict[str, int], passes: int,
                  extra: Dict[str, float]) -> None:
    """Per-layer numbers from the spans and counts of the traced passes, which
    made ``ops[label]`` operations per label; ``extra`` holds the ratios
    measured elsewhere. A layer the workload does not reach reads 0, shown
    with 0 samples."""
    total, own = tracer.durations()

    def spans(table, name, labels):
        return [v / 1e6 for lab in labels for v in table.get((name, lab), [])]

    def count(name, labels):
        return sum(tracer.counts.get((name, lab), 0) for lab in labels)

    labels = list(ops)
    nops = sum(ops.values())
    values = {}
    for cls in VERIFY_CLASSES:
        for stem, table, agg in (
            ("pencil.is_singular.ms_p50", total, p50),
            ("criteria.check_S.ms_p50", total, p50),
            ("criteria.check_SM.ms_p50", total, p50),
            ("minors.principal_minors.ms_p50", total, p50),
            ("criteria.evaluate_instance.self_ms_p50", own, p50),
            ("criteria.evaluate_instance.ms_p90", total, p90),
        ):
            xs = spans(table, stem.rsplit(".", 1)[0], [cls])
            values[f"{stem}.{cls}"] = (agg(xs), len(xs))
    for name in ("minors.recover_c_from_minors", "criteria.sm_condition_values"):
        xs = spans(total, name, labels)
        values[f"{name}.us_p50"] = (p50(xs) * 1e3, len(xs))
    for name in ("linalg.Mat.det", "linalg.PolyMat.det", "linalg.Mat.inv"):
        values[f"{name}.calls_per_op"] = (count(name, labels) / nops if nops else 0.0, nops)
    calls = spans(total, "criteria.evaluate_instance", labels)
    values["criteria.evaluate_instance.calls"] = (len(calls) / passes if passes else 0.0, passes)
    for cls in KERNEL_CLASSES:
        k = ops.get(cls, 0)
        for name in ("kronecker.build_C", "linalg.Mat.rank"):
            values[f"{name}.calls_per_op.{cls}"] = (count(name, [cls]) / k if k else 0.0, k)
        for stem, table in (
            ("kronecker.minimal_index.ms_p50", total),
            ("kronecker.kernel_poly.self_ms_p50", own),
            ("linalg.Mat.kernel_basis.ms_p50", total),
        ):
            xs = spans(table, stem.rsplit(".", 1)[0], [cls])
            values[f"{stem}.{cls}"] = (p50(xs), len(xs))
    for stem, table in (("cli.main.ms_p50", total), ("cli.main.self_ms_p50", own)):
        xs = spans(table, "cli.main", ["cli"])
        values[stem] = (p50(xs), len(xs))
    for name in per_layer_names():
        values.setdefault(name, (extra.get(name, 0.0), 1 if name in extra else 0))
    res.info["absent"] = tracer.absent
    for name, (value, samples) in values.items():
        res.metrics[name] = value
        res.show(name, value, unit_of(name), samples)
