"""Benchmark of toeppencil: one workload per run, last stdout line is JSON.

    python3 perfbench/run.py --workload verify|hunt|kernel --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``. With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a traced run
(spans are written to perfbench/out/). The lines before the JSON name every
measured number with its unit and sample count, and the provenance of the
run. ``--size tiny`` shrinks every input for the benchmark's own tests.

End-to-end times are CPU times scaled to a reference host speed (see
hostspeed.py); the detail lines give the wall times next to them
(``.wall``). Per-layer times are the wall times of the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = {"full": 5, "tiny": 2}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "hunt", "kernel"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_library():
    """Import workloads (and with it toeppencil) from this checkout only."""
    if not (SRC / "toeppencil" / "__init__.py").is_file():
        sys.exit(f"error: no toeppencil sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import toeppencil
    import workloads

    if Path(toeppencil.__file__).resolve().parent != SRC / "toeppencil":
        sys.exit(f"error: imported toeppencil from {toeppencil.__file__}, not {SRC}")
    return workloads


def warm_up(bench, res) -> None:
    try:
        bench.warm_up()
    except Exception as e:  # a raised result is a failed operation
        res.record(False, f"warm-up: {e!r}")


def setup_probe(args) -> None:
    """A fresh interpreter's set-up: import, inputs, warm-up. Prints the
    system-wide monotonic clock and this process's CPU time at the moment
    the first timed call would start, then the host-speed kernel's time."""
    workloads = load_library()
    warm_up(workloads.WORKLOADS[args.workload](args.seed, args.size), workloads.Result())
    ready, cpu = time.monotonic(), time.process_time()
    from hostspeed import kernel_time

    print(ready, cpu, kernel_time(), flush=True)


def setup_seconds(args):
    """Median over fresh interpreters of the set-up's CPU time scaled to the
    reference host speed by the probe's own kernel time (see hostspeed.py),
    and of its wall time from spawn to ready."""
    from hostspeed import REF_S

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    scaled, wall = [], []
    for _ in range(SETUP_PROBES[args.size]):
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ready, cpu, kernel_s = map(float, out.stdout.split())
        wall.append(ready - t0)
        scaled.append(cpu * REF_S / kernel_s)
    return statistics.median(scaled), statistics.median(wall), len(wall)


def provenance(args, workers) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workers": workers,
        "closed_loop_callers": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    t0 = time.perf_counter()
    workloads = load_library()
    bench = workloads.WORKLOADS[args.workload](args.seed, args.size)
    res = workloads.Result()
    warm_up(bench, res)
    res.show("setup_s.in_process", time.perf_counter() - t0, "s", 1)

    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        bench.measure_traced(res, args.seconds, out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        bench.measure(res, args.seconds)
        res.metrics["peak_rss_mb"] = peak_rss_mb()  # before the probes, which are children too
        res.show("peak_rss_mb", res.metrics["peak_rss_mb"], "MB", 1)
        setup, setup_wall, probes = setup_seconds(args)
        res.metrics["setup_s"] = setup
        res.show("setup_s", setup, "s", probes)
        res.show("setup_s.wall", setup_wall, "s", probes)

    print(f"# toeppencil benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args, res.info.pop("workers", [1])), sort_keys=True))
    for key, val in res.info.items():
        print(f"{key} {json.dumps(val)}")
    for name, value, unit, samples in res.detail:
        print(f"{name} {value:.6g} {unit} (samples {samples})")
    units = {"setup_s": "s", "ops_per_s": "1/s", "class_ms_p50_gmean": "ms", "peak_rss_mb": "MB"}
    metrics = {
        name: {"value": value, "unit": units.get(name) or workloads.unit_of(name)}
        for name, value in res.metrics.items()
    }
    print(json.dumps({"correct": res.failed == 0 and res.attempted > 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
