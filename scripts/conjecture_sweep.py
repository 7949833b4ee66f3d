#!/usr/bin/env python3
"""Exhaustive minor-space scans over small prime fields.

Prints one row per (n, p) with solution and counterexample counts, then
each counterexample and each criterion disagreement the scan recorded. Any
counterexample is finite-field evidence only; nothing here claims a
statement about characteristic zero.

Exit codes: 0 clean, 2 a bad prime or a refused scan, 3 a counterexample,
4 a consistency alarm: a recorded criterion disagreement (whatever else was
found), or a fault in a scan's walk, one stderr line before any row.

Usage: python3 scripts/conjecture_sweep.py [--n-max 6] [--primes 5,7] [--workers 4]
"""

import argparse
import sys

from toeppencil.criteria import ConsistencyAlarm
from toeppencil.field import NotPrimeError
from toeppencil.hunt import HuntConfigError, verify_conjecture_smalln


def parse_primes(text: str) -> list:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise HuntConfigError(f"--primes takes comma-separated integers, got {text!r}") from None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--primes", default="5,7")
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()
    try:
        primes = parse_primes(args.primes)
        rows = verify_conjecture_smalln(args.n_max, primes, workers=args.workers)
    except (NotPrimeError, HuntConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConsistencyAlarm as e:
        print(f"internal consistency alarm: {e}", file=sys.stderr)
        return 4
    print(f"{'n':>3} {'p':>4} {'scanned':>9} {'valid':>7} {'solutions':>10} {'counterex':>10}")
    total_cex = total_violations = 0
    for n, p, rep in rows:
        print(
            f"{n:>3} {p:>4} {rep.tuples_scanned:>9} {rep.valid_instances:>7} "
            f"{rep.sm_solutions:>10} {len(rep.counterexamples):>10}"
        )
        total_cex += len(rep.counterexamples)
        total_violations += len(rep.equivalence_violations)
        for t in rep.counterexamples:
            print(f"      counterexample minors {t} ({rep.note})")
        for t, reason in rep.equivalence_violations:
            print(f"      violation minors {t} ({reason})")
    return 4 if total_violations else 3 if total_cex else 0


if __name__ == "__main__":
    sys.exit(main())
