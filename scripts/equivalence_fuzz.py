#!/usr/bin/env python3
"""Seeded fuzz of the three-way singularity-test agreement.

For every sampled instance the zero-polynomial determinant test, the power
condition and the minor condition must give the same verdict; any
disagreement is an implementation bug.

Usage: python3 scripts/equivalence_fuzz.py [--n 2..8] [--trials 500] [--seed 0] [--prime p]
"""

import argparse
import sys

from toeppencil.field import NotPrimeError, PrimeField, QQ
from toeppencil.hunt import HuntConfig, HuntConfigError, random_scan


def inclusive_range(text: str) -> range:
    """n, or lo..hi with both ends included; refused when malformed or empty."""
    lo, sep, hi = text.partition("..")
    try:
        ns = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise HuntConfigError(f"--n takes n or lo..hi, got {text!r}") from None
    if not ns:
        raise HuntConfigError(f"--n range {text} is empty")
    return ns


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", default="2..8", help="single n or inclusive range lo..hi")
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--prime", type=int, default=None, help="fuzz over GF(p) instead of Q")
    args = ap.parse_args()
    try:
        fld = PrimeField(args.prime) if args.prime is not None else QQ
        cfgs = [
            HuntConfig(n=n, field=fld, mode="random", trials=args.trials, seed=args.seed)
            for n in inclusive_range(args.n)
        ]
    except (NotPrimeError, HuntConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    bad = 0
    for cfg in cfgs:
        rep = random_scan(cfg)
        print(
            f"n={cfg.n} field={fld!r} trials={rep.tuples_scanned} "
            f"solutions={rep.sm_solutions} violations={len(rep.equivalence_violations)}"
        )
        for v in rep.equivalence_violations:
            print(f"  VIOLATION {v}")
        bad += len(rep.equivalence_violations)
    return 4 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
