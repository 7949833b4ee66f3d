"""Command-line entry point.

Subcommands: verify (criterion verdicts for a coefficient list), minors
(principal minors and the derived objects), kernel (minimal kernel degree
and kernel vector polynomial), hunt (exhaustive or random conjecture scan),
demo (worked examples as a smoke test).

Exit codes: 0 clean, 2 usage or input error, 3 counterexample found,
4 internal consistency alarm. ``main`` is the one place that maps an
exception to an exit code: a refused input (``NotPrimeError``,
``PencilError``, ``HuntConfigError``, which the subcommands raise for
their own refusals too) exits 2 with one ``error:`` line, and a
``ConsistencyAlarm`` exits 4; a subcommand returns 3 or 4 itself only
for what its report lists. Scalars serialize as exact strings ("p/q" or
a prime-field residue), never as decimals.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from .criteria import ConsistencyAlarm, evaluate_instance
from .field import NotPrimeError, PrimeField, QQ
from .hunt import MAX_N, HuntConfig, HuntConfigError, exhaustive_scan, random_scan
from .kronecker import BlockPencil, analyze
from .minors import build_sm_objects, det_X, principal_minors
from .pencil import PencilError, build_pencil


def _field_from_args(args):
    return QQ if args.prime is None else PrimeField(args.prime)


def _parse_c(args, fld) -> List:
    raw = args.c.split(",")
    if len(raw) > MAX_N + 1:
        raise PencilError(f"{len(raw)} coefficients exceed the limit of {MAX_N + 1} (n <= {MAX_N})")
    if not all(s.strip() for s in raw):
        raise PencilError(f"empty entry in coefficient list {args.c!r}")
    try:
        return [fld.parse(s) for s in raw]
    except (ValueError, ZeroDivisionError) as e:
        raise PencilError(f"cannot parse coefficient list {args.c!r}: {e}") from e


def _pencil_from_args(args):
    fld = _field_from_args(args)
    return build_pencil(_parse_c(args, fld), fld)


def _witness_json(w):
    return None if w is None else [w[0], str(w[1])]


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
        return
    for key, val in doc.items():
        print(f"{key}: {val}")


def cmd_verify(args) -> int:
    p = _pencil_from_args(args)
    rep = evaluate_instance(p)
    doc = {
        "n": p.n,
        "c": [str(ci) for ci in p.c],
        "singular": rep.singular_det,
        "geometric": rep.geometric is not None,
        "lambda": None if rep.geometric is None else str(rep.geometric),
        "s_holds": rep.s_holds,
        "sm_holds": rep.sm_holds,
        "s_witness": _witness_json(rep.s_witness),
        "sm_witness": _witness_json(rep.sm_witness),
    }
    _emit(doc, args.json)
    return 0


def cmd_minors(args) -> int:
    p = _pencil_from_args(args)
    mv = principal_minors(p)
    sm = build_sm_objects(mv)
    doc = {
        "n": p.n,
        "c": [str(ci) for ci in p.c],
        "minors": [str(m) for m in mv.m],
        "X": [[str(e) for e in row] for row in sm.X.data],
        "y": [str(e) for e in sm.y],
        "det_X": str(det_X(mv)) if p.n >= 3 else None,
    }
    _emit(doc, args.json)
    return 0


def cmd_kernel(args) -> int:
    p = _pencil_from_args(args)
    result = analyze(BlockPencil.from_pencil(p))
    f = result.kernel_poly
    doc = {
        "n": p.n,
        "c": [str(ci) for ci in p.c],
        "d": result.minimal_index_d,
        "kernel": None if f is None else [[str(co) for co in fi.coeffs] for fi in f],
    }
    if f is None and not args.json:
        print("regular pencil")
    else:
        _emit(doc, args.json)
    return 0


def cmd_hunt(args) -> int:
    if args.exhaustive == args.random:
        raise HuntConfigError("choose exactly one of --exhaustive / --random")
    if args.n > MAX_N:
        raise HuntConfigError(f"n = {args.n} exceeds the limit {MAX_N}")
    cfg = HuntConfig(
        n=args.n,
        field=_field_from_args(args),
        mode="exhaustive" if args.exhaustive else "random",
        trials=100 if args.random and args.trials is None else args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    report = exhaustive_scan(cfg) if args.exhaustive else random_scan(cfg)
    doc = {"n": args.n, "hunt": report.to_dict()}
    _emit(doc, args.json)
    # a recorded criterion disagreement is a consistency alarm, before any counterexample
    return 4 if report.equivalence_violations else 3 if report.counterexamples else 0


def cmd_demo(args) -> int:
    print("# geometric n=3 instance c=(1,2,4,8): singular, ratio 2")
    rep = evaluate_instance(build_pencil([QQ.of(1), QQ.of(2), QQ.of(4), QQ.of(8)]))
    print(
        f"singular={rep.singular_det} s_holds={rep.s_holds} "
        f"sm_holds={rep.sm_holds} lambda={rep.geometric!s}"
    )
    print("# non-geometric n=3 instance c=(1,1,1,2): regular, all tests fail")
    rep = evaluate_instance(build_pencil([QQ.of(1), QQ.of(1), QQ.of(1), QQ.of(2)]))
    print(f"singular={rep.singular_det} s_holds={rep.s_holds} sm_holds={rep.sm_holds}")
    print("# exhaustive n=4 scan over GF(5): solutions are the geometric family")
    report = exhaustive_scan(HuntConfig(n=4, field=PrimeField(5), mode="exhaustive"))
    print(json.dumps({"hunt": report.to_dict()}, sort_keys=True))
    return 3 if report.counterexamples else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeppencil",
        description="Exact singularity analysis of banded Toeplitz matrix pencils.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, needs_c: bool):
        if needs_c:
            sp.add_argument("--c", required=True, help="comma-separated coefficients c1..c_{n+1}")
        sp.add_argument("--prime", type=int, default=None, help="work over GF(p)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("verify", help="evaluate all singularity tests on one instance")
    add_common(sp, needs_c=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("minors", help="principal minors and derived minor objects")
    add_common(sp, needs_c=True)
    sp.set_defaults(func=cmd_minors)

    sp = sub.add_parser("kernel", help="minimal kernel degree and kernel polynomial")
    add_common(sp, needs_c=True)
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("hunt", help="scan for conjecture counterexamples")
    sp.add_argument("--n", type=int, required=True)
    add_common(sp, needs_c=False)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--random", action="store_true")
    sp.add_argument("--trials", type=int, default=None, help="random scans only (default 100)")
    sp.add_argument("--seed", type=int, default=None, help="random scans only (default 0)")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_hunt)

    sp = sub.add_parser("demo", help="run the worked examples")
    sp.set_defaults(func=cmd_demo)

    return parser


def _join_negative_c(argv: List[str]) -> List[str]:
    """``--c -1/2,1,2`` as ``--c=-1/2,1,2``: argparse reads a separate
    value that starts with a minus sign as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--c" and re.match(r"-[.0-9]", arg):
            out[-1] = f"--c={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_c(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (NotPrimeError, PencilError, HuntConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConsistencyAlarm as e:
        print(f"internal consistency alarm: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
