#!/usr/bin/env python3
"""Mutation check of the three-way contract: each planted fault must fail tests.

A mutant is a fixed (file, old text, new text, test node ids). For each one
the script copies src/, tests/ and pyproject.toml into a temporary
directory, replaces the old text there and runs pytest on the node ids;
the mutant is killed when every node id has a failing test (a test
function's id covers its parametrized cases). The checkout itself is never
edited.

Usage: python3 scripts/mutants.py [--check]

--check only tests that every old text matches its file exactly once and
that every node id names a test function, without running any mutant.
Exit codes: 0 every mutant killed (or, with --check, every spec matches);
2 an old text does not match exactly once, a node id names no test, or
pytest could not run a mutant's tests; 4 a mutant survived.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/toeppencil/"
CRITERIA = "tests/test_criteria.py::"
FIELD = "tests/test_field.py::"
HUNT = "tests/test_hunt.py::"
KRONECKER = "tests/test_kronecker.py::"
PENCIL = "tests/test_pencil.py::"
NULL_VECTOR = "tests/test_linalg.py::test_null_vector_is_the_first_kernel_basis_vector"
STACKED = KRONECKER + "test_analyze_matches_stacked_reference"
RESIDUE = CRITERIA + "test_residue_routes_match_the_int_routes"
MINOR_SPY = "tests/test_minors.py::test_gf_minor_map_runs_on_residues"
CONTRACT = FIELD + "test_operator_contract_table"
REFUSALS = FIELD + "test_of_and_lift_refuse_non_members"
GENERAL_CERT = KRONECKER + "test_general_certificate_matches_the_newton_reference"

# (name, file, old text, new text, test node ids that must fail)
MUTANTS = [
    (
        "analyze calls is_singular",
        PKG + "kronecker.py",
        "    for d in range(n + 1):\n",
        "    from .pencil import is_singular\n\n"
        "    is_singular(PencilInstance(fld, (fld.one,) * 3))\n"
        "    for d in range(n + 1):\n",
        [CRITERIA + "test_kernel_stays_apart_from_the_verdicts"],
    ),
    (
        "the kernel tests det T(d) over Z, not its Newton coefficient",
        PKG + "kronecker.py",
        "n + 1, fld.characteristic)",
        "n + 1, 0)",
        [KRONECKER + "test_regular_pencil_det_vanishing_at_probes"],
    ),
    (
        "the kernel returns regular when no C(d) has a null vector",
        PKG + "kronecker.py",
        '            raise ConsistencyAlarm("det T(x) is zero, yet no C(d) with d < n has a null vector")',
        "            return KroneckerResult(minimal_index_d=None, kernel_poly=None)",
        [KRONECKER + "test_zero_det_without_a_null_vector_alarms"],
    ),
    (
        "the kernel skips its top-coefficient exit",
        PKG + "kronecker.py",
        "        if next(cert):  # the top coefficient, nonzero in the field\n"
        "            return KroneckerResult(minimal_index_d=None, kernel_poly=None)\n",
        "        next(cert)\n",
        [KRONECKER + "test_regular_pencil_exits_before_any_stacked_matrix"],
    ),
    (
        "the certificate's top coefficient is tested over Z, not the field",
        PKG + "pencil.py",
        "    yield top % p if p else top\n",
        "    yield top\n",
        [STACKED, PENCIL + "test_is_singular_when_the_top_coefficient_vanishes_mod_p"],
    ),
    (
        "the c path's x-part drops the lift scale L",
        PKG + "kronecker.py",
        "_rows((0,) * (n + 1), L, 0)",
        "_rows((0,) * (n + 1), 1, 0)",
        [KRONECKER + "test_c_path_rows_equal_the_matrix_lift"],
    ),
    (
        "the general certificate reads n points",
        PKG + "kronecker.py",
        "_point_certificate(rows, n + 1,",
        "_point_certificate(rows, n,",
        [KRONECKER + "test_regular_pencil_det_vanishing_at_probes", GENERAL_CERT],
    ),
    (
        "the general rows skip the reduction mod q",
        PKG + "kronecker.py",
        "(x + d * y) % q if q else x + d * y",
        "x + d * y",
        [GENERAL_CERT],
    ),
    (
        "the back-substitution drops D",
        PKG + "kronecker.py",
        "s = D * row[f] + sum(",
        "s = row[f] + sum(",
        [NULL_VECTOR, STACKED],
    ),
    (
        "the back-substitution's sum is off by one column",
        PKG + "kronecker.py",
        "map(mul, row[r + 1 : f], y[r + 1 :])",
        "map(mul, row[r : f], y[r + 1 :])",
        [NULL_VECTOR, STACKED],
    ),
    (
        "the kernel stops at a vanished event",
        PKG + "kronecker.py",
        "    for k, D, _ in _eliminate(a, p):\n        f = k + 1\n",
        "    for k, D, vanished in _eliminate(a, p):\n        if vanished:\n            break\n        f = k + 1\n",
        [NULL_VECTOR, KRONECKER + "test_null_vector_passes_over_a_vanished_row"],
    ),
    (
        "the null vector writes 1 instead of D at its free column",
        PKG + "kronecker.py",
        "return y + [D] + [0] * (cols - f - 1), D",
        "return y + [1] + [0] * (cols - f - 1), D",
        [NULL_VECTOR, STACKED],
    ),
    (
        "the kernel's Polys drop the division by D",
        PKG + "kronecker.py",
        "vec = [fld.frac(v, D) for v in y]",
        "vec = [fld.frac(v, 1) for v in y]",
        [STACKED, KRONECKER + "test_analyze_lifts_once"],
    ),
    (
        "a row swap keeps the minor's sign",
        PKG + "pencil.py",
        "            sign = -sign\n",
        "",
        [PENCIL + "test_eliminate_minors_match_the_leading_blocks", PENCIL + "test_det_int_rules_match_laplace"],
    ),
    (
        "the vanished event is yielded after the tail is written",
        PKG + "pencil.py",
        "                if not any(tail):\n                    yield k, minor, True\n                ri[k + 1 :] = tail\n",
        "                ri[k + 1 :] = tail\n                if not any(tail):\n                    yield k, minor, True\n",
        [PENCIL + "test_eliminate_yields_a_vanished_row_before_writing_it"],
    ),
    (
        "S stops at k = n-3",
        PKG + "criteria.py",
        "    for k in range(1, size):\n",
        "    for k in range(1, size - 1):\n",
        [CRITERIA + "test_small_prime_census", CRITERIA + "test_equivalence_chain_gf"],
    ),
    (
        "S drops the star value",
        PKG + "criteria.py",
        "    yield star % p if p else star\n",
        "",
        [CRITERIA + "test_s_fails_with_star_witness", CRITERIA + "test_evaluate_instance_reports"],
    ),
    (
        "the SM sign alternation is dropped",
        PKG + "minors.py",
        "a = [ci if k % 2 == 0 else -ci for k, ci in enumerate(c)]",
        "a = list(c)",
        [CRITERIA + "test_sm_examples", "tests/test_minors.py::test_minor_examples"],
    ),
    (
        "det_X divides by D^(size-1)",
        PKG + "minors.py",
        "D**size)",
        "D ** (size - 1))",
        [
            "tests/test_minors.py::test_det_x_property",
            "tests/test_acceptance.py::test_criterion_03_det_x",
        ],
    ),
    (
        "det_X's column b starts one row late",
        PKG + "minors.py",
        "[0] * (b - 1) + m[max(1 - b, 0) : size + 1 - b]",
        "[0] * b + m[: size - b]",
        ["tests/test_minors.py::test_det_x_matches_the_built_x", "tests/test_minors.py::test_det_x_property"],
    ),
    (
        "det_X drops the sign (-1)^size of the unsigned minors",
        PKG + "minors.py",
        "(-1) ** size * _det_int(",
        "_det_int(",
        ["tests/test_minors.py::test_det_x_matches_the_built_x", "tests/test_minors.py::test_det_x_property"],
    ),
    (
        "the SM core skips the m_n test",
        PKG + "criteria.py",
        "    if _first_violation([B[n]], p):\n        return -1, B[n]\n",
        "",
        [CRITERIA + "test_sm_examples", CRITERIA + "test_routes_stay_independent"],
    ),
    (
        "the SM witness divides by a_0^(n+k)",
        PKG + "criteria.py",
        "return fld.frac(v, c[0] ** (len(c) + k))",
        "return fld.frac(v, c[0] ** (len(c) + k - 1))",
        [
            CRITERIA + "test_s_and_sm_values_match_field_formulas",
            CRITERIA + "test_check_sm_matches_the_minor_vector_route",
        ],
    ),
    (
        "the entry's comparison leaves S out",
        PKG + "criteria.py",
        "if not (singular == s_holds == sm_holds):",
        "if not (singular == sm_holds):",
        [
            HUNT + "test_planted_s_fault_alarms_on_exactly_the_sm_orbits",
            HUNT + "test_planted_s_fault_alarms_on_exactly_the_singular_random_pencils",
        ],
    ),
    (
        "x sits one column right in _rows",
        PKG + "pencil.py",
        "x, *[zero] * (n - i - 3)][:n]",
        "zero, x, *[zero] * (n - i - 4)][:n]",
        [PENCIL + "test_rows_follow_the_entry_rule_and_are_persymmetric"],
    ),
    (
        "_det_int divides a lagging row by prev",
        PKG + "pencil.py",
        "lv = level[i]",
        "lv = prev",
        [PENCIL + "test_det_int_rules_match_laplace", PENCIL + "test_is_singular_matches_polynomial_determinant"],
    ),
    (
        "the top coefficient drops c_{n-1} c_{n+1}",
        PKG + "pencil.py",
        "return c[-2] ** 2 - c[-3] * c[-1]",
        "return c[-2] ** 2",
        [PENCIL + "test_top_coefficient_matches_laplace", PENCIL + "test_is_singular_matches_polynomial_determinant"],
    ),
    (
        "the det route reads n-3 points",
        PKG + "pencil.py",
        "(rows, n - 2, p)",
        "(rows, n - 3, p)",
        [PENCIL + "test_is_singular_when_the_top_coefficient_vanishes_mod_p"],
    ),
    (
        "the det route reads a_0 before the top coefficient",
        PKG + "pencil.py",
        "    n, top = len(c) - 1, _top_coefficient(c)\n",
        "    n, top = len(c) - 1, _top_coefficient(c)\n    _det_int([r[::-1] for r in reversed(_rows(c, 0, 0))], 0)\n",
        [PENCIL + "test_nonzero_top_coefficient_reads_no_determinant"],
    ),
    (
        "the geometric product is off by one index",
        PKG + "pencil.py",
        "c[1] * c[k] for k in",
        "c[1] * c[k - 1] for k in",
        [PENCIL + "test_is_geometric", PENCIL + "test_is_geometric_matches_the_division_loop"],
    ),
    (
        "the hunt drops the head zero test",
        PKG + "hunt.py",
        "        if not all(Bh):\n            continue\n",
        "",
        [HUNT + "test_orbit_scan_matches_per_tuple_reference[5-7]", HUNT + "test_n4_solution_count_is_p_minus_1"],
    ),
    (
        "the hunt drops the B_n validity test",
        PKG + "hunt.py",
        "bad = {z1, -z0 * pow(2, -1, p) % p}",
        "bad = {z1}",
        [HUNT + "test_orbit_scan_matches_per_tuple_reference[3-7]", HUNT + "test_n4_solution_count_is_p_minus_1"],
    ),
    (
        "the residue det runs for p < n-2",
        PKG + "pencil.py",
        "_det_int(rows(x0, q), q)",
        "_det_int(rows(x0, q), p)",
        [PENCIL + "test_is_singular_when_the_top_coefficient_vanishes_mod_p", RESIDUE],
    ),
    (
        "Newton at p = n-2",
        PKG + "pencil.py",
        "q = p if p >= count else 0",
        "q = p if p > count else 0",
        [KRONECKER + "test_newton_stream_runs_only_where_the_points_repeat"],
    ),
    (
        "n = 2 reads det T'(0)",
        PKG + "pencil.py",
        "(rows, n - 2, p)",
        "(rows, max(n - 2, 1), p)",
        [KRONECKER + "test_n2_zero_top_coefficient_reads_no_determinant"],
    ),
    (
        "_first_violation drops its mod-p reduction",
        PKG + "pencil.py",
        "if (v % p if p else v)), None)",
        "if v), None)",
        [RESIDUE],
    ),
    (
        "the det route reads values instead of Newton where the points repeat",
        PKG + "pencil.py",
        "for v in values if q == p else _newton_coefficients(values):",
        "for v in values:",
        [
            PENCIL + "test_is_singular_when_the_top_coefficient_vanishes_mod_p",
            KRONECKER + "test_regular_pencil_det_vanishing_at_probes[gf3-n12]",
        ],
    ),
    (
        "the det route runs the Newton stream over QQ",
        PKG + "pencil.py",
        "values if q == p else",
        "values if q else",
        [KRONECKER + "test_newton_stream_runs_only_where_the_points_repeat"],
    ),
    (
        "principal_minors runs the minor map over Z",
        PKG + "minors.py",
        "_minor_ints(p.field.lift(p.c)[0], p.field.characteristic)",
        "_minor_ints(p.field.lift(p.c)[0], 0)",
        [MINOR_SPY],
    ),
    (
        "recover_c_from_minors runs over Z",
        PKG + "minors.py",
        "_reciprocal([D, *N], len(N) + 1, field.characteristic)",
        "_reciprocal([D, *N], len(N) + 1, 0)",
        [MINOR_SPY],
    ),
    (
        "the kernel identity test ignores the modulus",
        PKG + "kronecker.py",
        "if _first_violation(coeff, p):",
        "if _first_violation(coeff, 0):",
        [STACKED],
    ),
    (
        "_geometric tests over Z",
        PKG + "pencil.py",
        "return None if _first_violation(cross, fld.characteristic) else",
        "return None if _first_violation(cross, 0) else",
        [PENCIL + "test_is_geometric_matches_the_division_loop"],
    ),
    (
        "y = 0 tested over Z",
        PKG + "criteria.py",
        "y_is_zero=_first_violation(B[2:-1], fld.characteristic) is None",
        "y_is_zero=_first_violation(B[2:-1], 0) is None",
        [RESIDUE],
    ),
    (
        "the degree check reads f_{d-1}",
        PKG + "kronecker.py",
        "if _first_violation(fk[-2], p) is None:",
        "if _first_violation(fk[-3], p) is None:",
        [KRONECKER + "test_kernel_poly_rejects_degree_below_index"],
    ),
    (
        "the Newton stream drops its division by k!",
        PKG + "pencil.py",
        "yield v // factorial(k)",
        "yield v",
        [
            PENCIL + "test_newton_stream_matches_the_list_version",
            PENCIL + "test_first_nonzero_value_and_newton_coefficient_share_an_index",
            PENCIL + "test_is_singular_when_the_top_coefficient_vanishes_mod_p",
        ],
    ),
    (
        "the residue det keeps the pivot row's multiple unreduced by its inverse",
        PKG + "pencil.py",
        "f = aik * inv % p",
        "f = aik % p",
        [PENCIL + "test_residue_det_matches_the_int_det", RESIDUE],
    ),
    (
        "the hunt's V_0 root has the wrong sign",
        PKG + "hunt.py",
        "slope = 2 * prefix[2] if n % 2 else -2 * prefix[2]",
        "slope = -2 * prefix[2] if n % 2 else 2 * prefix[2]",
        [HUNT + "test_orbit_scan_matches_per_tuple_reference[5-7]"],
    ),
    (
        "the valid-leaf count ignores the B_n root",
        PKG + "hunt.py",
        "(len(leaves) - len(bad & leaves))",
        "(len(leaves) - 1)",
        [HUNT + "test_orbit_scan_matches_per_tuple_reference[5-7]"],
    ),
    (
        "the GF(2) leaves ignore a vanishing B_n",
        PKG + "hunt.py",
        "bad = {z1} if z0 else {0, 1}",
        "bad = {z1}",
        [HUNT + "test_leaf_ends_match_the_reciprocal[5-2]"],
    ),
    (
        "the stride listing ignores gcd(n-1, stride)",
        PKG + "hunt.py",
        "g = gcd(n - 1, _CROSSCHECK_STRIDE)",
        "g = 1",
        [HUNT + "test_stride_listing_matches_the_reference_at_every_stride"],
    ),
    (
        "the hunt scales c by the m scale",
        PKG + "hunt.py",
        "zip(scale_c, B)",
        "zip(scale_m, B)",
        [HUNT + "test_orbit_scan_crosschecks_the_reference_pencils"],
    ),
    (
        "the GF(p) operators' helper drops its None check",
        PKG + "field.py",
        "return NotImplemented if o is None else op(self, o)",
        "return op(self, o)",
        [CONTRACT],
    ),
    (
        "__rsub__ subtracts the other way",
        PKG + "field.py",
        "__rsub__ = _coerced(lambda a, b: GFElement(b.val - a.val, a.p))",
        "__rsub__ = _coerced(lambda a, b: GFElement(a.val - b.val, a.p))",
        [CONTRACT],
    ),
    (
        "_coerce embeds a Fraction",
        PKG + "field.py",
        "        if isinstance(other, int):\n",
        "        if isinstance(other, (int, Fraction)):\n",
        [CONTRACT, FIELD + "test_gf_of_refuses_a_fraction"],
    ),
    (
        "GF(p)'s lift lets a non-member through as 0",
        PKG + "field.py",
        "return [coerce(x).val for x in xs], 1",
        "return [(coerce(x) or GFElement(0, self.p)).val for x in xs], 1",
        [REFUSALS + "[GF7]", CRITERIA + "test_routes_refuse_a_hand_built_pencil_outside_the_field"],
    ),
    (
        "QQ's of accepts a float",
        PKG + "field.py",
        "if isinstance(x, (int, Fraction)):",
        "if isinstance(x, (int, Fraction, float)):",
        [REFUSALS + "[QQ]"],
    ),
    (
        "the random scan reads y from B[1:-1]",
        PKG + "hunt.py",
        "_first_violation(B[2:-1], fld.characteristic) is None",
        "_first_violation(B[1:-1], fld.characteristic) is None",
        [HUNT + "test_random_scan_lists_counterexamples", HUNT + "test_random_scan_lifts_each_distinct_list_once"],
    ),
    (
        "the alarm writes c as reprs",
        PKG + "criteria.py",
        'shown = ",".join(str(fld.frac(ci, L)) for ci in c)',
        "shown = tuple(fld.frac(ci, L) for ci in c)",
        ["tests/test_cli.py::test_alarm_writes_c_as_the_reports_do"],
    ),
    (
        "the hunt's exit code ignores violations",
        PKG + "cli.py",
        "return 4 if report.equivalence_violations else 3 if report.counterexamples else 0",
        "return 3 if report.counterexamples else 0",
        ["tests/test_cli.py::test_hunt_violation_exit_4"],
    ),
]


def spec_errors() -> list:
    """Every mutant whose old text does not match once, or whose node id names no test."""
    errors = []
    for name, path, old, _, tests in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            errors.append(f"{name}: old text matches {path} {count} times")
        for node in tests:
            file, _, func = node.partition("::")
            text = (ROOT / file).read_text() if (ROOT / file).is_file() else None
            func = func.split("[")[0]
            if text is None or (func and not re.search(rf"^def {func}\(", text, re.M)):
                errors.append(f"{name}: no test {node}")
    return errors


def killed(path: str, old: str, new: str, tests: list) -> bool:
    """Whether every node id has a failing test on a copy with the edit;
    raises RuntimeError when pytest does not run them."""
    with tempfile.TemporaryDirectory(prefix="toeppencil-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp) / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=600,
        )
    if proc.returncode not in (0, 1):
        raise RuntimeError(proc.stdout[-2000:] + proc.stderr[-2000:])
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return all(any(f == t or f.startswith((t + "[", t + "::")) for f in failed) for t in tests)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="only match the specs; run no mutant")
    args = ap.parse_args()
    errors = spec_errors()
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        return 2
    if args.check:
        print(f"{len(MUTANTS)} mutants match")
        return 0
    survived = 0
    for name, path, old, new, tests in MUTANTS:
        try:
            ok = killed(path, old, new, tests)
        except RuntimeError as e:
            print(f"error: {name}: pytest did not run the tests\n{e}", file=sys.stderr)
            return 2
        survived += not ok
        print(f"{'killed' if ok else 'SURVIVED'}  {name}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 4 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
