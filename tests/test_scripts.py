"""Smoke tests for the experiment scripts, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def sweep_rows(stdout):
    """(n, p) -> [scanned, valid, solutions, counterex] from the table rows."""
    rows = [line.split() for line in stdout.splitlines()]
    return {tuple(r[:2]): r[2:] for r in rows if r and r[0].isdigit()}


def test_conjecture_sweep_clean_over_gf5():
    proc = run_script("conjecture_sweep.py", "--n-max", "4", "--primes", "5", "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    rows = sweep_rows(proc.stdout)
    assert set(rows) == {("2", "5"), ("3", "5"), ("4", "5")}
    assert rows[("4", "5")] == ["125", "52", "4", "0"]


def test_conjecture_sweep_exits_3_on_gf7_counterexamples():
    proc = run_script("conjecture_sweep.py", "--n-max", "5", "--primes", "7", "--workers", "1")
    assert proc.returncode == 3, proc.stderr
    assert sweep_rows(proc.stdout)[("5", "7")][-1] == "18"
    assert proc.stdout.count("counterexample minors") == 18


def test_equivalence_fuzz_finds_no_violation():
    proc = run_script("equivalence_fuzz.py", "--n", "2..4", "--trials", "10", "--prime", "11")
    assert proc.returncode == 0, proc.stderr
    assert "VIOLATION" not in proc.stdout
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["n=2", "n=3", "n=4"]


def test_scripts_refuse_bad_primes_and_oversized_scans():
    fuzz = ["--n", "2..3", "--trials", "5"]
    cases = [
        ("equivalence_fuzz.py", fuzz + ["--prime", "0"], "0 is not prime"),
        ("equivalence_fuzz.py", fuzz + ["--prime", "4"], "4 is not prime"),
        ("equivalence_fuzz.py", ["--n", "1..3", "--trials", "5"], "n must be >= 2"),
        ("equivalence_fuzz.py", ["--n", "5..2", "--trials", "5"], "is empty"),
        ("equivalence_fuzz.py", ["--n", "2..x", "--trials", "5"], "n or lo..hi"),
        ("conjecture_sweep.py", ["--n-max", "3", "--primes", "5,4"], "4 is not prime"),
        ("conjecture_sweep.py", ["--n-max", "3", "--primes", "5,x"], "comma-separated"),
        ("conjecture_sweep.py", ["--n-max", "3", "--primes", ","], "comma-separated"),
        # every config is checked before the first scan, so (2, 5) does not run
        ("conjecture_sweep.py", ["--n-max", "5", "--primes", "5,1009"], "exceeds the limit"),
    ]
    for name, args, message in cases:
        proc = run_script(name, *args)
        assert proc.returncode == 2, (name, args, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_mutants_match_the_code():
    # every planted fault's old text still matches once; the full run is a CI step
    proc = run_script("mutants.py", "--check")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(" mutants match\n")


def test_code_lines_counts_only_code(tmp_path):
    # blank and comment-only lines and the module, class and function
    # docstrings are not code; a multi-line string that is not a docstring is
    module = tmp_path / "sample.py"
    module.write_text(
        '"""Module docstring,\n'
        'on two lines."""\n'
        "\n"
        "# a comment-only line\n"
        "import os  # a trailing comment\n"
        "\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    def f(self, x):\n"
        '        """Method docstring,\n'
        "\n"
        '        with a blank line."""\n'
        "        # another comment\n"
        '        text = """not a\n'
        "        docstring\n"
        '        """\n'
        "        return text + x\n"
    )
    other = tmp_path / "other.py"
    other.write_text("x = 1\n")
    proc = run_script("code_lines.py", str(module), str(other))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"7 {module}\n1 {other}\n8 total\n"
