import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from toeppencil import cli, criteria, hunt, minors
from toeppencil.cli import main
from toeppencil.criteria import ConsistencyAlarm
from toeppencil.field import GF, PRIME_CHECK_BOUND
from toeppencil.hunt import MAX_N, HuntConfig, exhaustive_scan

SRC = Path(__file__).resolve().parents[1] / "src"

VERIFY_KEYS = {
    "n", "c", "singular", "geometric", "lambda",
    "s_holds", "sm_holds", "s_witness", "sm_witness",
}
HUNT_KEYS = {"scanned", "valid", "sm_solutions", "counterexamples", "violations", "note"}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_geometric(capsys):
    code, out, _ = run(capsys, ["verify", "--c", "1,2,4,8", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == VERIFY_KEYS
    assert doc["singular"] is True
    assert doc["geometric"] is True and doc["lambda"] == "2"
    assert doc["s_holds"] is True and doc["sm_holds"] is True


def test_verify_regular(capsys):
    code, out, _ = run(capsys, ["verify", "--c", "1,1,1,2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["singular"] is False
    assert doc["s_holds"] is False and doc["sm_holds"] is False
    assert doc["geometric"] is False and doc["lambda"] is None


TEXT_OUTPUTS = {
    "verify --c 1,2,4,8": (
        "n: 3\n"
        "c: ['1', '2', '4', '8']\n"
        "singular: True\n"
        "geometric: True\n"
        "lambda: 2\n"
        "s_holds: True\n"
        "sm_holds: True\n"
        "s_witness: None\n"
        "sm_witness: None\n"
    ),
    "minors --c 1,1,1,2": (
        "n: 3\n"
        "c: ['1', '1', '1', '2']\n"
        "minors: ['1', '1', '0', '1']\n"
        "X: [['-1']]\n"
        "y: ['0']\n"
        "det_X: -1\n"
    ),
    "kernel --c 1,2,4,8": (
        "n: 3\n"
        "c: ['1', '2', '4', '8']\n"
        "d: 0\n"
        "kernel: [['-1/2'], ['1'], []]\n"
    ),
    # the hunt line is the report's dict repr
    "hunt --n 4 --prime 5 --exhaustive": (
        "n: 4\n"
        "hunt: {'scanned': 125, 'valid': 52, 'sm_solutions': 4, 'counterexamples': [], "
        "'violations': [], 'note': None}\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(TEXT_OUTPUTS))
def test_text_output(capsys, argv):
    assert run(capsys, argv.split()) == (0, TEXT_OUTPUTS[argv], "")


@pytest.mark.parametrize("extra", [[], ["--json"]])
@pytest.mark.parametrize("cmd", ["verify", "minors", "kernel"])
def test_negative_first_coefficient(capsys, monkeypatch, cmd, extra):
    # argparse alone reads a separate value that starts with "-" as an option
    joined = run(capsys, [cmd, "--c=-1/2,1,2", *extra])
    assert joined[0] == 0 and joined[1]
    assert run(capsys, [cmd, "--c", "-1/2,1,2", *extra]) == joined
    monkeypatch.setattr(sys, "argv", ["toeppencil", cmd, "--c", "-1/2,1,2", *extra])
    assert run(capsys, None) == joined


def test_missing_coefficient_list_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--c", "--json"])
    assert exc.value.code == 2
    assert "argument --c: expected one argument" in capsys.readouterr().err


def test_hunt_needs_exactly_one_mode_exit_2(capsys):
    for mode in ([], ["--exhaustive", "--random"]):
        code, out, err = run(capsys, ["hunt", "--n", "4", "--prime", "5", *mode])
        assert code == 2 and out == ""
        assert err == "error: choose exactly one of --exhaustive / --random\n"


def test_unparsable_coefficient_exit_2(capsys):
    code, out, err = run(capsys, ["verify", "--c", "1,x,3"])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse coefficient list '1,x,3'")


def test_consistency_alarm_exit_4(capsys, monkeypatch):
    def planted(p):
        raise ConsistencyAlarm("planted disagreement")

    monkeypatch.setattr(cli, "evaluate_instance", planted)
    code, out, err = run(capsys, ["verify", "--c", "1,2,4,8"])
    assert code == 4 and out == ""
    assert err == "internal consistency alarm: planted disagreement\n"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_walk_fault_exit_4(capsys, monkeypatch, workers):
    # a planted walk fault: _leaf_ends marks no leaf invalid, so the walk
    # reaches tuples with a zero coefficient; the cross-check's guard alarms
    # (re-raised from the fork pool at 2 workers) and no report is printed
    real = hunt._leaf_ends
    monkeypatch.setattr(hunt, "_leaf_ends", lambda Z, p: (real(Z, p)[0], set()))
    argv = ["hunt", "--n", "5", "--prime", "7", "--exhaustive", "--json", "--workers", str(workers)]
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    # the pool reads its shards in order and shard 0 holds the first head, so
    # 2 and 3 workers raise the 1-worker alarm
    assert err == "internal consistency alarm: the walk reached minors (1, 0, 0, 4) with c6 = 0\n"
    cfg = HuntConfig(n=5, field=GF(7), mode="exhaustive", workers=workers)
    with pytest.raises(ConsistencyAlarm, match="^the walk reached minors "):
        exhaustive_scan(cfg)


@pytest.mark.parametrize("argv", [["verify", "--c", "1,2,4,8", "--json"], ["verify", "--c", "1,0,2"]])
def test_python_m_matches_main(capsys, argv):
    # python -m toeppencil runs __main__.py: the bytes and exit code of main
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "toeppencil", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, argv)


def test_verify_zero_coefficient_exit_2(capsys):
    code, _, err = run(capsys, ["verify", "--c", "1,0,1,2"])
    assert code == 2
    assert "c2" in err


def test_verify_rational_scalars_roundtrip(capsys):
    code, out, _ = run(capsys, ["verify", "--c", "1/2,1,2,4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["c"][0] == "1/2"
    assert doc["lambda"] == "2"


def test_decimal_literal_is_exact(capsys):
    # over QQ --c takes any exact Fraction literal: 1.5 is 3/2
    assert run(capsys, ["verify", "--c", "1.5,2,3"]) == run(capsys, ["verify", "--c", "3/2,2,3"])


def test_minors_output(capsys):
    code, out, _ = run(capsys, ["minors", "--c", "1,1,1,2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["minors"] == ["1", "1", "0", "1"]
    assert set(doc) == {"n", "c", "minors", "X", "y", "det_X"}


def test_minors_builds_the_sm_objects_once(capsys, monkeypatch):
    # X and y come from one SMObjects; det_X reads the minors, not a second X
    built = []
    real = minors.build_sm_objects
    for module in (cli, minors):
        monkeypatch.setattr(module, "build_sm_objects", lambda mv: built.append(mv.n) or real(mv))
    code, out, _ = run(capsys, ["minors", "--c", "2,-1,3,5/3,7,1/2", "--json"])
    assert code == 0 and json.loads(out)["det_X"] == "-5/6"  # (-1)^n c_{n-1} / c_1
    assert built == [5]


def test_kernel_geometric(capsys):
    code, out, _ = run(capsys, ["kernel", "--c", "1,2,4,8", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 0
    # constant kernel vector proportional to (1, -2, 0)
    f = doc["kernel"]
    assert f[2] == [] and len(f[0]) == 1 and len(f[1]) == 1


def test_kernel_regular(capsys):
    code, out, _ = run(capsys, ["kernel", "--c", "1,1,1,2"])
    assert code == 0
    assert "regular pencil" in out


def test_hunt_n4_gf5(capsys):
    code, out, _ = run(
        capsys, ["hunt", "--n", "4", "--prime", "5", "--exhaustive", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc["hunt"]) == HUNT_KEYS
    assert doc["hunt"]["sm_solutions"] == 4
    assert doc["hunt"]["counterexamples"] == []


def test_hunt_nonprime_exit_2(capsys):
    code, _, err = run(capsys, ["hunt", "--n", "4", "--prime", "4", "--exhaustive"])
    assert code == 2
    assert "prime" in err


def test_hunt_n_below_2_exit_2(capsys):
    for argv in (["--n", "1", "--prime", "5", "--exhaustive"], ["--n", "1", "--random"]):
        code, out, err = run(capsys, ["hunt", *argv])
        assert code == 2 and out == ""
        assert err == "error: n must be >= 2\n"


def test_hunt_random_workers_exit_2(capsys):
    argv = ["hunt", "--n", "5", "--random", "--trials", "10", "--workers", "2"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: random scans run in one process; workers must be 1\n"


def test_hunt_exhaustive_trials_or_seed_exit_2(capsys):
    base = ["hunt", "--n", "4", "--prime", "5", "--exhaustive"]
    for extra in (
        ["--trials", "7", "--seed", "9"], ["--trials", "7"], ["--seed", "9"],
        ["--trials", "0", "--seed", "0"], ["--trials", "0"], ["--seed", "0"], ["--seed", "1"],
    ):
        code, out, err = run(capsys, base + extra)
        assert code == 2 and out == ""
        assert err == "error: exhaustive scans take no trials or seed\n"
    random_hunt = ["hunt", "--n", "5", "--random", "--trials", "20", "--json"]
    assert run(capsys, random_hunt) == run(capsys, random_hunt + ["--seed", "0"])


def test_hunt_exhaustive_size_bound_exit_2(capsys):
    def too_slow(signum, frame):
        raise TimeoutError("the refusal took over 1 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, out, err = run(capsys, ["hunt", "--n", "3", "--prime", "1000003", "--exhaustive"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code == 2 and out == ""
    assert err == (
        "error: exhaustive scan of 1000003^2 = 1000006000009 tuples exceeds the limit 100000000\n"
    )


def test_hunt_workers_below_1_exit_2(capsys):
    code, out, err = run(capsys, ["hunt", "--n", "4", "--prime", "5", "--exhaustive", "--workers", "0"])
    assert code == 2 and out == ""
    assert err == "error: workers must be >= 1\n"


def test_hunt_random_counterexamples_exit_3(capsys):
    argv = ["hunt", "--n", "5", "--prime", "7", "--random", "--trials", "2000", "--seed", "0", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert json.loads(out)["hunt"]["counterexamples"] == [
        ["2", "4", "2", "2", "3", "1"], ["3", "2", "4", "5", "2", "5"]
    ]


def test_hunt_workers_bound_exit_2(capsys, monkeypatch):
    # 9973^2 tuples are within the size bound; the worker bound refuses the
    # config before a scan, which would fork min(workers, p) processes, starts
    def no_scan(cfg):
        raise AssertionError("the scan started")

    monkeypatch.setattr(cli, "exhaustive_scan", no_scan)
    argv = ["hunt", "--n", "3", "--prime", "9973", "--exhaustive", "--workers", "65"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: workers = 65 exceeds the limit 64\n"


def test_size_gate_exit_2(capsys):
    # refused before any work: the entries of the list are not even parsed
    assert MAX_N == 256
    for cmd in ("verify", "minors", "kernel"):
        code, out, err = run(capsys, [cmd, "--c", ",".join(["x"] * 258)])
        assert code == 2 and out == ""
        assert err == "error: 258 coefficients exceed the limit of 257 (n <= 256)\n"
    for mode in (["--random"], ["--prime", "2", "--exhaustive"]):
        code, out, err = run(capsys, ["hunt", "--n", "257", *mode])
        assert code == 2 and out == ""
        assert err == "error: n = 257 exceeds the limit 256\n"
    # n = MAX_N passes the gate
    code, out, err = run(capsys, ["verify", "--c", ",".join(["1"] * 256 + ["2"]), "--json"])
    assert code == 0 and err == "" and json.loads(out)["n"] == 256
    code, out, err = run(capsys, ["hunt", "--n", "256", "--prime", "2", "--exhaustive"])
    assert code == 2 and out == ""
    assert err == "error: exhaustive scan of 2^255 tuples exceeds the limit 100000000\n"


def test_empty_coefficient_entry_exit_2(capsys):
    for c in ("1,,2,3", "1,2,3,", ",1,2,3", "1, ,2,3"):
        code, out, err = run(capsys, ["verify", "--c", c])
        assert code == 2 and out == ""
        assert err == f"error: empty entry in coefficient list {c!r}\n"


def test_large_prime_modulus(capsys):
    code, out, _ = run(capsys, ["verify", "--c", "1,2,3", "--prime", str(2**61 - 1), "--json"])
    assert code == 0
    assert json.loads(out)["s_witness"] == [0, str(2**61 - 2)]
    code, out, err = run(capsys, ["verify", "--c", "1,2,3", "--prime", str(PRIME_CHECK_BOUND)])
    assert code == 2 and out == ""
    b = PRIME_CHECK_BOUND
    assert err == f"error: {b} is too large to certify as prime (limit {b})\n"


def test_hunt_counterexample_exit_3(capsys):
    code, out, _ = run(
        capsys, ["hunt", "--n", "5", "--prime", "7", "--exhaustive", "--json"]
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["hunt"]["counterexamples"]
    assert "characteristic 0" in doc["hunt"]["note"]


def test_hunt_random_deterministic(capsys):
    argv = ["hunt", "--n", "5", "--random", "--trials", "50", "--seed", "1", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_hunt_random_gf2(capsys):
    code, out, err = run(
        capsys, ["hunt", "--n", "3", "--random", "--prime", "2", "--trials", "3", "--json"]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["hunt"]["scanned"] == 5


def test_gf_field_verify(capsys):
    code, out, _ = run(capsys, ["verify", "--c", "1,2,4,1", "--prime", "7", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["singular"] is True and doc["lambda"] == "2"


def test_demo_smoke(capsys):
    code, out, _ = run(capsys, ["demo"])
    assert code == 0
    assert "singular=True" in out and "singular=False" in out


def test_demo_exit_4_on_a_violation(capsys, monkeypatch):
    # a criterion disagreement in the demo's hunt is an alarm, as in `hunt`:
    # every cross-check of the GF(5) scan disagrees, and the report is printed
    def planted(c, L, fld):
        raise ConsistencyAlarm("planted disagreement")

    monkeypatch.setattr(hunt, "_verdicts", planted)
    code, out, err = run(capsys, ["demo"])
    assert code == 4 and err == ""
    doc = json.loads(out.splitlines()[-1])["hunt"]
    assert len(doc["violations"]) == 7 and doc["counterexamples"] == []


def _s_route_always_fails(c, p):
    # a planted S-route fault: the first S value is 1 for every pencil
    yield 1


@pytest.mark.parametrize(
    "argv, clean_code, violations",
    [
        (["--n", "5", "--prime", "7", "--exhaustive"], 3, 24),
        (["--n", "4", "--prime", "5", "--random", "--trials", "50"], 0, 4),
    ],
    ids=["exhaustive", "random"],
)
def test_hunt_violation_exit_4(capsys, monkeypatch, argv, clean_code, violations):
    # a recorded criterion disagreement is a consistency alarm in both modes,
    # whatever counterexamples the scan also found; the report is printed as is
    code, clean_out, _ = run(capsys, ["hunt", *argv, "--json"])
    assert code == clean_code and json.loads(clean_out)["hunt"]["violations"] == []
    monkeypatch.setattr(criteria, "_s_ints", _s_route_always_fails)
    code, out, err = run(capsys, ["hunt", *argv, "--json"])
    assert code == 4 and err == ""
    doc = json.loads(out)["hunt"]
    assert len(doc["violations"]) == violations
    assert {reason for _, reason in doc["violations"]} == {"criterion-disagreement"}
    assert run(capsys, ["hunt", *argv])[0] == 4


@pytest.mark.parametrize(
    "argv, shown",
    [(["--c", "1/2,1,2,4"], "1/2,1,2,4"), (["--c", "1,3,9,27", "--prime", "7"], "1,3,2,6")],
    ids=["QQ", "GF7"],
)
def test_alarm_writes_c_as_the_reports_do(capsys, monkeypatch, argv, shown):
    # the alarm names c by the report strings, joined as --c takes them
    monkeypatch.setattr(criteria, "_s_ints", _s_route_always_fails)
    code, out, err = run(capsys, ["verify", *argv, "--json"])
    assert code == 4 and out == ""
    assert err == f"internal consistency alarm: criteria disagree on c={shown}: det=True S=False SM=True\n"
