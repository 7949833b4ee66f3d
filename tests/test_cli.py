import json
import signal

import pytest

from toeppencil.cli import main
from toeppencil.field import PRIME_CHECK_BOUND

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


def test_minors_output(capsys):
    code, out, _ = run(capsys, ["minors", "--c", "1,1,1,2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["minors"] == ["1", "1", "0", "1"]
    assert set(doc) == {"n", "c", "minors", "X", "y", "det_X"}


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
