"""The benchmark's own tests: tiny runs of every workload print every declared
metric, and a planted wrong reference answer counts as a failed operation."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The end-to-end metrics the lines before the JSON show, by workload.
SHOWN = {
    "verify": ["setup_s", "ops_per_s", "peak_rss_mb"] + [f"verdict_ms_p50.{c}" for c in workloads.VERIFY_CLASSES],
    "hunt": ["setup_s", "ops_per_s", "peak_rss_mb", "hunt_wall_s.w2"],
    "kernel": ["setup_s", "ops_per_s", "peak_rss_mb"] + [f"kernel_ms_p50.{c}" for c in workloads.KERNEL_CLASSES],
}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == workloads.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for m in SPEC["per_layer"]:
        assert m["unit"] == workloads.unit_of(m["name"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                    "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    shown = {line.split()[0] for line in lines[:-1]}
    assert "provenance" in shown
    if not trace:
        assert set(SHOWN[workload]) <= shown


def test_planted_wrong_verdict_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(ref, "regular_witness", lambda c, p=None: None)  # "every pencil is singular"
    bench, res = workloads.Verify(3, "tiny"), workloads.Result()
    bench.run_pass(res, HostSpeed())
    # Only the geometric class is singular: its verdict and its CLI call pass.
    assert (res.attempted, res.failed) == (len(bench.cases) + 3, len(bench.cases) - 1 + 2)


def test_planted_wrong_kernel_degree_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(ref, "minimal_index", lambda c, p=None: 3)
    bench, res = workloads.Kernel(3, "tiny"), workloads.Result()
    bench.run_pass(res, HostSpeed())
    assert res.attempted == res.failed == len(bench.cases)


def test_planted_wrong_hunt_count_is_a_failed_operation(monkeypatch):
    fixtures = copy.deepcopy(workloads.FIXTURES)
    for cell in fixtures["hunt"]:
        cell["valid"] += 1
    monkeypatch.setattr(workloads, "FIXTURES", fixtures)
    bench, res = workloads.Hunt(3, "tiny"), workloads.Result()
    bench.scan(res, HostSpeed(), bench.round_n, 1)
    assert res.attempted == res.failed == 1


def test_raised_result_is_a_failed_operation(monkeypatch):
    def boom(pencil):
        raise RuntimeError("planted")

    monkeypatch.setattr(workloads.tp, "evaluate_instance", boom)
    bench, res = workloads.Verify(3, "tiny"), workloads.Result()
    bench.run_pass(res, HostSpeed())
    assert res.failed == len(bench.cases) + 3  # the CLI calls have no library verdict to match


def test_committed_counterexamples_check_out():
    for fx in workloads.FIXTURES["gf7_nongeometric"]:
        assert workloads.fixture_ok(fx), fx
        assert ref.minimal_index(fx["c"], workloads.P) == fx["d"], fx


def test_reference_on_known_pencils():
    from fractions import Fraction

    assert ref.regular_witness([1, 2, 4, 8]) is None
    assert ref.regular_witness([1, 1, 1, 2]) is not None
    assert ref.minimal_index([Fraction(1, 2), 1, 2, 4, 8]) == 0
    assert ref.geometric_ratio([3, 1, 5], 7) == 5
    assert ref.y_is_zero([1, 2, 4, 8, 16])


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
