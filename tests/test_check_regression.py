"""Self-test of the CI perf-regression gate (benchmarks/check_regression.py).

The gate is exercised exactly the way CI runs it — as a subprocess over
a JSON file — with a healthy trajectory, a doctored one (a speedup
pushed below its floor), a partial one (skipped bench), and garbage.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

GATE = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"

HEALTHY = {
    "schema": 1,
    "suite": "bench_scalability",
    "env": {"ci": True, "cpu_count": 4, "platform": "test", "python": "3.12"},
    "results": {
        "batch_vs_per_pair": {"speedup": 8.5, "pairs": 1225},
        "round_refresh": {"speedup": 2.6, "pairs": 1225},
        "ingest_vs_rebuild": {
            "speedups_by_dirty_fraction": {"2%": 12.0, "5%": 9.0, "10%": 6.5}
        },
        "mutation_sync": {"speedup": 3.9, "mutations": 300},
        "truth_layout_sync_vs_rebuild": {"speedup": 8.0, "mutations": 125},
        "depen_vote_kernel": {"speedup": 55.0, "calls": 4},
        "serial_vs_sharded": {"speedups": {"numpy": 2.1, "process_4": 1.6}},
        "streaming_rescore": {"pairs": 1225, "rescored": 77},
        "sync_delta": {
            "full_payload_bytes": 80000,
            "delta_bytes": 7000,
            "shipped_bytes_ratio": 11.4,
        },
        "recovery": {
            "clean_sync_s": 0.05,
            "recovery_sync_s": 0.12,
            "worker_losses": 1,
            "overhead_ratio": 2.4,
        },
        "pair_posterior_batch": {"speedup": 7.1, "pairs": 1225},
        "serving": {
            "qps": 150000.0,
            "p50_ms": 0.002,
            "p99_ms": 0.010,
            "torn_reads": 0,
            "versions_published": 10,
        },
        "truth_round": {"speedup": 2.9},
    },
}


def _run(tmp_path, payload, *args):
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps(payload))
    return subprocess.run(
        [sys.executable, str(GATE), str(path), *args],
        capture_output=True,
        text=True,
    )


def test_healthy_trajectory_passes(tmp_path):
    result = _run(tmp_path, HEALTHY)
    assert result.returncode == 0, result.stdout
    assert "all perf gates hold" in result.stdout
    # Every gated metric appears in the delta table.
    for metric in (
        "batch_vs_per_pair.speedup",
        "round_refresh.speedup",
        "ingest_vs_rebuild.speedup[5%]",
        "mutation_sync.speedup",
        "depen_vote_kernel.speedup",
        "serial_vs_sharded.speedups.numpy",
        "streaming_rescore.rescored/pairs",
        "sync_delta.shipped_bytes_ratio",
        "recovery.overhead_ratio",
        "pair_posterior_batch.speedup",
        "serving.qps",
        "serving.p99_ms",
        "serving.torn_reads",
        "truth_round.speedup",
    ):
        assert metric in result.stdout


def test_mutation_sync_gate_catches_slow_sync(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    doctored["results"]["mutation_sync"]["speedup"] = 1.4  # below 3.0
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "mutation_sync.speedup" in result.stdout
    assert "REGRESSION" in result.stdout


def test_serving_torn_read_gate_is_zero_tolerance(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    doctored["results"]["serving"]["torn_reads"] = 1
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "serving.torn_reads" in result.stdout
    assert "REGRESSION" in result.stdout


def test_serving_qps_gate_catches_slow_reads(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    doctored["results"]["serving"]["qps"] = 320.0  # below 500
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "serving.qps" in result.stdout
    assert "REGRESSION" in result.stdout


def test_sync_delta_ratio_gate_catches_full_reships(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    # A sync() that re-serializes full shard state instead of deltas.
    doctored["results"]["sync_delta"]["shipped_bytes_ratio"] = 1.2
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "sync_delta.shipped_bytes_ratio" in result.stdout
    assert "REGRESSION" in result.stdout


def test_recovery_gate_catches_slow_recovery(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    # A worker loss whose respawn + re-ship costs more than 3 clean syncs.
    doctored["results"]["recovery"]["overhead_ratio"] = 4.5
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "recovery.overhead_ratio" in result.stdout
    assert "REGRESSION" in result.stdout


def test_doctored_speedup_fails_with_readable_delta(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    doctored["results"]["round_refresh"]["speedup"] = 1.1  # below 1.3
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "REGRESSION" in result.stdout
    assert "round_refresh.speedup" in result.stdout
    assert "FAIL: round_refresh.speedup" in result.stdout
    # The healthy metrics still render as ok rows.
    assert "batch_vs_per_pair.speedup" in result.stdout


def test_posterior_batch_gate_catches_slow_kernel(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    doctored["results"]["pair_posterior_batch"]["speedup"] = 2.4  # below 3.0
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "pair_posterior_batch.speedup" in result.stdout
    assert "REGRESSION" in result.stdout


def test_depen_vote_kernel_gate_catches_slow_kernel(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    doctored["results"]["depen_vote_kernel"]["speedup"] = 5.0  # below 8.0
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "depen_vote_kernel.speedup" in result.stdout
    assert "REGRESSION" in result.stdout


def test_restriction_ratio_gate_is_a_ceiling(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    doctored["results"]["streaming_rescore"]["rescored"] = 1100  # 0.9 > 0.7
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "streaming_rescore.rescored/pairs" in result.stdout
    assert "REGRESSION" in result.stdout


def test_missing_section_fails_unless_allowed(tmp_path):
    partial = copy.deepcopy(HEALTHY)
    del partial["results"]["round_refresh"]  # e.g. the bench was skipped
    strict = _run(tmp_path, partial)
    assert strict.returncode == 1
    assert "MISSING" in strict.stdout
    lenient = _run(tmp_path, partial, "--allow-missing")
    assert lenient.returncode == 0, lenient.stdout
    assert "MISSING (allowed)" in lenient.stdout


def test_malformed_metric_fails_readably(tmp_path):
    doctored = copy.deepcopy(HEALTHY)
    doctored["results"]["serial_vs_sharded"] = {"speedups": {}}
    result = _run(tmp_path, doctored)
    assert result.returncode == 1
    assert "UNREADABLE" in result.stdout


def test_unreadable_file_fails(tmp_path):
    path = tmp_path / "trajectory.json"
    path.write_text("{not json")
    result = subprocess.run(
        [sys.executable, str(GATE), str(path)], capture_output=True, text=True
    )
    assert result.returncode == 1
    assert "cannot read" in result.stdout
    missing = subprocess.run(
        [sys.executable, str(GATE), str(tmp_path / "nope.json")],
        capture_output=True,
        text=True,
    )
    assert missing.returncode == 1


def test_results_mapping_required(tmp_path):
    result = _run(tmp_path, {"schema": 1})
    assert result.returncode == 1
    assert "no 'results' mapping" in result.stdout
