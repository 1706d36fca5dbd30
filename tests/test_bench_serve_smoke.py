"""Smoke test: benchmarks/bench_serve.py runs and emits valid JSON."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_serve.py"

pytestmark = [pytest.mark.serve, pytest.mark.shard]


def test_bench_serve_fast_mode(tmp_path):
    out = tmp_path / "BENCH_serve.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--fast", "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert "host" in payload and payload["model"] == "micro-cnn"
    assert payload["serial"]["throughput_rps"] > 0
    for n in ("1", "8", "32"):
        b = payload["batched"][n]
        assert b["ok"] == b["requests"]
        assert b["throughput_rps"] > 0
        assert 1.0 <= b["mean_batch_size"] <= int(n)
    assert payload["speedup_batch32_x"] > 0
    assert "speedup" in proc.stdout
    for n, s in payload["sharded"].items():
        assert int(n) >= 2, "the shard axis must measure a real fan-out"
        for loop in ("closed_loop", "open_loop"):
            assert s[loop]["ok"] == s[loop]["requests"]
            assert s[loop]["throughput_rps"] > 0
        assert s["fleet"]["shards"] == int(n), "every shard answered stats"
        assert isinstance(s["cpu_limited"], bool)


def test_committed_benchmark_meets_the_batching_bar():
    """The committed BENCH_serve.json must show the >=3x batch-32 win."""
    committed = REPO_ROOT / "BENCH_serve.json"
    payload = json.loads(committed.read_text())
    assert set(payload["batched"]) == {"1", "8", "32"}
    for n in ("1", "8", "32"):
        assert payload["batched"][n]["throughput_rps"] > 0
        assert payload["batched"][n]["latency_ms"]["p50"] >= 0
    assert payload["speedup_batch32_x"] >= 3.0
    # the shard axis rides along; a cpu-limited host must say so rather
    # than let its numbers masquerade as a scaling measurement
    for s in payload["sharded"].values():
        assert s["closed_loop"]["ok"] == s["closed_loop"]["requests"]
        assert isinstance(s["cpu_limited"], bool)
