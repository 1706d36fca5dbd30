"""Tests of the benchmark's own rules: spans, summaries, streams, catalogue.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


# ----------------------------------------------------------------------
# span self-time arithmetic
# ----------------------------------------------------------------------

class TestSelfTime:
    def test_union_of_disjoint_children(self):
        assert spans.union_length([(1, 2), (3, 5)], 0, 10) == pytest.approx(3)

    def test_union_merges_overlaps_and_nesting(self):
        assert spans.union_length([(1, 4), (2, 3), (3.5, 6)], 0, 10) == pytest.approx(5)

    def test_union_clips_to_parent(self):
        assert spans.union_length([(-2, 1), (9, 12), (20, 30)], 0, 10) == pytest.approx(2)

    def test_self_time_subtracts_covered_time_once(self):
        tree = [Span(0, None, "root", 0.0, 10.0, 0),
                Span(1, 0, "a", 1.0, 4.0, 0),
                Span(2, 0, "b", 3.0, 6.0, 0),      # overlaps a (other thread)
                Span(3, 1, "leaf", 2.0, 3.0, 0),
                Span(4, None, "other", 0.0, 1.0, 0)]
        selfs = spans.self_times(tree)
        assert selfs[0] == pytest.approx(10 - 5)   # a ∪ b covers [1, 6]
        assert selfs[1] == pytest.approx(3 - 1)
        assert selfs[2] == pytest.approx(3)
        assert selfs[3] == pytest.approx(1)
        assert selfs[4] == pytest.approx(1)        # no children

    def test_wrapped_calls_nest_per_thread(self):
        rec = spans.SpanRecorder()
        inner = rec.wrap("inner", lambda: 1)
        outer = rec.wrap("outer", lambda: inner() + inner())
        rec.active = True
        assert outer() == 2
        t = threading.Thread(target=inner)
        t.start()
        t.join(5)
        assert not t.is_alive()
        by_name = {}
        for s in rec.spans:
            by_name.setdefault(s.name, []).append(s)
        (root,) = by_name["outer"]
        nested = [s for s in by_name["inner"] if s.parent == root.sid]
        assert len(nested) == 2 and root.parent is None
        assert sum(s.parent is None for s in by_name["inner"]) == 1   # other thread
        agg = spans.aggregate(rec.spans)
        assert agg["inner"].calls == 3
        assert agg["outer"].self_s == pytest.approx(
            agg["outer"].total_s - sum(s.t1 - s.t0 for s in nested))

    def test_inactive_recorder_records_nothing(self):
        rec = spans.SpanRecorder()
        assert rec.wrap("x", lambda v: v + 1)(1) == 2
        assert rec.spans == []

    def test_aggregate_window_uses_span_start(self):
        tree = [Span(0, None, "x", 1.0, 2.0, 5), Span(1, None, "x", 3.0, 9.0, 7)]
        agg = spans.aggregate(tree, 0.5, 2.5)
        assert agg["x"].calls == 1 and agg["x"].size == 5

    def test_install_restores_every_patch(self):
        from repro.quant.fakequant import FakeQuantizer
        from repro.serve import service, wire
        before = (wire.pack_frame, service.execute_batch, FakeQuantizer.__call__)
        rec = spans.SpanRecorder()
        spans.install(rec)
        try:
            assert wire.pack_frame is not before[0]
        finally:
            spans.uninstall(rec)
        assert (wire.pack_frame, service.execute_batch,
                FakeQuantizer.__call__) == before

    def test_slug(self):
        assert spans.slug("Posit(8,1)") == "posit8-1"
        assert spans.slug("MERSIT(8,2)") == "mersit8-2"
        assert spans.slug("INT8") == "int8"


# ----------------------------------------------------------------------
# percentile support and summary rules
# ----------------------------------------------------------------------

class TestSummaryRules:
    @pytest.mark.parametrize("n, expected", [
        (19, None), (20, 50.0), (100, 90.0), (200, 95.0),
        (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert summary.supported_percentile(n) == expected

    def test_samples_beyond(self):
        assert summary.samples_beyond(1000, 99) == 10
        assert summary.samples_beyond(10000, 99.9) == 10
        assert summary.samples_beyond(999, 99) == 9

    def test_fixed_work_windows_drop_partial_tail(self):
        done = [1, 2, 3, 4, 5, 6, 7]
        wins = summary.fixed_work_windows(0.0, done, 3)
        assert wins == [(0, 3, 3.0), (3, 6, 3.0)]

    def test_fastest_windows_keep_a_rounded_up_share(self):
        wins = [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 3.0), (3, 4, 2.0), (4, 5, 4.0)]
        assert summary.fastest_windows(wins, 0.25) == [(1, 2, 1.0), (3, 4, 2.0)]
        assert summary.fastest_windows(wins[:1], 0.25) == wins[:1]
        with pytest.raises(ValueError):
            summary.fastest_windows([], 0.25)

    def test_serving_summary_ignores_slow_episodes(self):
        # 400 requests at 100/s, then 400 at 50/s (an episode), 10 ms latency
        # in the fast part and 20 ms in the slow part
        fast = np.arange(1, 401) * 0.01
        slow = fast[-1] + np.arange(1, 401) * 0.02
        done = np.concatenate([fast, slow])
        lat = np.concatenate([np.full(400, 10.0), np.full(400, 20.0)])
        s = summary.serving_summary(0.0, done, lat, per_window=100, fraction=0.25)
        assert s["windows"] == 8 and s["kept"] == 2
        assert s["rps"] == pytest.approx(100.0)
        assert s["p50_ms"] == s["p99_ms"] == 10.0
        assert s["samples"] == 200 and s["supported_percentile"] == 95.0

    def test_engine_summary_uses_each_cells_fastest_run(self):
        s = summary.engine_summary({"a": [0.3, 0.1, 0.2], "b": [0.5, 0.4]}, batch=16)
        assert s["pass_s"] == pytest.approx(0.5)
        assert s["samples_per_s"] == pytest.approx(2 * 16 / 0.5)
        assert s["rps"] == pytest.approx(2 / 0.5)
        # 16 samples done at 100 ms (cell a), 16 at 500 ms (cell b)
        assert s["p50_ms"] == pytest.approx(300.0)
        assert s["p99_ms"] == pytest.approx(500.0)

    def test_median_setup_is_a_measured_one(self):
        assert summary.median_setup([(0, 0.5), (1, 1.25), (2, 2.75)]) == ((0, 0.5), 0.5)
        even = [(0, 0.375), (1, 1.25), (2, 2.75), (3, 3.125)]
        assert summary.median_setup(even) == ((1, 1.25), 0.25)
        with pytest.raises(ValueError):
            summary.median_setup([])

    def test_quartile_spread(self):
        assert summary.quartile_spread([10, 10, 10, 10]) == 0.0
        vals = [9.0, 10.0, 10.0, 11.0, 10.0, 10.0, 9.5, 10.5, 10.0, 10.0]
        assert 0 < summary.quartile_spread(vals) < 0.1


# ----------------------------------------------------------------------
# request streams: same seed, same inputs
# ----------------------------------------------------------------------

class TestSeedDeterminism:
    def test_gateway_streams(self):
        a = workloads.gateway_stream(3, 0)
        assert np.array_equal(a, workloads.gateway_stream(3, 0))
        assert not np.array_equal(a, workloads.gateway_stream(4, 0))
        assert not np.array_equal(a, workloads.gateway_stream(3, 1))
        assert a.min() >= 0 and a[:, 2].max() < workloads.INPUT_POOL

    def test_burst_stream(self):
        a = workloads.burst_stream(3)
        assert np.array_equal(a, workloads.burst_stream(3))
        assert not np.array_equal(a, workloads.burst_stream(4))
        counts = [c for _, _, c in workloads.BURST_MIX]
        assert sum(counts) == workloads.BURST
        for burst in a[:, 0].reshape(-1, workloads.BURST)[:50]:
            assert np.bincount(burst, minlength=len(counts)).tolist() == counts

    def test_engine_check_rows(self):
        a = workloads.engine_check_rows(3, 22)
        assert np.array_equal(a, workloads.engine_check_rows(3, 22))
        assert not np.array_equal(a, workloads.engine_check_rows(4, 22))
        assert all(len(set(row)) == workloads.CHECK_ROWS for row in a)

    @pytest.mark.parametrize("model", ["SST-2", "micro-cnn", "micro-attn"])
    def test_request_inputs(self, model):
        specs = workloads.servable_specs()

        def flat(seed):
            xs = workloads.request_inputs(specs, [model], seed, n=4)[model]
            return b"".join(np.asarray(part).tobytes() for x in xs
                            for part in (x if isinstance(x, tuple) else (x,)))

        assert flat(3) == flat(3)
        assert flat(3) != flat(4)

    def test_bert_spec_uses_seeded_initial_weights(self):
        a = workloads.bert_spec().build()
        b = workloads.bert_spec().build()
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data), name


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def test_layer_metrics_cover_the_catalogue_and_read_zero_when_unused():
    e2e = {name: 2.0 for name, _, _ in layers.E2E}
    untraced = workloads.PassResult(e2e={name: 1.0 for name in e2e})
    traced = workloads.PassResult(e2e=e2e, setups=[(0.0, 1.0)], phase=(0.0, 1.0))
    values = layers.layer_metrics([Span(0, None, "quant.act", 0.5, 0.75, 0)],
                                  traced, untraced)
    assert sorted(values) == sorted(name for name, _, _ in layers.PER_LAYER)
    assert values["quant.act_calls"] == 1
    assert values["quant.act_ms"] == pytest.approx(250.0)
    assert values["engine.qmatmul_calls"] == 0 and values["client.encode_ms"] == 0
    assert values["overhead_pct.p50_ms"] == pytest.approx(100.0)   # 2 ms vs 1 ms
    assert values["overhead_pct.rps"] == pytest.approx(-50.0)      # 2/s vs 1/s


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code and the contract's limits
# ----------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestCatalogue:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        assert names == list(workloads.WORKLOADS)
        assert all(len(w["why"]) <= 200 for w in self.spec["workloads"])

    def test_end_to_end_matches_code(self):
        got = [(m["name"], m["unit"], m["better"]) for m in self.spec["end_to_end"]]
        assert got == list(layers.E2E)
        assert all(0 < m["bound"] <= 0.25 for m in self.spec["end_to_end"])
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in self.spec["end_to_end"])

    def test_per_layer_matches_code(self):
        got = [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]]
        assert got == list(layers.PER_LAYER)

    def test_names_and_units_are_valid(self):
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in self.spec["workloads"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)
        assert all(UNIT.match(m["unit"]) for m in metrics)

    def test_engine_formats_are_the_registry(self):
        from repro.formats.registry import available_formats
        assert list(layers.FORMATS) == available_formats()

    def test_fits_the_run_budget(self):
        runs = 4 + 22 * len(self.spec["workloads"])
        assert runs * (self.spec["run_seconds"] + 15) < 3420


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
