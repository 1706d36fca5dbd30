"""Fleet metrics aggregation: exact percentiles under concurrent writers.

``repro serve --stats`` at N shards reports fleet-wide p50/p95/p99 by
pooling the *raw sample reservoirs* each worker ships with its snapshot
(:func:`repro.serve.merge_snapshots`) — percentiles of a union cannot be
derived from per-process percentiles.  These tests pin the two
correctness properties that makes the fleet numbers trustworthy:

* recording from many concurrent writers loses no samples and yields
  exactly ``np.percentile`` of everything recorded;
* merging per-shard snapshots of a partitioned stream equals one
  instance that recorded the whole stream — and when any shard omits
  its samples, the merge *says so* (``percentiles_exact: False``)
  instead of silently reporting an upper bound as the truth.

The health probe is the other way metrics could cross the pipe; it must
not: a ``ping`` reply is one bool per shard, so its cost does not grow
with the requests a worker has recorded.
"""

import threading

import numpy as np
import pytest

from repro.serve import (
    ServeMetrics, ShardRouter, merge_snapshots, micro_specs, percentile,
)

pytestmark = pytest.mark.shard


def _record(metrics, latencies, depth=1):
    for lat in latencies:
        metrics.on_submit(depth)
        metrics.on_complete(float(lat))


def test_concurrent_writers_lose_no_samples_and_percentiles_are_exact():
    """8 threads hammering one instance: counters and percentiles equal
    a single-writer ground truth over the union of all samples."""
    rng = np.random.default_rng(42)
    per_thread = [rng.uniform(0.1, 50.0, size=200) for _ in range(8)]
    metrics = ServeMetrics()
    threads = [threading.Thread(target=_record, args=(metrics, lats))
               for lats in per_thread]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = metrics.snapshot(samples=True)
    everything = np.concatenate(per_thread)
    assert snap["submitted"] == snap["completed"] == everything.size
    assert len(snap["samples"]["latencies_ms"]) == everything.size
    for q in (50, 95, 99):
        assert snap["latency_ms"][f"p{q}"] == pytest.approx(
            float(np.percentile(everything, q)), abs=0.0), (
            f"p{q} diverged from np.percentile over the union")


def test_merge_of_partitioned_stream_equals_single_instance():
    """Shard the stream 3 ways, merge the snapshots: byte-equal
    percentiles and counters to one instance that saw everything."""
    rng = np.random.default_rng(7)
    stream = rng.uniform(0.5, 80.0, size=999)
    whole = ServeMetrics()
    _record(whole, stream)
    shards = [ServeMetrics() for _ in range(3)]
    for i, lat in enumerate(stream):
        _record(shards[i % 3], [lat], depth=1 + (i % 4))
    merged = merge_snapshots([s.snapshot(samples=True) for s in shards])
    reference = whole.snapshot(samples=True)
    assert merged["percentiles_exact"] is True
    assert merged["shards"] == 3
    for field in ("submitted", "completed", "rejected", "expired", "failed"):
        assert merged[field] == reference[field]
    for q in ("p50", "p95", "p99", "max"):
        assert merged["latency_ms"][q] == reference["latency_ms"][q], (
            f"fleet {q} != single-instance {q}")


def test_merge_without_samples_degrades_honestly():
    """A snapshot stripped of samples can only bound the fleet
    percentiles — the merge must flag that, not fake exactness."""
    a, b = ServeMetrics(), ServeMetrics()
    _record(a, [1.0, 2.0, 3.0])
    _record(b, [10.0, 20.0, 30.0])
    merged = merge_snapshots([a.snapshot(samples=True), b.snapshot()])
    assert merged["percentiles_exact"] is False
    # upper-bound semantics: the max over shards, never an average
    assert merged["latency_ms"]["p50"] == max(
        a.snapshot()["latency_ms"]["p50"], b.snapshot()["latency_ms"]["p50"])
    assert merged["submitted"] == 6   # counters still sum exactly


def test_merge_pools_histograms_and_counters():
    a, b = ServeMetrics(), ServeMetrics()
    a.on_batch(2, [0.1, 0.2])
    a.on_batch(2, [0.3, 0.4])
    b.on_batch(4, [0.1] * 4)
    b.on_reject()
    b.on_expire()
    a.on_fail()
    merged = merge_snapshots([a.snapshot(samples=True),
                              b.snapshot(samples=True)])
    assert merged["batch_size_histogram"] == {"2": 2, "4": 1}
    assert merged["mean_batch_size"] == pytest.approx(8 / 3)
    assert (merged["rejected"], merged["expired"], merged["failed"]) == (1, 1, 1)


def test_merge_of_nothing_is_empty_but_well_formed():
    merged = merge_snapshots([])
    assert merged["shards"] == 0
    assert merged["submitted"] == 0
    assert merged["latency_ms"]["p50"] == 0.0
    assert merged["percentiles_exact"] is False


def test_merge_of_single_snapshot_with_samples_is_exact_identity():
    """Degenerate fleet of one: the merge must be the snapshot itself,
    and exact (its samples are the whole population)."""
    m = ServeMetrics()
    _record(m, [5.0, 1.0, 9.0, 3.0])
    solo = m.snapshot(samples=True)
    merged = merge_snapshots([solo])
    assert merged["percentiles_exact"] is True
    assert merged["shards"] == 1
    for field in ("submitted", "completed", "rejected", "expired", "failed"):
        assert merged[field] == solo[field]
    for q in ("p50", "p95", "p99", "max"):
        assert merged["latency_ms"][q] == solo["latency_ms"][q]


def test_merge_of_single_sampleless_snapshot_is_honest_upper_bound():
    """One snapshot without samples: the numbers pass through but the
    merge must not claim exactness it cannot verify."""
    m = ServeMetrics()
    _record(m, [2.0, 4.0, 6.0])
    solo = m.snapshot()          # no samples shipped
    merged = merge_snapshots([solo])
    assert merged["percentiles_exact"] is False
    assert merged["latency_ms"]["p50"] == solo["latency_ms"]["p50"]
    assert merged["submitted"] == 3


def test_merge_with_idle_shard_keeps_exactness():
    """An idle shard (samples present but empty) must not flip the merge
    to inexact or perturb the busy shard's percentiles."""
    busy, idle = ServeMetrics(), ServeMetrics()
    _record(busy, [1.0, 2.0, 3.0, 4.0])
    merged = merge_snapshots([busy.snapshot(samples=True),
                              idle.snapshot(samples=True)])
    assert merged["percentiles_exact"] is True
    assert merged["shards"] == 2
    ref = busy.snapshot(samples=True)
    for q in ("p50", "p95", "p99", "max"):
        assert merged["latency_ms"][q] == ref["latency_ms"][q]
    assert merged["submitted"] == 4


def test_percentile_matches_numpy_on_ties_and_singletons():
    assert percentile([], 50) == 0.0
    assert percentile([3.0], 99) == 3.0
    samples = [1.0, 1.0, 1.0, 2.0, 100.0]
    for q in (50, 95, 99):
        assert percentile(samples, q) == float(np.percentile(samples, q))


def test_ping_reply_carries_no_metrics():
    """Each ping reply is one bool; a worker without a service reads
    unhealthy."""
    router = ShardRouter(shards=2, specs="micro", calib_n=4)
    seen = []
    handle = router._handle

    def record(msg):
        seen.append(msg)
        handle(msg)

    router._handle = record   # what the collector receives, in order
    try:
        x = micro_specs()["micro-mlp"].requests(1, seed=0)[0]
        router.infer("micro-mlp", x)   # a worker now has metrics to ship
        seen.clear()
        assert router.ping() == [True, True]
        assert [msg[2:] for msg in seen] == [("ok", True), ("ok", True)]
        # a failed re-init leaves slot 0 without a service; the pipe
        # delivers the init before the next ping
        with router._slot_locks[0]:
            router._workers[0].conn.send(("init", {"specs": {"kind": "?"}}))
        assert router.ping() == [False, True]
    finally:
        router.close()
