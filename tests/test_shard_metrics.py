"""Fleet metrics aggregation: bounded histograms under concurrent writers.

``repro serve --stats`` at N shards reports fleet-wide p50/p95/p99 by
adding the log-bucket counts each worker ships with its snapshot
(:func:`repro.serve.merge_snapshots`).  These tests pin the properties
that make the fleet numbers trustworthy:

* recording from many concurrent writers loses no samples: counts are
  exact and every quantile lies within ``RELATIVE_ACCURACY`` of the
  samples at its rank;
* merging per-shard snapshots of a partitioned stream equals, field for
  field, one instance that recorded the whole stream;
* the state behind a snapshot is bounded: memory and the pickled
  snapshot stop growing with the requests recorded.

The health probe is the other way metrics could cross the pipe; it must
not: a ``ping`` reply is one bool per shard, so its cost does not grow
with the requests a worker has recorded.
"""

import gc
import json
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.serve import Histogram, ServeMetrics, ShardRouter, merge_snapshots, micro_specs
from repro.serve.metrics import RELATIVE_ACCURACY

pytestmark = pytest.mark.shard

#: slack for the float rounding of a bucket index at a bucket boundary
_EPS = 1e-9


def _record(metrics, latencies, depth=1):
    for lat in latencies:
        metrics.on_submit(depth)
        metrics.on_complete(float(lat))


def _serve(metrics, latency, wait, depth):
    """The calls the scheduler makes for one request in a batch of one."""
    metrics.on_submit(depth)
    metrics.on_batch(1, [wait])
    metrics.on_complete(latency)


def _assert_within_accuracy(got, samples, q):
    """``got`` is within the accuracy of the samples bracketing rank
    ``q/100 * (n - 1)``."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    r = q / 100 * (s.size - 1)
    lo, hi = s[math.floor(r)], s[math.ceil(r)]
    alpha = RELATIVE_ACCURACY * (1 + _EPS)
    assert lo * (1 - alpha) <= got <= hi * (1 + alpha), (
        f"p{q} = {got} outside [{lo}, {hi}] +/- {RELATIVE_ACCURACY:.0%}")


def _fields(snap):
    """Every snapshot field a merge must reproduce exactly."""
    return {k: v for k, v in snap.items() if k not in ("throughput_rps", "shards")}


def test_concurrent_writers_lose_no_samples_and_quantiles_hold_the_accuracy():
    """8 threads hammering one instance: counters are exact, quantiles lie
    within the accuracy, and the histograms equal one writer's."""
    rng = np.random.default_rng(42)
    per_thread = [rng.uniform(0.1, 50.0, size=200) for _ in range(8)]
    metrics = ServeMetrics()
    threads = [threading.Thread(target=_record, args=(metrics, lats))
               for lats in per_thread]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # interleave the writers finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    snap = metrics.snapshot()
    everything = np.concatenate(per_thread)
    assert snap["submitted"] == snap["completed"] == everything.size
    assert snap["histograms"]["latency_ms"]["count"] == everything.size
    assert snap["latency_ms"]["max"] == everything.max()
    for q in (50, 95, 99):
        _assert_within_accuracy(snap["latency_ms"][f"p{q}"], everything, q)
    single = ServeMetrics()
    _record(single, everything)
    assert _fields(snap) == _fields(single.snapshot())


def test_merge_of_partitioned_stream_equals_single_instance():
    """Shard the stream 3 ways, merge the snapshots: every field but
    throughput equals one instance that saw everything, also after the
    snapshots cross a JSON wire."""
    rng = np.random.default_rng(7)
    stream = rng.uniform(0.5, 80.0, size=999)
    waits = rng.uniform(0.0, 5.0, size=999)
    whole = ServeMetrics()
    shards = [ServeMetrics() for _ in range(3)]
    for i, (lat, wait) in enumerate(zip(stream, waits)):
        _serve(whole, lat, wait, 1 + i % 4)
        _serve(shards[i % 3], lat, wait, 1 + i % 4)
    whole.on_reject()
    shards[1].on_reject()
    reference = whole.snapshot()
    snaps = [s.snapshot() for s in shards]
    for merged in (merge_snapshots(snaps),
                   merge_snapshots(json.loads(json.dumps(snaps)))):
        assert merged["shards"] == 3
        for field in ("submitted", "completed", "rejected", "expired", "failed"):
            assert merged[field] == reference[field]
        for q in ("p50", "p95", "p99", "max"):
            assert merged["latency_ms"][q] == reference["latency_ms"][q], (
                f"fleet {q} != single-instance {q}")
        assert _fields(merged) == _fields(reference)
    for q in (50, 95, 99):
        _assert_within_accuracy(reference["latency_ms"][f"p{q}"], stream, q)
    for q in (50, 95):
        _assert_within_accuracy(reference["wait_ms"][f"p{q}"], waits, q)


def test_merge_pools_histograms_and_counters():
    a, b = ServeMetrics(), ServeMetrics()
    a.on_batch(2, [0.1, 0.2])
    a.on_batch(2, [0.3, 0.4])
    b.on_batch(4, [0.1] * 4)
    b.on_reject()
    b.on_expire()
    a.on_fail()
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["batch_size_histogram"] == {"2": 2, "4": 1}
    assert merged["mean_batch_size"] == pytest.approx(8 / 3)
    assert (merged["rejected"], merged["expired"], merged["failed"]) == (1, 1, 1)
    assert merged["histograms"]["wait_ms"]["count"] == 8


def test_merge_of_nothing_is_empty_but_well_formed():
    merged = merge_snapshots([])
    assert merged["shards"] == 0
    assert merged["submitted"] == 0
    assert merged["latency_ms"]["p50"] == 0.0
    assert merged["histograms"]["latency_ms"]["count"] == 0
    assert merged["queue_depth"] == {"mean": 0.0, "max": 0, "sum": 0}


def test_merge_of_single_snapshot_is_identity():
    """Degenerate fleet of one: the merge is the snapshot itself."""
    m = ServeMetrics()
    _record(m, [5.0, 1.0, 9.0, 3.0])
    solo = m.snapshot()
    merged = merge_snapshots([solo])
    assert merged["shards"] == 1
    for field in ("submitted", "completed", "rejected", "expired", "failed"):
        assert merged[field] == solo[field]
    for q in ("p50", "p95", "p99", "max"):
        assert merged["latency_ms"][q] == solo["latency_ms"][q]
    assert {k: v for k, v in merged.items() if k != "shards"} == solo


def test_merge_with_idle_shard_keeps_exactness():
    """An idle shard (empty histograms) must not perturb the busy
    shard's quantiles."""
    busy, idle = ServeMetrics(), ServeMetrics()
    _record(busy, [1.0, 2.0, 3.0, 4.0])
    merged = merge_snapshots([busy.snapshot(), idle.snapshot()])
    assert merged["shards"] == 2
    ref = busy.snapshot()
    for q in ("p50", "p95", "p99", "max"):
        assert merged["latency_ms"][q] == ref["latency_ms"][q]
    assert merged["submitted"] == 4
    assert merged["histograms"] == ref["histograms"]


def test_histogram_quantiles_on_ties_and_singletons():
    empty = Histogram()
    assert empty.quantile(50) == 0.0
    one = Histogram()
    one.record(3.0)
    assert one.quantile(99) == 3.0      # clamped to [min, max]
    samples = [1.0, 1.0, 1.0, 2.0, 100.0]
    ties = Histogram()
    for x in samples:
        ties.record(x)
    assert ties.quantile(50) == 1.0
    for q in (50, 95, 99):
        _assert_within_accuracy(ties.quantile(q), samples, q)
    zeros = Histogram()
    for x in (0.0, 0.0, 5.0):
        zeros.record(x)
    assert (zeros.zero, zeros.quantile(50), zeros.quantile(100)) == (2, 0.0, 5.0)


def test_metrics_state_is_bounded_by_its_buckets():
    """10^4 then 10^5 requests into one instance: retained memory and the
    pickled snapshot grow by less than a fixed bucket budget, and the
    quantiles still hold the accuracy over every sample."""
    budget = 64 * 1024
    rng = np.random.default_rng(3)
    n = 100_000
    lat = rng.lognormal(np.log(5.0), 0.8, n).tolist()
    wait = rng.lognormal(np.log(0.5), 1.0, n).tolist()
    depth = rng.integers(0, 64, n).tolist()
    gc.collect()
    tracemalloc.start()
    try:
        metrics = ServeMetrics()
        sizes = []
        for lo, hi in ((0, n // 10), (n // 10, n)):
            for i in range(lo, hi):
                _serve(metrics, lat[i], wait[i], depth[i])
            gc.collect()
            sizes.append((tracemalloc.get_traced_memory()[0],
                          len(pickle.dumps(metrics.snapshot()))))
    finally:
        tracemalloc.stop()
    (mem_a, pkl_a), (mem_b, pkl_b) = sizes
    assert mem_b - mem_a < budget, f"retained +{mem_b - mem_a} B over 9x10^4 requests"
    assert pkl_b - pkl_a < budget, f"snapshot +{pkl_b - pkl_a} B over 9x10^4 requests"
    snap = metrics.snapshot()
    assert snap["submitted"] == snap["completed"] == n
    assert snap["queue_depth"]["max"] == max(depth)
    assert snap["queue_depth"]["mean"] == sum(depth) / n
    for q in (50, 95, 99):
        _assert_within_accuracy(snap["latency_ms"][f"p{q}"], lat, q)
    for q in (50, 95):
        _assert_within_accuracy(snap["wait_ms"][f"p{q}"], wait, q)


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
