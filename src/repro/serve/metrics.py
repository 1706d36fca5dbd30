"""Thread-safe serving metrics: latency quantiles, queue depth, batches.

One :class:`ServeMetrics` instance is shared by the scheduler, its
workers and the load generator.  Everything is recorded under a single
lock (the recorded quantities are tiny compared to a forward pass), and
:meth:`ServeMetrics.snapshot` returns a plain-JSON dict so the numbers
flow straight into ``BENCH_serve.json`` and ``repro serve --stats``.

Latency and queue wait go into a :class:`Histogram` with log buckets of
a fixed relative accuracy (DDSketch, Masson et al., VLDB 2019), so the
state of an instance is bounded at any uptime and a snapshot carries its
bucket counts: :func:`merge_snapshots` adds buckets, which makes a fleet
snapshot equal to the snapshot of one instance that saw every request.
"""

from __future__ import annotations

import math
import threading
import time

__all__ = ["RELATIVE_ACCURACY", "Histogram", "ServeMetrics", "merge_snapshots"]

#: every reported quantile lies within this fraction of the sample at
#: its rank
RELATIVE_ACCURACY = 0.01
_GAMMA = (1 + RELATIVE_ACCURACY) / (1 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)

_COUNTERS = ("submitted", "completed", "rejected", "expired", "failed",
             "retried_batches")


class Histogram:
    """Sparse log-bucketed histogram with exact count, min and max.

    A sample ``x > 0`` lands in bucket ``i = ceil(log_gamma(x))``, which
    covers ``(gamma^(i-1), gamma^i]``; the bucket's representative
    ``2 gamma^i / (gamma + 1)`` is within :data:`RELATIVE_ACCURACY` of
    every value in it.  Samples ``<= 0`` share one zero bucket.  Merging
    adds bucket counts, so a merge is the histogram of the union.
    """

    __slots__ = ("count", "zero", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.zero = 0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def record(self, x: float) -> None:
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if x > 0:
            i = math.ceil(math.log(x) / _LOG_GAMMA)
            self.buckets[i] = self.buckets.get(i, 0) + 1
        else:
            self.zero += 1

    def add(self, d: dict) -> None:
        """Fold in another histogram, given in its :meth:`to_dict` form."""
        if d["count"]:
            self.count += d["count"]
            self.zero += d["zero"]
            self.min = min(self.min, d["min"])
            self.max = max(self.max, d["max"])
            for i, n in d["buckets"].items():
                self.buckets[int(i)] = self.buckets.get(int(i), 0) + n

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile: within :data:`RELATIVE_ACCURACY` of the
        sample at nearest rank ``q/100 * (count - 1)``, clamped to
        ``[min, max]``; 0.0 if empty."""
        if not self.count:
            return 0.0
        rank = math.floor(q / 100 * (self.count - 1) + 0.5)
        seen = self.zero
        value = 0.0
        if rank >= seen:
            for i in sorted(self.buckets):
                seen += self.buckets[i]
                if seen > rank:
                    value = 2 * _GAMMA ** i / (_GAMMA + 1)
                    break
        return min(max(value, self.min), self.max)

    def to_dict(self) -> dict:
        """Plain-JSON form (bucket indices as strings), for snapshots."""
        return {"count": self.count, "zero": self.zero,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "buckets": {str(i): n for i, n in sorted(self.buckets.items())}}


def _report(counters: dict, throughput_rps: float, latency: Histogram,
            wait: Histogram, depth_sum: int, depth_max: int,
            batch_sizes: dict[int, int]) -> dict:
    """The snapshot dict of one instance's (or a merged fleet's) state."""
    batches = sum(batch_sizes.values())
    submitted = counters["submitted"]
    return {
        **counters,
        "throughput_rps": throughput_rps,
        "latency_ms": {"p50": latency.quantile(50),
                       "p95": latency.quantile(95),
                       "p99": latency.quantile(99),
                       "max": latency.max if latency.count else 0.0},
        "wait_ms": {"p50": wait.quantile(50), "p95": wait.quantile(95)},
        # one depth per submit: its mean is over ``submitted``
        "queue_depth": {"mean": depth_sum / submitted if submitted else 0.0,
                        "max": depth_max, "sum": depth_sum},
        "batch_size_histogram": {str(k): v for k, v
                                 in sorted(batch_sizes.items())},
        "mean_batch_size": (sum(k * v for k, v in batch_sizes.items())
                            / max(batches, 1)),
        "histograms": {"latency_ms": latency.to_dict(),
                       "wait_ms": wait.to_dict()},
    }


class ServeMetrics:
    """Counters and histograms for one service lifetime."""

    def __init__(self):
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.submitted = 0
        self.completed = 0
        self.rejected = 0       # queue-full at admission
        self.expired = 0        # deadline passed before execution
        self.failed = 0         # structured execution failures
        self.retried_batches = 0
        self.latency_ms = Histogram()   # enqueue -> completion
        self.wait_ms = Histogram()      # enqueue -> batch pickup
        self.batch_sizes: dict[int, int] = {}
        self.depth_sum = 0              # queue depth seen by each submit
        self.depth_max = 0

    # ------------------------------------------------------------------
    # recording (called by scheduler / workers)
    # ------------------------------------------------------------------
    def on_submit(self, queue_depth: int) -> None:
        with self._lock:
            self.submitted += 1
            self.depth_sum += queue_depth
            if queue_depth > self.depth_max:
                self.depth_max = queue_depth

    def on_reject(self) -> None:
        with self._lock:
            self.rejected += 1

    def on_expire(self) -> None:
        with self._lock:
            self.expired += 1

    def on_batch(self, size: int, wait_ms: list[float]) -> None:
        with self._lock:
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
            for w in wait_ms:
                self.wait_ms.record(w)

    def on_retry(self) -> None:
        with self._lock:
            self.retried_batches += 1

    def on_complete(self, latency_ms: float) -> None:
        with self._lock:
            self.completed += 1
            self.latency_ms.record(latency_ms)

    def on_fail(self) -> None:
        with self._lock:
            self.failed += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-JSON summary of everything recorded so far.

        It carries the histograms' bucket counts under ``"histograms"``
        (a few hundred entries at any uptime), which is what
        :func:`merge_snapshots` adds up across processes.
        """
        with self._lock:
            elapsed = max(time.monotonic() - self.started, 1e-9)
            return _report({k: getattr(self, k) for k in _COUNTERS},
                           self.completed / elapsed, self.latency_ms,
                           self.wait_ms, self.depth_sum, self.depth_max,
                           self.batch_sizes)

    def render(self) -> str:
        """Human-readable stats block (``repro serve --stats``)."""
        s = self.snapshot()
        lines = [
            "serve metrics",
            f"  requests    submitted {s['submitted']}  completed {s['completed']}"
            f"  rejected {s['rejected']}  expired {s['expired']}  failed {s['failed']}",
            f"  throughput  {s['throughput_rps']:.1f} req/s",
            f"  latency ms  p50 {s['latency_ms']['p50']:.2f}"
            f"  p95 {s['latency_ms']['p95']:.2f}"
            f"  p99 {s['latency_ms']['p99']:.2f}"
            f"  max {s['latency_ms']['max']:.2f}",
            f"  queue wait  p50 {s['wait_ms']['p50']:.2f} ms"
            f"  p95 {s['wait_ms']['p95']:.2f} ms",
            f"  queue depth mean {s['queue_depth']['mean']:.1f}"
            f"  max {s['queue_depth']['max']}",
            f"  batches     mean size {s['mean_batch_size']:.2f}"
            f"  retried {s['retried_batches']}",
        ]
        hist = s["batch_size_histogram"]
        if hist:
            bars = "  ".join(f"{k}:{v}" for k, v in hist.items())
            lines.append(f"  batch histo {bars}")
        return "\n".join(lines)


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Fleet-wide aggregate of per-process :meth:`ServeMetrics.snapshot` dicts.

    Counters, throughput, queue-depth sums and batch-size histograms
    sum; latency and wait histograms add bucket counts.  Every field but
    ``throughput_rps`` and ``shards`` therefore equals the snapshot of
    one instance that recorded every request; quantiles hold the
    histogram's :data:`RELATIVE_ACCURACY`.
    """
    snapshots = [s for s in snapshots if s]
    latency, wait = Histogram(), Histogram()
    batch_sizes: dict[int, int] = {}
    for s in snapshots:
        latency.add(s["histograms"]["latency_ms"])
        wait.add(s["histograms"]["wait_ms"])
        for k, v in s["batch_size_histogram"].items():
            batch_sizes[int(k)] = batch_sizes.get(int(k), 0) + v
    out = _report({k: sum(s[k] for s in snapshots) for k in _COUNTERS},
                  sum(s["throughput_rps"] for s in snapshots), latency, wait,
                  sum(s["queue_depth"]["sum"] for s in snapshots),
                  max((s["queue_depth"]["max"] for s in snapshots), default=0),
                  batch_sizes)
    out["shards"] = len(snapshots)
    return out
