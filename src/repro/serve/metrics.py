"""Thread-safe serving metrics: latency percentiles, queue depth, batches.

One :class:`ServeMetrics` instance is shared by the scheduler, its
workers and the load generator.  Everything is recorded under a single
lock (the recorded quantities are tiny compared to a forward pass), and
:meth:`snapshot` returns a plain-JSON dict so the numbers flow straight
into ``BENCH_serve.json`` and ``repro serve --stats``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

__all__ = ["ServeMetrics", "percentile", "merge_snapshots"]


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (nearest-rank on sorted samples); 0.0 if empty."""
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


class ServeMetrics:
    """Counters and reservoirs for one service lifetime."""

    def __init__(self):
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.submitted = 0
        self.completed = 0
        self.rejected = 0       # queue-full at admission
        self.expired = 0        # deadline passed before execution
        self.failed = 0         # structured execution failures
        self.retried_batches = 0
        self.latencies_ms: list[float] = []   # enqueue -> completion
        self.wait_ms: list[float] = []        # enqueue -> batch pickup
        self.batch_sizes: dict[int, int] = {}
        self.queue_depths: list[int] = []

    # ------------------------------------------------------------------
    # recording (called by scheduler / workers)
    # ------------------------------------------------------------------
    def on_submit(self, queue_depth: int) -> None:
        with self._lock:
            self.submitted += 1
            self.queue_depths.append(queue_depth)

    def on_reject(self) -> None:
        with self._lock:
            self.rejected += 1

    def on_expire(self) -> None:
        with self._lock:
            self.expired += 1

    def on_batch(self, size: int, wait_ms: list[float]) -> None:
        with self._lock:
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
            self.wait_ms.extend(wait_ms)

    def on_retry(self) -> None:
        with self._lock:
            self.retried_batches += 1

    def on_complete(self, latency_ms: float) -> None:
        with self._lock:
            self.completed += 1
            self.latencies_ms.append(latency_ms)

    def on_fail(self) -> None:
        with self._lock:
            self.failed += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self, samples: bool = False) -> dict:
        """A plain-JSON summary of everything recorded so far.

        With ``samples=True`` the raw latency/wait/depth reservoirs ride
        along under a ``"samples"`` key, so a remote aggregator
        (:func:`merge_snapshots`) can pool them and compute *exact*
        fleet-wide percentiles — percentiles of a union cannot be
        derived from per-process percentiles.
        """
        with self._lock:
            elapsed = max(time.monotonic() - self.started, 1e-9)
            lat = list(self.latencies_ms)
            depths = list(self.queue_depths)
            out = {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "expired": self.expired,
                "failed": self.failed,
                "retried_batches": self.retried_batches,
                "throughput_rps": self.completed / elapsed,
                "latency_ms": {
                    "p50": percentile(lat, 50),
                    "p95": percentile(lat, 95),
                    "p99": percentile(lat, 99),
                    "max": max(lat, default=0.0),
                },
                "wait_ms": {"p50": percentile(self.wait_ms, 50),
                            "p95": percentile(self.wait_ms, 95)},
                "queue_depth": {"mean": (sum(depths) / len(depths)) if depths else 0.0,
                                "max": max(depths, default=0)},
                "batch_size_histogram": {str(k): v for k, v
                                         in sorted(self.batch_sizes.items())},
                "mean_batch_size": (
                    sum(k * v for k, v in self.batch_sizes.items())
                    / max(sum(self.batch_sizes.values()), 1)),
            }
            if samples:
                out["samples"] = {"latencies_ms": lat,
                                  "wait_ms": list(self.wait_ms),
                                  "queue_depths": depths}
            return out

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

    Counter fields (submitted/completed/rejected/expired/failed/retried
    batches, throughput) sum exactly; batch-size histograms merge by
    summing buckets.  Latency/wait percentiles are recomputed from the
    pooled raw samples when every snapshot carries them
    (``snapshot(samples=True)`` — the shard workers ship theirs over the
    result pipe), which makes the fleet p50/p95/p99 *exact*, identical
    to what one process recording every request would report.  When any
    snapshot lacks samples the percentiles degrade to the max over
    processes — an upper bound — and the result is flagged with
    ``"percentiles_exact": False`` rather than silently pretending.
    """
    snapshots = [s for s in snapshots if s]
    counters = ["submitted", "completed", "rejected", "expired", "failed",
                "retried_batches"]
    out: dict = {k: sum(int(s.get(k, 0)) for s in snapshots) for k in counters}
    out["shards"] = len(snapshots)
    out["throughput_rps"] = sum(float(s.get("throughput_rps", 0.0))
                                for s in snapshots)
    exact = bool(snapshots) and all("samples" in s for s in snapshots)
    out["percentiles_exact"] = exact
    if exact:
        lat = [x for s in snapshots for x in s["samples"]["latencies_ms"]]
        wait = [x for s in snapshots for x in s["samples"]["wait_ms"]]
        depths = [x for s in snapshots for x in s["samples"]["queue_depths"]]
        out["latency_ms"] = {"p50": percentile(lat, 50),
                             "p95": percentile(lat, 95),
                             "p99": percentile(lat, 99),
                             "max": max(lat, default=0.0)}
        out["wait_ms"] = {"p50": percentile(wait, 50),
                          "p95": percentile(wait, 95)}
        out["queue_depth"] = {
            "mean": (sum(depths) / len(depths)) if depths else 0.0,
            "max": max(depths, default=0)}
    else:
        def _bound(section: str, field: str) -> float:
            return max((float(s.get(section, {}).get(field, 0.0))
                        for s in snapshots), default=0.0)
        out["latency_ms"] = {f: _bound("latency_ms", f)
                             for f in ("p50", "p95", "p99", "max")}
        out["wait_ms"] = {f: _bound("wait_ms", f) for f in ("p50", "p95")}
        out["queue_depth"] = {"mean": _bound("queue_depth", "mean"),
                              "max": int(_bound("queue_depth", "max"))}
    hist: dict[str, int] = {}
    for s in snapshots:
        for k, v in s.get("batch_size_histogram", {}).items():
            hist[k] = hist.get(k, 0) + int(v)
    out["batch_size_histogram"] = {k: hist[k]
                                   for k in sorted(hist, key=int)}
    total = sum(hist.values())
    out["mean_batch_size"] = (sum(int(k) * v for k, v in hist.items()) / total
                              if total else 0.0)
    return out
