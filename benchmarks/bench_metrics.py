"""Bench serving metrics: memory and read cost after N recorded requests.

Records ``--requests`` requests through a stub (no backend: per request
the calls a scheduler makes for a batch of one — ``on_submit``,
``on_batch``, ``on_complete`` — with seeded lognormal latencies and
waits) into one :class:`repro.serve.ServeMetrics`, then prints one JSON
object:

* ``record_us`` — wall time per recorded request;
* ``retained_bytes`` — bytes the instance retains (tracemalloc, in a
  second, traced pass over the same stream);
* ``snapshot_ms`` — median wall time of ``snapshot()``, which holds the
  metrics lock;
* ``pickled_bytes`` — size of the pickled snapshot, what a shard worker
  ships per ``stats`` ask.

Usage::

    python benchmarks/bench_metrics.py [--requests N] [--seed S]
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve import ServeMetrics  # noqa: E402


def _fill(metrics: ServeMetrics, lat: list, wait: list, depth: list) -> None:
    for x, w, d in zip(lat, wait, depth):
        # a fresh float per timing, as a scheduler's clock arithmetic makes
        metrics.on_submit(d)
        metrics.on_batch(1, [w * 1.0])
        metrics.on_complete(x * 1.0)


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--requests", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    n = args.requests
    lat = rng.lognormal(np.log(5.0), 0.8, n).tolist()
    wait = rng.lognormal(np.log(0.5), 1.0, n).tolist()
    depth = rng.integers(0, 64, n).tolist()

    metrics = ServeMetrics()
    t0 = time.perf_counter()
    _fill(metrics, lat, wait, depth)
    record_us = (time.perf_counter() - t0) / n * 1e6
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        snap = metrics.snapshot()
        times.append((time.perf_counter() - t0) * 1e3)
    pickled = len(pickle.dumps(snap))
    del metrics, snap

    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    metrics = ServeMetrics()
    _fill(metrics, lat, wait, depth)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()

    out = {"requests": n, "record_us": record_us, "retained_bytes": retained,
           "snapshot_ms": float(np.median(times)), "pickled_bytes": pickled}
    print(json.dumps(out))
    return out


if __name__ == "__main__":
    main()
