"""Bench serving: dynamic batching vs serial single-sample inference.

The batching scheduler exists to amortise per-forward overhead (Python
dispatch, im2col, GEMM setup) across coalesced requests.  This benchmark
quantifies that: a closed-loop load drives the micro CNN through the
service at ``max_batch`` 1 / 8 / 32 and compares sustained throughput
against the serial single-sample baseline (the differential-test
reference path).  Numbers land in ``BENCH_serve.json`` at the repo root
(override with ``--out``) so the batching win is tracked from PR to PR:

* ``serial`` — one request at a time through ``infer_serial``;
* ``batched.N`` — closed-loop clients against a scheduler capped at
  ``max_batch=N`` (N=1 measures pure scheduler overhead);
* ``speedup_batch32_x`` — batched(32) over serial throughput; the serve
  acceptance bar is >= 3x;
* ``sharded.N`` — the same closed-loop load through a
  :class:`~repro.serve.ShardRouter` at N worker processes (plus an
  open-loop run), with a ``cpu_limited`` honesty flag: on a host with
  fewer cores than shards+router the numbers measure correctness
  overhead, not scaling, and must not be read as a fan-out win;
* ``gateway`` — closed- and open-loop load through a real localhost
  TCP socket (:class:`~repro.serve.Gateway` fronting the service,
  :class:`~repro.serve.GatewayClient` threads driving it), so the
  framing/serialisation tax of the network front door is measured
  against the in-process ``batched`` numbers.  Carries the same
  ``cpu_limited`` flag: clients, the gateway's connection threads and
  scheduler workers all contend for cores on a small host.

Usage::

    python benchmarks/bench_serve.py [--fast] [--out PATH]
        [--mode fakequant|engine]

``--fast`` shrinks request counts (used by the tier-1 smoke test).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve import (  # noqa: E402
    BatchPolicy, Gateway, GatewayClient, InferenceService, ModelRepository,
    ShardRouter, micro_specs, run_closed_loop, run_open_loop,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"
MODEL = "micro-cnn"
FORMAT = "MERSIT(8,2)"
BATCH_SIZES = (1, 8, 32)
SHARD_COUNTS = (2,)


def _host_meta() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def bench_serial(service: InferenceService, payloads: list,
                 mode: str) -> dict:
    """One request at a time through the reference path."""
    t0 = time.perf_counter()
    for x in payloads:
        service.infer_serial(MODEL, x, FORMAT, mode)
    elapsed = time.perf_counter() - t0
    return {"requests": len(payloads), "elapsed_s": elapsed,
            "throughput_rps": len(payloads) / elapsed}


def bench_batched(repository: ModelRepository, max_batch: int,
                  requests: int, mode: str) -> dict:
    """Closed-loop clients against a scheduler capped at ``max_batch``."""
    policy = BatchPolicy(max_batch=max_batch, max_wait_ms=5.0,
                         queue_depth=max(64, 8 * max_batch), workers=2)
    with InferenceService(repository, policy) as service:
        report = run_closed_loop(
            service, MODEL, FORMAT, mode, requests=requests,
            concurrency=max(8, 3 * max_batch), seed=0)
    d = report.to_dict()
    return {"requests": requests, "ok": d["ok"],
            "elapsed_s": d["elapsed_s"],
            "throughput_rps": d["throughput_rps"],
            "latency_ms": d["latency_ms"],
            "mean_batch_size": d["metrics"]["mean_batch_size"],
            "batch_size_histogram": d["metrics"]["batch_size_histogram"]}


def bench_sharded(shards: int, requests: int, mode: str) -> dict:
    """Closed- and open-loop load through a shard-router fleet.

    The shards and the router each want a core; on a smaller host the
    result carries ``cpu_limited: true`` and measures cross-process
    serving *overhead* (pipes, pickling, shared-memory attach), not
    horizontal scaling.
    """
    cpu_limited = (os.cpu_count() or 1) < shards + 1
    policy = BatchPolicy(max_batch=8, max_wait_ms=5.0, queue_depth=256,
                         workers=2)
    with ShardRouter(shards=shards, specs="micro",
                     preheat=[(MODEL, FORMAT, mode)], policy=policy,
                     calib_n=32) as router:
        closed = run_closed_loop(router, MODEL, FORMAT, mode,
                                 requests=requests, concurrency=8, seed=0)
        open_ = run_open_loop(router, MODEL, FORMAT, mode,
                              requests=max(requests // 4, 16),
                              rate_rps=200.0, seed=0)
        fleet = router.stats()["fleet"]
    out = {}
    for name, report in (("closed_loop", closed), ("open_loop", open_)):
        d = report.to_dict()
        out[name] = {"requests": d["requests"], "ok": d["ok"],
                     "elapsed_s": d["elapsed_s"],
                     "throughput_rps": d["throughput_rps"],
                     "latency_ms": d["latency_ms"]}
    out["fleet"] = {"completed": fleet["completed"],
                    "mean_batch_size": fleet["mean_batch_size"],
                    "shards": fleet["shards"]}
    out["cpu_limited"] = cpu_limited
    return out


def _latency_summary(latencies_ms: list) -> dict:
    arr = np.asarray(latencies_ms, dtype=np.float64)
    return {"p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
            "mean": float(arr.mean())}


def _drive_gateway(host: str, port: int, payloads: list, mode: str,
                   concurrency: int, rate_rps: float | None) -> dict:
    """Drive one load shape through the socket.

    ``rate_rps is None`` is the closed loop: each of ``concurrency``
    clients fires its next request the moment the previous reply lands.
    Otherwise the open loop: request *i* is released at ``i / rate_rps``
    seconds after start, and the client pool drains that schedule, so
    queueing delay shows up in latency instead of throttling arrival.
    """
    latencies: list = []
    errors = [0]
    lock = threading.Lock()
    next_idx = [0]
    t0 = time.perf_counter()

    def run_client(cid: int) -> None:
        with GatewayClient(host, port, seed=cid) as client:
            while True:
                with lock:
                    i = next_idx[0]
                    if i >= len(payloads):
                        return
                    next_idx[0] = i + 1
                if rate_rps is not None:
                    release = t0 + i / rate_rps
                    now = time.perf_counter()
                    if release > now:
                        time.sleep(release - now)
                sent = time.perf_counter()
                try:
                    client.infer(MODEL, payloads[i], FORMAT, mode)
                except Exception:  # lint: allow[broad-except] bench counts failures, never masks them silently
                    with lock:
                        errors[0] += 1
                        continue
                with lock:
                    latencies.append((time.perf_counter() - sent) * 1e3)

    threads = [threading.Thread(target=run_client, args=(cid,), daemon=True)
               for cid in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    return {"requests": len(payloads), "ok": len(latencies),
            "errors": errors[0], "elapsed_s": elapsed,
            "throughput_rps": len(latencies) / elapsed,
            "latency_ms": _latency_summary(latencies or [0.0])}


def bench_gateway(repository: ModelRepository, requests: int,
                  mode: str) -> dict:
    """Closed- and open-loop load through a real localhost TCP socket.

    Same request stream as the in-process ``batched`` axis, but every
    request pays the wire tax: JSON framing, base64 ndarray codec, and
    a socket round trip through one gateway thread per connection.
    ``cpu_limited`` is set when the host cannot give the client pool,
    the gateway's threads and the scheduler workers a core each.
    """
    cpu_limited = (os.cpu_count() or 1) < 4
    policy = BatchPolicy(max_batch=8, max_wait_ms=5.0, queue_depth=256,
                         workers=2)
    payloads = repository.specs[MODEL].requests(requests, seed=0)
    service = InferenceService(repository, policy)
    gw = Gateway(service, port=0, max_inflight=256).start()
    try:
        with GatewayClient(gw.host, gw.port) as warm:
            warm.infer(MODEL, payloads[0], FORMAT, mode)
        closed = _drive_gateway(gw.host, gw.port, payloads, mode,
                                concurrency=8, rate_rps=None)
        open_ = _drive_gateway(gw.host, gw.port,
                               payloads[:max(requests // 4, 16)], mode,
                               concurrency=8, rate_rps=200.0)
    finally:
        gw.close()
    return {"closed_loop": closed, "open_loop": open_,
            "cpu_limited": cpu_limited}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true",
                    help="small request counts (smoke-test mode)")
    ap.add_argument("--mode", default="fakequant",
                    choices=("fakequant", "engine"))
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    requests = 64 if args.fast else 512
    repository = ModelRepository(micro_specs(), calib_n=32, persist=False)
    payloads = repository.specs[MODEL].requests(requests, seed=0)

    # one warm resolve so calibration cost stays out of every timing
    with InferenceService(repository) as warm:
        warm.infer_serial(MODEL, payloads[0], FORMAT, args.mode)
        serial = bench_serial(warm, payloads, args.mode)
    print(f"serial          {serial['throughput_rps']:8.1f} req/s")

    batched = {}
    for n in BATCH_SIZES:
        batched[str(n)] = bench_batched(repository, n, requests, args.mode)
        print(f"batched max={n:<3d} {batched[str(n)]['throughput_rps']:8.1f} "
              f"req/s (mean batch {batched[str(n)]['mean_batch_size']:.1f})")

    speedup = batched["32"]["throughput_rps"] / serial["throughput_rps"]
    print(f"dynamic batching speedup at max_batch=32: {speedup:.2f}x over serial")

    sharded = {}
    for n in SHARD_COUNTS:
        sharded[str(n)] = bench_sharded(n, requests, args.mode)
        tag = " (cpu-limited)" if sharded[str(n)]["cpu_limited"] else ""
        print(f"sharded n={n:<3d}  "
              f"{sharded[str(n)]['closed_loop']['throughput_rps']:8.1f} "
              f"req/s closed-loop{tag}")

    gateway = bench_gateway(repository, requests, args.mode)
    tag = " (cpu-limited)" if gateway["cpu_limited"] else ""
    print(f"gateway         "
          f"{gateway['closed_loop']['throughput_rps']:8.1f} "
          f"req/s closed-loop over localhost TCP{tag}")

    payload = {
        "host": _host_meta(),
        "model": MODEL,
        "format": FORMAT,
        "mode": args.mode,
        "requests": requests,
        "serial": serial,
        "batched": batched,
        "sharded": sharded,
        "gateway": gateway,
        "speedup_batch32_x": speedup,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
