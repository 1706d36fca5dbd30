"""Deterministic load generation against any serving backend.

Two standard shapes:

* **closed loop** — ``concurrency`` client threads each keep exactly one
  request in flight (submit, wait, repeat).  Offered load adapts to
  service speed; this is the shape that measures *throughput capacity*
  and is what ``BENCH_serve.json`` records.
* **open loop** — requests are dispatched at a fixed ``rate_rps``
  regardless of completions (the arrival process of a public endpoint).
  Offered load does not adapt, so this is the shape that exercises
  backpressure: queue-full rejections and deadline expiries show up here.

Request payloads come from the spec's deterministic ``requests(n, seed)``
stream, so a load run is replayable.  Client-side latencies are measured
per request in the closed loop; the open loop reports the service's own
metrics (its dispatch thread cannot block on individual completions).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .errors import DeadlineExceededError, QueueFullError, ServeError
from .metrics import percentile
from .service import Backend

__all__ = ["LoadReport", "run_closed_loop", "run_open_loop"]


@dataclass
class LoadReport:
    """Outcome counts and client-side latency of one load run."""

    shape: str                    # "closed" | "open"
    model: str
    fmt: str
    mode: str
    requests: int
    ok: int = 0
    rejected: int = 0             # queue-full backpressure
    deadline: int = 0             # deadline expiries
    failed: int = 0               # other structured failures
    elapsed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-ready summary (latency reservoir reduced to percentiles).

        The open loop records no client-side latencies (its dispatch
        thread never blocks per request), so it reports the service's
        own enqueue-to-completion percentiles instead.
        """
        if self.latencies_ms:
            lat = {"p50": percentile(self.latencies_ms, 50),
                   "p95": percentile(self.latencies_ms, 95),
                   "p99": percentile(self.latencies_ms, 99)}
        else:
            served = self.metrics.get("latency_ms", {})
            lat = {q: served.get(q, 0.0) for q in ("p50", "p95", "p99")}
        return {
            "shape": self.shape, "model": self.model, "format": self.fmt,
            "mode": self.mode, "requests": self.requests,
            "ok": self.ok, "rejected": self.rejected,
            "deadline": self.deadline, "failed": self.failed,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": lat,
            "metrics": self.metrics,
        }

    def render(self) -> str:
        d = self.to_dict()
        return (f"{self.shape}-loop {self.model} {self.fmt} {self.mode}: "
                f"{self.ok}/{self.requests} ok "
                f"({self.rejected} rejected, {self.deadline} deadline, "
                f"{self.failed} failed) in {self.elapsed_s:.2f}s "
                f"-> {self.throughput_rps:.1f} req/s, "
                f"p50 {d['latency_ms']['p50']:.2f} ms "
                f"p95 {d['latency_ms']['p95']:.2f} ms")


def _record(report: LoadReport, lock: threading.Lock, outcome: str,
            latency_ms: float | None = None) -> None:
    with lock:
        setattr(report, outcome, getattr(report, outcome) + 1)
        if latency_ms is not None:
            report.latencies_ms.append(latency_ms)


def run_closed_loop(service: Backend, model: str,
                    fmt: str = "MERSIT(8,2)", mode: str = "fakequant", *,
                    requests: int = 64, concurrency: int = 8, seed: int = 0,
                    deadline_ms: float | None = None) -> LoadReport:
    """``concurrency`` threads each keep one request in flight."""
    spec = service.repository.specs[model]
    payloads = spec.requests(requests, seed)
    report = LoadReport("closed", model, fmt, mode, requests)
    lock = threading.Lock()
    cursor = iter(range(requests))

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            t0 = time.perf_counter()
            try:
                service.infer(model, payloads[i], fmt, mode,
                              deadline_ms=deadline_ms)
            except QueueFullError:
                _record(report, lock, "rejected")
            except DeadlineExceededError:
                _record(report, lock, "deadline")
            except ServeError:
                _record(report, lock, "failed")
            else:
                _record(report, lock, "ok",
                        (time.perf_counter() - t0) * 1e3)

    t_start = time.perf_counter()
    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.elapsed_s = time.perf_counter() - t_start
    report.metrics = service.metrics.snapshot()
    return report


def run_open_loop(service: Backend, model: str,
                  fmt: str = "MERSIT(8,2)", mode: str = "fakequant", *,
                  requests: int = 64, rate_rps: float = 200.0, seed: int = 0,
                  deadline_ms: float | None = None,
                  timeout: float = 60.0) -> LoadReport:
    """Dispatch at a fixed rate; completions are collected at the end."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    spec = service.repository.specs[model]
    payloads = spec.requests(requests, seed)
    report = LoadReport("open", model, fmt, mode, requests)
    lock = threading.Lock()
    interval = 1.0 / rate_rps

    futures = []
    t_start = time.perf_counter()
    for i in range(requests):
        target = t_start + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            futures.append((i, service.submit(model, payloads[i], fmt, mode,
                                              deadline_ms=deadline_ms)))
        except QueueFullError:
            _record(report, lock, "rejected")
    for _i, fut in futures:
        try:
            fut.result(timeout)
        except DeadlineExceededError:
            _record(report, lock, "deadline")
        except ServeError:
            _record(report, lock, "failed")
        else:
            _record(report, lock, "ok")
    report.elapsed_s = time.perf_counter() - t_start
    report.metrics = service.metrics.snapshot()
    return report
