"""Dynamic request batching: bounded queue, deadlines, worker pool.

The scheduler coalesces concurrent single-sample requests into batched
executions under a ``max_batch`` / ``max_wait_ms`` policy:

* a worker picks the oldest pending request, then gathers further
  requests *for the same model key* until the batch is full or
  ``max_wait_ms`` has passed since pickup (so a lone request never waits
  longer than the policy allows);
* admission is bounded: once ``queue_depth`` requests are pending,
  :meth:`BatchingScheduler.submit` rejects with a structured
  :class:`~repro.serve.errors.QueueFullError` (the 503 analogue) instead
  of queueing unbounded work — the backpressure contract;
* each request may carry a deadline; requests whose deadline passes
  before execution complete with
  :class:`~repro.serve.errors.DeadlineExceededError` (504) and are never
  run;
* a failing batch execution is retried up to ``retries`` times
  (transient failures: injected crashes, racy resource errors), then
  every request in it fails with a structured
  :class:`~repro.serve.errors.WorkerCrashError`.  Deterministic failures
  (:class:`~repro.resilience.NumericsError`, any
  :class:`~repro.serve.errors.ServeError` from the executor) are not
  retried, mirroring the grid executor's failure classification.

The scheduler is model-agnostic: it batches opaque ``inputs`` payloads
per key and hands them to an ``execute(key, inputs_list)`` callable (the
service's batched forward).  Batching changes *when* work runs, never
its values: the executor runs under the batch-invariant matmul mode (see
:mod:`repro.serve.service`), so outputs are bit-identical to serial
single-sample inference regardless of how requests happened to coalesce.

Hosts the ``serve:batch/KEY`` fault-injection point (fired in the worker
just before a batch executes).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..resilience import NumericsError, faults
from .errors import (
    DeadlineExceededError, QueueFullError, ServeError, ServiceClosedError,
    WorkerCrashError,
)
from .metrics import ServeMetrics

__all__ = ["BatchPolicy", "BatchingScheduler", "running_future"]


@dataclass(frozen=True)
class BatchPolicy:
    """The knobs of the batching scheduler.

    Attributes
    ----------
    max_batch:
        Largest coalesced batch per execution.
    max_wait_ms:
        How long a worker holds a partial batch open for stragglers.
    queue_depth:
        Pending-request bound; submissions beyond it are rejected.
    workers:
        Worker threads executing batches.
    retries:
        Re-executions of a batch whose run raised a transient error.
    """

    max_batch: int = 8
    max_wait_ms: float = 2.0
    queue_depth: int = 64
    workers: int = 2
    retries: int = 1

    def __post_init__(self):
        if self.max_batch < 1 or self.queue_depth < 1 or self.workers < 1:
            raise ValueError("max_batch, queue_depth and workers must be >= 1")
        if self.max_wait_ms < 0 or self.retries < 0:
            raise ValueError("max_wait_ms and retries must be >= 0")


def running_future() -> Future:
    """A stdlib future already marked running, as every request's handle is.

    A submitted request cannot be withdrawn, so its future refuses
    ``cancel()``, and whichever thread completes it never races a
    cancellation into :class:`~concurrent.futures.InvalidStateError`.
    """
    fut = Future()
    fut.set_running_or_notify_cancel()
    return fut


@dataclass
class _Request:
    key: str
    inputs: object
    deadline: float | None        # absolute time.monotonic(), or None
    t_enqueue: float
    future: Future = field(default_factory=running_future)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class BatchingScheduler:
    """Bounded-queue batching over an ``execute(key, inputs_list)`` callable."""

    def __init__(self, execute, policy: BatchPolicy | None = None,
                 metrics: ServeMetrics | None = None):
        self.policy = policy or BatchPolicy()
        self.metrics = metrics or ServeMetrics()
        self._execute = execute
        self._pending: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}",
                             daemon=True)
            for i in range(self.policy.workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, key: str, inputs, deadline_ms: float | None = None) -> Future:
        """Enqueue one request; raises :class:`QueueFullError` at capacity."""
        now = time.monotonic()
        req = _Request(key=key, inputs=inputs, t_enqueue=now,
                       deadline=None if deadline_ms is None
                       else now + deadline_ms / 1000.0)
        with self._cond:
            if self._closed:
                raise ServiceClosedError("scheduler is closed")
            if len(self._pending) >= self.policy.queue_depth:
                self.metrics.on_reject()
                raise QueueFullError(
                    f"request queue at capacity ({self.policy.queue_depth})")
            self._pending.append(req)
            self.metrics.on_submit(len(self._pending))
            self._cond.notify_all()
        return req.future

    def queue_depth(self) -> int:
        """Number of currently pending (not yet picked up) requests."""
        with self._cond:
            return len(self._pending)

    def close(self, drain: bool = True) -> None:
        """Stop accepting work; ``drain`` lets queued requests finish first."""
        with self._cond:
            self._closed = True
            if not drain:
                while self._pending:
                    req = self._pending.popleft()
                    req.future.set_exception(ServiceClosedError("scheduler closed"))
                    self.metrics.on_fail()
            self._cond.notify_all()
        for t in self._threads:
            t.join()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _expire(self, req: _Request) -> None:
        req.future.set_exception(DeadlineExceededError(
            "deadline expired before execution"))
        self.metrics.on_expire()

    def _pop_live_locked(self) -> _Request | None:
        now = time.monotonic()
        while self._pending:
            req = self._pending.popleft()
            if req.expired(now):
                self._expire(req)
            else:
                return req
        return None

    def _gather_locked(self, batch: list[_Request]) -> None:
        """Move same-key live requests from the queue into ``batch``."""
        key = batch[0].key
        now = time.monotonic()
        kept: list[_Request] = []
        while self._pending and len(batch) < self.policy.max_batch:
            req = self._pending.popleft()
            if req.key != key:
                kept.append(req)
            elif req.expired(now):
                self._expire(req)
            else:
                batch.append(req)
        # other-key requests go back in arrival order, ahead of anything
        # submitted while we scanned
        for req in reversed(kept):
            self._pending.appendleft(req)

    def _take_batch(self) -> list[_Request] | None:
        """Block for the next batch; None when closed and drained."""
        with self._cond:
            while True:
                first = self._pop_live_locked()
                if first is not None:
                    break
                if self._closed:
                    return None
                self._cond.wait()
            batch = [first]
            self._gather_locked(batch)
            wait_end = time.monotonic() + self.policy.max_wait_ms / 1000.0
            while len(batch) < self.policy.max_batch and not self._closed:
                remaining = wait_end - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
                self._gather_locked(batch)
        return batch

    def _retryable(self, exc: Exception) -> bool:
        """Transient failures are retried; deterministic ones are not."""
        return not isinstance(exc, (NumericsError, ServeError))

    def _run_batch(self, batch: list[_Request]) -> None:
        now = time.monotonic()
        live = []
        for req in batch:
            if req.expired(now):
                self._expire(req)
            else:
                live.append(req)
        if not live:
            return
        key = live[0].key
        self.metrics.on_batch(
            len(live), [(now - r.t_enqueue) * 1e3 for r in live])
        attempts = 0
        while True:
            try:
                faults.maybe_fault("serve", f"batch/{key}")
                outputs = self._execute(key, [r.inputs for r in live])
                break
            except Exception as exc:  # lint: allow[broad-except] retry classifier: transient vs deterministic
                if self._retryable(exc) and attempts < self.policy.retries:
                    attempts += 1
                    self.metrics.on_retry()
                    continue
                if isinstance(exc, ServeError):
                    err = exc
                else:
                    err = WorkerCrashError(
                        f"batch execution failed after {attempts + 1} "
                        f"attempt(s): {type(exc).__name__}: {exc}")
                for req in live:
                    req.future.set_exception(err)
                    self.metrics.on_fail()
                return
        done = time.monotonic()
        for req, out in zip(live, outputs):
            req.future.set_result(out)
            self.metrics.on_complete((done - req.t_enqueue) * 1e3)

    def _worker(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._run_batch(batch)
