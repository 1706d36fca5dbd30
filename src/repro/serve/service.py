"""The serving backends: the :class:`Backend` surface and the in-process service.

:class:`Backend` is the one surface every serving front end drives — the
gateway, the health supervisor, the load generator and the CLI.  It
holds the only copies of ``infer``, ``infer_serial``, ``ping``,
``force_respawn`` and the context manager; a backend supplies
``repository``, ``metrics``, ``submit`` (returning a stdlib
:class:`concurrent.futures.Future`), ``stats``, ``render_stats`` and
``close``.  :class:`InferenceService` is the in-process backend and
:class:`~repro.serve.ShardRouter` the multi-process one.

:class:`InferenceService` is the front door of :mod:`repro.serve`.  A
request names a model, a format and a PTQ mode and carries one sample;
the scheduler coalesces concurrent requests per ``model|format|mode``
key and a worker runs one batched forward for the whole group.

**The differential guarantee.**  Batched execution is *bit-identical* to
serial single-sample inference — a request's result never depends on
which other requests it happened to share a batch with.  Two mechanisms
make that true:

* engine mode is invariant by construction: the Kulisch accumulator is
  exact integer arithmetic, so per-sample results cannot depend on batch
  shape;
* fakequant mode computes in float through BLAS, whose GEMM kernels pick
  different micro-kernels (and thus different FP summation orders) for
  different batch heights.  Every batched forward therefore runs under
  :class:`repro.autograd.batch_invariant_matmul`, which forces 2-D
  matmuls to be row-stable; all other ops in the layer library are
  elementwise, reductions over non-batch axes, or per-sample broadcast
  matmuls, and are invariant already.

:meth:`Backend.infer_serial` is the reference path of the differential
tests (``tests/test_serve_matrix.py``): same collate/run code, batch of
one, no scheduler or shard involved.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import Future
from dataclasses import asdict

import numpy as np

from ..autograd import batch_invariant_matmul, no_grad
from .metrics import ServeMetrics
from .repository import ModelRepository
from .scheduler import BatchPolicy, BatchingScheduler

__all__ = ["Backend", "InferenceService", "execute_batch"]


def execute_batch(repository: ModelRepository, key: str,
                  inputs_list: list) -> list[np.ndarray]:
    """Run one batched forward for ``key`` over a repository.

    This is *the* data path of the differential guarantee — the
    in-process service's scheduler workers, the shard workers'
    schedulers and the serial reference all call this one function, so
    any two deployments serving the same repository state produce
    byte-identical outputs.  Each reply is a copy of its output row, not
    a view: a view would keep the whole batch's output alive for as long
    as any one reply is held.
    """
    model_name, fmt, mode = key.split("|")
    net, spec = repository.resolve(model_name, fmt, mode)
    batch = spec.collate(inputs_list)
    with no_grad(), batch_invariant_matmul():
        out = np.asarray(spec.run(net, batch))
    if out.shape[0] != len(inputs_list):
        raise RuntimeError(
            f"spec {spec.name!r} returned {out.shape[0]} outputs "
            f"for {len(inputs_list)} requests")
    return [out[i].copy() for i in range(out.shape[0])]


class Backend(ABC):
    """The serving surface the gateway, supervisor, load generator and CLI drive.

    Subclasses set ``repository`` (the :class:`ModelRepository` whose
    keys they serve) and ``metrics`` (their :class:`ServeMetrics`), and
    implement :meth:`submit`, :meth:`stats`, :meth:`render_stats` and
    :meth:`close`.  Everything else is shared: the blocking
    :meth:`infer`, the serial reference :meth:`infer_serial`, the
    per-slot liveness probe :meth:`ping`, :meth:`force_respawn` and the
    context manager (whose exit closes the backend).
    """

    repository: ModelRepository
    metrics: ServeMetrics

    @abstractmethod
    def submit(self, model: str, inputs, fmt: str = "MERSIT(8,2)",
               mode: str = "fakequant",
               deadline_ms: float | None = None) -> Future:
        """Enqueue one request; raises structured errors on backpressure."""

    @abstractmethod
    def stats(self) -> dict:
        """JSON-ready metrics and counters."""

    @abstractmethod
    def render_stats(self) -> str:
        """Human-readable stats block (``repro serve --stats``)."""

    @abstractmethod
    def close(self, drain: bool = True) -> None:
        """Stop accepting work; ``drain`` lets in-flight requests finish."""

    def infer(self, model: str, inputs, fmt: str = "MERSIT(8,2)",
              mode: str = "fakequant", deadline_ms: float | None = None,
              timeout: float | None = 60.0) -> np.ndarray:
        """Submit and block for the result (convenience wrapper)."""
        return self.submit(model, inputs, fmt, mode,
                           deadline_ms=deadline_ms).result(timeout)

    def infer_serial(self, model: str, inputs, fmt: str = "MERSIT(8,2)",
                     mode: str = "fakequant") -> np.ndarray:
        """Serial single-sample reference: same data path, batch of one.

        Runs :func:`execute_batch` over this backend's own repository in
        the calling thread — the ground truth every batched, sharded or
        gateway result must equal byte-for-byte.
        """
        key = self.repository.model_key(model, fmt, mode)
        return execute_batch(self.repository, key, [inputs])[0]

    def ping(self, timeout: float = 2.0) -> list[bool]:
        """Per-slot liveness; in process there are no worker slots."""
        return []

    def force_respawn(self, slot: int) -> None:
        """Hard-kill one worker slot; in process there is none to kill."""
        raise ValueError(f"no shard slot {slot}")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class InferenceService(Backend):
    """Dynamic-batching inference over a :class:`ModelRepository`."""

    def __init__(self, repository: ModelRepository | None = None,
                 policy: BatchPolicy | None = None):
        self.repository = repository or ModelRepository()
        self.metrics = ServeMetrics()
        self.scheduler = BatchingScheduler(self._execute, policy, self.metrics)
        self.policy = self.scheduler.policy

    def _execute(self, key: str, inputs_list: list) -> list[np.ndarray]:
        # scheduler worker side; the module-level name is looked up per
        # call so a wrapped ``execute_batch`` sees every batch
        return execute_batch(self.repository, key, inputs_list)

    def submit(self, model: str, inputs, fmt: str = "MERSIT(8,2)",
               mode: str = "fakequant",
               deadline_ms: float | None = None) -> Future:
        """Enqueue one request; raises structured errors on backpressure."""
        key = self.repository.model_key(model, fmt, mode)
        return self.scheduler.submit(key, inputs, deadline_ms=deadline_ms)

    def stats(self) -> dict:
        """Scheduler metrics plus repository counters, JSON-ready."""
        return {"metrics": self.metrics.snapshot(),
                "repository": self.repository.stats(),
                "policy": asdict(self.policy)}

    def render_stats(self) -> str:
        """Scheduler metrics block plus one repository line."""
        rep = self.repository.stats()
        lines = [self.metrics.render(),
                 f"  repository  resident {len(rep['resident'])}"
                 f"  calibrations {rep['calibrations']}"
                 f"  artifact hits {rep['artifact_hits']}"]
        return "\n".join(lines)

    def close(self, drain: bool = True) -> None:
        """Stop the scheduler; ``drain`` lets queued requests finish."""
        self.scheduler.close(drain=drain)
