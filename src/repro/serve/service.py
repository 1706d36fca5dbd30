"""The inference service: repository + batching scheduler + invariant math.

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

:meth:`infer_serial` is the reference path used by the differential
tests: same collate/run code, batch of one, no scheduler involved.
"""

from __future__ import annotations

import numpy as np

from ..autograd import batch_invariant_matmul, no_grad
from .metrics import ServeMetrics
from .repository import ModelRepository
from .scheduler import BatchPolicy, BatchingScheduler, ServeFuture

__all__ = ["InferenceService", "execute_batch"]


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


class InferenceService:
    """Dynamic-batching inference over a :class:`ModelRepository`."""

    def __init__(self, repository: ModelRepository | None = None,
                 policy: BatchPolicy | None = None,
                 metrics: ServeMetrics | None = None):
        self.repository = repository or ModelRepository()
        self.metrics = metrics or ServeMetrics()
        self.scheduler = BatchingScheduler(self._execute, policy, self.metrics)
        self.policy = self.scheduler.policy

    # ------------------------------------------------------------------
    # batched execution (scheduler worker side)
    # ------------------------------------------------------------------
    def _execute(self, key: str, inputs_list: list) -> list[np.ndarray]:
        return execute_batch(self.repository, key, inputs_list)

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(self, model: str, inputs, fmt: str = "MERSIT(8,2)",
               mode: str = "fakequant",
               deadline_ms: float | None = None) -> ServeFuture:
        """Enqueue one request; raises structured errors on backpressure."""
        key = self.repository.model_key(model, fmt, mode)
        return self.scheduler.submit(key, inputs, deadline_ms=deadline_ms)

    def infer(self, model: str, inputs, fmt: str = "MERSIT(8,2)",
              mode: str = "fakequant", deadline_ms: float | None = None,
              timeout: float | None = 60.0) -> np.ndarray:
        """Submit and block for the result (convenience wrapper)."""
        return self.submit(model, inputs, fmt, mode,
                           deadline_ms=deadline_ms).result(timeout)

    def infer_serial(self, model: str, inputs, fmt: str = "MERSIT(8,2)",
                     mode: str = "fakequant") -> np.ndarray:
        """Serial single-sample reference: same data path, batch of one.

        This is the ground truth of the differential guarantee — batched
        results must equal it bit-for-bit.
        """
        key = self.repository.model_key(model, fmt, mode)
        return self._execute(key, [inputs])[0]

    # ------------------------------------------------------------------
    # lifecycle / observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Scheduler metrics plus repository counters, JSON-ready."""
        return {"metrics": self.metrics.snapshot(),
                "repository": self.repository.stats(),
                "policy": {"max_batch": self.policy.max_batch,
                           "max_wait_ms": self.policy.max_wait_ms,
                           "queue_depth": self.policy.queue_depth,
                           "workers": self.policy.workers,
                           "retries": self.policy.retries}}

    def render_stats(self) -> str:
        rep = self.repository.stats()
        lines = [self.metrics.render(),
                 f"  repository  resident {len(rep['resident'])}"
                 f"  calibrations {rep['calibrations']}"
                 f"  artifact hits {rep['artifact_hits']}"]
        return "\n".join(lines)

    def close(self, drain: bool = True) -> None:
        self.scheduler.close(drain=drain)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
