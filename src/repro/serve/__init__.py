"""Dynamic-batching quantized inference service.

The serving layer of the repo: a :class:`~repro.serve.ModelRepository`
that calibrates each (model, format, mode) once — memoized in process
and persisted crash-safely on disk — a
:class:`~repro.serve.BatchingScheduler` that coalesces concurrent
single-sample requests into batched forwards under a
``max_batch``/``max_wait_ms`` policy with bounded queues, backpressure
and per-request deadlines, and an :class:`~repro.serve.InferenceService`
front door driving both ``fakequant`` and true-quantized ``engine``
inference.

Every backend is a :class:`~repro.serve.Backend`: ``submit`` returns a
stdlib :class:`concurrent.futures.Future`, and ``infer``,
``infer_serial``, ``ping``, ``force_respawn`` and the context manager
are shared, so the gateway, the health supervisor, the load generator
and the CLI drive the in-process service and the shard router alike.

The headline correctness property: every serving path returns results
**bit-identical** to serial single-sample inference, under both kernel
backends, both PTQ modes and uniform or ``mixed(...)`` format specs
(see :mod:`repro.serve.service` for the mechanism and
``tests/test_serve_matrix.py`` for the proof — one matrix over the
batched, sharded and gateway paths).

Scaling out, :class:`~repro.serve.ShardRouter` fans requests across N
worker *processes* by consistent hashing on the request key, with the
expensive read-only state (quantized weight planes, per-layer scales,
decode-LUT tables) published once by the parent into checksummed
shared-memory segments (:mod:`repro.serve.shm`) that workers attach
instead of recalibrating.  The bit-identity guarantee extends across the
process boundary at 1, 2 and 4 shards.

Over the network, :class:`~repro.serve.Gateway` is the hardened TCP
front door (length-prefixed JSON frames, :mod:`repro.serve.wire`):
deadline propagation, bounded admission, per-key circuit breakers
(:class:`~repro.serve.CircuitBreaker`), background health supervision
with forced shard respawn (:class:`~repro.serve.HealthSupervisor`) and
graceful drain.  :class:`~repro.serve.GatewayClient` is the matching
retrying client; ``tests/test_gateway_chaos.py`` extends the bit-identity
guarantee across the wire under a deterministic ``net``-scope fault
storm.
"""

from .breaker import BreakerBoard, CircuitBreaker
from .client import GatewayClient
from .errors import (
    BadRequestError, CircuitOpenError, DeadlineExceededError, DrainingError,
    GatewayTimeoutError, ModelLoadError, OverloadedError, QueueFullError,
    ServeError, ServiceClosedError, WorkerCrashError, error_from_entry,
)
from .gateway import Gateway
from .health import HealthSupervisor
from .loadgen import LoadReport, run_closed_loop, run_open_loop
from .metrics import Histogram, ServeMetrics, merge_snapshots
from .repository import ModelRepository, ServableSpec, micro_specs, zoo_specs
from .scheduler import BatchPolicy, BatchingScheduler
from .service import Backend, InferenceService, execute_batch
from .shard import HashRing, ShardRouter

__all__ = [
    "ServeError", "QueueFullError", "DeadlineExceededError",
    "ModelLoadError", "WorkerCrashError", "ServiceClosedError",
    "OverloadedError", "CircuitOpenError", "DrainingError",
    "BadRequestError", "GatewayTimeoutError",
    "error_from_entry",
    "Histogram", "ServeMetrics", "merge_snapshots",
    "ModelRepository", "ServableSpec", "zoo_specs", "micro_specs",
    "BatchPolicy", "BatchingScheduler",
    "Backend", "InferenceService", "execute_batch",
    "HashRing", "ShardRouter",
    "Gateway", "GatewayClient", "CircuitBreaker", "BreakerBoard",
    "HealthSupervisor",
    "LoadReport", "run_closed_loop", "run_open_loop",
]
