"""Multi-process sharded serving: a consistent-hash router over warm workers.

:class:`ShardRouter` fans requests out to N worker *processes*, each
hosting a full :class:`~repro.serve.InferenceService` (batching
scheduler included) behind one duplex pipe.  The pieces:

* **Consistent hashing** — requests are routed by their canonical
  ``model|format|mode`` key through a :class:`HashRing` (SHA-256 virtual
  nodes), so every request for one key lands on one shard.  That keeps
  the per-key batching win intact across the fan-out and makes routing
  stable: adding a shard remaps only the keys of the ring arcs it takes
  over.
* **Warm processes** — shard workers are leased from the resilience
  layer's persistent pool (:func:`repro.resilience.pool.get_pool`,
  ``kind="serve"``) with a dedicated pipe protocol
  (:func:`_shard_worker_main`).  The pool's spawn/respawn/pipe-EOF
  machinery is reused verbatim: a dead worker is detected by its pipe
  raising ``EOFError`` and is respawned *in its slot*, re-initialised,
  and handed back its in-flight requests.
* **Calibrate once, attach everywhere** — the router's parent repository
  calibrates each preheated key once, then publishes the per-layer
  scales and quantized weight planes (plus per-format decode-LUT
  tables) into checksummed shared-memory segments
  (:mod:`repro.serve.shm`).  Workers attach instead of recalibrating; a
  corrupt or stale segment demotes to local recalibration with a
  one-line warning, never a crash.
* **Exactly-once replies** — every request holds a router-side pending
  record keyed by a sequence number.  A reply retires the record;
  replies for unknown sequence numbers (a duplicate after respawn
  redispatch, a straggler after deadline expiry) are dropped.  On
  worker death the router redispatches only the still-pending,
  still-live requests for that slot — a request whose reply was already
  collected is never re-executed, and a redispatched request's injected
  fault action is *not* re-shipped (parent-fired fault budgets are
  consumed once).

**The differential guarantee, sharded.**  A sharded result is
byte-identical to serial single-sample inference in the parent process,
under both PTQ modes, both kernel backends and uniform or ``mixed(...)``
format specs.  The argument composes from proven pieces: workers run the
same :func:`repro.serve.service.execute_batch` data path under the
batch-invariant matmul mode (batched == serial); attached scale/plane
segments round-trip floats exactly (JSON ``repr`` serialisation, SHA-256
verified) and the planes were computed by the publisher running the very
same quantization code; LUT tables are pure functions of the format; and
the active kernel backend is shipped with every request, so a worker
never serves under a different backend than its caller.  The serving
matrix (``tests/test_serve_matrix.py``) checks the composition end to
end, directly and behind the gateway, at 1, 2 and 4 shards.

**Liveness.**  :meth:`ShardRouter.ping` sends each worker a ``ping``
pipe message that the worker's main loop answers at once, without
touching its metrics, so a health probe costs the same at any uptime.
A worker whose main loop is wedged misses it; a worker with no
initialised service answers unhealthy.

Fault injection: the router fires ``shard:req/KEY`` faults in the
*parent* (so counted clauses survive worker respawns) and ships the
action for the worker to enact — ``kill`` exercises the respawn +
redispatch path, ``crash`` surfaces as a structured worker-crash reply.
Segment corruption is injected at publish time (``shard:segment/KEY``,
see :mod:`repro.serve.shm`).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import multiprocessing
import os
import queue
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict

from .. import kernels
from ..formats import get_format
from ..quant.mixed import parse_format_spec
from ..resilience import faults
from ..resilience import pool as pool_mod
from . import shm
from .errors import (
    DeadlineExceededError, ModelLoadError, QueueFullError, ServeError,
    ServiceClosedError, WorkerCrashError, error_from_entry,
)
from .metrics import ServeMetrics, merge_snapshots
from .repository import ModelRepository, micro_specs, zoo_specs
from .scheduler import BatchPolicy, running_future
from .service import Backend, InferenceService

__all__ = ["HashRing", "ShardRouter"]

#: how long past a request's deadline the router waits for a (possibly
#: hung) worker before expiring the pending record itself
SWEEP_GRACE_S = 1.0

#: how long a worker's shipper thread waits on one scheduler future
#: before declaring the request lost inside the worker
WORKER_RESULT_TIMEOUT_S = 300.0

#: how long a new router waits for each shard's ``ready`` reply
INIT_TIMEOUT_S = 120.0


class HashRing:
    """Consistent hashing of string keys onto ``slots`` shard indices.

    Each slot contributes :attr:`VNODES` virtual points (SHA-256 of
    ``shard-{slot}-vnode-{v}``) on a 64-bit ring; a key maps to the
    owner of the first point at or after its own hash.  Virtual nodes
    smooth the load split, and the construction is deterministic — every
    process computes the identical ring, so tests can predict placement.
    """

    #: virtual points per slot
    VNODES = 64

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        points = sorted(
            (self._hash(f"shard-{slot}-vnode-{v}"), slot)
            for slot in range(slots) for v in range(self.VNODES))
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _hash(token: str) -> int:
        return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8],
                              "big")

    def lookup(self, key: str) -> int:
        """The shard slot owning ``key``."""
        idx = bisect.bisect_right(self._points, self._hash(key))
        return self._owners[idx % len(self._points)]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _build_specs(desc: dict) -> dict:
    """Rebuild a servable-spec map from its plain-data descriptor.

    Specs hold closures and cannot cross the pipe; the router ships
    ``{"kind": "micro"}`` or ``{"kind": "zoo", "names": [...]}`` and the
    worker reconstructs the identical map locally.
    """
    kind = desc.get("kind", "micro")
    if kind == "micro":
        return micro_specs()
    if kind == "zoo":
        return zoo_specs(desc.get("names"))
    raise ValueError(f"unknown spec source kind {kind!r}")


def _release_state(state: dict) -> None:
    """Tear down a worker's service and its shared-memory attachments.

    Order matters for clean finalisation: stop the service, drop the
    kernel cache (its LUT tables are views into attached segments),
    release the repository (plane views), then close the segments.
    """
    service, state["service"] = state["service"], None
    state["token"] = None
    if service is not None:
        service.close(drain=False)
    kernels.clear_kernel_cache()
    from ..engine import clear_planes_cache
    clear_planes_cache()   # decode planes can hold views of attached LUTs
    if service is not None:
        service.repository.release()
    for seg in state["segments"]:
        seg.close()
    state["segments"] = []


def _init_service(state: dict, cfg: dict) -> tuple[str | None, dict]:
    """(Re)build the worker's service from a router config; returns
    ``(error_or_None, info)`` for the ``ready`` reply.

    An unchanged config reuses the live service — the warm-pool win: a
    second router run with identical state pays zero rebuild cost.
    """
    token = json.dumps(cfg, sort_keys=True, default=repr)
    if state["service"] is not None and token == state["token"]:
        repo = state["service"].repository
        return None, {"pid": os.getpid(), "reused": True,
                      "shm_attaches": repo.shm_attaches}
    if state["service"] is not None:
        _release_state(state)
    try:
        for fmt_name, seg_name in cfg.get("lut_manifest", {}).items():
            try:
                seg = shm.attach(seg_name)
            except shm.ShmIntegrityError as exc:
                print(f"shard worker: LUT segment for {fmt_name} rejected "
                      f"({exc}); building locally", flush=True)
                continue
            kernels.install_tables(seg.meta, seg.arrays())
            state["segments"].append(seg)
        repository = ModelRepository(
            _build_specs(cfg.get("specs", {"kind": "micro"})),
            plane_manifest=cfg.get("plane_manifest"),
            **cfg.get("repository", {}))
        state["service"] = InferenceService(
            repository, BatchPolicy(**cfg.get("policy", {})))
        state["token"] = token
    except Exception as exc:  # lint: allow[broad-except] init failures ship to the router as a structured ready error
        return f"{type(exc).__name__}: {exc}", {"pid": os.getpid()}
    return None, {"pid": os.getpid(), "reused": False}


def _shard_worker_main(conn) -> None:
    """Shard worker loop: one batching service behind one duplex pipe.

    Messages from the router: ``("init", cfg)``, ``("req", seq, model,
    fmt, mode, inputs, deadline_ms, backend, fault_action, fault_env)``,
    ``("stats", seq)``, ``("ping", seq)``, ``("stop",)``.  Replies:
    ``("ready", error, info)`` and ``("res", seq, status, payload)`` with
    status ``ok`` or ``err``.  Every ``req``, ``stats`` and ``ping``
    produces exactly one ``res`` (admission errors reply immediately;
    accepted requests reply from the shipper thread when their future
    completes).  A ``ping`` is answered here, in the main loop, with
    whether a service is initialised — it never touches the metrics.
    SIGINT is ignored — on Ctrl-C the router's process owns teardown.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    state: dict = {"service": None, "token": None, "segments": []}
    send_lock = threading.Lock()
    ship_q: queue.Queue = queue.Queue()

    def _send(msg) -> None:
        with send_lock:
            try:
                # lint: allow[blocking-call-under-lock] pipe writes must be serialized per connection; the router drains its end continuously
                conn.send(msg)
            except (OSError, ValueError):  # router gone; nothing to do
                pass

    def _shipper() -> None:
        # FIFO over accepted requests: replies leave in submission order,
        # matched router-side by sequence number regardless
        while True:
            item = ship_q.get()
            if item is None:
                return
            seq, fut = item
            try:
                value = fut.result(timeout=WORKER_RESULT_TIMEOUT_S)
            except ServeError as exc:
                _send(("res", seq, "err", exc.to_entry()))
            except Exception as exc:  # lint: allow[broad-except] any scheduler failure must still produce the one reply
                err = WorkerCrashError(
                    f"shard worker lost the request: "
                    f"{type(exc).__name__}: {exc}")
                _send(("res", seq, "err", err.to_entry()))
            else:
                _send(("res", seq, "ok", value))

    threading.Thread(target=_shipper, name="shard-shipper",
                     daemon=True).start()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "init":
            error, info = _init_service(state, msg[1])
            _send(("ready", error, info))
            continue
        if kind == "ping":
            _send(("res", msg[1], "ok", state["service"] is not None))
            continue
        if kind == "stats":
            service = state["service"]
            payload = None if service is None else {
                "pid": os.getpid(),
                "metrics": service.metrics.snapshot(),
                "repository": service.repository.stats(),
                "queue_depth": service.scheduler.queue_depth(),
            }
            _send(("res", msg[1], "ok", payload))
            continue
        (_, seq, model, fmt, mode, inputs, deadline_ms, backend,
         fault_action, fault_env) = msg
        if fault_env is None:
            os.environ.pop(faults.ENV_VAR, None)
        else:
            os.environ[faults.ENV_VAR] = fault_env
        service = state["service"]
        try:
            if fault_action is not None:
                # parent-fired (counts survive respawns), worker-enacted
                faults.enact(fault_action, "shard",
                             f"req/{model}|{fmt}|{mode}")
            if service is None:
                raise ModelLoadError("shard worker has no initialised service")
            kernels.set_backend(backend)
            fut = service.submit(model, inputs, fmt=fmt, mode=mode,
                                 deadline_ms=deadline_ms)
        except ServeError as exc:
            _send(("res", seq, "err", exc.to_entry()))
        except Exception as exc:  # lint: allow[broad-except] injected crashes and submit failures become structured replies
            err = WorkerCrashError(
                f"shard submit failed: {type(exc).__name__}: {exc}")
            _send(("res", seq, "err", err.to_entry()))
        else:
            ship_q.put((seq, fut))
    ship_q.put(None)
    _release_state(state)


# ----------------------------------------------------------------------
# router side
# ----------------------------------------------------------------------


class _Pending:
    """Router-side record of one in-flight request (or stats/ping ask)."""

    __slots__ = ("seq", "slot", "kind", "key", "payload", "future",
                 "t_submit", "deadline")

    def __init__(self, seq: int, slot: int, kind: str, key: str, payload,
                 deadline: float | None):
        self.seq = seq
        self.slot = slot
        self.kind = kind              # "req" | "stats" | "ping"
        self.key = key
        self.payload = payload        # (model, fmt, mode, inputs, backend)
        self.future = running_future()
        self.t_submit = time.monotonic()
        self.deadline = deadline      # absolute monotonic, or None


class ShardRouter(Backend):
    """Consistent-hash fan-out over N shard worker processes.

    A :class:`~repro.serve.Backend`: the load generator, the gateway and
    the differential tests drive it exactly like an in-process
    :class:`~repro.serve.InferenceService`.  :meth:`infer_serial` runs
    in the router's own process over the parent repository.

    Parameters
    ----------
    shards:
        Worker process count (ring slots).
    specs:
        ``"micro"`` (seeded micro models) or ``"zoo"`` (pretrained zoo;
        restrict with ``zoo_names``) — shipped as a plain descriptor and
        rebuilt inside each worker, since specs hold closures.
    preheat:
        ``(model, fmt, mode)`` keys to calibrate in the parent and
        publish as shared-memory plane segments (plus one decode-LUT
        segment per distinct format the spec names, so a ``mixed(...)``
        spec publishes each of its formats); non-preheated keys
        calibrate inside whichever worker first serves them
        (deterministically — calibration streams are seeded, so results
        stay bit-identical).
    policy:
        Per-worker :class:`BatchPolicy`; ``policy.queue_depth`` also
        bounds the router's per-shard in-flight window (admission
        backpressure raises :class:`QueueFullError`).
    calib_n / persist / cache_dir:
        Forwarded to every :class:`ModelRepository` (parent and workers)
        so all of them resolve identical state.
    """

    def __init__(self, shards: int = 2, specs: str = "micro", *,
                 zoo_names: list[str] | None = None,
                 preheat: list[tuple] | tuple = (),
                 policy: BatchPolicy | None = None,
                 calib_n: int = 64, persist: bool = False, cache_dir=None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if specs not in ("micro", "zoo"):
            raise ValueError(f"specs must be 'micro' or 'zoo', got {specs!r}")
        self.policy = policy or BatchPolicy()
        self.metrics = ServeMetrics()
        self.ring = HashRing(shards)
        self._specs_desc = (
            {"kind": "micro"} if specs == "micro"
            else {"kind": "zoo",
                  "names": None if zoo_names is None else list(zoo_names)})
        self._repo_cfg: dict = {"calib_n": calib_n, "persist": persist}
        if cache_dir is not None:
            self._repo_cfg["cache_dir"] = str(cache_dir)
        self.repository = ModelRepository(_build_specs(self._specs_desc),
                                          plane_manifest=None,
                                          **self._repo_cfg)
        self.plane_manifest: dict[str, str] = {}
        self.lut_manifest: dict[str, str] = {}
        self._published: list[shm.PublishedSegment] = []
        for entry in preheat:
            model, fmt, mode = entry if len(entry) == 3 else (*entry,
                                                             "fakequant")
            self._publish_key(model, fmt, mode)

        self._pool = pool_mod.get_pool(multiprocessing.get_context(),
                                       kind="serve",
                                       target=_shard_worker_main,
                                       name_prefix="repro-shard")
        self._workers = self._pool.lease(shards)
        self._slot_locks = [threading.Lock() for _ in range(shards)]
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._pending: dict[int, _Pending] = {}
        self._closed = False
        self._stop = threading.Event()
        self.respawns = 0

        cfg = self.worker_config()
        for worker in self._workers:
            worker.conn.send(("init", cfg))
        for slot, worker in enumerate(self._workers):
            if not worker.conn.poll(INIT_TIMEOUT_S):
                raise ModelLoadError(f"shard {slot} did not initialise "
                                     f"within {INIT_TIMEOUT_S}s")
            msg = worker.conn.recv()
            if msg[0] != "ready" or msg[1] is not None:
                raise ModelLoadError(
                    f"shard {slot} failed to initialise: {msg[1]}")
        self._collector = threading.Thread(
            target=self._collect, name="shard-collector", daemon=True)
        self._collector.start()

    # -- shared-memory publication --------------------------------------
    def _publish_key(self, model: str, fmt: str, mode: str) -> None:
        key = self.repository.model_key(model, fmt, mode)
        if key not in self.plane_manifest:
            meta, arrays = self.repository.export_plane(model, fmt, mode)
            seg = shm.publish(f"plane/{key}", meta, arrays)
            self.plane_manifest[key] = seg.name
            self._published.append(seg)
        default_name, layer_formats = parse_format_spec(fmt)
        for fmt_name in sorted({default_name, *layer_formats.values()}):
            if fmt_name not in self.lut_manifest:
                lmeta, larrays = kernels.export_tables(get_format(fmt_name))
                lseg = shm.publish(f"lut/{fmt_name}", lmeta, larrays)
                self.lut_manifest[fmt_name] = lseg.name
                self._published.append(lseg)

    def worker_config(self) -> dict:
        """The plain-data init config every shard worker receives."""
        return {"specs": dict(self._specs_desc),
                "repository": dict(self._repo_cfg),
                "plane_manifest": dict(self.plane_manifest),
                "lut_manifest": dict(self.lut_manifest),
                "policy": asdict(self.policy)}

    # -- client API ------------------------------------------------------
    def submit(self, model: str, inputs, fmt: str = "MERSIT(8,2)",
               mode: str = "fakequant",
               deadline_ms: float | None = None) -> Future:
        """Route one request to its shard; returns a completion future."""
        key = self.repository.model_key(model, fmt, mode)
        slot = self.ring.lookup(key)
        spec = faults.fire("shard", f"req/{key}")
        fault_action = None if spec is None else spec.action
        backend = kernels.get_backend()
        now = time.monotonic()
        with self._lock:
            if self._closed:
                raise ServiceClosedError("shard router is closed")
            depth = sum(1 for p in self._pending.values()
                        if p.slot == slot and p.kind == "req")
            if depth >= self.policy.queue_depth:
                self.metrics.on_reject()
                raise QueueFullError(
                    f"shard {slot} at capacity ({self.policy.queue_depth} "
                    f"requests in flight)")
            pending = _Pending(
                seq=next(self._seq), slot=slot, kind="req", key=key,
                payload=(model, fmt, mode, inputs, backend),
                deadline=None if deadline_ms is None
                else now + deadline_ms / 1000.0)
            self._pending[pending.seq] = pending
            self.metrics.on_submit(depth + 1)
        self._dispatch(pending, fault_action)
        return pending.future

    # -- dispatch / collection -------------------------------------------
    def _dispatch(self, pending: _Pending,
                  fault_action: str | None = None) -> None:
        model, fmt, mode, inputs, backend = pending.payload
        deadline_ms = (None if pending.deadline is None else
                       max((pending.deadline - time.monotonic()) * 1e3, 0.0))
        msg = ("req", pending.seq, model, fmt, mode, inputs, deadline_ms,
               backend, fault_action, os.environ.get(faults.ENV_VAR))
        with self._slot_locks[pending.slot]:
            try:
                # lint: allow[blocking-call-under-lock] per-slot lock serializes pipe writes; in-flight bounded by queue_depth admission so the buffer never fills
                self._workers[pending.slot].conn.send(msg)
            except (OSError, ValueError):
                pass  # dead pipe: the collector's EOF path revives the
                #       slot and redispatches everything still pending

    def _collect(self) -> None:
        while not self._stop.is_set():
            conn_slots = {w.conn: slot
                          for slot, w in enumerate(self._workers)}
            for conn in pool_mod.wait(list(conn_slots), 0.2):
                slot = conn_slots[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._revive(slot, conn)
                    continue
                self._handle(msg)
            self._sweep()

    def _handle(self, msg) -> None:
        kind = msg[0]
        if kind == "ready":
            if msg[1] is not None:
                print(f"shard worker re-init failed: {msg[1]}", flush=True)
            return
        if kind != "res":  # pragma: no cover - unknown message
            return
        _, seq, status, payload = msg
        with self._lock:
            pending = self._pending.pop(seq, None)
        if pending is None:
            return  # late reply for a retired request: dropped (exactly-once)
        if status == "ok":
            pending.future.set_result(payload)
            if pending.kind == "req":
                self.metrics.on_complete(
                    (time.monotonic() - pending.t_submit) * 1e3)
        else:
            err = error_from_entry(payload)
            pending.future.set_exception(err)
            if isinstance(err, DeadlineExceededError):
                self.metrics.on_expire()
            else:
                self.metrics.on_fail()

    def _sweep(self) -> None:
        """Expire pendings a hung worker never answered (deadline + grace)."""
        now = time.monotonic()
        with self._lock:
            expired = [p for p in self._pending.values()
                       if p.kind == "req" and p.deadline is not None
                       and now > p.deadline + SWEEP_GRACE_S]
            for p in expired:
                del self._pending[p.seq]
        for p in expired:
            p.future.set_exception(DeadlineExceededError(
                "deadline expired with no reply from the shard worker"))
            self.metrics.on_expire()

    def _revive(self, slot: int, dead_conn) -> None:
        """Respawn a dead shard in its slot and redispatch its pendings."""
        with self._slot_locks[slot]:
            worker = self._workers[slot]
            if worker.conn is not dead_conn:
                return  # already revived
            try:
                replacement = self._pool.respawn(worker)
            except pool_mod.PoolShutdown:
                return  # pool torn down under us: the router is closing
            self._workers[slot] = replacement
            self.respawns += 1
            try:
                # lint: allow[blocking-call-under-lock] init must reach the fresh pipe before any redispatch on this slot; buffer is empty at this point
                replacement.conn.send(("init", self.worker_config()))
            except (OSError, ValueError):  # pragma: no cover - died instantly
                return
        with self._lock:
            todo = sorted((p for p in self._pending.values()
                           if p.slot == slot), key=lambda p: p.seq)
        now = time.monotonic()
        for p in todo:
            if p.kind == "req" and (p.deadline is None or now < p.deadline):
                # the pipe delivers the init before these, and the fault
                # action is deliberately not re-shipped
                self._dispatch(p)
                continue
            with self._lock:
                if self._pending.pop(p.seq, None) is None:
                    continue   # retired meanwhile: completed elsewhere
            if p.kind != "req":
                p.future.set_result(None)   # stats/ping ask died with the worker
            else:
                p.future.set_exception(DeadlineExceededError(
                    "deadline expired during shard respawn"))
                self.metrics.on_expire()

    # -- observability ---------------------------------------------------
    def _ask_all(self, kind: str, timeout: float) -> list:
        """One ``stats`` or ``ping`` ask per slot; the replies in slot order.

        A slot whose worker does not answer within ``timeout`` (or died)
        reads ``None``.  Every ask is retired afterwards, so a hung
        worker cannot leak pending records call after call.
        """
        pendings = []
        for slot in range(len(self._workers)):
            with self._lock:
                pending = _Pending(seq=next(self._seq), slot=slot, kind=kind,
                                   key="", payload=None, deadline=None)
                self._pending[pending.seq] = pending
            with self._slot_locks[slot]:
                try:
                    # lint: allow[blocking-call-under-lock] per-slot lock serializes pipe writes; an ask tuple never fills the pipe buffer
                    self._workers[slot].conn.send((kind, pending.seq))
                except (OSError, ValueError):
                    pass
            pendings.append(pending)
        replies = []
        for pending in pendings:
            try:
                replies.append(pending.future.result(timeout))
            except Exception:  # lint: allow[broad-except] an unresponsive or dead shard answers nothing
                replies.append(None)
        with self._lock:
            for pending in pendings:
                self._pending.pop(pending.seq, None)
        return replies

    def ping(self, timeout: float = 2.0) -> list[bool]:
        """Per-slot liveness: does each shard's main loop still answer?

        A slot is healthy iff its worker answers a ``ping`` within
        ``timeout`` with an initialised service — a worker whose main
        loop is wedged (an enacted ``hang`` fault, a stuck syscall)
        fails the ping even though its process is alive, which is
        exactly the state the health supervisor must escalate.  The
        reply is one bool: no metrics are read, so the probe's cost does
        not grow with uptime.
        """
        return [reply is True for reply in self._ask_all("ping", timeout)]

    def force_respawn(self, slot: int) -> None:
        """Hard-kill one shard worker (health-supervision escalation).

        SIGKILL makes the worker's pipe EOF, which the collector's
        existing :meth:`_revive` path turns into an in-slot respawn,
        re-init and redispatch — escalation reuses the proven crash
        recovery machinery rather than a parallel teardown path.
        """
        if not 0 <= slot < len(self._workers):
            raise ValueError(f"no shard slot {slot}")
        try:
            os.kill(self._workers[slot].pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass  # already dead: the collector is reviving it

    def stats(self, timeout: float = 30.0) -> dict:
        """Fleet-wide stats: merged histograms + per-shard detail.

        Each worker ships its metrics snapshot, bucket counts included,
        over the result pipe; :func:`merge_snapshots` adds the buckets,
        so the fleet numbers equal what a single process observing every
        request would report.
        """
        per_shard = [{"slot": slot, "pid": self._workers[slot].pid,
                      "stats": snap}
                     for slot, snap in enumerate(self._ask_all("stats",
                                                               timeout))]
        fleet = merge_snapshots([e["stats"]["metrics"] for e in per_shard
                                 if e["stats"]])
        return {"shards": len(self._workers),
                "respawns": self.respawns,
                "router": self.metrics.snapshot(),
                "fleet": fleet,
                "per_shard": per_shard,
                "repository": self.repository.stats(),
                "published_segments": shm.owned_segments()}

    def render_stats(self) -> str:
        """Human-readable fleet block (``repro serve --stats --shards N``)."""
        s = self.stats()
        fleet = s["fleet"]
        lines = [
            f"shard fleet  {s['shards']} shards  {s['respawns']} respawns",
            f"  requests    submitted {fleet['submitted']}"
            f"  completed {fleet['completed']}  rejected {fleet['rejected']}"
            f"  expired {fleet['expired']}  failed {fleet['failed']}",
            f"  latency ms  p50 {fleet['latency_ms']['p50']:.2f}"
            f"  p95 {fleet['latency_ms']['p95']:.2f}"
            f"  p99 {fleet['latency_ms']['p99']:.2f}",
            f"  batches     mean size {fleet['mean_batch_size']:.2f}",
        ]
        for e in s["per_shard"]:
            st = e["stats"]
            if st is None:
                lines.append(f"  shard {e['slot']}  pid {e['pid']}  (no reply)")
                continue
            m = st["metrics"]
            rep = st["repository"]
            lines.append(
                f"  shard {e['slot']}  pid {e['pid']}"
                f"  queue {st['queue_depth']}"
                f"  completed {m['completed']}"
                f"  shm attaches {rep['shm_attaches']}"
                f"  calibrations {rep['calibrations']}")
        return "\n".join(lines)

    # -- lifecycle -------------------------------------------------------
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop routing and unlink published segments (workers stay warm).

        ``drain`` waits for in-flight requests before teardown; anything
        still pending afterwards fails with a structured
        :class:`ServiceClosedError`.  The leased worker processes are
        *not* killed — they stay in the persistent pool for the next
        router (an unchanged config reuses their services outright).
        """
        with self._lock:
            self._closed = True
        if drain:
            end = time.monotonic() + timeout
            while time.monotonic() < end:
                with self._lock:
                    if not self._pending:
                        break
                time.sleep(0.01)
        self._stop.set()
        self._collector.join(timeout=5.0)
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for p in leftovers:
            p.future.set_exception(ServiceClosedError(
                "shard router closed with the request in flight"))
            self.metrics.on_fail()
        for seg in self._published:
            seg.unlink()
        self._published.clear()
