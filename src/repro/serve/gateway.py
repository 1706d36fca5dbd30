"""Asyncio TCP front door: the shard fleet made reachable from outside.

Everything below :mod:`repro.serve` so far is library-only — a client
had to import the router to reach it.  :class:`Gateway` owns a
:class:`~repro.serve.Backend` (an in-process
:class:`~repro.serve.InferenceService` or a
:class:`~repro.serve.ShardRouter` fleet) and serves it over a TCP socket
speaking length-prefixed JSON frames (:mod:`repro.serve.wire`) with four
ops: ``infer``, ``stats``, ``health`` and ``drain``.  The wire is
treated as a first-class failure domain, and every robustness layer is
structured, bounded and testable:

* **Deadline propagation** — an ``infer`` frame carries the client's
  *remaining* deadline budget; the gateway further subtracts its own
  receipt-to-submit time before handing the rest to
  ``service.submit(deadline_ms=...)``.  A slow or stalled wire eats the
  budget; it never resets it.
* **Admission control** — a bounded in-flight window
  (``max_inflight``); overload converts to a structured ``overloaded``
  reply, and the scheduler's own backpressure (``queue-full``,
  ``deadline``) maps onto wire error kinds unchanged.  Nothing buffers
  unboundedly.
* **Circuit breakers** — per ``model|format|mode`` key
  (:mod:`repro.serve.breaker`): consecutive worker-crash/timeout
  failures open the breaker, requests fast-fail with ``circuit-open``,
  and a half-open probe re-closes it once the backend answers again
  (e.g. after the shard router's ``_revive`` respawned the worker).
* **Health supervision** — a background probe loop
  (:mod:`repro.serve.health`) pings each shard over its pipe, reports
  ``ready``/``degraded``/``draining`` through the ``health`` op, and
  escalates a persistently unreachable shard to a forced respawn.
* **Graceful drain** — the ``drain`` op (or SIGTERM via the CLI) stops
  admissions, finishes in-flight requests, rejects new work with a
  structured ``draining`` error, closes the backend with
  ``close(drain=True)`` and lets the process exit 0.

Fault injection: the ``net`` scope (:mod:`repro.resilience.faults`)
deterministically attacks the wire at three points — connection accept
(``net:accept:*``), inbound request frames (``net:frame/OP:*``) and
outbound replies (``net:reply/OP:*``) — with ``drop`` / ``delay`` /
``garble`` / ``close`` actions.  The gateway chaos suite
(``tests/test_gateway_chaos.py``) combines a net storm with
``shard:*:kill`` worker murder and proves the headline invariant: every
request a client gets a success for is byte-identical to
``infer_serial``, every shed request carries a structured error kind,
and nothing ever hangs or double-completes.

The asyncio event loop runs in a dedicated thread (``start()``), so the
gateway embeds in tests, the CLI and benchmarks without owning the
process's main thread.  Blocking service calls (``submit`` + future
wait, ``stats``) run on a bounded executor sized to the admission
window, so the loop thread itself never blocks on the fleet.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from ..resilience import faults
from .breaker import BreakerBoard
from .errors import (
    BadRequestError, CircuitOpenError, DeadlineExceededError, DrainingError,
    GatewayTimeoutError, OverloadedError, ServeError,
)
from .health import HealthSupervisor
from . import wire

__all__ = ["Gateway"]

#: extra seconds past the propagated deadline the gateway waits for the
#: service's own structured deadline reply before its backstop timer
#: declares a gateway-timeout (must exceed the router's sweep grace)
DEADLINE_GRACE_S = 5.0


class Gateway:
    """TCP front door over one serving backend, which it owns.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.Backend` to serve (an
        :class:`~repro.serve.InferenceService` or a
        :class:`~repro.serve.ShardRouter`); draining closes it with
        ``close(drain=True)``.
    host / port:
        Bind address; port 0 picks a free port (read it back from
        ``gateway.port`` after ``start()``).
    max_inflight:
        Admission window: concurrently executing ``infer`` requests
        beyond this are shed with a structured ``overloaded`` reply.
    request_timeout_s:
        Backstop ceiling on one request's service-side wait (a
        deadline-less request against a wedged backend must still
        resolve).
    breaker_threshold / breaker_cooldown_s:
        Circuit-breaker policy per request key.
    probe_interval_s / probe_timeout_s / escalate_after:
        Health-supervision policy (see :class:`HealthSupervisor`).
    drain_timeout_s:
        How long a drain waits for in-flight requests before failing
        the stragglers structurally.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0, *,
                 max_inflight: int = 64, request_timeout_s: float = 120.0,
                 breaker_threshold: int = 5, breaker_cooldown_s: float = 1.0,
                 probe_interval_s: float = 0.5, probe_timeout_s: float = 2.0,
                 escalate_after: int = 3, drain_timeout_s: float = 30.0):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.request_timeout_s = request_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.breakers = BreakerBoard(breaker_threshold, breaker_cooldown_s)
        self.supervisor = HealthSupervisor(
            service, interval_s=probe_interval_s,
            probe_timeout_s=probe_timeout_s, escalate_after=escalate_after)
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight + 2,
            thread_name_prefix="gateway-exec")
        self._lock = threading.Lock()
        self._inflight = 0
        self._counters: dict[str, int] = {}
        self._error_kinds: dict[str, int] = {}
        self._net_enacted: dict[str, int] = {}
        self._draining = False
        self._drained = threading.Event()   # drain sequence finished
        self._ready = threading.Event()     # server bound, port known
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task] = set()
        self._start_error: BaseException | None = None
        # post-drain observability: snapshotted before the service closes
        self._final_stats: dict | None = None
        self._final_render: str | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = 30.0) -> "Gateway":
        """Bind the socket and start serving in a background thread."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="gateway-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("gateway did not bind in time")
        if self._start_error is not None:
            self._thread.join(timeout=5.0)
            raise RuntimeError(
                f"gateway failed to start: {self._start_error}")
        self.supervisor.start()
        return self

    def request_drain(self) -> None:
        """Begin graceful drain (signal-handler and ``drain``-op safe)."""
        loop = self._loop
        if loop is None or not loop.is_running():
            self._drained.set()
            return
        loop.call_soon_threadsafe(self._begin_drain)

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until the drain sequence has fully finished."""
        if not self._drained.wait(timeout):
            return False
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        return True

    def close(self, timeout: float | None = None) -> None:
        """Drain and shut down (the context-manager exit path)."""
        self.request_drain()
        if not self.wait_closed(timeout if timeout is not None
                                else self.drain_timeout_s + 30.0):
            raise RuntimeError("gateway did not drain in time")

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # event-loop thread
    # ------------------------------------------------------------------
    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # lint: allow[broad-except] a dead loop must still release waiters
            if not self._ready.is_set():
                self._start_error = exc
                self._ready.set()
        finally:
            # teardown runs outside the loop: these joins/blocking closes
            # must not run on the loop thread's coroutines
            self.supervisor.stop()
            self._executor.shutdown(wait=True)
            try:
                self._final_stats = self.service.stats()
                self._final_render = self.service.render_stats()
            except Exception:  # lint: allow[broad-except] stats are best-effort on a service that may already be broken
                pass
            try:
                self.service.close(drain=True)
            except Exception as exc:  # lint: allow[broad-except] teardown must complete even if the service is already broken
                print(f"gateway: service close failed: {exc}", flush=True)
            self._drained.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        async with self._server:
            await self._server.start_serving()
            while not self._draining:
                await asyncio.sleep(0.05)
            # drain: the listener stays open so late arrivals get a
            # structured 'draining' reply (not a refused connection)
            # while in-flight requests run to completion
            deadline = self._loop.time() + self.drain_timeout_s
            while self._tasks and self._loop.time() < deadline:
                await asyncio.sleep(0.02)
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            self._close_writer(writer)
        await asyncio.sleep(0)   # let close callbacks run

    def _begin_drain(self) -> None:
        # loop thread only
        self._draining = True

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def _bump(self, name: str, table: str = "counters") -> None:
        with self._lock:
            d = {"counters": self._counters, "errors": self._error_kinds,
                 "net": self._net_enacted}[table]
            d[name] = d.get(name, 0) + 1

    def _net_fault(self, site: str) -> str | None:
        """Fire an armed ``net`` fault at ``site``; returns the action."""
        spec = faults.fire("net", site)
        if spec is None:
            return None
        self._bump(f"{site}:{spec.action}", "net")
        return spec.action

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        self._writers.discard(writer)
        try:
            writer.close()
        except Exception:  # lint: allow[broad-except] closing an already-dead transport must not kill the handler
            pass

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._bump("connections")
        self._writers.add(writer)
        wlock = asyncio.Lock()
        try:
            action = self._net_fault("accept")
            if action == "close":
                return
            if action == "garble":
                writer.write(wire.garble(wire.pack_frame({"op": "noise"})))
                await writer.drain()
                return
            if action == "drop":
                # blackhole: swallow everything, never answer
                while await reader.read(1 << 16):
                    pass
                return
            if action == "delay":
                await asyncio.sleep(faults.NET_DELAY_SECONDS)
            if self._draining:
                await self._send_reply(
                    writer, wlock, "reject",
                    {"id": None, "ok": False,
                     "error": DrainingError(
                         "gateway is draining").to_entry()["error"]})
                return
            await self._conn_loop(reader, writer, wlock)
        finally:
            self._close_writer(writer)

    async def _conn_loop(self, reader, writer, wlock) -> None:
        while True:
            try:
                header = await reader.readexactly(4)
                payload = await reader.readexactly(
                    wire.frame_length(header))
                msg = wire.unpack_frame(payload)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return   # peer went away between frames: normal close
            except wire.FrameError as exc:
                await self._send_reply(
                    writer, wlock, "reject",
                    {"id": None, "ok": False,
                     "error": BadRequestError(str(exc)).to_entry()["error"]})
                return   # stream may be desynchronised: drop the conn
            self._bump("frames")
            op = msg.get("op")
            action = self._net_fault(f"frame/{op}")
            if action == "drop":
                continue        # the network ate the request silently
            if action == "close":
                return
            if action == "garble":
                # a corrupt inbound frame cannot be matched to a request
                await self._send_reply(
                    writer, wlock, "reject",
                    {"id": None, "ok": False,
                     "error": BadRequestError(
                         "garbled frame").to_entry()["error"]})
                return
            t_recv = time.monotonic()
            if action == "delay":
                await asyncio.sleep(faults.NET_DELAY_SECONDS)
            task = asyncio.ensure_future(
                self._serve_frame(writer, wlock, msg, op, t_recv))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------
    async def _serve_frame(self, writer, wlock, msg: dict, op,
                           t_recv: float) -> None:
        req_id = msg.get("id")
        try:
            if op == "infer":
                result, latency_ms = await self._op_infer(msg, t_recv)
                reply = {"id": req_id, "ok": True, "result": result,
                         "latency_ms": latency_ms}
            elif op == "stats":
                loop = asyncio.get_running_loop()
                stats = await loop.run_in_executor(self._executor,
                                                   self.stats)
                reply = {"id": req_id, "ok": True, "stats": stats}
            elif op == "health":
                reply = {"id": req_id, "ok": True, "health": self.health()}
            elif op == "drain":
                self._begin_drain()
                reply = {"id": req_id, "ok": True, "draining": True}
            else:
                raise BadRequestError(f"unknown op {op!r}")
        except ServeError as exc:
            self._bump(exc.kind, "errors")
            reply = {"id": req_id, "ok": False,
                     "error": exc.to_entry()["error"]}
        except Exception as exc:  # lint: allow[broad-except] an internal bug must surface as one structured reply, never a silent drop
            self._bump("serve-error", "errors")
            reply = {"id": req_id, "ok": False,
                     "error": ServeError(
                         f"{type(exc).__name__}: {exc}").to_entry()["error"]}
        else:
            if op == "infer":
                self._bump("infer_ok")
        await self._send_reply(writer, wlock, op, reply)

    async def _op_infer(self, msg: dict, t_recv: float):
        model = msg.get("model")
        inputs = msg.get("inputs")
        fmt = msg.get("fmt", "MERSIT(8,2)")
        mode = msg.get("mode", "fakequant")
        if not isinstance(model, str) or inputs is None:
            raise BadRequestError("infer frame needs 'model' and 'inputs'")
        if model not in self.service.repository.specs:
            raise BadRequestError(f"unknown model {model!r}")
        if self._draining:
            raise DrainingError("gateway is draining; request rejected")
        try:
            # canonical breaker key — same spelling the shard ring hashes
            key = self.service.repository.model_key(model, fmt, mode)
        except (KeyError, ValueError, TypeError) as exc:
            raise BadRequestError(f"bad format {fmt!r}: {exc}") from None
        # admission window first: a shed request must not consume the
        # breaker's half-open probe slot
        with self._lock:
            if self._inflight >= self.max_inflight:
                shed = True
            else:
                shed = False
                self._inflight += 1
        if shed:
            raise OverloadedError(
                f"gateway at capacity ({self.max_inflight} in flight)")
        try:
            breaker = self.breakers.get(key)
            if not breaker.admit():
                raise CircuitOpenError(
                    f"circuit breaker open for {key}; fast-failing")
            # from here, every outcome must reach breakers.record: a
            # half-open probe slot that is never released wedges the key
            try:
                # deadline propagation: the budget on the wire minus the
                # time this frame already spent inside the gateway
                deadline_ms = msg.get("deadline_ms")
                if deadline_ms is not None:
                    deadline_ms = float(deadline_ms) - \
                        (time.monotonic() - t_recv) * 1e3
                    if deadline_ms <= 0:
                        raise DeadlineExceededError(
                            "deadline budget exhausted in transit")
                timeout_s = self.request_timeout_s
                if deadline_ms is not None:
                    timeout_s = min(timeout_s,
                                    deadline_ms / 1e3 + DEADLINE_GRACE_S)
                loop = asyncio.get_running_loop()
                t0 = time.monotonic()
                try:
                    result = await loop.run_in_executor(
                        self._executor, self._submit_and_wait,
                        model, inputs, fmt, mode, deadline_ms, timeout_s)
                except FutureTimeoutError:   # builtin TimeoutError only from 3.11
                    raise GatewayTimeoutError(
                        f"no service reply within {timeout_s:.1f}s "
                        f"backstop") from None
            except ServeError as exc:
                self.breakers.record(key, exc.kind)
                raise
            self.breakers.record(key, None)
            return result, (time.monotonic() - t0) * 1e3
        finally:
            with self._lock:
                self._inflight -= 1

    def _submit_and_wait(self, model, inputs, fmt, mode, deadline_ms,
                         timeout_s):
        # executor thread: the blocking half of one request
        fut = self.service.submit(model, inputs, fmt, mode,
                                  deadline_ms=deadline_ms)
        return fut.result(timeout_s)

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    async def _send_reply(self, writer, wlock, op, reply: dict) -> None:
        try:
            frame = wire.pack_frame(reply)
        except wire.FrameError as exc:   # oversized result: degrade structurally
            frame = wire.pack_frame(
                {"id": reply.get("id"), "ok": False,
                 "error": ServeError(str(exc)).to_entry()["error"]})
        action = self._net_fault(f"reply/{op}")
        if action == "drop":
            return              # the network ate the reply
        if action == "close":
            self._close_writer(writer)
            return
        if action == "delay":
            await asyncio.sleep(faults.NET_DELAY_SECONDS)
        if action == "garble":
            frame = frame[:4] + wire.garble(frame[4:])
        try:
            async with wlock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass                # peer vanished: nothing left to tell it

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Health summary (wire ``health`` op): supervisor + drain state."""
        state = self.supervisor.state()
        if self._draining:
            state["state"] = "draining"
        with self._lock:
            state["inflight"] = self._inflight
        return state

    def stats(self) -> dict:
        """Gateway counters + breaker states + the service's own stats."""
        with self._lock:
            gateway = {"host": self.host, "port": self.port,
                       "inflight": self._inflight,
                       "draining": self._draining,
                       "counters": dict(self._counters),
                       "errors": dict(self._error_kinds),
                       "net_faults_enacted": dict(self._net_enacted)}
        service = (self._final_stats if self._final_stats is not None
                   else self.service.stats())
        return {"gateway": gateway,
                "breakers": self.breakers.snapshot(),
                "health": self.health(),
                "service": service}

    def render_stats(self) -> str:
        """Human-readable block: gateway counters over the service block."""
        s = self.stats()
        g = s["gateway"]
        err = "  ".join(f"{k}:{v}" for k, v in sorted(g["errors"].items()))
        lines = [
            f"gateway {g['host']}:{g['port']}"
            f"  connections {g['counters'].get('connections', 0)}"
            f"  frames {g['counters'].get('frames', 0)}"
            f"  ok {g['counters'].get('infer_ok', 0)}"
            f"  inflight {g['inflight']}"
            + ("  DRAINING" if g["draining"] else ""),
            f"  errors      {err or '(none)'}",
            f"  health      {s['health']['state']}"
            f"  (probes {s['health']['probes']})",
        ]
        for key, b in sorted(s["breakers"].items()):
            lines.append(f"  breaker     {key}  {b['state']}"
                         f"  opens {b['opens']}"
                         f"  fast-fails {b['fast_fails']}")
        if g["net_faults_enacted"]:
            net = "  ".join(f"{k}:{v}" for k, v
                            in sorted(g["net_faults_enacted"].items()))
            lines.append(f"  net faults  {net}")
        lines.append(self._final_render if self._final_render is not None
                     else self.service.render_stats())
        return "\n".join(lines)
