"""Thread-per-connection TCP front door: the shard fleet made reachable from outside.

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

Threading model: ``start()`` binds the listener and starts one accept
thread; every accepted connection gets one blocking thread that reads a
frame, calls ``service.submit``, waits on the returned future's
``.result(timeout)`` and writes the reply, one frame at a time.  The
traffic is a few long-lived client sockets, so a thread each is cheap,
and the thread that owns a request is the one that waits for it.
Every gateway thread is named :data:`THREAD_NAME`, so a profiler can
attribute wire-codec time to the gateway side by thread name.
"""

from __future__ import annotations

import socket
import threading
import time
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

#: backstop ceiling on one request's service-side wait: a deadline-less
#: request against a wedged backend must still resolve
REQUEST_TIMEOUT_S = 120.0

#: circuit-breaker policy per request key (see :class:`BreakerBoard`)
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN_S = 1.0

#: how often the accept thread wakes to check for a requested drain
ACCEPT_POLL_S = 0.05

#: the name of every gateway thread (accept and per-connection)
THREAD_NAME = "gateway-loop"


def _listen(host: str, port: int) -> socket.socket:
    """A listening socket on ``host``: an IPv4/IPv6 literal or a name."""
    family, _, _, _, addr = socket.getaddrinfo(
        host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE)[0]
    return socket.create_server(addr, family=family)


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
    drain_timeout_s:
        How long a drain waits for in-flight requests before closing
        their connections.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0, *,
                 max_inflight: int = 64, drain_timeout_s: float = 30.0):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.drain_timeout_s = drain_timeout_s
        self.breakers = BreakerBoard(BREAKER_THRESHOLD, BREAKER_COOLDOWN_S)
        self.supervisor = HealthSupervisor(service)
        self._lock = threading.Lock()
        self._inflight = 0      # admitted infer requests
        self._busy = 0          # frames between receipt and reply
        self._counters: dict[str, int] = {}
        self._error_kinds: dict[str, int] = {}
        self._net_enacted: dict[str, int] = {}
        self._draining = False
        self._drained = threading.Event()   # drain sequence finished
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._conns: dict[socket.socket, threading.Thread] = {}
        # post-drain observability: snapshotted before the service closes
        self._final_stats: dict | None = None
        self._final_render: str | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Gateway":
        """Bind the socket and start serving in background threads."""
        if self._listener is not None:
            raise RuntimeError("gateway already started")
        self._listener = _listen(self.host, self.port)
        self._listener.settimeout(ACCEPT_POLL_S)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve,
                                        name=THREAD_NAME, daemon=True)
        self._thread.start()
        self.supervisor.start()
        return self

    def request_drain(self) -> None:
        """Begin graceful drain (signal-handler and ``drain``-op safe)."""
        self._draining = True
        if self._thread is None:
            self._drained.set()

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
    # accept thread
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        try:
            self._accept_until_drained()
        finally:
            self._teardown()

    def _accept_until_drained(self) -> None:
        # during a drain the listener stays open, so late arrivals get a
        # structured 'draining' reply (not a refused connection) while
        # in-flight frames run to completion
        drain_end = None
        while True:
            if self._draining:
                if drain_end is None:
                    drain_end = time.monotonic() + self.drain_timeout_s
                with self._lock:
                    busy = self._busy
                if not busy or time.monotonic() >= drain_end:
                    return
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:   # aborted before accept, or out of fds
                time.sleep(ACCEPT_POLL_S)
                continue
            sock.setblocking(True)   # the poll timeout is the listener's only
            thread = threading.Thread(target=self._serve_conn, args=(sock,),
                                      name=THREAD_NAME, daemon=True)
            with self._lock:
                self._conns[sock] = thread
            thread.start()

    def _teardown(self) -> None:
        # no accept runs any more, so _conns only shrinks from here
        self._listener.close()
        with self._lock:
            conns = list(self._conns.items())
        for sock, _ in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)   # wakes a blocked recv
            except OSError:
                pass   # its own thread closed it already
        self.supervisor.stop()
        for _, thread in conns:
            thread.join()   # a straggler's wait is bounded by its backstop
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
    # connection threads
    # ------------------------------------------------------------------
    def _serve_conn(self, sock: socket.socket) -> None:
        try:
            self._converse(sock)
        except OSError:
            pass   # peer went away (or the drain shut the socket)
        finally:
            with self._lock:
                del self._conns[sock]
            sock.close()

    def _converse(self, sock: socket.socket) -> None:
        self._bump("connections")
        action = self._net_fault("accept")
        if action == "close":
            return
        if action == "garble":
            sock.sendall(wire.garble(wire.pack_frame({"op": "noise"})))
            return
        if action == "drop":
            # blackhole: swallow everything, never answer
            while sock.recv(1 << 16):
                pass
            return
        if action == "delay":
            time.sleep(faults.NET_DELAY_SECONDS)
        if self._draining:
            self._reject(sock, DrainingError("gateway is draining"))
            return
        while True:
            try:
                msg = wire.recv_frame(sock)
            except wire.FrameError as exc:
                self._reject(sock, BadRequestError(str(exc)))
                return   # stream may be desynchronised: drop the conn
            with self._lock:
                self._busy += 1
            try:
                if not self._serve_frame(sock, msg):
                    return
            finally:
                with self._lock:
                    self._busy -= 1

    def _reject(self, sock, exc: ServeError) -> None:
        self._send_reply(sock, "reject", {"id": None, "ok": False,
                                          "error": exc.to_entry()["error"]})

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------
    def _serve_frame(self, sock, msg: dict) -> bool:
        """Answer one frame; False when the connection must close."""
        self._bump("frames")
        op = msg.get("op")
        action = self._net_fault(f"frame/{op}")
        if action == "drop":
            return True         # the network ate the request silently
        if action == "close":
            return False
        if action == "garble":
            # a corrupt inbound frame cannot be matched to a request
            self._reject(sock, BadRequestError("garbled frame"))
            return False
        t_recv = time.monotonic()
        if action == "delay":
            time.sleep(faults.NET_DELAY_SECONDS)
        req_id = msg.get("id")
        try:
            if op == "infer":
                result, latency_ms = self._op_infer(msg, t_recv)
                reply = {"id": req_id, "ok": True, "result": result,
                         "latency_ms": latency_ms}
            elif op == "stats":
                reply = {"id": req_id, "ok": True, "stats": self.stats()}
            elif op == "health":
                reply = {"id": req_id, "ok": True, "health": self.health()}
            elif op == "drain":
                self.request_drain()
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
        self._send_reply(sock, op, reply)
        return True

    def _op_infer(self, msg: dict, t_recv: float):
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
                timeout_s = REQUEST_TIMEOUT_S
                if deadline_ms is not None:
                    timeout_s = min(timeout_s,
                                    deadline_ms / 1e3 + DEADLINE_GRACE_S)
                t0 = time.monotonic()
                fut = self.service.submit(model, inputs, fmt, mode,
                                          deadline_ms=deadline_ms)
                try:
                    result = fut.result(timeout_s)
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

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def _send_reply(self, sock, op, reply: dict) -> None:
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
            sock.shutdown(socket.SHUT_RDWR)   # the next read sees EOF
            return
        if action == "delay":
            time.sleep(faults.NET_DELAY_SECONDS)
        if action == "garble":
            frame = frame[:4] + wire.garble(frame[4:])
        sock.sendall(frame)

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
