"""In-memory span recorder and the trace points the benchmark wraps.

Tracing lives entirely in the benchmark: :func:`install` replaces the
public call at each layer boundary of the serving stack with a wrapper
that records a span (name, start, end, parent span, optional byte
size) and restores the originals on :func:`uninstall`.  Nothing in the
program changes, and with tracing off nothing is wrapped at all.

Spans nest per thread: a span opened while another is open on the same
thread records it as its parent, and a layer's *self time* is its
duration minus the part of it that its child spans cover
(:func:`self_times`).  Spans are kept in memory and summarised when the
run ends.  Forked workers inherit the wrappers but record nothing —
only the benchmark process (the recorder's owner pid) keeps spans.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    size: int


class SpanRecorder:
    """Thread-aware span store owned by one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.active = False
        self.spans: list[Span] = []
        self.patches: list[tuple[object, str, object]] = []   # see install()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    def record(self, name: str, t0: float, t1: float, size: int = 0) -> None:
        """Record a span measured by the caller (no parent)."""
        if self.recording():
            self.spans.append(Span(next(self._ids), None, name, t0, t1, size))

    def wrap(self, name, fn, size=None):
        """``fn`` recording one span per call.

        ``name`` is a string or ``name(*args, **kwargs) -> str``;
        ``size(args, result) -> int`` optionally attaches a byte count.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active or os.getpid() != rec.pid:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            nbytes = size(args, result) if size is not None else 0
            rec.spans.append(Span(sid, parent, label, t0, t1, nbytes))
            return result

        return traced


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - union_length(children.get(s.sid, ()), s.t0, s.t1)
            for s in spans}


class LayerStats(NamedTuple):
    calls: int
    total_s: float     # summed duration
    self_s: float      # summed self time
    size: int          # summed byte size
    durations: list    # per-call durations, seconds


def aggregate(spans, t_lo: float = float("-inf"),
              t_hi: float = float("inf")) -> dict[str, LayerStats]:
    """Per-name totals over spans that started inside ``[t_lo, t_hi]``."""
    selfs = self_times(spans)
    acc: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0, []])
    for s in spans:
        if not t_lo <= s.t0 <= t_hi:
            continue
        a = acc[s.name]
        a[0] += 1
        a[1] += s.t1 - s.t0
        a[2] += selfs[s.sid]
        a[3] += s.size
        a[4].append(s.t1 - s.t0)
    return {name: LayerStats(*a) for name, a in acc.items()}


def slug(fmt_name: str) -> str:
    """A metric-name-safe format label: ``Posit(8,1)`` -> ``posit8-1``."""
    return re.sub(r"[^a-z0-9]+", "-", fmt_name.lower().replace("(", "")
                  .replace(")", "")).strip("-")


# ----------------------------------------------------------------------
# trace points
# ----------------------------------------------------------------------

def _codec_side(prefix: str):
    def name(*_args, **_kwargs) -> str:
        side = ("gateway" if threading.current_thread().name == "gateway-loop"
                else "client")
        return f"{side}.{prefix}"
    return name


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark traces."""
    from repro import engine
    from repro.autograd import functional as F
    from repro.engine import executor, kulisch
    from repro.quant.fakequant import FakeQuantizer
    from repro.serve import client, repository, service, shard, shm, wire

    def patch(owner, attr, name, size=None):
        orig = getattr(owner, attr)
        rec.patches.append((owner, attr, orig))
        setattr(owner, attr, rec.wrap(name, orig, size))

    # serve.client / serve.wire / serve.gateway
    patch(client.GatewayClient, "infer", "client.request")
    patch(wire, "pack_frame", _codec_side("encode"),
          size=lambda args, out: len(out))
    patch(wire, "unpack_frame", _codec_side("decode"),
          size=lambda args, out: len(args[0]) + 4)
    # serve.service: one span per batched forward
    patch(service, "execute_batch", "forward.batch")
    # quant.fakequant / kernels, nn / autograd
    patch(FakeQuantizer, "__call__", "quant.act")
    patch(FakeQuantizer, "quantize_cached", "quant.weight")
    patch(F, "linear", "nn.matmul")
    patch(F, "conv2d", "nn.matmul")
    # engine
    patch(executor, "qmatmul",
          lambda fmt, *a, **k: f"engine.qmatmul.{slug(fmt.name)}")
    patch(executor.LayerEngine, "encode_input", "engine.encode")
    patch(executor.LinearEngine, "__call__", "engine.layer")
    patch(executor.Conv2dEngine, "__call__", "engine.layer")
    for attr, label in (("_encode_int64", "engine.reencode.int64"),
                        ("_encode_object", "engine.reencode.object")):
        if hasattr(kulisch, attr):   # private: absent after a rewrite
            patch(kulisch, attr, label)
    # set-up: quant.ptq, serve.repository, serve.shm, serve.shard
    patch(repository, "quantize_model", "setup.calibrate")
    patch(engine, "build_layer_engine", "setup.engine_attach")
    patch(shm, "publish", "setup.publish")
    patch(shard.ShardRouter, "__init__", "setup.router")
    rec.active = True


def uninstall(rec: SpanRecorder) -> None:
    """Restore every wrapped callable (reverse order)."""
    rec.active = False
    while rec.patches:
        owner, attr, orig = rec.patches.pop()
        setattr(owner, attr, orig)


def trace_router(router, rec: SpanRecorder) -> None:
    """Record ``router.rtt`` from each ``submit`` to its ``result`` return.

    The gateway calls ``service.submit`` and then blocks on the
    returned future in one executor thread; wrapping this one router
    instance times that round trip without touching the class.
    """
    submit = router.submit

    def traced_submit(*args, **kwargs):
        t0 = time.perf_counter()
        return _TimedFuture(submit(*args, **kwargs), t0, rec)

    router.submit = traced_submit


class _TimedFuture:
    __slots__ = ("_fut", "_t0", "_rec")

    def __init__(self, fut, t0: float, rec: SpanRecorder):
        self._fut, self._t0, self._rec = fut, t0, rec

    def result(self, timeout=None):
        try:
            return self._fut.result(timeout)
        finally:
            self._rec.record("router.rtt", self._t0, time.perf_counter())

    def __getattr__(self, attr):
        return getattr(self._fut, attr)
