"""The metric catalogue and the per-layer metrics of a traced run.

End-to-end metrics come from an untraced pass.  A traced pass runs the
same workload again with :mod:`spans` installed; this module turns its
spans, plus the server-side stats read after its timed phase, into the
per-layer metrics.  Each layer's timing is taken where the layer works:

* request path (``client``, ``wire``, ``gateway``, ``router``,
  ``forward``, ``quant``, ``nn``, ``engine``): spans that started inside
  the traced timed phase;
* set-up (``setup``): spans inside the median traced cold set-up, the
  one whose duration is the traced ``setup_s``;
* scheduler and shard internals (``scheduler``, ``router.pipe``): the
  service's or fleet's own stats — on gateway-closed they run in the
  shard worker process, where no span is recorded; ``health.ping_ms``
  times ``ShardRouter.ping()`` after the timed phase.

A layer a workload never calls reads 0 calls and 0 ms there.
"""

from __future__ import annotations

import summary
from spans import aggregate, slug

#: end-to-end metrics: (name, unit, better)
E2E = (("setup_s", "s", "lower"),
       ("p50_ms", "ms", "lower"),
       ("p99_ms", "ms", "lower"),
       ("rps", "1/s", "higher"),
       ("samples_per_s", "1/s", "higher"),
       ("peak_rss_mb", "MiB", "lower"))

#: the registry formats the engine-eval workload runs, in column order
FORMATS = ("INT8", "FP(8,2)", "FP(8,3)", "FP(8,4)", "FP(8,5)",
           "Posit(8,0)", "Posit(8,1)", "Posit(8,2)", "Posit(8,3)",
           "MERSIT(8,2)", "MERSIT(8,3)")

PER_LAYER = (
    ("client.calls", "count", "higher"),
    ("client.retries", "count", "lower"),
    ("client.encode_ms", "ms", "lower"),
    ("client.decode_ms", "ms", "lower"),
    ("wire.request_bytes", "B", "lower"),
    ("wire.reply_bytes", "B", "lower"),
    ("gateway.codec_ms", "ms", "lower"),
    ("gateway.overhead_ms", "ms", "lower"),
    ("gateway.errors", "count", "lower"),
    ("router.rtt_p50_ms", "ms", "lower"),
    ("router.rtt_p99_ms", "ms", "lower"),
    ("router.pipe_ms", "ms", "lower"),
    ("router.respawns", "count", "lower"),
    ("health.ping_ms", "ms", "lower"),
    ("scheduler.wait_p50_ms", "ms", "lower"),
    ("scheduler.wait_p95_ms", "ms", "lower"),
    ("scheduler.latency_ms", "ms", "lower"),
    ("scheduler.batch_mean", "count", "higher"),
    ("scheduler.queue_mean", "count", "lower"),
    ("scheduler.batches", "count", "higher"),
    ("scheduler.retries", "count", "lower"),
    ("scheduler.failed", "count", "lower"),
    ("forward.batch_ms", "ms", "lower"),
    ("forward.calls", "count", "higher"),
    ("quant.act_ms", "ms", "lower"),
    ("quant.act_calls", "count", "higher"),
    ("quant.weight_ms", "ms", "lower"),
    ("quant.weight_calls", "count", "higher"),
    ("nn.matmul_ms", "ms", "lower"),
    ("nn.matmul_calls", "count", "higher"),
    *((f"engine.qmatmul_ms.{slug(f)}", "ms", "lower") for f in FORMATS),
    ("engine.qmatmul_calls", "count", "higher"),
    ("engine.encode_ms", "ms", "lower"),
    ("engine.reencode_ms", "ms", "lower"),
    ("engine.object_path_calls", "count", "lower"),
    ("engine.layer_ms", "ms", "lower"),
    ("setup.calibrate_s", "s", "lower"),
    ("setup.publish_s", "s", "lower"),
    ("setup.worker_s", "s", "lower"),
    ("setup.engine_attach_s", "s", "lower"),
    ("setup.calibrations", "count", "lower"),
    *((f"traced.{name}", unit, better) for name, unit, better in E2E),
    *((f"overhead_pct.{name}", "%", "lower") for name, _, _ in E2E),
)


def _per_call_ms(agg, name: str, self_time: bool = True) -> float:
    s = agg.get(name)
    if s is None or s.calls == 0:
        return 0.0
    return (s.self_s if self_time else s.total_s) / s.calls * 1e3


def _calls(agg, *names: str) -> int:
    return sum(agg[n].calls for n in names if n in agg)


def _total_s(agg, *names: str) -> float:
    return sum(agg[n].total_s for n in names if n in agg)


def _pct_ms(agg, name: str, q: float) -> float:
    s = agg.get(name)
    return summary.percentile(s.durations, q) * 1e3 if s and s.calls else 0.0


def layer_metrics(spans, traced, untraced) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced pass and its twin."""
    run = aggregate(spans, *traced.phase)
    setup = aggregate(spans, *summary.median_setup(traced.setups)[0])
    server = traced.server
    sched = server.get("scheduler", {})
    out: dict[str, float] = {}

    requests = _calls(run, "client.request")
    out["client.calls"] = requests
    out["client.retries"] = server.get("client_retries", 0)
    out["client.encode_ms"] = _per_call_ms(run, "client.encode")
    out["client.decode_ms"] = _per_call_ms(run, "client.decode")
    out["wire.request_bytes"] = (run["client.encode"].size / run["client.encode"].calls
                                 if _calls(run, "client.encode") else 0.0)
    out["wire.reply_bytes"] = (run["client.decode"].size / run["client.decode"].calls
                               if _calls(run, "client.decode") else 0.0)
    codec_s = sum(run[n].self_s for n in ("gateway.encode", "gateway.decode") if n in run)
    out["gateway.codec_ms"] = codec_s / requests * 1e3 if requests else 0.0
    rtt_p50 = _pct_ms(run, "router.rtt", 50)
    out["gateway.overhead_ms"] = (
        _pct_ms(run, "client.request", 50) - rtt_p50
        - out["client.encode_ms"] - out["client.decode_ms"]) if requests else 0.0
    out["gateway.errors"] = server.get("gateway_errors", 0)
    out["router.rtt_p50_ms"] = rtt_p50
    out["router.rtt_p99_ms"] = _pct_ms(run, "router.rtt", 99)
    out["router.pipe_ms"] = (rtt_p50 - sched["latency_ms"]["p50"]
                             if rtt_p50 and sched else 0.0)
    out["router.respawns"] = server.get("respawns", 0)
    out["health.ping_ms"] = server.get("ping_ms", 0.0)

    out["scheduler.wait_p50_ms"] = sched["wait_ms"]["p50"] if sched else 0.0
    out["scheduler.wait_p95_ms"] = sched["wait_ms"]["p95"] if sched else 0.0
    out["scheduler.latency_ms"] = sched["latency_ms"]["p50"] if sched else 0.0
    out["scheduler.batch_mean"] = sched.get("mean_batch_size", 0.0)
    out["scheduler.queue_mean"] = sched["queue_depth"]["mean"] if sched else 0.0
    out["scheduler.batches"] = sum(sched.get("batch_size_histogram", {}).values())
    out["scheduler.retries"] = sched.get("retried_batches", 0)
    out["scheduler.failed"] = sched.get("failed", 0)

    out["forward.batch_ms"] = _per_call_ms(run, "forward.batch", self_time=False)
    out["forward.calls"] = _calls(run, "forward.batch")
    out["quant.act_ms"] = _per_call_ms(run, "quant.act")
    out["quant.act_calls"] = _calls(run, "quant.act")
    out["quant.weight_ms"] = _per_call_ms(run, "quant.weight")
    out["quant.weight_calls"] = _calls(run, "quant.weight")
    out["nn.matmul_ms"] = _per_call_ms(run, "nn.matmul")
    out["nn.matmul_calls"] = _calls(run, "nn.matmul")

    qmatmuls = [f"engine.qmatmul.{slug(f)}" for f in FORMATS]
    for f, name in zip(FORMATS, qmatmuls):
        out[f"engine.qmatmul_ms.{slug(f)}"] = _per_call_ms(run, name, self_time=False)
    out["engine.qmatmul_calls"] = _calls(run, *qmatmuls)
    out["engine.encode_ms"] = _per_call_ms(run, "engine.encode")
    reencodes = ("engine.reencode.int64", "engine.reencode.object")
    n_re = _calls(run, *reencodes)
    out["engine.reencode_ms"] = _total_s(run, *reencodes) / n_re * 1e3 if n_re else 0.0
    out["engine.object_path_calls"] = _calls(run, "engine.reencode.object")
    out["engine.layer_ms"] = _per_call_ms(run, "engine.layer")

    calibrate = _total_s(setup, "setup.calibrate")
    attach = _total_s(setup, "setup.engine_attach")
    publish = _total_s(setup, "setup.publish")
    router = _total_s(setup, "setup.router")
    out["setup.calibrate_s"] = calibrate - attach
    out["setup.publish_s"] = publish
    # the router constructor runs the preheat calibrations and publishes;
    # what remains is spawning and initialising the shard workers
    out["setup.worker_s"] = max(router - calibrate - publish, 0.0) if router else 0.0
    out["setup.engine_attach_s"] = attach
    out["setup.calibrations"] = _calls(setup, "setup.calibrate")

    for name, _, better in E2E:
        t, u = traced.e2e[name], untraced.e2e[name]
        out[f"traced.{name}"] = t
        # positive = tracing made the metric worse, in either direction
        out[f"overhead_pct.{name}"] = ((t / u if better == "lower" else u / t) - 1) * 100
    return out
