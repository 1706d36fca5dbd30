"""The benchmark's three workloads: cold set-up, timed phase, correctness.

* ``gateway-closed`` — two :class:`~repro.serve.GatewayClient`
  connections in a closed loop through :class:`~repro.serve.Gateway` to
  a one-shard :class:`~repro.serve.ShardRouter` preheated with the three
  micro models x four formats (fakequant).  The full production request
  path with lone requests; the engine is bypassed.
* ``batch-burst`` — one in-process client sends bursts of 32 requests to
  an :class:`~repro.serve.InferenceService` and waits for all of them,
  over a skewed MiniBERT/micro-cnn mix.  Scheduler batching and the
  batched fakequant forward do the work; wire, router and engine are
  bypassed.
* ``engine-eval`` — one thread runs :func:`~repro.serve.execute_batch` in
  engine mode over fixed batches of 16 for the three micro models x all
  11 registry formats.  The Kulisch ``qmatmul`` dominates.  Each
  execution takes 0.5-20 ms, so a run holds ~100 executions of every
  cell and the fastest of them is one no host episode touched; MiniBERT
  cells (50-900 ms each) overlapped episodes too often to be steady.

Every workload draws its inputs from the ``--seed`` it is given, uses
seeded initial model weights (no training, no disk cache) and checks
every output against the serial single-sample reference, the repo's
bit-identity invariant, after its timed phase.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import summary
from spans import trace_router

from repro import engine, kernels
from repro.formats.registry import available_formats
from repro.resilience import pool
from repro.serve import (
    BatchPolicy, Gateway, GatewayClient, InferenceService, ModelRepository,
    ServableSpec, ServeError, ShardRouter, micro_specs, service,
)
from repro.zoo import registry as zoo

MICRO_MODELS = ("micro-cnn", "micro-mlp", "micro-attn")
GATEWAY_FORMATS = ("INT8", "FP(8,4)", "Posit(8,1)", "MERSIT(8,2)")
#: (model, format, requests per burst) — skewed towards one key; every
#: burst has this exact composition, in a seeded order
BURST_MIX = (("SST-2", "MERSIT(8,2)", 16), ("SST-2", "Posit(8,1)", 10),
             ("micro-cnn", "MERSIT(8,2)", 6))
ENGINE_MODELS = MICRO_MODELS

SERVING_CALIB_N = 1000   # the paper's calibration stream
CLIENTS = 2              # gateway-closed connections (nproc = 2)
BURST = 32               # requests per batch-burst burst
ENGINE_BATCH = 16        # samples per engine-eval batch
CHECK_ROWS = 2           # engine-eval rows per cell checked serially
INPUT_POOL = 32          # distinct request inputs per model
STREAM_LEN = 1 << 16     # requests per pre-drawn stream (cycled)

#: cold set-ups per run before and after the timed phase; setup_s is the
#: median of them all (spreading them out keeps one host episode from
#: covering most attempts; an odd total makes the median a measured one)
SETUPS_BEFORE, SETUPS_AFTER = 4, 3
WARMUP_S = 0.5           # load before the timed phase, not measured
KEEP_FRACTION = 0.25     # share of fixed-work windows kept (fastest)
#: completed requests per fixed-work window (~0.2-0.6 s on a 2-core host;
#: short windows let the kept ones come from the gaps between host episodes)
WINDOW_REQUESTS = {"gateway-closed": 200, "batch-burst": 8 * BURST}
MIN_ENGINE_PASSES = 2

WORKLOADS = ("gateway-closed", "batch-burst", "engine-eval")


# ----------------------------------------------------------------------
# models and request streams
# ----------------------------------------------------------------------

def bert_spec(name: str = "SST-2") -> ServableSpec:
    """MiniBERT in the GLUE task's shape, with its seeded initial weights.

    Built from ``ALL_MODELS[name].factory()``: no training and no zoo
    cache, so the benchmark runs from a bare checkout.
    """
    entry = zoo.ALL_MODELS[name]
    task = zoo.glue_task(entry.task)

    def build():
        model = entry.factory()
        model.eval()
        return model

    def requests(n: int, seed: int) -> list:
        split = task.sample(n, seed=seed)
        return [(split.ids[i], split.mask[i]) for i in range(n)]

    return ServableSpec(
        name=name, build=build,
        calibration=lambda n, seed: task.sample(n, seed=seed).batches(32),
        calib_forward=lambda m, b: m(b[0], b[1]),
        collate=lambda xs: (np.stack([x[0] for x in xs]),
                            np.stack([x[1] for x in xs])),
        run=lambda m, x: m(x[0], x[1]).data,
        requests=requests)


def servable_specs() -> dict[str, ServableSpec]:
    return {"SST-2": bert_spec("SST-2"), **micro_specs()}


def request_inputs(specs: dict, models, seed: int, n: int = INPUT_POOL) -> dict:
    """``n`` seeded request inputs per model (disjoint from calibration)."""
    return {m: specs[m].requests(n, 1000 + seed) for m in models}


def gateway_stream(seed: int, client: int, n: int = STREAM_LEN) -> np.ndarray:
    """``(model, format, input)`` index rows for one gateway client."""
    rng = np.random.default_rng((seed, 1, client))
    return np.stack([rng.integers(len(MICRO_MODELS), size=n),
                     rng.integers(len(GATEWAY_FORMATS), size=n),
                     rng.integers(INPUT_POOL, size=n)], axis=1)


def burst_stream(seed: int, n: int = STREAM_LEN) -> np.ndarray:
    """``(mix entry, input)`` index rows for the batch-burst client.

    Consecutive runs of :data:`BURST` rows are bursts, each holding every
    mix entry exactly its count of times.
    """
    rng = np.random.default_rng((seed, 2))
    burst = np.repeat(np.arange(len(BURST_MIX)), [c for _, _, c in BURST_MIX])
    keys = np.concatenate([rng.permutation(burst) for _ in range(n // BURST)])
    return np.stack([keys, rng.integers(INPUT_POOL, size=len(keys))], axis=1)


def engine_check_rows(seed: int, cells: int) -> np.ndarray:
    """Which ``CHECK_ROWS`` rows of each engine-eval batch are checked."""
    rng = np.random.default_rng((seed, 3))
    return np.stack([rng.choice(ENGINE_BATCH, CHECK_ROWS, replace=False)
                     for _ in range(cells)])


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cold_caches() -> None:
    gc.collect()
    pool.shutdown_all()
    kernels.clear_kernel_cache()
    engine.clear_planes_cache()


def _vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size of a process, from /proc (MiB)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class PassResult:
    """What one measured pass (untraced or traced) of a workload yields."""

    e2e: dict
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    setups: list = field(default_factory=list)      # (t0, t1) per cold set-up
    phase: tuple = (0.0, 0.0)                        # timed phase interval
    server: dict = field(default_factory=dict)       # stats read after the phase
    notes: dict = field(default_factory=dict)


def _setups(setup, teardown, rec, count: int, keep: bool):
    """Run ``count`` timed cold set-ups; keep the last one's handle or not."""
    windows, handle = [], None
    for _ in range(count):
        if handle is not None:
            teardown(handle)
        _cold_caches()
        t0 = time.perf_counter()
        handle = setup(rec)
        windows.append((t0, time.perf_counter()))
    if not keep:
        teardown(handle)
        handle = None
    return windows, handle


def _serving_e2e(t_start: float, records: list, per_window: int) -> dict:
    """Serving metrics from ``(t_sent, t_done, ...)`` request records."""
    done = sorted((r[1], (r[1] - r[0]) * 1e3) for r in records)
    return summary.serving_summary(
        t_start, [d for d, _ in done], [lat for _, lat in done],
        per_window=per_window, fraction=KEEP_FRACTION)


# ----------------------------------------------------------------------
# gateway-closed
# ----------------------------------------------------------------------

class GatewayClosed:
    name = "gateway-closed"

    def __init__(self, seed: int):
        self.specs = micro_specs()
        self.inputs = request_inputs(self.specs, MICRO_MODELS, seed)
        self.streams = [gateway_stream(seed, c) for c in range(CLIENTS)]
        self.keys = [(m, f, "fakequant") for m in MICRO_MODELS
                     for f in GATEWAY_FORMATS]

    def setup(self, rec):
        router = ShardRouter(shards=1, specs="micro", preheat=self.keys,
                             policy=BatchPolicy(workers=1),
                             calib_n=SERVING_CALIB_N, persist=False)
        if rec is not None:
            trace_router(router, rec)
        gateway = Gateway(router).start()
        clients = [GatewayClient("127.0.0.1", gateway.port, seed=c)
                   for c in range(CLIENTS)]
        for model, fmt, _mode in self.keys:
            clients[0].infer(model, self.inputs[model][0], fmt)
        return router, gateway, clients

    @staticmethod
    def teardown(handle) -> None:
        router, gateway, clients = handle
        for c in clients:
            c.close()
        gateway.close()
        pool.shutdown_all()

    def _client_loop(self, client, stream, t_end, out) -> None:
        n = len(stream)
        i = 0
        while True:
            t0 = time.perf_counter()
            if t0 >= t_end:
                return
            m, f, j = stream[i % n]
            i += 1
            model = MICRO_MODELS[m]
            try:
                y = client.infer(model, self.inputs[model][j], GATEWAY_FORMATS[f])
            except ServeError as exc:
                y = exc
            out.append((t0, time.perf_counter(), m, f, j, y))

    def run(self, seconds: float, rec=None) -> PassResult:
        setups, handle = _setups(self.setup, self.teardown, rec, SETUPS_BEFORE, True)
        router, gateway, clients = handle
        try:
            t_warm = time.perf_counter() + WARMUP_S
            t_end = t_warm + seconds
            outs = [[] for _ in clients]
            threads = [threading.Thread(target=self._client_loop,
                                        args=(c, s, t_end, o),
                                        name=f"perfbench-client-{i}")
                       for i, (c, s, o) in enumerate(zip(clients, self.streams, outs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=seconds + 120)
                if t.is_alive():
                    raise RuntimeError("gateway client did not finish")
            records = [r for o in outs for r in o]
            timed = [r for r in records if r[0] >= t_warm]
            e2e = _serving_e2e(t_warm, timed, WINDOW_REQUESTS[self.name])
            stats = router.stats()
            pings = []
            for _ in range(5):
                t0 = time.perf_counter()
                router.ping()
                pings.append((time.perf_counter() - t0) * 1e3)
            worker_pids = [e["pid"] for e in stats["per_shard"]]
            e2e["peak_rss_mb"] = _vm_hwm_mb() + sum(_vm_hwm_mb(str(p))
                                                  for p in worker_pids)
            server = {"scheduler": stats["fleet"], "respawns": stats["respawns"],
                      "ping_ms": float(np.median(pings)),
                      "gateway_errors": sum(gateway.stats()["gateway"]["errors"].values()),
                      "client_retries": sum(c.retried for c in clients)}
            refs = {}
            for m, model in enumerate(MICRO_MODELS):
                for f, fmt in enumerate(GATEWAY_FORMATS):
                    for j, x in enumerate(self.inputs[model]):
                        refs[m, f, j] = router.infer_serial(model, x, fmt)
        finally:
            self.teardown(handle)
        errors = sum(isinstance(r[5], Exception) for r in records)
        mismatches = sum(not isinstance(r[5], Exception)
                         and not same_bytes(r[5], refs[r[2], r[3], r[4]])
                         for r in records)
        e2e["samples_per_s"] = e2e["rps"]
        setups += _setups(self.setup, self.teardown, rec, SETUPS_AFTER, False)[0]
        e2e["setup_s"] = summary.median_setup(setups)[1]
        return PassResult(e2e=e2e, attempted=len(records),
                          failed=errors + mismatches, mismatches=mismatches,
                          setups=setups, phase=(t_warm, t_end), server=server)


# ----------------------------------------------------------------------
# batch-burst
# ----------------------------------------------------------------------

class BatchBurst:
    name = "batch-burst"

    def __init__(self, seed: int):
        self.specs = servable_specs()
        models = sorted({m for m, _, _ in BURST_MIX})
        self.inputs = request_inputs(self.specs, models, seed)
        self.stream = burst_stream(seed)

    def setup(self, _rec):
        svc = InferenceService(
            ModelRepository(self.specs, calib_n=SERVING_CALIB_N, persist=False),
            BatchPolicy(workers=1))
        futures = [svc.submit(model, self.inputs[model][0], fmt)
                   for model, fmt, _ in BURST_MIX]
        for fut in futures:
            fut.result(120)
        return svc

    @staticmethod
    def teardown(svc) -> None:
        svc.close()

    def run(self, seconds: float, rec=None) -> PassResult:
        setups, svc = _setups(self.setup, self.teardown, rec, SETUPS_BEFORE, True)
        records = []          # (t_submit, t_result, mix index, input, output)
        try:
            t_warm = time.perf_counter() + WARMUP_S
            t_end = t_warm + seconds
            t_start = None
            pos, n = 0, len(self.stream)
            while True:
                t_burst = time.perf_counter()
                if t_burst >= t_end:
                    break
                if t_start is None and t_burst >= t_warm:
                    t_start = t_burst
                pending = []
                for _ in range(BURST):
                    k, j = self.stream[pos % n]
                    pos += 1
                    model, fmt, _ = BURST_MIX[k]
                    t0 = time.perf_counter()
                    try:
                        fut = svc.submit(model, self.inputs[model][j], fmt)
                    except ServeError as exc:
                        fut = exc
                    pending.append((t0, fut, k, j))
                for t0, fut, k, j in pending:
                    if isinstance(fut, Exception):
                        y = fut
                    else:
                        try:
                            y = fut.result(120)
                        except ServeError as exc:
                            y = exc
                    records.append((t0, time.perf_counter(), k, j, y))
            timed = [r for r in records if t_start is not None and r[0] >= t_start]
            e2e = _serving_e2e(t_start, timed, WINDOW_REQUESTS[self.name])
            e2e["peak_rss_mb"] = _vm_hwm_mb()
            server = {"scheduler": svc.stats()["metrics"]}
            refs = {}
            for k, (model, fmt, _) in enumerate(BURST_MIX):
                for j, x in enumerate(self.inputs[model]):
                    refs[k, j] = svc.infer_serial(model, x, fmt)
        finally:
            self.teardown(svc)
        errors = sum(isinstance(r[4], Exception) for r in records)
        mismatches = sum(not isinstance(r[4], Exception)
                         and not same_bytes(r[4], refs[r[2], r[3]])
                         for r in records)
        e2e["samples_per_s"] = e2e["rps"]
        setups += _setups(self.setup, self.teardown, rec, SETUPS_AFTER, False)[0]
        e2e["setup_s"] = summary.median_setup(setups)[1]
        return PassResult(e2e=e2e, attempted=len(records),
                          failed=errors + mismatches, mismatches=mismatches,
                          setups=setups, phase=(t_start, t_end), server=server)


# ----------------------------------------------------------------------
# engine-eval
# ----------------------------------------------------------------------

class EngineEval:
    name = "engine-eval"

    def __init__(self, seed: int):
        self.specs = micro_specs()
        self.formats = available_formats()
        self.cells = [(m, f) for m in ENGINE_MODELS for f in self.formats]
        self.batches = {m: self.specs[m].requests(ENGINE_BATCH, 2000 + seed)
                        for m in ENGINE_MODELS}
        self.check_rows = engine_check_rows(seed, len(self.cells))

    def setup(self, _rec):
        repo = ModelRepository(self.specs, persist=False)
        for model, fmt in self.cells:
            service.execute_batch(repo, repo.model_key(model, fmt, "engine"),
                                  self.batches[model][:1])
        return repo

    @staticmethod
    def teardown(repo) -> None:
        repo.release()

    def run(self, seconds: float, rec=None) -> PassResult:
        setups, repo = _setups(self.setup, self.teardown, rec, SETUPS_BEFORE, True)
        keys = [repo.model_key(m, f, "engine") for m, f in self.cells]
        times = {cell: [] for cell in self.cells}
        outputs = {cell: [] for cell in self.cells}   # checked rows, per run
        attempted = 0
        errors: list[str] = []
        try:
            t_start = time.perf_counter()
            t_end = t_start + seconds
            passes = 0
            while passes < MIN_ENGINE_PASSES or time.perf_counter() < t_end:
                for c, (cell, key) in enumerate(zip(self.cells, keys)):
                    if passes >= MIN_ENGINE_PASSES and time.perf_counter() >= t_end:
                        break
                    attempted += 1
                    t0 = time.perf_counter()
                    try:
                        out = service.execute_batch(repo, key, self.batches[cell[0]])
                    except Exception as exc:  # any engine failure is a failed operation
                        errors.append(f"{key}: {type(exc).__name__}: {exc}")
                        continue
                    times[cell].append(time.perf_counter() - t0)
                    outputs[cell].append([out[r] for r in self.check_rows[c]])
                passes += 1
            t_stop = time.perf_counter()
            e2e = summary.engine_summary(times, ENGINE_BATCH)
            e2e["peak_rss_mb"] = _vm_hwm_mb()
            mismatches = 0
            for c, (cell, key) in enumerate(zip(self.cells, keys)):
                refs = [service.execute_batch(repo, key, [self.batches[cell[0]][r]])[0]
                        for r in self.check_rows[c]]
                mismatches += sum(not all(same_bytes(y, ref) for y, ref in zip(rows, refs))
                                  for rows in outputs[cell])
        finally:
            self.teardown(repo)
        setups += _setups(self.setup, self.teardown, rec, SETUPS_AFTER, False)[0]
        e2e["setup_s"] = summary.median_setup(setups)[1]
        return PassResult(e2e=e2e, attempted=attempted,
                          failed=len(errors) + mismatches, mismatches=mismatches,
                          setups=setups, phase=(t_start, t_stop),
                          notes={"passes": passes, "errors": errors[:5]})


def make(name: str, seed: int):
    return {"gateway-closed": GatewayClosed, "batch-burst": BatchBurst,
            "engine-eval": EngineEval}[name](seed)
