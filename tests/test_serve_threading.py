"""Thread-safety of the serving hot paths.

Covers the ``quantize_cached`` memo under concurrent workers (including
the snapshot-before-read TOCTOU regression), weight rebinds mid-traffic
through a live service, and a chaos-marked fault storm (worker crashes,
model-load crashes, calibration NaN, queue overflow) that the service
must survive with structured errors and bit-exact post-storm results.
"""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.formats import get_format
from repro.quant.fakequant import FakeQuantizer
from repro.serve import (
    BatchPolicy, InferenceService, ModelLoadError, ModelRepository,
    QueueFullError, ServeError, WorkerCrashError, micro_specs,
)

pytestmark = pytest.mark.serve

FMT = get_format("MERSIT(8,2)")


# ----------------------------------------------------------------------
# quantize_cached under concurrency
# ----------------------------------------------------------------------

def test_quantize_cached_concurrent_rebind_never_serves_a_stale_mix():
    """Hammered from many threads while the weight is rebound: every
    returned plane must be the full quantization of *some* version of
    the weight, never a stale plane attributed to a fresh version."""
    rng = np.random.default_rng(0)
    planes_by_version = {}
    weight = Tensor(rng.normal(size=(24, 24)))
    q = FakeQuantizer(FMT, axis=0)
    q.calibrate(weight.data)
    # the valid plane of every version the rebinder will install,
    # registered before any hammer thread reads the table
    datas = [weight.data] + [rng.normal(size=(24, 24)) for _ in range(6)]
    valid = [q(d).astype(np.float32) for d in datas]

    stop = threading.Event()
    bad, errors, checks = [], [], [0] * 6

    def hammer(slot):
        try:
            while not stop.is_set():
                out = q.quantize_cached(weight)
                if not any(np.array_equal(out, v) for v in valid):
                    bad.append(out)
                    return
                checks[slot] += 1
        except Exception as exc:  # a dead checker must fail the test
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for d in datas[1:]:
        weight.data = d                     # setter bumps the version
    stop.set()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors, f"a hammer thread died: {errors[0]!r}"
    assert all(checks), f"a hammer thread checked nothing: {checks}"
    assert not bad, "quantize_cached returned a plane matching no version"
    # once quiet, the cache must converge on the final plane
    np.testing.assert_array_equal(q.quantize_cached(weight), valid[-1])


def test_quantize_cached_toctou_regression():
    """A rebind racing *inside* the computation must not pin the stale
    plane under the fresh version (versions are snapshotted before the
    data is read; storing them post-compute caused exactly that)."""
    weight = Tensor(np.linspace(-1.0, 1.0, 32).reshape(4, 8))
    new_data = np.linspace(-2.0, 2.0, 32).reshape(4, 8)

    class RacingQuantizer(FakeQuantizer):
        armed = False

        def __call__(self, x):
            out = super().__call__(x)
            if self.armed:
                self.armed = False
                weight.data = new_data  # the mid-compute rebind
            return out

    q = RacingQuantizer(FMT, axis=0)
    q.calibrate(np.full(4, 2.0))
    q.armed = True
    stale = q.quantize_cached(weight)  # computed from the old data
    np.testing.assert_array_equal(stale, q(np.linspace(-1.0, 1.0, 32)
                                           .reshape(4, 8)).astype(np.float32))
    # the racing rebind bumped the version, so the memo must recompute
    fresh = q.quantize_cached(weight)
    np.testing.assert_array_equal(fresh, q(new_data).astype(np.float32))


def test_quantize_cached_recalibration_invalidates_under_threads():
    weight = Tensor(np.random.default_rng(1).normal(size=(16, 16)))
    q = FakeQuantizer(FMT, axis=0)
    q.calibrate(weight.data)
    first = q.quantize_cached(weight)
    results = []

    def worker():
        results.append(q.quantize_cached(weight))

    q.calibrate(weight.data * 0.5)  # scale setter bumps the scale version
    after = q(weight.data).astype(np.float32)
    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for out in results:
        assert (np.array_equal(out, after)
                or np.array_equal(out, first))  # never a third thing
    np.testing.assert_array_equal(q.quantize_cached(weight), after)


# ----------------------------------------------------------------------
# weight rebind through a live service
# ----------------------------------------------------------------------

def test_weight_rebind_mid_traffic_no_stale_plane_reads(tmp_path):
    repo = ModelRepository(micro_specs(), calib_n=8, persist=False)
    policy = BatchPolicy(max_batch=4, max_wait_ms=2.0, workers=2)
    spec = micro_specs()["micro-mlp"]
    reqs = spec.requests(8, seed=9)
    with InferenceService(repo, policy) as svc:
        before = [svc.infer(("micro-mlp"), x) for x in reqs]
        net, _ = repo.resolve("micro-mlp", "MERSIT(8,2)")
        # rebind every quantized weight mid-traffic and recalibrate
        from repro.quant.ptq import quantized_layers
        rng = np.random.default_rng(4)
        for _name, layer in quantized_layers(net):
            layer.weight.data = layer.weight.data + rng.normal(
                scale=0.05, size=layer.weight.data.shape)
            layer.weight_quant.calibrate(layer.weight.data)
        futs = [svc.submit("micro-mlp", x) for x in reqs]
        after_batched = [f.result(30) for f in futs]
        after_serial = [svc.infer_serial("micro-mlp", x) for x in reqs]
    for got, ref, old in zip(after_batched, after_serial, before):
        np.testing.assert_array_equal(got, ref)  # fresh plane everywhere
        assert not np.array_equal(got, old)      # and the rebind took effect


# ----------------------------------------------------------------------
# chaos: fault storm through the service
# ----------------------------------------------------------------------

STORM = ",".join([
    "serve:load/*:crash:1",    # first model load crashes
    "calib:*:nan:1",           # first calibration batch picks up a NaN
    "serve:batch/*:crash:2",   # then two batch executions crash
])


@pytest.mark.chaos
def test_fault_storm_structured_errors_and_recovery(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", STORM)
    repo = ModelRepository(micro_specs(), calib_n=8,
                           cache_dir=tmp_path / "cache")
    policy = BatchPolicy(max_batch=4, max_wait_ms=2.0, queue_depth=2,
                         workers=1, retries=0)
    spec = micro_specs()["micro-mlp"]
    reqs = spec.requests(6, seed=2)
    kinds = []
    with InferenceService(repo, policy) as svc:
        # storm phase: drive requests one by one; each armed fault fires
        # deterministically in submission order
        for x in reqs:
            try:
                svc.infer("micro-mlp", x, timeout=30)
            except ServeError as exc:
                kinds.append(exc.to_entry()["error"]["kind"])
        # the batch-site faults fire first (the worker hits ``batch/KEY``
        # before resolving the model), then the load crash, then the
        # calibration NaN — both of the latter surface as model-load
        assert kinds == ["worker-crash", "worker-crash",
                         "model-load", "model-load"]

        # overflow phase: park the single worker on a cold key (its
        # resolve calibrates in-worker), then flood past queue_depth=2
        attn = micro_specs()["micro-attn"].requests(1, seed=1)[0]
        head = svc.submit("micro-attn", attn, "INT8")
        rejected = 0
        floods = []
        for _ in range(12):
            try:
                floods.append(svc.submit("micro-attn", attn, "INT8"))
            except QueueFullError as exc:
                assert exc.to_entry()["error"]["code"] == 503
                rejected += 1
        assert rejected >= 1  # backpressure engaged
        head.result(60)
        for f in floods:
            f.result(60)

        # recovery phase: faults exhausted — service must be correct and
        # bit-identical to the serial reference
        serial = [svc.infer_serial("micro-mlp", x) for x in reqs]
        for x, ref in zip(reqs, serial):
            np.testing.assert_array_equal(svc.infer("micro-mlp", x), ref)
        snap = svc.metrics.snapshot()
        assert snap["failed"] >= 4 and snap["rejected"] == rejected
    assert repo.calibrations >= 2  # NaN'd calibration was retried cleanly


@pytest.mark.chaos
def test_injected_worker_crash_is_retried_when_budgeted(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "serve:batch/*:crash:1")
    repo = ModelRepository(micro_specs(), calib_n=8, persist=False)
    policy = BatchPolicy(max_batch=4, max_wait_ms=2.0, workers=1, retries=1)
    spec = micro_specs()["micro-mlp"]
    x = spec.requests(1, seed=0)[0]
    with InferenceService(repo, policy) as svc:
        out = svc.infer("micro-mlp", x, timeout=30)  # crash absorbed by retry
        np.testing.assert_array_equal(out, svc.infer_serial("micro-mlp", x))
        assert svc.metrics.snapshot()["retried_batches"] == 1
