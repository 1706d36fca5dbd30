"""The serving bit-identity matrix: every path equals serial, byte for byte.

One seeded stream generator feeds one parametrized matrix —
{batched, sharded, gateway→batched, gateway→sharded} × {fakequant,
engine} × {lut, reference} × {uniform, ``mixed(...)``} — and every reply
must match a serial single-sample reference in dtype, shape and bytes.
The reference is computed once per (mode, kernel, spec) on its own fresh
repository, and every cell builds a fresh backend, so agreement across
the four paths is also replay determinism across rebuilds.

Why it holds: engine mode accumulates exactly and rounds once, and
fakequant runs under the row-stable ``batch_invariant_matmul``, so a
request's numbers never depend on its batch; shard workers run the same
``execute_batch`` over planes that round-trip exactly through shared
memory (at 1, 2 and 4 shards here); the gateway's ndarray codec is
bit-exact.  Sharded cells preheat every key but INT8 ones and assert
that exactly the cold keys calibrate in a worker — zero in mixed cells.

Behaviours that are not cells follow as named tests.
"""

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest

from repro.kernels.dispatch import use_backend
from repro.serve import (
    BatchPolicy, Gateway, GatewayClient, HashRing, InferenceService,
    ModelRepository, ShardRouter, micro_specs,
)

pytestmark = pytest.mark.serve

MODELS = ["micro-mlp", "micro-attn", "micro-cnn"]
UNIFORM = ["MERSIT(8,2)", "INT8"]
#: one genuinely mixed assignment per micro model (layer names are the
#: quantize_model-assigned ones; see repro.serve.repository.micro_specs)
MIXED = {
    "micro-mlp": "mixed(MERSIT(8,2);layer2=FP(8,2))",
    "micro-attn": "mixed(FP(8,4);block.fc1=MERSIT(8,2);head=Posit(8,1))",
    "micro-cnn": "mixed(MERSIT(8,2);layer7=FP(8,3))",
}
MODES = ("fakequant", "engine")
KERNELS = ("lut", "reference")
SPECS = ("uniform", "mixed")
POLICY = BatchPolicy(max_batch=6, max_wait_ms=2.0, queue_depth=256, workers=2)
PATHS = [
    pytest.param("batched"),
    pytest.param("sharded", marks=pytest.mark.shard),
    pytest.param("gateway-batched", marks=pytest.mark.net),
    pytest.param("gateway-sharded", marks=[pytest.mark.net, pytest.mark.shard]),
]


def stream(mode, kernel, spec, n=16):
    """n seeded ``(model, fmt, inputs)`` requests, identical on every path.

    A mixed stream alternates each model's mixed spec with a uniform
    format, so uniform and mixed planes share one scheduler.
    """
    rng = np.random.default_rng(
        [MODES.index(mode), KERNELS.index(kernel), SPECS.index(spec)])
    pools = {m: micro_specs()[m].requests(6, seed=17) for m in MODELS}
    reqs = []
    for _ in range(n):
        m = MODELS[rng.integers(len(MODELS))]
        if spec == "mixed":
            f = MIXED[m] if rng.integers(2) else UNIFORM[0]
        else:
            f = UNIFORM[rng.integers(len(UNIFORM))]
        reqs.append((m, f, pools[m][rng.integers(len(pools[m]))]))
    return reqs


def _repository():
    return ModelRepository(micro_specs(), calib_n=8, persist=False)


@lru_cache(maxsize=None)
def serial_reference(mode, kernel, spec):
    """Serial single-sample outputs of the stream, on a fresh repository."""
    with use_backend(kernel), InferenceService(_repository()) as svc:
        return [svc.infer_serial(m, x, f, mode)
                for m, f, x in stream(mode, kernel, spec)]


def _backend(path, spec, reqs, mode):
    if not path.endswith("sharded"):
        return InferenceService(_repository(), POLICY)
    shards = 1 if path == "gateway-sharded" else {"uniform": 2, "mixed": 4}[spec]
    preheat = sorted({(m, f, mode) for m, f, _ in reqs if f != "INT8"})
    return ShardRouter(shards=shards, specs="micro", preheat=preheat,
                       policy=POLICY, calib_n=8)


def _over_wire(gw, reqs, mode, clients=4):
    """The stream through the gateway from ``clients`` concurrent clients."""
    def client(c):
        with GatewayClient(gw.host, gw.port, seed=c) as conn:
            return [(i, conn.infer(reqs[i][0], reqs[i][2], reqs[i][1], mode))
                    for i in range(c, len(reqs), clients)]

    with ThreadPoolExecutor(clients) as pool:
        replies = dict(pair for part in pool.map(client, range(clients),
                                                 timeout=120)
                       for pair in part)
    return [replies[i] for i in range(len(reqs))]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("path", PATHS)
def test_path_is_bit_identical_to_serial(path, mode, kernel, spec):
    reqs = stream(mode, kernel, spec)
    refs = serial_reference(mode, kernel, spec)
    with use_backend(kernel):
        backend = _backend(path, spec, reqs, mode)
        if path.startswith("gateway"):
            with Gateway(backend).start() as gw:
                got = _over_wire(gw, reqs, mode)
                stats = backend.stats()
        else:
            with backend:
                futs = [backend.submit(m, x, f, mode) for m, f, x in reqs]
                got = [fut.result(120) for fut in futs]
                stats = backend.stats()
    for i, ((m, f, _), ref, y) in enumerate(zip(reqs, refs, got)):
        assert (y.dtype, y.shape, y.tobytes()) == \
            (ref.dtype, ref.shape, ref.tobytes()), (
                f"request {i} ({m}|{f}|{mode}|{kernel}) via {path} "
                f"diverged from serial inference")
    if path.endswith("sharded"):
        cold = {m for m, f, _ in reqs if f == "INT8"}
        calibs = sum(e["stats"]["repository"]["calibrations"]
                     for e in stats["per_shard"])
        assert calibs == len(cold), (
            f"{calibs} worker calibrations for {len(cold)} cold keys")


# ----------------------------------------------------------------------
# behaviours that are not cells
# ----------------------------------------------------------------------

@pytest.fixture()
def service():
    with InferenceService(_repository(), POLICY) as svc:
        yield svc


def test_coalesced_batches_match_per_request_serial(service):
    """Same request repeated in one burst: all batched copies equal serial."""
    x = micro_specs()["micro-cnn"].requests(1, seed=3)[0]
    ref = service.infer_serial("micro-cnn", x)
    futs = [service.submit("micro-cnn", x) for _ in range(12)]
    for fut in futs:
        np.testing.assert_array_equal(ref, fut.result(60))
    # and the scheduler actually batched (not 12 serial singles)
    hist = service.metrics.snapshot()["batch_size_histogram"]
    assert any(int(k) > 1 for k in hist)


def test_stream_with_mixed_modes_is_stable(service):
    """fakequant and engine requests for one model interleaved in flight."""
    xs = micro_specs()["micro-mlp"].requests(12, seed=7)
    futs = [(x, mode, service.submit("micro-mlp", x, "MERSIT(8,2)", mode))
            for x in xs for mode in MODES]
    for x, mode, fut in futs:
        np.testing.assert_array_equal(
            service.infer_serial("micro-mlp", x, "MERSIT(8,2)", mode),
            fut.result(60))


def test_mixed_spec_differs_from_uniform_but_spelling_does_not(service):
    """A mixed spec changes the numbers; a respelled spec serves one model."""
    x = micro_specs()["micro-mlp"].requests(1, seed=9)[0]
    uniform = service.infer_serial("micro-mlp", x, "MERSIT(8,2)")
    mixed = service.infer_serial("micro-mlp", x, MIXED["micro-mlp"])
    assert uniform.tobytes() != mixed.tobytes()
    # a uniform map spelled as a mixed(...) spec is the uniform model
    respelled = service.infer_serial(
        "micro-mlp", x, "mixed(MERSIT(8,2);layer2=MERSIT(8,2))")
    np.testing.assert_array_equal(uniform, respelled)
    assert len(service.repository.stats()["resident"]) == 2


def _router(shards, mode):
    """Preheats two keys; every other key calibrates in its worker."""
    preheat = [("micro-mlp", "MERSIT(8,2)", mode), ("micro-cnn", "INT8", mode)]
    return ShardRouter(shards=shards, specs="micro", preheat=preheat,
                       policy=POLICY, calib_n=8)


def _served(router):
    return [e["stats"] for e in router.stats()["per_shard"] if e["stats"]]


@pytest.mark.shard
def test_preheated_keys_attach_instead_of_recalibrating():
    """Every preheated key resolves from shared memory in every worker."""
    with _router(2, "fakequant") as router:
        for x in micro_specs()["micro-mlp"].requests(4, seed=3):
            ref = router.infer_serial("micro-mlp", x, "MERSIT(8,2)")
            np.testing.assert_array_equal(
                ref, router.infer("micro-mlp", x, "MERSIT(8,2)"))
        served = _served(router)
        assert served, "no shard answered the stats ask"
        attaches = sum(s["repository"]["shm_attaches"] for s in served)
        calibs = sum(s["repository"]["calibrations"] for s in served)
        assert attaches >= 1, "the preheated plane was never attached"
        assert calibs == 0, (
            f"workers recalibrated {calibs}x despite a published plane")


@pytest.mark.shard
def test_non_preheated_key_calibrates_in_worker_and_matches_serial():
    """A cold key calibrates inside its worker, still bit-identical."""
    with _router(2, "engine") as router:
        x = micro_specs()["micro-cnn"].requests(1, seed=9)[0]
        # micro-cnn/MERSIT/engine is not preheated: worker-side calibration
        ref = router.infer_serial("micro-cnn", x, "MERSIT(8,2)", mode="engine")
        got = router.infer("micro-cnn", x, "MERSIT(8,2)", mode="engine",
                           timeout=120)
        np.testing.assert_array_equal(ref, got)
        assert sum(s["repository"]["calibrations"]
                   for s in _served(router)) >= 1


@pytest.mark.shard
def test_hash_ring_is_deterministic_and_sticky():
    """Identical rings in every process; each key owned by one shard."""
    a, b = HashRing(4), HashRing(4)
    keys = [f"{m}|{f}|{mode}" for m in MODELS for f in UNIFORM
            for mode in MODES]
    owners = {k: a.lookup(k) for k in keys}
    assert owners == {k: b.lookup(k) for k in keys}
    assert all(0 <= s < 4 for s in owners.values())
    # growing the ring remaps only arcs the new shard takes over
    grown = HashRing(5)
    moved = [k for k in keys if grown.lookup(k) not in (owners[k], 4)]
    assert not moved, f"keys moved between surviving shards: {moved}"


@pytest.mark.shard
def test_all_requests_for_one_key_land_on_one_shard():
    """Batching locality: a key's requests never spread across shards."""
    with _router(4, "fakequant") as router:
        xs = micro_specs()["micro-mlp"].requests(4, seed=5)
        futs = [router.submit("micro-mlp", x, "MERSIT(8,2)") for x in xs
                for _ in range(2)]
        for fut in futs:
            fut.result(120)
        served = [s["metrics"]["completed"] for s in _served(router)]
        assert sum(served) == len(futs)
        assert sum(1 for c in served if c) == 1, (
            f"one key spread over {sum(1 for c in served if c)} shards")
