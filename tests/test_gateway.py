"""Gateway basics: wire codec, ops, admission, deadline propagation.

The fast half of the gateway suite: everything here runs against either
pure functions (:mod:`repro.serve.wire`), the gated test backend
(``gated_backend``, see ``conftest.py``) or a single in-process
:class:`InferenceService` behind a real localhost socket — no shard
processes, no chaos.  Bit-identity across the wire is a column of the
serving matrix (``tests/test_serve_matrix.py``).
"""

import threading
import time

import numpy as np
import pytest

from repro.resilience import faults
from repro.serve import (
    BadRequestError, DeadlineExceededError, GatewayTimeoutError,
    Gateway, GatewayClient, InferenceService, ModelRepository,
    OverloadedError, ServeError, micro_specs,
)
from repro.serve import wire

pytestmark = [pytest.mark.net, pytest.mark.serve]


@pytest.fixture(autouse=True)
def _disarm(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    yield
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

def test_wire_roundtrip_is_bit_exact_for_arrays():
    rng = np.random.default_rng(0)
    msg = {
        "op": "infer",
        "f32": rng.standard_normal((3, 5)).astype(np.float32),
        "i8": rng.integers(-128, 127, 16, dtype=np.int8),
        "tuple": (rng.integers(0, 9, 4, dtype=np.int64),
                  np.ones(4, dtype=np.float32)),
        "nested": {"list": [np.float32(1.5), "text", 7]},
    }
    out = wire.unpack_frame(wire.pack_frame(msg)[4:])
    assert out["op"] == "infer"
    assert out["f32"].tobytes() == msg["f32"].tobytes()
    assert out["f32"].dtype == np.float32 and out["f32"].shape == (3, 5)
    assert out["i8"].tobytes() == msg["i8"].tobytes()
    assert isinstance(out["tuple"], tuple)
    assert out["tuple"][0].tobytes() == msg["tuple"][0].tobytes()
    # np scalars come back as 0-d arrays with the same bytes
    assert np.asarray(out["nested"]["list"][0]).tobytes() == \
        np.float32(1.5).tobytes()
    assert out["nested"]["list"][1:] == ["text", 7]


def test_wire_rejects_corrupt_and_oversized_frames():
    frame = wire.pack_frame({"op": "x"})
    with pytest.raises(wire.FrameError):
        wire.unpack_frame(wire.garble(frame[4:]))
    with pytest.raises(wire.FrameError):
        wire.unpack_frame(b"[1, 2, 3]")       # valid JSON, not an object
    with pytest.raises(wire.FrameError):
        wire.frame_length((wire.MAX_FRAME + 1).to_bytes(4, "big"))


def test_garble_changes_bytes_but_not_length():
    payload = wire.pack_frame({"op": "infer", "id": 3})[4:]
    bad = wire.garble(payload)
    assert len(bad) == len(payload) and bad != payload


# ---------------------------------------------------------------------------
# gateway ops over a real socket
# ---------------------------------------------------------------------------

def _service():
    return InferenceService(ModelRepository(micro_specs(), calib_n=8))


def test_stats_and_health_ops():
    with Gateway(_service(), port=0).start() as gw, \
            GatewayClient(gw.host, gw.port, seed=1) as client:
        x = micro_specs()["micro-mlp"].requests(1, seed=0)[0]
        client.infer("micro-mlp", x)
        stats = client.stats()
        assert stats["gateway"]["counters"]["infer_ok"] == 1
        assert "micro-mlp|MERSIT(8,2)|fakequant" in stats["breakers"]
        assert stats["service"]["metrics"]["completed"] == 1
        health = client.health()
        assert health["state"] in ("ready", "degraded")
        rendered = gw.render_stats()
        assert "gateway" in rendered and "serve metrics" in rendered


def test_bad_requests_are_structured():
    with Gateway(_service(), port=0).start() as gw:
        with GatewayClient(gw.host, gw.port, seed=2) as client:
            x = micro_specs()["micro-mlp"].requests(1, seed=0)[0]
            with pytest.raises(BadRequestError):
                client.infer("no-such-model", x)
            with pytest.raises(BadRequestError):
                client.infer("micro-mlp", x, fmt="NOT-A-FORMAT(9,9)")
            with pytest.raises(ServeError):
                client._call({"op": "teleport"}, retryable=False)


def test_overload_sheds_with_structured_error(gated_backend):
    """max_inflight=1: a second concurrent request is shed, not queued."""
    stub = gated_backend
    with Gateway(stub, port=0, max_inflight=1).start() as gw:
        first_done = []

        def first():
            with GatewayClient(gw.host, gw.port, seed=3) as c:
                first_done.append(c.infer("stub", np.zeros(1, np.float32)))

        t = threading.Thread(target=first)
        t.start()
        deadline = time.monotonic() + 10
        while gw.stats()["gateway"]["inflight"] < 1:
            assert time.monotonic() < deadline, "first request never admitted"
            time.sleep(0.01)
        with GatewayClient(gw.host, gw.port, seed=4, retries=0) as c2:
            with pytest.raises(OverloadedError):
                c2.infer("stub", np.zeros(1, np.float32))
        stub.gate.set()
        t.join(timeout=10)
        assert first_done, "the admitted request must still complete"
        assert gw.stats()["gateway"]["errors"]["overloaded"] == 1


def test_overloaded_is_retryable_and_succeeds_after_window_frees(gated_backend):
    stub = gated_backend
    with Gateway(stub, port=0, max_inflight=1).start() as gw:
        t = threading.Thread(
            target=lambda: GatewayClient(gw.host, gw.port, seed=5).infer(
                "stub", np.zeros(1, np.float32)))
        t.start()
        deadline = time.monotonic() + 10
        while gw.stats()["gateway"]["inflight"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # free the window shortly after the retrying client's first shed
        threading.Timer(0.2, stub.gate.set).start()
        with GatewayClient(gw.host, gw.port, seed=6, retries=8) as c2:
            out = c2.infer("stub", np.zeros(1, np.float32))
        assert out.tobytes() == stub.RESULT.tobytes()
        assert c2.retried >= 1, "success must have come through a retry"
        t.join(timeout=10)


def test_gateway_timeout_backstop_is_structured(monkeypatch, gated_backend):
    monkeypatch.setattr("repro.serve.gateway.REQUEST_TIMEOUT_S", 0.3)
    stub = gated_backend   # never completes until closed
    with Gateway(stub, port=0).start() as gw:
        with GatewayClient(gw.host, gw.port, seed=7, retries=0) as client:
            with pytest.raises(GatewayTimeoutError):
                client.infer("stub", np.zeros(1, np.float32))


def test_deadline_eaten_in_transit_fails_without_executing(monkeypatch,
                                                         gated_backend):
    """An inbound delay fault longer than the budget must surface as a
    deadline error *without* the request ever reaching the service."""
    monkeypatch.setenv(faults.ENV_VAR, "net:frame/infer:delay:1")
    stub = gated_backend
    stub.gate.set()   # the service would answer instantly if asked
    with Gateway(stub, port=0).start() as gw:
        with GatewayClient(gw.host, gw.port, seed=8, retries=0) as client:
            with pytest.raises(DeadlineExceededError):
                client.infer("stub", np.zeros(1, np.float32),
                             deadline_ms=faults.NET_DELAY_SECONDS * 500)
        assert stub.submitted == 0, \
            "an in-transit-expired request must never execute"


def test_client_total_deadline_covers_retries(monkeypatch):
    """Reply drops burn the budget; the client gives up with a deadline
    error instead of retrying forever."""
    monkeypatch.setenv(faults.ENV_VAR, "net:reply/infer:drop:10")
    svc = _service()
    with Gateway(svc, port=0).start() as gw:
        with GatewayClient(gw.host, gw.port, seed=9, retries=10,
                           io_timeout_s=0.3) as client:
            x = micro_specs()["micro-mlp"].requests(1, seed=1)[0]
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.infer("micro-mlp", x, deadline_ms=1000)
            assert time.monotonic() - t0 < 10, "deadline must bound retries"


def test_server_side_codec_runs_on_gateway_loop_threads(monkeypatch):
    """Every frame the gateway encodes or decodes is handled on a thread
    named ``gateway-loop``: profilers attribute wire-codec time to the
    gateway by that thread name."""
    calls = []
    for name in ("pack_frame", "unpack_frame"):
        def spy(*args, _orig=getattr(wire, name), _name=name, **kwargs):
            calls.append((_name, threading.current_thread()))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(wire, name, spy)
    with Gateway(_service(), port=0).start() as gw, \
            GatewayClient(gw.host, gw.port, seed=10) as client:
        client.infer("micro-mlp", micro_specs()["micro-mlp"].requests(
            1, seed=0)[0])
        client.stats()
        client.health()
    server = [(name, thread.name) for name, thread in calls
              if thread is not threading.current_thread()]
    assert sorted(name for name, _ in server) == \
        ["pack_frame"] * 3 + ["unpack_frame"] * 3
    assert {thread for _, thread in server} == {"gateway-loop"}, server
