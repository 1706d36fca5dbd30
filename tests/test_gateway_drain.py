"""Graceful drain: in-flight work finishes, new work is refused, exit 0.

Two levels:

* **in-process** — the gated test backend (``gated_backend``, see
  ``conftest.py``) holds one request in flight while the ``drain`` op
  lands: the in-flight request must still complete, new requests (on
  old *and* new connections) must get a structured ``draining`` error,
  and ``wait_closed`` must observe the full teardown (supervisor
  stopped, service closed with ``drain=True``).
* **subprocess** — the real CLI path: ``repro serve --host --port``
  prints its bound address, SIGTERM lands while a request is in flight
  (held open by an armed ``net:reply/infer:delay`` fault), the reply
  still arrives bit-identical to serial inference, and the process
  exits 0.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.resilience import faults
from repro.serve import (
    DrainingError, Gateway, GatewayClient, ModelRepository, ServeError,
    execute_batch, micro_specs,
)

pytestmark = [pytest.mark.net, pytest.mark.serve]


@pytest.fixture(autouse=True)
def _disarm(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    yield
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


def test_drain_op_finishes_inflight_and_rejects_new_work(gated_backend):
    stub = gated_backend
    gw = Gateway(stub, port=0, drain_timeout_s=20.0).start()
    inflight_result = []

    def inflight():
        with GatewayClient(gw.host, gw.port, seed=0) as c:
            inflight_result.append(c.infer("stub", np.zeros(1, np.float32)))

    t = threading.Thread(target=inflight)
    t.start()
    deadline = time.monotonic() + 10
    while gw.stats()["gateway"]["inflight"] < 1:
        assert time.monotonic() < deadline, "request never went in flight"
        time.sleep(0.01)

    with GatewayClient(gw.host, gw.port, seed=1, retries=0) as control:
        reply = control.drain()
        assert reply["draining"] is True
        assert control.health()["state"] == "draining"
        # new request on an existing connection: structured rejection
        with pytest.raises(DrainingError):
            control.infer("stub", np.zeros(1, np.float32))
    # new connection while draining: also a structured rejection
    with GatewayClient(gw.host, gw.port, seed=2, retries=0) as late, \
            pytest.raises((DrainingError, ServeError)):
        late.infer("stub", np.zeros(1, np.float32))

    assert not gw.wait_closed(timeout=0.2), \
        "drain must not finish while a request is in flight"
    stub.gate.set()
    t.join(timeout=10)
    assert inflight_result and inflight_result[0].tobytes() == \
        np.full(2, 7.0, np.float32).tobytes(), \
        "the in-flight request must complete with its real result"
    assert gw.wait_closed(timeout=20), "drain must finish once idle"
    assert stub.drain_closes == 1 and stub.abort_closes == 0, \
        "the service must be closed exactly once, with drain=True"
    assert gw.stats()["gateway"]["draining"] is True


def test_sigterm_drains_the_cli_gateway_and_exits_zero(tmp_path):
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": repo_src,
           # hold the first reply open so SIGTERM lands mid-flight
           "REPRO_FAULTS": "net:reply/infer:delay:1"}
    env.pop("REPRO_SANITIZE", None)   # child owns its own lifecycle
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "micro-mlp",
         "--host", "127.0.0.1", "--port", "0", "--calib", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        line = proc.stdout.readline()
        m = re.search(r"gateway listening on ([\d.]+):(\d+)", line)
        assert m, f"no listening line, got: {line!r}"
        host, port = m.group(1), int(m.group(2))

        x = micro_specs()["micro-mlp"].requests(1, seed=9)[0]
        repo = ModelRepository(micro_specs(), calib_n=8)
        ref = execute_batch(
            repo, repo.model_key("micro-mlp", "MERSIT(8,2)"), [x])[0]
        result = []

        def inflight():
            with GatewayClient(host, port, seed=0, retries=0) as c:
                result.append(c.infer("micro-mlp", x))

        t = threading.Thread(target=inflight)
        t.start()
        time.sleep(0.1)               # let the request reach the gateway
        proc.send_signal(signal.SIGTERM)
        t.join(timeout=60)
        assert not t.is_alive(), "in-flight request hung through SIGTERM"
        assert result, "in-flight request must complete during drain"
        assert result[0].tobytes() == ref.tobytes(), \
            "the drained reply must still be bit-identical to serial"

        # post-drain: new connections are refused or told 'draining'
        try:
            with GatewayClient(host, port, seed=1, retries=0) as late:
                late.infer("micro-mlp", x)
        except (ServeError, ConnectionError, OSError):
            pass
        else:
            pytest.fail("a post-SIGTERM request must not succeed")

        rc = proc.wait(timeout=60)
        out = proc.stdout.read()
        assert rc == 0, f"gateway exited {rc}:\n{out}"
        assert "draining" in out and "exiting" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
