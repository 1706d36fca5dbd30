"""Circuit breakers: unit state machine + shard-fleet integration.

Unit tests drive :class:`CircuitBreaker` with a fake clock so every
state transition (trip, cooldown, half-open probe, re-open, re-close)
is exercised without sleeping.  The integration test is the issue's
acceptance scenario: crash faults against exactly one
``model|format|mode`` key open *that key's* breaker — other keys keep
serving the whole time — and after the cooldown a half-open probe
(served by a shard the router ``_revive``\\ d after a kill fault)
re-closes the circuit.
"""

import time

import numpy as np
import pytest

from repro.resilience import faults
from repro.serve import (
    BreakerBoard, CircuitBreaker, CircuitOpenError, Gateway, GatewayClient,
    WorkerCrashError, micro_specs,
)
from repro.serve.breaker import BREAKER_FAILURE_KINDS

pytestmark = [pytest.mark.net]

KEY = "micro-mlp|MERSIT(8,2)|fakequant"


@pytest.fixture(autouse=True)
def _disarm(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    yield
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# unit: state machine
# ---------------------------------------------------------------------------

def test_trips_only_on_consecutive_failures():
    clock = _Clock()
    b = CircuitBreaker(threshold=3, cooldown_s=1.0, clock=clock)
    for _ in range(2):
        b.record_failure()
    b.record_success()          # resets the consecutive count
    for _ in range(2):
        b.record_failure()
    assert b.state == "closed"
    b.record_failure()
    assert b.state == "open" and b.opens == 1


def test_open_fast_fails_then_half_open_probe_closes():
    clock = _Clock()
    b = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=clock)
    b.record_failure()
    assert b.state == "open"
    assert not b.admit() and b.fast_fails == 1
    clock.now = 5.0
    assert b.admit()                    # the half-open probe
    assert b.state == "half-open"
    assert not b.admit(), "only one probe is admitted at a time"
    b.record_success()
    assert b.state == "closed"
    assert b.admit()


def test_failed_probe_reopens_for_another_cooldown():
    clock = _Clock()
    b = CircuitBreaker(threshold=1, cooldown_s=2.0, clock=clock)
    b.record_failure()
    clock.now = 2.0
    assert b.admit()
    b.record_failure()                  # the probe itself failed
    assert b.state == "open" and b.opens == 2
    assert not b.admit(), "a failed probe restarts the cooldown"
    clock.now = 4.0
    assert b.admit()


def test_neutral_outcome_releases_the_probe_slot():
    clock = _Clock()
    b = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
    b.record_failure()
    clock.now = 1.0
    assert b.admit()
    b.record_neutral()          # e.g. the probe hit a deadline error
    assert b.state == "half-open"
    assert b.admit(), "the slot must be free for the next probe"


def test_board_counts_only_backend_illness_kinds():
    clock = _Clock()
    board = BreakerBoard(threshold=1, cooldown_s=1.0, clock=clock)
    assert BREAKER_FAILURE_KINDS == {"worker-crash", "gateway-timeout",
                                     "model-load"}
    for kind in ("deadline", "queue-full", "overloaded", "bad-request"):
        board.record("k", kind)
        assert board.get("k").state == "closed", kind
    board.record("k", "worker-crash")
    assert board.get("k").state == "open"
    assert board.get("other").state == "closed"
    snap = board.snapshot()
    assert snap["k"]["opens"] == 1 and snap["other"]["opens"] == 0


# ---------------------------------------------------------------------------
# integration: breaker isolates one key on a live shard fleet
# ---------------------------------------------------------------------------

@pytest.mark.shard
@pytest.mark.chaos
def test_breaker_opens_per_key_and_probe_recloses_after_revive(monkeypatch):
    from repro.serve import BatchPolicy, ShardRouter
    monkeypatch.setenv(
        faults.ENV_VAR,
        f"shard:req/{KEY}:crash:2,shard:req/{KEY}:kill:1")
    router = ShardRouter(
        shards=2, specs="micro", calib_n=8,
        policy=BatchPolicy(max_batch=4, max_wait_ms=2.0,
                           queue_depth=64, workers=2),
        preheat=[("micro-mlp", "MERSIT(8,2)", "fakequant"),
                 ("micro-cnn", "MERSIT(8,2)", "fakequant")])
    monkeypatch.setattr("repro.serve.gateway.BREAKER_THRESHOLD", 2)
    monkeypatch.setattr("repro.serve.gateway.BREAKER_COOLDOWN_S", 0.5)
    with Gateway(router, port=0).start() as gw:
        with GatewayClient(gw.host, gw.port, seed=0, retries=0) as client:
            mlp_x = micro_specs()["micro-mlp"].requests(1, seed=3)[0]
            cnn_x = micro_specs()["micro-cnn"].requests(1, seed=3)[0]
            # two consecutive crash faults open the breaker for KEY
            for _ in range(2):
                with pytest.raises(WorkerCrashError):
                    client.infer("micro-mlp", mlp_x)
            assert gw.breakers.get(KEY).state == "open"
            # fast-fail while open: the fleet is never even asked
            with pytest.raises(CircuitOpenError):
                client.infer("micro-mlp", mlp_x)
            # ...but only the affected key: micro-cnn keeps serving
            cnn = client.infer("micro-cnn", cnn_x)
            ref_cnn = router.infer_serial("micro-cnn", cnn_x)
            assert cnn.tobytes() == ref_cnn.tobytes()
            # after the cooldown the next request is the half-open probe;
            # the armed kill fault SIGKILLs the serving worker mid-probe,
            # the router _revive()s it and redispatches, so the probe
            # still succeeds — and the breaker closes on a fleet that
            # genuinely recovered
            time.sleep(0.6)
            probe = client.infer("micro-mlp", mlp_x)
            ref = router.infer_serial("micro-mlp", mlp_x)
            assert probe.tobytes() == ref.tobytes()
            assert gw.breakers.get(KEY).state == "closed"
            assert router.respawns == 1, "the probe rode through a revive"
            assert gw.breakers.get(KEY).opens == 1
            assert gw.breakers.get(KEY).fast_fails >= 1
