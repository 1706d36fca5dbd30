"""Gateway chaos: a deterministic net storm on top of worker murder.

The acceptance storm for the network front door.  Faults attack both
failure domains at once through the one ``REPRO_FAULTS`` grammar:

* ``net:accept:close`` — connections severed at accept;
* ``net:frame/infer:drop|garble`` — inbound requests eaten or corrupted;
* ``net:reply/infer:drop|delay|close`` — replies eaten, stalled or the
  socket severed after the work was done (the ambiguous-outcome case
  that makes idempotent retry semantics matter);
* ``shard:req/KEY:kill`` / ``crash`` — the backend's own chaos riding
  underneath.

Invariants proven, per request, across every client thread:

1. **exactly one outcome** — a result or a structured ServeError; never
   a hang (the whole storm is wall-clock bounded) and never a duplicate
   (each ``infer()`` call returns exactly once by construction, and the
   ok-count + error-count must equal the request count);
2. every success is **byte-identical** to ``infer_serial`` on the same
   router — the bit-identity guarantee survives retries, respawns and
   reconnects;
3. every failure surfaces a **structured kind**, not a raw socket error.
"""

import threading
import time

import numpy as np
import pytest

from repro.resilience import faults
from repro.serve import (
    BatchPolicy, Gateway, GatewayClient, ServeError, ShardRouter,
    WorkerCrashError, micro_specs,
)

pytestmark = [pytest.mark.net, pytest.mark.chaos, pytest.mark.shard]

KEY = "micro-mlp|MERSIT(8,2)|fakequant"

#: the combined storm: every net action at every site, plus backend chaos
STORM = ",".join([
    "net:accept:close:1",
    "net:frame/infer:drop:2",
    "net:frame/infer:garble:1",
    "net:reply/infer:drop:2",
    "net:reply/infer:delay:2",
    "net:reply/infer:close:1",
    f"shard:req/{KEY}:kill:1",
    f"shard:req/{KEY}:crash:2",
])

THREADS = 4
REQUESTS_PER_THREAD = 5


@pytest.fixture(autouse=True)
def _disarm(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    yield
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


def test_net_storm_plus_worker_murder_keeps_exactly_once(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, STORM)
    router = ShardRouter(
        shards=2, specs="micro", calib_n=8,
        policy=BatchPolicy(max_batch=4, max_wait_ms=2.0,
                           queue_depth=64, workers=2),
        preheat=[("micro-mlp", "MERSIT(8,2)", "fakequant")])
    xs = micro_specs()["micro-mlp"].requests(REQUESTS_PER_THREAD, seed=17)
    refs = [router.infer_serial("micro-mlp", x) for x in xs]
    outcomes: dict[tuple[int, int], tuple[str, object]] = {}
    lock = threading.Lock()

    # breaker threshold above the armed crash budget: this test is about
    # the storm's exactly-once guarantee, not breaker tripping
    monkeypatch.setattr("repro.serve.gateway.BREAKER_THRESHOLD", 32)
    gw = Gateway(router, port=0).start()
    t0 = time.monotonic()

    def run_client(tid: int) -> None:
        with GatewayClient(gw.host, gw.port, seed=100 + tid, retries=8,
                           io_timeout_s=2.0) as client:
            for i, x in enumerate(xs):
                try:
                    got = client.infer("micro-mlp", x)
                    outcome = ("ok", got)
                except ServeError as exc:
                    outcome = ("error", exc)
                with lock:
                    assert (tid, i) not in outcomes, "duplicate completion"
                    outcomes[(tid, i)] = outcome

    threads = [threading.Thread(target=run_client, args=(tid,))
               for tid in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "a client hung through the storm"
    elapsed = time.monotonic() - t0

    with gw:
        stats = gw.stats()
    # 1. exactly one outcome per request, bounded wall clock
    assert len(outcomes) == THREADS * REQUESTS_PER_THREAD
    assert elapsed < 90, f"storm took {elapsed:.0f}s — something stalled"
    # 2. every success is bit-identical to serial inference
    oks = errors = 0
    for (tid, i), (kind, value) in sorted(outcomes.items()):
        if kind == "ok":
            oks += 1
            assert value.tobytes() == refs[i].tobytes(), \
                f"client {tid} request {i} diverged from infer_serial"
        else:
            errors += 1
            # 3. failures are structured, and only expected kinds appear:
            # crash faults surface as worker-crash (not retried); budget-
            # exhausted retry chains surface as the base transport error
            assert isinstance(value, (WorkerCrashError, ServeError))
    assert oks + errors == THREADS * REQUESTS_PER_THREAD
    # the crash budget bounds structured worker-crash failures; transport
    # retries mean most requests still succeed through the storm
    assert oks >= THREADS * REQUESTS_PER_THREAD - 4
    # the storm actually happened: net faults were enacted at every site
    enacted = stats["gateway"]["net_faults_enacted"]
    assert sum(enacted.values()) == 9, enacted
    assert stats["service"]["respawns"] >= 1


def test_health_supervisor_escalates_hung_shard_to_respawn(monkeypatch):
    """A hang-faulted worker answers no probes; after ``escalate_after``
    consecutive misses the supervisor forces a respawn, the router's
    revive path redispatches the wedged request, and it still completes
    bit-identical to serial inference."""
    monkeypatch.setenv(faults.ENV_VAR, f"shard:req/{KEY}:hang:1")
    router = ShardRouter(
        shards=2, specs="micro", calib_n=8,
        policy=BatchPolicy(max_batch=4, max_wait_ms=2.0,
                           queue_depth=64, workers=2),
        preheat=[("micro-mlp", "MERSIT(8,2)", "fakequant")])
    x = micro_specs()["micro-mlp"].requests(1, seed=23)[0]
    ref = router.infer_serial("micro-mlp", x)
    # the probe interval is huge: the test drives probes by hand so the
    # escalation count is deterministic, not timing-dependent
    monkeypatch.setattr("repro.serve.health.PROBE_INTERVAL_S", 600.0)
    monkeypatch.setattr("repro.serve.health.PROBE_TIMEOUT_S", 0.5)
    monkeypatch.setattr("repro.serve.health.ESCALATE_AFTER", 2)
    monkeypatch.setattr("repro.serve.gateway.BREAKER_THRESHOLD", 32)
    with Gateway(router, port=0).start() as gw:
        fut = router.submit("micro-mlp", x)   # wedges one worker
        deadline = time.monotonic() + 10
        while all(router.ping(timeout=0.3)):
            assert time.monotonic() < deadline, "worker never wedged"
            time.sleep(0.05)
        first = gw.supervisor.probe_once()
        assert not all(first), "the hung slot must miss its probe"
        assert router.respawns == 0, "one miss must not respawn yet"
        assert gw.supervisor.state()["state"] == "degraded"
        gw.supervisor.probe_once()            # second miss -> escalation
        assert gw.supervisor.state()["forced_respawns"], \
            "the forced respawn must be visible in health state"
        # the SIGKILL lands now; the router's collector revives the slot
        deadline = time.monotonic() + 30
        while router.respawns < 1:
            assert time.monotonic() < deadline, "forced kill never revived"
            time.sleep(0.05)
        got = fut.result(120)
        assert got.tobytes() == ref.tobytes(), \
            "the wedged request must complete correctly after the respawn"
        # the revived shard answers probes again: health returns to ready
        deadline = time.monotonic() + 30
        while not all(router.ping(timeout=1.0)):
            assert time.monotonic() < deadline, "revived shard still deaf"
            time.sleep(0.1)
        gw.supervisor.probe_once()
        assert gw.supervisor.state()["state"] == "ready"
