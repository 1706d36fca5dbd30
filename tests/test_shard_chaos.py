"""Shard chaos: workers SIGKILL'd mid-flight, planes corrupted at publish.

The acceptance storm for the sharded serving layer.  Faults are armed
through the same ``REPRO_FAULTS`` grammar as the grid chaos suite:

* ``shard:req/KEY:kill:N`` — the router *fires* the fault in the parent
  (so the budget survives respawns) and ships the action for the worker
  to enact; ``kill`` hard-exits the worker mid-request, exercising the
  pipe-EOF detection, in-slot respawn, re-init and redispatch path.
* ``shard:req/KEY:crash:N`` — an injected exception inside the worker,
  which must come back as one structured error reply, not a dead pipe.
* ``shard:segment/KEY:truncate`` — corrupts the published plane's
  digest, so every worker attach fails validation and demotes to local
  recalibration (with a one-line warning), never a crash.

Invariants checked: **exactly one** structured outcome per request (a
value or a ServeError — no hangs, no duplicates), respawned shards keep
serving, post-storm results are byte-identical to serial inference, a
hung worker leaks no router-side records, and a request hung in one
scheduler thread holds back no other request's reply.
"""

import numpy as np
import pytest

from repro.resilience import faults
from repro.serve import (
    BatchPolicy, ServiceClosedError, ShardRouter, WorkerCrashError,
    micro_specs,
)

pytestmark = [pytest.mark.shard, pytest.mark.chaos]

POLICY = BatchPolicy(max_batch=4, max_wait_ms=2.0, queue_depth=64, workers=2)

KEY = "micro-mlp|MERSIT(8,2)|fakequant"


@pytest.fixture(autouse=True)
def _disarm(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    yield
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


def _router(shards=2, **kw):
    kw.setdefault("policy", POLICY)
    kw.setdefault("calib_n", 8)
    kw.setdefault("preheat", [("micro-mlp", "MERSIT(8,2)", "fakequant")])
    return ShardRouter(shards=shards, specs="micro", **kw)


def test_killed_worker_respawns_and_stream_completes(monkeypatch):
    """SIGKILL mid-flight: the router revives the shard, redispatches the
    survivors, and every request still gets exactly one correct reply."""
    monkeypatch.setenv(faults.ENV_VAR, f"shard:req/{KEY}:kill:1")
    with _router() as router:
        xs = micro_specs()["micro-mlp"].requests(4, seed=11)
        refs = [router.infer_serial("micro-mlp", x, "MERSIT(8,2)")
                for x in xs]
        futs = [router.submit("micro-mlp", x, "MERSIT(8,2)")
                for x in xs for _ in range(2)]
        results = [fut.result(120) for fut in futs]
        assert router.respawns == 1
        for i, got in enumerate(results):
            np.testing.assert_array_equal(
                refs[i // 2], got,
                err_msg=f"request {i} diverged after the respawn storm")
        # post-storm: the revived shard keeps serving, still bit-exact
        post = router.infer("micro-mlp", xs[0], "MERSIT(8,2)", timeout=120)
        np.testing.assert_array_equal(refs[0], post)


def test_injected_crash_is_one_structured_reply(monkeypatch):
    """A ``crash`` action surfaces as one WorkerCrashError — the worker
    process survives and the next request succeeds."""
    monkeypatch.setenv(faults.ENV_VAR, f"shard:req/{KEY}:crash:1")
    with _router() as router:
        x = micro_specs()["micro-mlp"].requests(1, seed=2)[0]
        with pytest.raises(WorkerCrashError):
            router.infer("micro-mlp", x, "MERSIT(8,2)", timeout=120)
        assert router.respawns == 0, "a crash reply must not cost a respawn"
        ref = router.infer_serial("micro-mlp", x, "MERSIT(8,2)")
        np.testing.assert_array_equal(
            ref, router.infer("micro-mlp", x, "MERSIT(8,2)", timeout=120))
        assert router.metrics.snapshot()["failed"] == 1


def test_fault_budget_is_consumed_once_across_respawns(monkeypatch):
    """The kill budget is fired in the parent: the redispatched requests
    must NOT re-enact it, or the shard would die in a loop."""
    monkeypatch.setenv(faults.ENV_VAR, f"shard:req/{KEY}:kill:1")
    with _router() as router:
        xs = micro_specs()["micro-mlp"].requests(3, seed=4)
        futs = [router.submit("micro-mlp", x, "MERSIT(8,2)") for x in xs]
        for fut in futs:
            fut.result(120)   # every survivor completes
        assert router.respawns == 1, (
            f"expected exactly one respawn, got {router.respawns}")


def test_corrupt_segment_demotes_to_recalibration(monkeypatch, capsys):
    """A truncated plane is rejected by its checksum in every worker;
    they recalibrate locally and results stay byte-identical."""
    monkeypatch.setenv(faults.ENV_VAR, "shard:segment/plane/*:truncate")
    with _router() as router:
        x = micro_specs()["micro-mlp"].requests(1, seed=8)[0]
        ref = router.infer_serial("micro-mlp", x, "MERSIT(8,2)")
        np.testing.assert_array_equal(
            ref, router.infer("micro-mlp", x, "MERSIT(8,2)", timeout=120))
        served = [e["stats"] for e in router.stats()["per_shard"]
                  if e["stats"]]
        rejects = sum(s["repository"]["shm_rejects"] for s in served)
        calibs = sum(s["repository"]["calibrations"] for s in served)
        assert rejects >= 1, "no worker rejected the poisoned plane"
        assert calibs >= 1, "rejection must fall back to recalibration"


def test_exactly_once_under_mixed_storm(monkeypatch):
    """kill + crash armed together over a mixed burst: every submitted
    request resolves exactly once (a value or a structured error)."""
    monkeypatch.setenv(
        faults.ENV_VAR,
        f"shard:req/{KEY}:kill:1,shard:req/micro-cnn*:crash:1")
    with _router(preheat=[("micro-mlp", "MERSIT(8,2)", "fakequant"),
                          ("micro-cnn", "INT8", "fakequant")]) as router:
        mlp = micro_specs()["micro-mlp"].requests(3, seed=21)
        cnn = micro_specs()["micro-cnn"].requests(3, seed=22)
        refs = {"micro-mlp": [router.infer_serial("micro-mlp", x,
                                                  "MERSIT(8,2)")
                              for x in mlp],
                "micro-cnn": [router.infer_serial("micro-cnn", x, "INT8")
                              for x in cnn]}
        futs = ([("micro-mlp", i, router.submit("micro-mlp", x,
                                                "MERSIT(8,2)"))
                 for i, x in enumerate(mlp)]
                + [("micro-cnn", i, router.submit("micro-cnn", x, "INT8"))
                   for i, x in enumerate(cnn)])
        outcomes = []
        for model, i, fut in futs:
            try:
                got = fut.result(120)
            except WorkerCrashError as exc:
                outcomes.append(("err", model, str(exc)))
            else:
                outcomes.append(("ok", model, None))
                np.testing.assert_array_equal(refs[model][i], got)
        assert len(outcomes) == len(futs), "a request vanished in the storm"
        crashed = [o for o in outcomes if o[0] == "err"]
        assert len(crashed) == 1 and crashed[0][1] == "micro-cnn"
        snap = router.metrics.snapshot()
        assert snap["submitted"] == len(futs)
        assert snap["completed"] + snap["failed"] == len(futs)


def test_hung_worker_leaks_no_stats_asks(monkeypatch):
    """Unanswered stats asks to a wedged worker are retired, and closing
    the router counts only the stranded request as failed."""
    monkeypatch.setenv(faults.ENV_VAR, f"shard:req/{KEY}:hang:1")
    router = _router(shards=1)
    x = micro_specs()["micro-mlp"].requests(1, seed=6)[0]
    fut = router.submit("micro-mlp", x, "MERSIT(8,2)")   # wedges the worker
    for _ in range(3):
        assert router.stats(timeout=0.2)["per_shard"][0]["stats"] is None
    assert [p.kind for p in router._pending.values()] == ["req"]
    router.close(drain=False)
    with pytest.raises(ServiceClosedError):
        fut.result(5)
    assert router.metrics.snapshot()["failed"] == 1


def test_hung_request_holds_back_no_other_reply(monkeypatch):
    """A request wedged in one scheduler thread must not delay a reply
    that another thread finished; the router's sweep then fails the
    wedged request once, as lost, after ``WORKER_RESULT_TIMEOUT_S``."""
    monkeypatch.setenv(faults.ENV_VAR, f"serve:batch/{KEY}:hang:1")
    # POLICY runs two scheduler threads: the cnn batch runs beside the
    # hung mlp batch
    router = _router(shards=1,
                     preheat=[("micro-mlp", "MERSIT(8,2)", "fakequant"),
                              ("micro-cnn", "MERSIT(8,2)", "fakequant")])
    try:
        mlp_x = micro_specs()["micro-mlp"].requests(1, seed=31)[0]
        cnn_x = micro_specs()["micro-cnn"].requests(1, seed=31)[0]
        hung = router.submit("micro-mlp", mlp_x, "MERSIT(8,2)")
        cnn = router.submit("micro-cnn", cnn_x, "MERSIT(8,2)")
        np.testing.assert_array_equal(
            router.infer_serial("micro-cnn", cnn_x, "MERSIT(8,2)"),
            cnn.result(5))
        # patched after the workers forked: only the router's sweep reads it
        monkeypatch.setattr("repro.serve.shard.WORKER_RESULT_TIMEOUT_S", 1.0)
        with pytest.raises(WorkerCrashError):
            hung.result(30)
        assert router._pending == {}
        assert router.metrics.snapshot()["failed"] == 1
    finally:
        router.close()
