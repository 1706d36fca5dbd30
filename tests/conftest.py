"""Shared test fixtures.

The persistent worker pool (:mod:`repro.resilience.pool`) deliberately
keeps worker processes alive across ``run_cells`` calls.  Fork workers
capture the parent's module state at fork time, so a pool forked under
one test's monkeypatches must never serve the next test: tear every pool
down after each test (cheap when no pool was started).  The warm model
memo is per-process parent state with the same hazard, so it is cleared
too, as are any shared-memory plane segments this process published
(:func:`repro.serve.shm.unlink_all`) — a test that fails between publish
and close must not leak ``/dev/shm`` entries into the next test.

Under ``REPRO_SANITIZE=1`` the canary fixture additionally fails any
test during which the runtime sanitizer (:mod:`repro.sanitize`) observed
a lock-order inversion, and — for the serve/shard/grid/sanitize suites —
any test that leaks threads, ``/dev/shm`` segments or pipe fds past its
own teardown, so leaks localize to the test that caused them.

:class:`GatedBackend` (fixture ``gated_backend``) is the one serving
test fake: a :class:`repro.serve.Backend` whose futures complete only
when the test opens its gate, shared by the gateway suites.
"""

import gc
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro import sanitize
from repro.resilience import pool
from repro.serve import Backend, ModelRepository, ServeMetrics, shm
from repro.zoo import registry

#: suites whose tests get the post-teardown leak check (they are the
#: ones that start threads/processes/segments on purpose)
_LEAK_MARKERS = ("serve", "shard", "grid", "sanitize", "net")

#: seconds to wait for joins/GC to retire threads, fds and segments
_LEAK_GRACE = 5.0


@pytest.fixture(autouse=True)
def _sanitize_canary(request):
    """Per-test inversion + leak canary (no-op unless sanitizer enabled)."""
    if not sanitize.enabled():
        yield
        return
    from multiprocessing import resource_tracker
    resource_tracker.ensure_running()  # its pipe belongs to the baseline
    sanitize.reset()
    before = sanitize.snapshot()
    yield
    inversions = sanitize.violations()
    if inversions:
        detail = "\n\n".join(
            f"{v['kind']} {v['edge'][0]} <-> {v['edge'][1]}\n"
            f"--- inverting acquisition ({v['thread']}):\n{v['stack']}"
            f"--- prior order ({v['prior_thread']}):\n{v['prior_stack']}"
            for v in inversions)
        pytest.fail(f"sanitizer observed lock-order inversion(s):\n{detail}",
                    pytrace=False)
    if not any(request.node.get_closest_marker(m) for m in _LEAK_MARKERS):
        return
    deadline = time.monotonic() + _LEAK_GRACE
    while True:
        gc.collect()  # retire dropped Connection objects (their pipe fds)
        after = sanitize.snapshot()
        leaked = {kind: sorted(set(after[kind]) - set(before[kind]))
                  for kind in ("threads", "segments", "pipe_fds")}
        if not any(leaked.values()):
            return
        if time.monotonic() >= deadline:
            pytest.fail(f"resource leak after {request.node.nodeid}: "
                        + ", ".join(f"{k}={v}" for k, v in leaked.items()
                                    if v),
                        pytrace=False)
        time.sleep(0.05)


@pytest.fixture(autouse=True)
def _fresh_worker_pools(_sanitize_canary):
    # depends on the canary so this teardown (pool/memo/segment cleanup)
    # runs BEFORE the canary's leak check
    yield
    pool.shutdown_all()
    registry.clear_warm_models()
    shm.unlink_all()


class GatedBackend(Backend):
    """Serves one ``stub`` model; every reply waits for ``gate``.

    ``submitted`` counts requests that reached the backend;
    ``drain_closes`` / ``abort_closes`` count ``close`` calls by mode.
    Closing opens the gate, so no request outlives its gateway.
    """

    RESULT = np.full(2, 7.0, np.float32)

    def __init__(self):
        self.repository = ModelRepository({"stub": None}, persist=False)
        self.metrics = ServeMetrics()
        self.gate = threading.Event()
        self.submitted = 0
        self.drain_closes = 0
        self.abort_closes = 0

    def submit(self, model, inputs, fmt="MERSIT(8,2)", mode="fakequant",
               deadline_ms=None):
        self.submitted += 1
        fut = Future()

        def run():
            if self.gate.wait(30):
                fut.set_result(self.RESULT.copy())

        threading.Thread(target=run, daemon=True).start()
        return fut

    def stats(self):
        return {"gated": True}

    def render_stats(self):
        return "gated stub"

    def close(self, drain=True):
        if drain:
            self.drain_closes += 1
        else:
            self.abort_closes += 1
        self.gate.set()


@pytest.fixture()
def gated_backend():
    return GatedBackend()
