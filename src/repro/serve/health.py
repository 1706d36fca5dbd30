"""Background health supervision for the serving gateway.

A hung shard worker fails *silently* from a client's point of view: its
requests just never come back (until the router's deadline sweep expires
them one by one).  The supervisor makes that failure mode active: a
probe loop calls the backend's :meth:`~repro.serve.Backend.ping` on a
fixed interval, tracks consecutive missed probes per slot, and — once a
slot has been unreachable :data:`ESCALATE_AFTER` times in a row — escalates
to :meth:`~repro.serve.Backend.force_respawn` (on a
:class:`~repro.serve.ShardRouter`, a SIGKILL of the worker, whose
pipe-EOF the router's collector already knows how to revive).  Recovery
reuses the proven crash path instead of inventing a second one.

The supervisor drives any :class:`~repro.serve.Backend` the same way.
A router answers one liveness bit per shard, each a ``ping`` pipe
message the worker's main loop answers without touching its metrics, so
a probe costs the same after a day of traffic as after a second.  An
in-process :class:`~repro.serve.InferenceService` has no worker slots:
its ``ping()`` is empty, so it always reads ``ready`` and nothing is
ever respawned.

:meth:`HealthSupervisor.state` summarises to ``ready`` (every probe
healthy) or ``degraded`` (at least one slot failing probes); the gateway
overlays ``draining`` during shutdown.  This is what the wire ``health``
op returns to clients, so an external balancer can stop routing to a
degraded gateway before requests start dying.

The policy is three module constants (:data:`PROBE_INTERVAL_S`,
:data:`PROBE_TIMEOUT_S`, :data:`ESCALATE_AFTER`), read at each use; the
gateway is the only code that builds a supervisor.
"""

from __future__ import annotations

import threading

__all__ = ["HealthSupervisor"]


#: seconds between background probes
PROBE_INTERVAL_S = 0.5

#: how long one probe waits for each slot's ``ping`` reply
PROBE_TIMEOUT_S = 2.0

#: consecutive missed probes that escalate a slot to a forced respawn
ESCALATE_AFTER = 3


class HealthSupervisor:
    """Probe loop + escalation policy over one serving backend."""

    def __init__(self, service):
        self.service = service
        self._lock = threading.Lock()
        self._misses: dict[int, int] = {}
        self._forced: dict[int, int] = {}
        self._probes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="gateway-health", daemon=True)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start the background probe thread."""
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop probing and join the thread."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)

    # -- probe loop ------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.probe_once()

    def probe_once(self) -> list[bool]:
        """Ping every slot once; escalate persistent failures.

        Exposed for deterministic tests (drive the loop by hand instead
        of sleeping through intervals).
        """
        healthy = self.service.ping(timeout=PROBE_TIMEOUT_S)
        escalate: list[int] = []
        with self._lock:
            self._probes += 1
            for slot, ok in enumerate(healthy):
                if ok:
                    self._misses[slot] = 0
                    continue
                self._misses[slot] = self._misses.get(slot, 0) + 1
                if self._misses[slot] >= ESCALATE_AFTER:
                    self._misses[slot] = 0
                    self._forced[slot] = self._forced.get(slot, 0) + 1
                    escalate.append(slot)
        for slot in escalate:
            print(f"gateway health: shard {slot} missed "
                  f"{ESCALATE_AFTER} probes; forcing respawn",
                  flush=True)
            self.service.force_respawn(slot)
        return healthy

    # -- reporting -------------------------------------------------------
    def state(self) -> dict:
        """JSON-ready health summary for the wire ``health`` op."""
        with self._lock:
            misses = dict(self._misses)
            forced = dict(self._forced)
            probes = self._probes
        degraded = [slot for slot, n in misses.items() if n > 0]
        return {
            "state": "degraded" if degraded else "ready",
            "probes": probes,
            "degraded_slots": sorted(degraded),
            "consecutive_misses": {str(k): v for k, v in sorted(misses.items())
                                   if v},
            "forced_respawns": {str(k): v for k, v in sorted(forced.items())},
        }
