"""Summary rules that turn raw timings into the benchmark's metrics.

The host this benchmark runs on has *episodes*: stretches of seconds to
minutes in which the same work runs 1.2-1.7x slower.  A mean over a
whole run moves with however much of the run an episode covered, so
every gated number here is taken from the parts of a run that episodes
did not touch:

* serving workloads split the timed phase into consecutive *fixed-work
  windows* (the same number of completed requests each) and keep the
  fastest fraction of them; throughput and latency percentiles come
  from the kept windows only (:func:`serving_summary`);
* engine-eval runs fixed-work passes and keeps, per model-format cell,
  its fastest execution; the metrics describe the composite best pass
  (:func:`engine_summary`);
* set-up time is the median of several cold set-ups (:func:`median_setup`).

An episode longer than a whole run still moves that run's numbers.

Alongside ``p50_ms``/``p99_ms``, a serving summary states the highest
percentile its sample supports: the highest with at least
:data:`MIN_BEYOND` samples beyond it (:func:`supported_percentile`).
"""

from __future__ import annotations

import math
import statistics

import numpy as np

#: percentiles a latency report may use, lowest first
CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation, numpy's default)."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def supported_percentile(n: int, candidates=CANDIDATE_PERCENTILES) -> float | None:
    """The highest candidate percentile with >= MIN_BEYOND samples beyond it."""
    best = None
    for q in sorted(candidates):
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def fixed_work_windows(t_start: float, done_times, per_window: int) -> list[tuple[int, int, float]]:
    """Split sorted completion times into windows of ``per_window`` completions.

    Window ``i`` holds completions ``[i*P, (i+1)*P)`` and lasts from the
    previous window's last completion (``t_start`` for the first) to its
    own last one.  A trailing partial window is dropped.  Returns
    ``(lo, hi, seconds)`` index ranges into ``done_times``.
    """
    if per_window < 1:
        raise ValueError("per_window must be >= 1")
    windows = []
    prev = t_start
    for lo in range(0, len(done_times) - per_window + 1, per_window):
        hi = lo + per_window
        end = done_times[hi - 1]
        windows.append((lo, hi, end - prev))
        prev = end
    return windows


def fastest_windows(windows, fraction: float) -> list[tuple[int, int, float]]:
    """The fastest ``ceil(fraction * len(windows))`` windows (at least one)."""
    if not windows:
        raise ValueError("no complete window: the run was too short")
    keep = max(1, math.ceil(fraction * len(windows)))
    return sorted(windows, key=lambda w: w[2])[:keep]


def serving_summary(t_start: float, done_times, latencies_ms, *,
                    per_window: int, fraction: float) -> dict:
    """Throughput and latency over the fastest fixed-work windows.

    ``done_times`` (seconds, sorted) and ``latencies_ms`` are aligned
    per completed request.  ``rps`` is the kept windows' completions
    over their summed duration; ``p50_ms``/``p99_ms`` pool the kept
    windows' latencies.
    """
    windows = fixed_work_windows(t_start, done_times, per_window)
    kept = fastest_windows(windows, fraction)
    lat = np.concatenate([np.asarray(latencies_ms[lo:hi]) for lo, hi, _ in kept])
    seconds = sum(w[2] for w in kept)
    return {"rps": len(lat) / seconds,
            "p50_ms": percentile(lat, 50),
            "p99_ms": percentile(lat, 99),
            "windows": len(windows), "kept": len(kept),
            "window_rps": [round(per_window / w[2], 1) for w in windows],
            "samples": int(len(lat)),
            "supported_percentile": supported_percentile(len(lat))}


def engine_summary(cell_seconds: dict, batch: int) -> dict:
    """Metrics of the composite best pass over model-format cells.

    ``cell_seconds`` maps each cell, in pass order, to the durations of
    its executions; the composite pass takes every cell's fastest one.
    The pass is an evaluation job over ``batch`` samples per cell: a
    sample's latency runs from the start of the job to the end of its
    cell's batch, and ``p50_ms``/``p99_ms`` are percentiles of those
    sample latencies.
    """
    best = {cell: min(times) for cell, times in cell_seconds.items() if times}
    if not best:
        raise ValueError("no cell completed an execution")
    done_ms = np.cumsum(list(best.values())) * 1e3
    samples_ms = np.repeat(done_ms, batch)
    seconds = done_ms[-1] / 1e3
    return {"samples_per_s": len(best) * batch / seconds,
            "rps": len(best) / seconds,
            "p50_ms": percentile(samples_ms, 50),
            "p99_ms": percentile(samples_ms, 99),
            "pass_s": seconds, "best_ms": {c: t * 1e3 for c, t in best.items()}}


def median_setup(windows) -> tuple[tuple[float, float], float]:
    """The median of several ``(start, end)`` set-up windows and its duration.

    With an even count it is the lower of the two middle ones, so the
    reported duration is always one that was measured.
    """
    if not windows:
        raise ValueError("no timings")
    mid = statistics.median_low([b - a for a, b in windows])
    window = next(w for w in windows if w[1] - w[0] == mid)
    return window, float(mid)


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
