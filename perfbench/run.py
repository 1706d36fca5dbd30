"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gateway-closed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the same pass untraced and then again with span tracing installed,
prints the per-layer metrics of the traced pass and reports, per
end-to-end metric, how far tracing moved it.  Human-readable report
lines come first; the last stdout line is the JSON result.  The exit
code is 0 when every operation succeeded and matched the serial
reference, 1 when any failed, and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: environment switches that would change what is measured (fault
#: injection, lock sanitizer, kernel backend): the benchmark measures
#: the default configuration
_CLEARED_ENV = ("REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_KERNELS")
PROBE_REPS = 5


def _probe_loop(n: int = 200_000) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def host_probe() -> list[float]:
    """Milliseconds per run of a fixed pure-Python loop (diagnostic)."""
    out = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _probe_loop()
        out.append(round((time.perf_counter() - t0) * 1e3, 3))
    return out


def host_info() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def _stop_helpers() -> None:
    """Stop the shard worker pool and multiprocessing's resource tracker.

    Publishing shared-memory segments starts the tracker process, which
    would otherwise outlive the benchmark; its ``_stop`` is private API,
    hence the guard.
    """
    from multiprocessing import resource_tracker
    from repro.resilience import pool
    pool.shutdown_all()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    for var in _CLEARED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    probe_before = host_probe()
    workload = workloads.make(args.workload, args.seed)
    try:
        passes = [workload.run(args.seconds)]
        if args.trace:
            rec = spans.SpanRecorder()
            spans.install(rec)
            try:
                passes.append(workload.run(args.seconds, rec))
            finally:
                spans.uninstall(rec)
    finally:
        _stop_helpers()
    probe_after = host_probe()

    base = passes[0]
    units = {name: unit for name, unit, _ in layers.E2E + layers.PER_LAYER}
    if args.trace:
        values = layers.layer_metrics(rec.spans, passes[1], base)
    else:
        values = {name: base.e2e[name] for name, _, _ in layers.E2E}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0

    print(f"perfbench {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, unit, _ in layers.E2E:
        line = f"  {name:<16} {base.e2e[name]:12.4f} {unit}"
        if args.trace:
            line += (f"   traced {passes[1].e2e[name]:12.4f}"
                     f"   overhead {values['overhead_pct.' + name]:+7.2f}%")
        print(line)
    kept = {k: base.e2e[k] for k in ("windows", "kept", "samples",
                                     "supported_percentile", "window_rps",
                                     "pass_s") if k in base.e2e}
    print(f"  summary  {json.dumps(kept)}  notes {json.dumps(base.notes)}")
    print(f"  requests attempted {attempted}  failed {failed}  "
          f"mismatches {sum(p.mismatches for p in passes)}")
    print("  host " + json.dumps({**host_info(), "probe_before_ms": probe_before,
                                  "probe_after_ms": probe_after}))
    if args.trace:
        for name, _, _ in layers.PER_LAYER:
            print(f"  {name:<32} {values[name]:14.4f} {units[name]}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(v), "unit": units[name]}
                          for name, v in values.items()}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
