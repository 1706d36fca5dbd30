"""Bench engine: the true-quantized Kulisch matmul vs the Fraction reference.

Measures the two guarantees the ``repro.engine`` subsystem makes and
writes them to ``BENCH_engine.json`` at the repo root (override with
``--out``), so the performance trajectory is tracked from PR to PR:

* ``fuzz`` — bit-exactness: for every registered 8-bit format, seeded
  random code-vector dot products (special codes included) computed by
  the engine and by the exact-rational ``formats.arithmetic.dot``; the
  mismatch count must be zero.
* ``matmul_64`` — throughput: a 64x64 code matmul through ``qmatmul``
  vs the same products through the Fraction reference, per format.  The
  engine is required to be at least 20x faster (it is typically several
  hundred times faster).  Engine timings visit the formats round-robin,
  ``reps`` back-to-back matmuls per format per round over ``rounds``
  rounds, and keep each format's fastest, so a slow stretch of the host
  lands on every format alike instead of on whichever ran during it.

Usage::

    python benchmarks/bench_engine.py [--fast] [--dots N] [--out PATH]

``--fast`` shrinks the fuzz count and matrix size (used by the tier-1
smoke test; the >=20x floor is only asserted in the full run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import planes_for, qdot, qmatmul  # noqa: E402
from repro.formats import registered_formats  # noqa: E402
from repro.formats.arithmetic import dot  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_engine.json"


def _host_meta() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def bench_fuzz(dots_per_format: int = 1000, max_len: int = 48,
               seed: int = 0) -> dict:
    """Engine vs exact-rational dot on random code vectors, per format."""
    rng = np.random.default_rng(seed)
    per_format = {}
    for fmt in registered_formats():
        mismatches = 0
        for _ in range(dots_per_format):
            n = int(rng.integers(1, max_len))
            a = rng.integers(0, fmt.ncodes, n)
            b = rng.integers(0, fmt.ncodes, n)
            if qdot(fmt, a, b) != dot(fmt, a, b)[0]:
                mismatches += 1
        per_format[fmt.name] = mismatches
    return {
        "dots_per_format": dots_per_format,
        "max_len": max_len,
        "seed": seed,
        "mismatches": per_format,
        "total_mismatches": sum(per_format.values()),
    }


def bench_matmul(size: int = 64, rounds: int = 3, reps: int = 40,
                 seed: int = 0) -> dict:
    """Engine vs Fraction-reference timing of a ``size x size`` matmul."""
    rng = np.random.default_rng(seed)
    operands = {}
    for fmt in registered_formats():
        planes_for(fmt)  # compile the planes outside the timed region
        operands[fmt.name] = (fmt, rng.integers(0, fmt.ncodes, (size, size)),
                              rng.integers(0, fmt.ncodes, (size, size)))
    engine_ms = {name: float("inf") for name in operands}
    for _ in range(rounds):
        for name, (fmt, a, b) in operands.items():
            for _ in range(reps):
                t0 = time.perf_counter()
                qmatmul(fmt, a, b)
                engine_ms[name] = min(engine_ms[name],
                                      (time.perf_counter() - t0) * 1e3)
    per_format = {}
    for name, (fmt, a, b) in operands.items():
        # the reference is ~1000x slower; one run is plenty of signal
        t0 = time.perf_counter()
        c_ref = np.array([[dot(fmt, a[i], b[:, j])[0] for j in range(size)]
                          for i in range(size)])
        reference_ms = (time.perf_counter() - t0) * 1e3
        per_format[name] = {
            "engine_ms": engine_ms[name],
            "reference_ms": reference_ms,
            "speedup": reference_ms / engine_ms[name],
            "bit_exact": bool(np.array_equal(qmatmul(fmt, a, b), c_ref)),
        }
    return {
        "size": size,
        "rounds": rounds,
        "reps": reps,
        "seed": seed,
        "per_format": per_format,
        "min_speedup": min(v["speedup"] for v in per_format.values()),
        "all_bit_exact": all(v["bit_exact"] for v in per_format.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small sizes for smoke testing")
    parser.add_argument("--dots", type=int, default=1000,
                        help="fuzzed dot products per format (default 1000)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    payload = {"host": _host_meta()}
    if args.fast:
        payload["fuzz"] = bench_fuzz(dots_per_format=min(args.dots, 50))
        payload["matmul_64"] = bench_matmul(size=16, rounds=2, reps=2)
    else:
        payload["fuzz"] = bench_fuzz(dots_per_format=args.dots)
        payload["matmul_64"] = bench_matmul()

    f = payload["fuzz"]
    print(f"fuzz: {f['dots_per_format']} dots x {len(f['mismatches'])} formats, "
          f"{f['total_mismatches']} mismatches")
    m = payload["matmul_64"]
    for name, v in m["per_format"].items():
        print(f"matmul {m['size']}x{m['size']} {name}: "
              f"engine {v['engine_ms']:.2f} ms, "
              f"reference {v['reference_ms']:.0f} ms, "
              f"speedup x{v['speedup']:.0f}, bit_exact={v['bit_exact']}")
    print(f"min speedup x{m['min_speedup']:.0f}, "
          f"all_bit_exact={m['all_bit_exact']}")

    ok = f["total_mismatches"] == 0 and m["all_bit_exact"]
    if not args.fast:
        ok = ok and m["min_speedup"] >= 20.0
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    if not ok:
        print("FAIL: engine diverged from the reference or missed the "
              "20x speedup floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
