"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload engine-eval --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another, and prints
for every end-to-end metric its median, its quartile spread (distance
between the first and third quartiles over the median) and how that
spread compares with the metric's bound in ``BENCHMARK.json``.  A spread
within a third of its bound is reported ``steady``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-5"`` -> [1, 2, 3, 4, 5]; ``"3,7"`` -> [3, 7]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", f"{args.seconds:g}", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k} {v['value']:.4g}"
                                           for k, v in result["metrics"].items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        bound = bounds[name]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        report[name] = {"median": statistics.median(vals), "spread": spread,
                        "bound": bound, "verdict": verdict}
        print(f"{name:<16} median {statistics.median(vals):12.4f}  "
              f"spread {spread:7.2%}  bound {bound:.0%}  {verdict}")
    print(json.dumps({"workload": args.workload, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
