#!/usr/bin/env sh
# Repo-wide CI gate: static analysis + tier-1 tests.
#
#   scripts/check.sh           # lint + netlist verify + tier-1 pytest
#   scripts/check.sh --slow    # additionally run the slow sweeps
#   scripts/check.sh --chaos   # only the fault-injection recovery suite
#   scripts/check.sh --serve   # only the inference-service suite
#   scripts/check.sh --grid    # only the worker-pool fabric smoke
#   scripts/check.sh --shard   # only the sharded-serving suite
#   scripts/check.sh --net     # only the network-gateway suite
#   scripts/check.sh --engine  # only the engine differential/round-trip
#                              # suites, slow deep fuzz included
#   scripts/check.sh --sanitize  # serve/shard/grid/net under REPRO_SANITIZE=1
#
# Exits non-zero on the first failing stage.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

if [ "${1:-}" = "--chaos" ]; then
    echo "== chaos (fault-injection) suite =="
    python -m pytest -x -q -m chaos
    echo "check.sh: chaos suite passed"
    exit 0
fi

if [ "${1:-}" = "--grid" ]; then
    echo "== grid (worker-pool fabric) smoke =="
    python -m pytest -x -q -m grid
    echo "check.sh: grid smoke passed"
    exit 0
fi

if [ "${1:-}" = "--serve" ]; then
    echo "== serve (inference service) suite =="
    python -m pytest -x -q -m serve
    echo "check.sh: serve suite passed"
    exit 0
fi

if [ "${1:-}" = "--shard" ]; then
    echo "== shard (multi-process serving) suite =="
    python -m pytest -x -q -m shard
    echo "check.sh: shard suite passed"
    exit 0
fi

if [ "${1:-}" = "--net" ]; then
    echo "== net (gateway) suite =="
    python -m pytest -x -q -m net
    echo "check.sh: net suite passed"
    exit 0
fi

if [ "${1:-}" = "--engine" ]; then
    echo "== engine (exact Kulisch re-encode) suite =="
    python -m pytest -x -q -m engine
    echo "check.sh: engine suite passed"
    exit 0
fi

if [ "${1:-}" = "--sanitize" ]; then
    echo "== serve/shard/grid/net suites under the runtime sanitizer =="
    REPRO_SANITIZE=1 python -m pytest -x -q -m "serve or shard or grid or sanitize or net"
    echo "check.sh: sanitize suite passed"
    exit 0
fi

echo "== repro analyze lint =="
python -m repro.cli analyze lint

echo "== repro analyze netlist --all =="
python -m repro.cli analyze netlist --all

echo "== repro analyze concurrency =="
python -m repro.cli analyze concurrency

echo "== tier-1 pytest =="
python -m pytest -x -q

if [ "${1:-}" = "--slow" ]; then
    echo "== slow sweeps =="
    python -m pytest -x -q -m slow
fi

echo "check.sh: all gates passed"
