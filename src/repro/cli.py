"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
formats
    List the supported formats with ranges and precision.
inspect FORMAT [VALUE|CODE]
    Decode a code (``0x..``/``0b..``/int) or encode a value.
ptq MODEL [--formats F1,F2] [--eval N] [--mode fakequant|engine]
    Run the paper's PTQ recipe on one zoo model (optionally through the
    bit-true quantized inference engine).
hardware [--formats F1,F2] [--stream N]
    Build the MAC units, verify exactness and report area/power.
experiments [NAMES...] [--jobs N] [--seeds K] [--cell-timeout S] [--retries N]
    Run experiment drivers (table1 fig2 fig4 fig6 fig7 table3 headline
    table2 engine_delta frontier, or ``all``); defaults to the fast
    set.  ``frontier`` fills the mixed-precision accuracy-vs-hardware-
    cost Pareto frontier (per-layer format allocation + DFQ bias
    correction).  ``--jobs`` fans the independent-cell grids (table2,
    frontier, fig4, fig6, table3) across the persistent worker pool;
    ``--seeds K`` adds a K-seed calibration axis to table2/frontier
    (error bars); ``--cell-timeout``/``--retries`` configure the
    resilient executor (hung-worker deadline, retry budget).
serve MODEL [--format F] [--mode fakequant|engine] [--requests N]
      [--concurrency C] [--open --rate R] [--shards N] [--stats]
      [--host H --port P [--drain-timeout S]]
    Run the dynamic-batching inference service and drive it with the
    deterministic load generator; ``--shards N`` fans requests across N
    worker processes sharing calibrated state through shared memory;
    ``--stats`` prints the latency/queue/batch metrics afterwards
    (latency quantiles within 1% from log-bucketed histograms, merged
    across the fleet when sharded).  With ``--host``/
    ``--port`` the service is exposed through the TCP gateway instead of
    the load generator: the process prints ``gateway listening on H:P``
    and serves until SIGTERM/SIGINT triggers a graceful drain (in-flight
    requests finish, new ones get a structured ``draining`` error) and
    the process exits 0.
faults
    List the fault-injection points of the resilience harness and
    whatever ``$REPRO_FAULTS`` currently arms.
analyze netlist [NAMES...|--all] [--json]
    Structural verification + levelized depth report over the registered
    gate-level netlists (decoders, encoders, MACs).
analyze lint [PATHS...] [--json]
    Numerics linter over a source tree (default: ``src/repro``).
analyze concurrency [PATHS...] [--json]
    Concurrency analyzer (lock order, blocking-under-lock, shared state,
    fork-after-thread, shm lifecycle) over a source tree.
"""

from __future__ import annotations

import argparse
import re

import numpy as np

__all__ = ["main", "build_parser"]


def _split_formats(spec: str) -> list[str]:
    """Split a comma-separated format list, ignoring commas inside parens."""
    return [tok.strip() for tok in re.split(r",(?![^()]*\))", spec) if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MERSIT (DAC'24) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("formats", help="list supported formats")

    p_inspect = sub.add_parser("inspect", help="inspect one format")
    p_inspect.add_argument("format")
    p_inspect.add_argument("token", nargs="?", default=None,
                           help="a code (0x.., 0b.., int) or a float value")

    p_ptq = sub.add_parser("ptq", help="PTQ one zoo model")
    p_ptq.add_argument("model")
    p_ptq.add_argument("--formats", default="INT8,FP(8,4),Posit(8,1),MERSIT(8,2)")
    p_ptq.add_argument("--eval", type=int, default=300, dest="eval_n")
    p_ptq.add_argument("--calib", type=int, default=100, dest="calib_n")
    p_ptq.add_argument("--mode", default="fakequant",
                       choices=("fakequant", "engine"),
                       help="fakequant estimate or bit-true engine inference")

    p_hw = sub.add_parser("hardware", help="MAC area/power report")
    p_hw.add_argument("--formats", default="FP(8,4),Posit(8,1),MERSIT(8,2)")
    p_hw.add_argument("--stream", type=int, default=256)

    p_exp = sub.add_parser("experiments", help="run experiment drivers")
    p_exp.add_argument("names", nargs="*", default=[],
                       help="experiment names, or 'all' (default: fast set)")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the independent-cell "
                            "grids (table2, frontier, fig4, fig6, table3)")
    p_exp.add_argument("--seeds", type=int, default=1,
                       help="calibration seeds per table2/frontier cell "
                            "(>1 adds the error-bar axis)")
    p_exp.add_argument("--cell-timeout", type=float, default=None,
                       dest="cell_timeout",
                       help="per-cell deadline (s) for the table2/frontier "
                            "pool")
    p_exp.add_argument("--retries", type=int, default=None,
                       help="retry budget for failing table2/frontier cells")

    p_serve = sub.add_parser(
        "serve", help="run the dynamic-batching inference service")
    p_serve.add_argument("model", help="zoo model name, or micro-cnn/"
                         "micro-mlp/micro-attn (no training cost)")
    p_serve.add_argument("--format", default="MERSIT(8,2)", dest="fmt")
    p_serve.add_argument("--mode", default="fakequant",
                         choices=("fakequant", "engine"))
    p_serve.add_argument("--requests", type=int, default=64)
    p_serve.add_argument("--concurrency", type=int, default=8,
                         help="closed-loop client threads")
    p_serve.add_argument("--open", action="store_true", dest="open_loop",
                         help="open-loop arrivals instead of closed-loop")
    p_serve.add_argument("--rate", type=float, default=200.0,
                         help="open-loop arrival rate (req/s)")
    p_serve.add_argument("--max-batch", type=int, default=8)
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0)
    p_serve.add_argument("--queue-depth", type=int, default=64)
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request deadline")
    p_serve.add_argument("--calib", type=int, default=64, dest="calib_n")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--shards", type=int, default=0,
                         help="fan out across N shard worker processes "
                         "(0 = in-process service)")
    p_serve.add_argument("--stats", action="store_true",
                         help="print service metrics after the run "
                         "(quantiles within 1%%; merged fleet-wide with "
                         "--shards)")
    p_serve.add_argument("--host", default=None,
                         help="expose the service over TCP on this "
                         "address (gateway mode; implies no loadgen)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="gateway port (0 picks a free port; "
                         "the bound port is printed on stdout)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         dest="drain_timeout",
                         help="seconds a graceful drain waits for "
                         "in-flight requests (gateway mode)")

    p_faults = sub.add_parser(
        "faults", help="list fault-injection points and armed faults")
    p_faults.add_argument("--spec", default=None,
                          help="parse this spec instead of $REPRO_FAULTS")

    p_an = sub.add_parser("analyze", help="static analysis passes")
    an_sub = p_an.add_subparsers(dest="analyze_command", required=True)
    p_nl = an_sub.add_parser("netlist", help="verify gate-level netlists")
    p_nl.add_argument("names", nargs="*", default=[],
                      help="registered variant names (see --all)")
    p_nl.add_argument("--all", action="store_true", dest="all_variants",
                      help="verify every registered variant")
    _add_report_args(p_nl, paths=False)
    _add_report_args(an_sub.add_parser("lint", help="numerics linter"))
    _add_report_args(an_sub.add_parser(
        "concurrency", help="lock-order / shared-state / shm analyzer"))
    return parser


def _add_report_args(sub: argparse.ArgumentParser,
                     paths: bool = True) -> argparse.ArgumentParser:
    """The shared ``[PATHS...] --json`` tail of every ``analyze`` subcommand.

    ``netlist`` takes variant names instead of paths but shares the
    ``--json`` switch (and with it the exit-code contract: 0 clean,
    1 findings, 2 usage error from argparse).
    """
    if paths:
        sub.add_argument("paths", nargs="*", default=[],
                         help="files or directories (default: src/repro)")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable report on stdout")
    return sub


def _cmd_formats() -> int:
    from .formats import available_formats, get_format
    from .formats.analysis import summarize
    print(f"{'name':14s} {'range':>14s}  P  M   W  max frac")
    for name in available_formats():
        s = summarize(get_format(name))
        print(f"{name:14s} {s.dynamic_range:>14s} {s.exponent_width:>2d} "
              f"{s.significand_bits:>2d} {s.product_width:>3d} "
              f"{s.significand_bits - 1:>8d}")
    return 0


def _cmd_inspect(args) -> int:
    from .formats import get_format
    fmt = get_format(args.format)
    if args.token is None:
        from .formats.analysis import precision_segments
        print(f"{fmt.name}: range {fmt.dynamic_range}, "
              f"{len(fmt.finite_values)} finite values")
        for lo, hi, bits in precision_segments(fmt):
            print(f"  2^{lo:>4d} .. 2^{hi:>4d}: {bits} fraction bits")
        return 0
    token = args.token
    if token.lower().startswith(("0x", "0b")) or token.isdigit():
        code = int(token, 0)
        d = fmt.decode(code)
        print(f"code 0b{code:0{fmt.nbits}b}: {d.value} ({d.value_class})")
        if d.is_finite:
            print(f"  sign={d.sign} regime={d.regime} "
                  f"eff_exp={d.effective_exponent} "
                  f"frac={d.fraction_field}/{1 << (d.fraction_bits or 0)}")
    else:
        value = float(token)
        code = fmt.encode(value)
        print(f"{value} -> code 0x{code:02X} = {fmt.decode(code).value}")
    return 0


def _cmd_ptq(args) -> int:
    from .autograd import Tensor
    from .quant import (PTQConfig, dequantize_model, parse_format_spec,
                        quantize_model)
    from .zoo import ALL_MODELS, dataset, evaluate_text, evaluate_vision, glue_task, pretrained
    if args.model not in ALL_MODELS:
        print(f"unknown model {args.model!r}; available: {sorted(ALL_MODELS)}")
        return 2
    entry = ALL_MODELS[args.model]
    model, ref = pretrained(args.model)
    if entry.kind == "vision":
        calib = dataset().calibration_split(args.calib_n)
        test = dataset().test_split(args.eval_n)
        fwd = lambda m, b: m(Tensor(b[0]))
        score = lambda: evaluate_vision(model, test)
    else:
        task = glue_task(entry.task)
        calib = task.calibration_split(args.calib_n)
        test = task.test_split(args.eval_n)
        fwd = lambda m, b: m(b[0], b[1])
        score = lambda: evaluate_text(model, test, entry.metric)
    fp32 = score()
    print(f"{args.model} FP32 {entry.metric}: {fp32:.2f} (train-time ref {ref:.2f})")
    for name in _split_formats(args.formats):
        default, layer_formats = parse_format_spec(name.strip())
        quantize_model(model,
                       PTQConfig(weight_format=default,
                                 layer_formats=layer_formats or None,
                                 mode=args.mode),
                       calib.batches(50), forward=fwd)
        s = score()
        dequantize_model(model)
        print(f"  {name.strip():12s} {s:7.2f}  (drop {fp32 - s:+.2f})")
    return 0


def _cmd_hardware(args) -> int:
    from .formats import get_format
    from .hardware import MacUnit
    rng = np.random.default_rng(0)
    w = rng.integers(0, 256, args.stream)
    a = rng.integers(0, 256, args.stream)
    print(f"{'format':12s} {'exact':>6s} {'area um^2':>10s} {'power uW':>9s} "
          f"{'path ns':>8s} {'levels':>7s} {'acc bits':>9s}")
    for name in _split_formats(args.formats):
        fmt = get_format(name)
        mac = MacUnit(fmt)
        exact = mac.accumulate_hw(w[:48], a[:48]) == mac.accumulate_reference(w[:48], a[:48])
        area = mac.area().total
        power = mac.power(w, a).total
        path = mac.circuit.critical_path()
        depth = mac.circuit.logic_depth()
        print(f"{fmt.name:12s} {'yes' if exact else 'NO':>6s} {area:10.0f} "
              f"{power:9.1f} {path:8.2f} {depth:7d} {mac.acc_width:9d}")
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import (
        analyze_concurrency, analyze_lint, analyze_netlists,
        render_depth_report,
    )
    from .analysis.levelize import DepthRow
    if args.analyze_command == "netlist":
        names = None if (args.all_variants or not args.names) else args.names
        report = analyze_netlists(names)
        if args.json:
            print(report.to_json())
        else:
            rows = [DepthRow(variant=n, logic_depth=d["logic_depth"],
                             gate_count=d["gate_count"],
                             critical_path_ns=d["critical_path_ns"],
                             depth_by_output=d["depth_by_output"])
                    for n, d in report.summary["depth"].items()]
            print(render_depth_report(rows))
            print()
            print(report.render())
    else:
        run = (analyze_concurrency if args.analyze_command == "concurrency"
               else analyze_lint)
        report = run(args.paths or None)
        if args.json:
            print(report.to_json())
        else:
            print(report.render())
    return 0 if report.ok else 1


def _cmd_experiments(args) -> int:
    from .experiments.runner import main as run_experiments
    # always pass an explicit argv: None would make the runner re-parse
    # this process's sys.argv (and swallow this CLI's own arguments)
    argv = list(args.names)
    if args.jobs != 1:
        argv += ["--jobs", str(args.jobs)]
    if args.seeds != 1:
        argv += ["--seeds", str(args.seeds)]
    if args.cell_timeout is not None:
        argv += ["--cell-timeout", str(args.cell_timeout)]
    if args.retries is not None:
        argv += ["--retries", str(args.retries)]
    return run_experiments(argv)


def _cmd_serve(args) -> int:
    from .serve import (
        BatchPolicy, InferenceService, ModelRepository, ShardRouter,
        micro_specs, run_closed_loop, run_open_loop, zoo_specs,
    )
    micro = micro_specs()
    if args.model in micro:
        specs, specs_kind, zoo_names = micro, "micro", None
    else:
        try:
            specs = zoo_specs([args.model])
            specs_kind, zoo_names = "zoo", [args.model]
        except KeyError:
            from .zoo import ALL_MODELS
            print(f"unknown model {args.model!r}; available: "
                  f"{sorted(ALL_MODELS) + sorted(micro)}")
            return 2
    policy = BatchPolicy(max_batch=args.max_batch,
                         max_wait_ms=args.max_wait_ms,
                         queue_depth=args.queue_depth, workers=args.workers)
    if args.shards > 0:
        service = ShardRouter(
            shards=args.shards, specs=specs_kind, zoo_names=zoo_names,
            preheat=[(args.model, args.fmt, args.mode)],
            policy=policy, calib_n=args.calib_n)
    else:
        repository = ModelRepository(specs, calib_n=args.calib_n)
        service = InferenceService(repository, policy)
    if args.host is not None or args.port is not None:
        return _serve_gateway(service, args)
    with service:
        if args.open_loop:
            report = run_open_loop(
                service, args.model, args.fmt, args.mode,
                requests=args.requests, rate_rps=args.rate,
                seed=args.seed, deadline_ms=args.deadline_ms)
        else:
            report = run_closed_loop(
                service, args.model, args.fmt, args.mode,
                requests=args.requests, concurrency=args.concurrency,
                seed=args.seed, deadline_ms=args.deadline_ms)
        print(report.render())
        if args.stats:
            print(service.render_stats())
    return 0 if report.ok == report.requests else 1


def _serve_gateway(service, args) -> int:
    """Gateway mode: serve over TCP until a signal triggers drain."""
    import signal
    from .serve.gateway import Gateway

    gateway = Gateway(service,
                      host=args.host if args.host is not None
                      else "127.0.0.1",
                      port=args.port if args.port is not None else 0,
                      drain_timeout_s=args.drain_timeout)
    try:
        gateway.start()
    except RuntimeError as exc:
        service.close(drain=False)
        print(f"gateway failed to start: {exc}")
        return 1

    def _drain_handler(signum, frame):
        print(f"gateway: received signal {signum}; draining", flush=True)
        gateway.request_drain()

    signal.signal(signal.SIGTERM, _drain_handler)
    signal.signal(signal.SIGINT, _drain_handler)
    print(f"gateway listening on {gateway.host}:{gateway.port}",
          flush=True)
    while not gateway.wait_closed(timeout=0.5):
        pass
    if args.stats:
        print(gateway.render_stats())
    print("gateway drained; exiting", flush=True)
    return 0


def _cmd_faults(args) -> int:
    from .resilience import faults
    try:
        specs = (faults.parse_spec(args.spec) if args.spec is not None
                 else faults.active_faults())
    except faults.FaultSpecError as exc:
        print(f"invalid fault spec: {exc}")
        return 2
    print(faults.describe(specs))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "formats":
        return _cmd_formats()
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "ptq":
        return _cmd_ptq(args)
    if args.command == "hardware":
        return _cmd_hardware(args)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "faults":
        return _cmd_faults(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
