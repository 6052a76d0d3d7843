"""Command-line interface: regenerate the paper's experiments.

Installed as ``repro-overclock`` (see ``pyproject.toml``), or run as
``python -m repro.cli``.  Subcommands:

``model``
    Analytical error model vs stage-delay Monte-Carlo (Fig. 4 top).
``chains``
    Per-chain-delay statistics P_d, eps_d, P_d*eps_d (Fig. 5).
``multiplier``
    Gate-level overclocking sweep of the online multiplier against the
    conventional baseline (raw-operator version of the case study).
``sweep``
    Stage-delay latency-accuracy sweep of the online multiplier over a
    normalized-period grid, evaluated in one fused pass on the default
    vector engine (:mod:`repro.vec.fused`).
``synth``
    Latency-accuracy auto-synthesis of a demo datapath: search
    per-operator implementation (online / traditional), word length and
    clock period against an accuracy target and print the verified
    Pareto front (:func:`repro.synth.run_synthesis`).
``serve``
    Long-running evaluation daemon: Monte-Carlo / sweep / synthesis
    requests over a JSON-lines TCP protocol, with admission control,
    request coalescing and batching, deadlines and graceful drain
    (:mod:`repro.service`).  Every answer is computed; a failure is
    answered as one, never from the analytical model.
``filter``
    The Gaussian image-filter case study on one benchmark image
    (Fig. 6 / 7, Tables 1-2 style output).
``area``
    LUT/slice area comparison (Table 4).
``faults``
    Fault-injection campaign: degradation curves of the online vs
    conventional multiplier under clock jitter, delay drift, SEUs,
    metastable capture or stuck-at defects.
``probe``
    Per-stage digit-error telemetry: observed first-erroneous-digit
    and violation statistics vs the Algorithm-2 prediction.
``stats``
    Render the metrics snapshot recorded by the last traced run.
``trace``
    Render the span tree of a trace file written by ``--trace``.
``top``
    Tail a live daemon: a refreshing one-screen view of queue depths,
    drain state, per-run shard progress and cache hit rates from the
    ``statsz`` admin verb (``--once`` prints a single snapshot for CI).

Every experiment subcommand accepts ``--trace PATH``: the run exports a
JSONL span tree (config, shards, simulation, cache events) plus a final
metrics snapshot to *PATH*, and records it as the "last trace" so
``repro stats`` / ``repro trace --last`` work without arguments.
"""

from __future__ import annotations

import argparse
import sys


def _config_from_args(args: argparse.Namespace, **overrides):
    """Build the :class:`~repro.runners.RunConfig` a subcommand asked for.

    Flags the subcommand does not define fall back to the RunConfig
    defaults (which read ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``);
    ``--no-cache`` forces the cache off even when the environment
    configures one.
    """
    from repro.runners import RunConfig

    kwargs = {}
    for name in ("ndigits", "seed", "backend"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    if getattr(args, "jobs", None) is not None:
        kwargs["jobs"] = args.jobs
    if getattr(args, "no_cache", False):
        kwargs["cache_dir"] = None
    elif getattr(args, "cache_dir", None) is not None:
        kwargs["cache_dir"] = args.cache_dir
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.core.model import OverclockingErrorModel
    from repro.sim.montecarlo import run_montecarlo
    from repro.sim.reporting import format_run_stats, format_table

    config = _config_from_args(args)
    model = OverclockingErrorModel(args.ndigits)
    mc = run_montecarlo(config, num_samples=args.samples)
    if args.calibrate:
        model = model.calibrated([int(b) for b in mc.depths], mc.mean_abs_error)
        print(f"calibrated kappa = {model.kappa:.3f}")
    rows = []
    for i, b in enumerate(mc.depths):
        b = int(b)
        e_model = model.expected_error(b) if b < model.num_stages else 0.0
        rows.append(
            [b, f"{b / model.num_stages:.3f}",
             f"{mc.mean_abs_error[i]:.4e}", f"{e_model:.4e}",
             f"{mc.violation_probability[i]:.4f}"]
        )
    print(format_table(
        ["b", "Ts norm.", "MC E|eps|", "model E|eps|", "MC P(viol)"],
        rows,
        title=f"{args.ndigits}-digit online multiplier: model vs Monte-Carlo",
    ))
    print(format_run_stats(mc.run_stats))
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    from repro.core.model import OverclockingErrorModel
    from repro.sim.reporting import format_table

    model = OverclockingErrorModel(args.ndigits)
    rows = [
        [d, f"{p:.5f}", f"{eps:.4e}", f"{e:.4e}"]
        for d, p, eps, e in model.per_delay_curves()
    ]
    print(format_table(
        ["chain delay", "P_d", "eps_d", "P_d*eps_d"],
        rows,
        title=f"{args.ndigits}-digit OM chain statistics (Fig. 5)",
    ))
    return 0


def _cmd_multiplier(args: argparse.Namespace) -> int:
    from repro.sim.reporting import format_run_stats, format_table
    from repro.sim.sweep import run_sweep

    config = _config_from_args(args)
    runs = {
        design: run_sweep(config, design=design, num_samples=args.samples)
        for design in ("online", "traditional")
    }
    rows = []
    for name, run in runs.items():
        rows.append(
            [name, run.rated_step, run.error_free_step,
             f"{100 * (run.rated_step / run.error_free_step - 1):.1f}%"]
        )
    print(format_table(
        ["design", "rated period", "error-free period", "headroom"], rows
    ))
    rows = []
    for factor in (1.05, 1.10, 1.15, 1.20, 1.25, 1.30):
        rows.append(
            [f"{factor:.2f}x",
             f"{runs['online'].at_normalized_frequency(factor):.3e}",
             f"{runs['traditional'].at_normalized_frequency(factor):.3e}"]
        )
    print()
    print(format_table(
        ["overclock", "online mean |err|", "traditional mean |err|"],
        rows,
        title="product error vs normalized frequency (gate level)",
    ))
    for run in runs.values():
        print(format_run_stats(run.run_stats))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.reporting import format_run_stats, format_table
    from repro.sim.sweep import run_sweep

    config = _config_from_args(args)
    res = run_sweep(
        config,
        design="online",
        num_samples=args.samples,
        timing="stage",
        periods=args.periods,
    )
    rows = []
    for i, b in enumerate(res.steps):
        b = int(b)
        rows.append(
            [b, f"{b / res.settle_step:.3f}",
             f"{res.mean_abs_error[i]:.4e}",
             f"{res.violation_probability[i]:.4f}"]
        )
    print(format_table(
        ["b", "Ts norm.", "mean |err|", "P(viol)"],
        rows,
        title=(
            f"{config.ndigits}-digit online multiplier: stage-delay "
            f"latency-accuracy sweep"
        ),
    ))
    print(
        f"rated period {res.rated_step} ticks, measured error-free period "
        f"{res.error_free_step} ticks"
    )
    print(format_run_stats(res.run_stats))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.sim.reporting import format_run_stats
    from repro.synth import AccuracyTarget, run_synthesis
    from repro.synth.demos import demo_datapath
    from repro.synth.search import check_wordlength

    flag = "--wordlengths" if args.wordlengths is not None else "--ndigits"
    for n in args.wordlengths or [args.ndigits]:
        try:
            check_wordlength(n)
        except ValueError as exc:
            args.parser.error(f"argument {flag}: {exc}")

    try:
        if args.target_snr is not None:
            target = AccuracyTarget("snr", args.target_snr)
        else:
            target = AccuracyTarget("mre", args.target_mre)
    except ValueError as exc:
        print(f"repro-overclock synth: error: {exc}", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    datapath = demo_datapath(args.datapath, config.ndigits)
    kwargs = {}
    if args.wordlengths is not None:
        kwargs["wordlengths"] = args.wordlengths
    if args.periods is not None:
        kwargs["periods"] = args.periods
    report = run_synthesis(
        config, datapath, target, num_samples=args.samples, **kwargs
    )
    print(report.summary())
    point = report.chosen_point
    if point is not None:
        assign = ", ".join(
            f"{k}={v}" for k, v in sorted(point["assignment"].items())
        )
        print(
            f"chosen: n={point['ndigits']} b={point['b']} "
            f"({point['latency_gates']:.1f} gate delays, "
            f"{point['area_luts']} LUTs) [{assign}]"
        )
    print(format_run_stats(report.run_stats))
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    from repro.imaging import run_filter_study
    from repro.sim.reporting import format_run_stats, format_table

    factors = (1.05, 1.10, 1.15, 1.20, 1.25)
    config = _config_from_args(args)
    study = run_filter_study(
        config,
        images=(args.image,),
        arithmetics=("traditional", "online"),
        factors=factors,
        size=args.size,
    )
    for arith in ("traditional", "online"):
        steps = study.steps(arith, args.image)
        print(
            f"{arith}: rated {steps['rated_step']}, error-free "
            f"{steps['error_free_step']} quanta"
        )
    rows = []
    for factor in factors:
        row = [f"{factor:.2f}x"]
        for arith in ("traditional", "online"):
            row.append(f"{study.mre(arith, args.image, factor):.3f}%")
            row.append(f"{study.snr(arith, args.image, factor):.1f}")
        rows.append(row)
    print()
    print(format_table(
        ["freq", "trad MRE", "trad SNR", "online MRE", "online SNR"],
        rows,
        title=f"Gaussian filter on '{args.image}' ({args.size}x{args.size})",
    ))
    print(format_run_stats(study.run_stats))
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    from repro.arith.array_multiplier import build_array_multiplier
    from repro.core.online_multiplier import build_online_multiplier
    from repro.netlist.area import estimate_area
    from repro.sim.reporting import format_table

    n = args.ndigits
    trad = estimate_area(build_array_multiplier(n + 1))
    online = estimate_area(build_online_multiplier(n))
    rows = [
        ["LUTs", trad.luts, online.luts, f"{online.overhead_vs(trad):.2f}"],
        ["slices", trad.slices, online.slices,
         f"{online.slices / trad.slices:.2f}"],
    ]
    print(format_table(
        ["metric", "traditional", "online", "overhead"],
        rows,
        title=f"{n}-digit multiplier area (Table 4)",
    ))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import run_fault_campaign
    from repro.sim.reporting import (
        format_fault_stats,
        format_run_stats,
        format_table,
    )

    config = _config_from_args(args)
    if args.shard_timeout is not None:
        config = config.with_(shard_timeout=args.shard_timeout)
    rates = tuple(args.rates)
    result = run_fault_campaign(
        config,
        model=args.model,
        rates=rates,
        num_samples=args.samples,
        overclock=args.overclock,
    )
    rows = []
    for i, rate in enumerate(result.rates):
        rows.append(
            [f"{float(rate):.3f}",
             f"{result.online_error[i]:.4e}",
             f"{result.traditional_error[i]:.4e}"]
        )
    print(format_table(
        ["fault rate", "online rel. err", "traditional rel. err"],
        rows,
        title=(
            f"{config.ndigits}-digit multipliers under '{args.model}' "
            f"faults at {args.overclock:.2f}x clock"
        ),
    ))
    print(format_run_stats(result.run_stats))
    print(format_fault_stats(result.fault_stats))
    return 0


def _cmd_verilog(args: argparse.Namespace) -> int:
    from repro.arith.array_multiplier import build_array_multiplier
    from repro.arith.prefix_adder import build_kogge_stone_adder
    from repro.arith.ripple_carry import build_ripple_carry_adder
    from repro.core.online_adder import build_online_adder
    from repro.core.online_multiplier import build_online_multiplier
    from repro.netlist.verilog import to_verilog

    builders = {
        "online-mult": lambda n: build_online_multiplier(n),
        "online-adder": lambda n: build_online_adder(n),
        "trad-mult": lambda n: build_array_multiplier(n),
        "rca": lambda n: build_ripple_carry_adder(n),
        "kogge-stone": lambda n: build_kogge_stone_adder(n),
    }
    circuit = builders[args.what](args.ndigits)
    text = to_verilog(circuit, module_name=args.module)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
        print(
            f"wrote {args.output}: module "
            f"{args.module or circuit.name} "
            f"({circuit.num_gates} gates)"
        )
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.obs import run_stage_probe
    from repro.sim.reporting import format_run_stats, format_table

    config = _config_from_args(args)
    result = run_stage_probe(config, num_samples=args.samples)
    rows = [
        [r["depth"], f"{r['observed']:.4f}", f"{r['predicted']:.4f}",
         f"{r['abs_diff']:.4f}"]
        for r in result.compare_to_model()
    ]
    print(format_table(
        ["b", "MC P(viol)", "model P(viol)", "|diff|"],
        rows,
        title=(
            f"{config.ndigits}-digit online multiplier: observed vs "
            f"Algorithm-2 violation probability"
        ),
    ))
    print(f"mean propagation-chain depth = "
          f"{result.mean_chain_depth():.3f} stages")
    print(format_run_stats(result.run_stats))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.render import (
        last_trace_path,
        latest_metrics_snapshot,
        load_trace,
        render_metrics,
    )

    path = args.path or last_trace_path()
    if path is None:
        print("no trace recorded yet; run an experiment with --trace PATH",
              file=sys.stderr)
        return 1
    snapshot = latest_metrics_snapshot(load_trace(path))
    if snapshot is None:
        print(f"no metrics snapshot in {path}", file=sys.stderr)
        return 1
    print(f"metrics from {path}")
    print(render_metrics(snapshot))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.render import last_trace_path, load_trace, render_trace

    path = args.path or last_trace_path()
    if path is None:
        print("no trace recorded yet; run an experiment with --trace PATH",
              file=sys.stderr)
        return 1
    records = load_trace(path)
    if not records:
        print(f"empty or unreadable trace: {path}", file=sys.stderr)
        return 1
    print(f"trace from {path}")
    print(render_trace(records, show_events=not args.no_events))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from repro.obs.render import render_top
    from repro.service.client import request_once

    def fetch() -> str:
        try:
            statsz = request_once(
                args.host, args.port, "statsz", timeout=args.timeout
            )
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            return (
                f"cannot reach service at {args.host}:{args.port}: "
                f"{type(exc).__name__}: {exc}"
            )
        return render_top(statsz)

    if args.once:
        view = fetch()
        print(view)
        return 1 if view.startswith("cannot reach") else 0

    try:
        while True:
            view = fetch()
            # clear screen + cursor home, then one full frame
            sys.stdout.write("\x1b[2J\x1b[H")
            print(
                f"repro top — {args.host}:{args.port}  "
                f"(every {args.interval:g}s, ctrl-c quits)"
            )
            print(view, flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, run_service

    config = _config_from_args(args)

    def announce(port: int) -> None:
        print(
            f"repro service on {args.host}:{port} "
            f"(ndigits={config.ndigits}, jobs={config.jobs}, "
            f"concurrency={args.concurrency}); "
            f"SIGTERM drains gracefully",
            flush=True,
        )

    service_config = ServiceConfig(
        run_config=config,
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        default_deadline=args.deadline,
        drain_timeout=args.drain_timeout,
    )
    run_service(service_config, on_start=announce)
    return 0


def _int_at_least(minimum: int):
    """argparse type of a size flag: a whole number >= *minimum*."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)


def _unit_interval(text: str) -> float:
    """argparse type of a fault rate: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of a clock period: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    from repro.netlist.engines import BACKENDS

    p.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS),
        help="simulation engine (default: chosen per workload — vector "
             "for OM-wave runs, packed for gate-level netlists): "
             "compiled bit-packed, interpreting waveform, or vector "
             "(digit-level behavioral; netlist runs use packed)",
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for sharded experiments "
             "(default: $REPRO_JOBS or 1)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result-cache directory "
             "(default: $REPRO_CACHE_DIR; unset disables caching)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache even if $REPRO_CACHE_DIR is set",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="export a JSONL span tree and metrics snapshot of this run "
             "to PATH (see 'repro trace' / 'repro stats')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-overclock",
        description="Regenerate the online-arithmetic overclocking experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "model",
        aliases=["montecarlo"],
        help="error model vs Monte-Carlo (Fig. 4)",
    )
    p.add_argument("--ndigits", type=_positive_int, default=8)
    p.add_argument("--samples", type=_positive_int, default=20000)
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument("--calibrate", action="store_true",
                   help="fit kappa to the Monte-Carlo before reporting")
    _add_backend_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("chains", help="chain-delay statistics (Fig. 5)")
    p.add_argument("--ndigits", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("multiplier", help="gate-level multiplier sweep")
    p.add_argument("--ndigits", type=_positive_int, default=8)
    p.add_argument("--samples", type=_positive_int, default=3000)
    p.add_argument("--seed", type=int, default=2014)
    _add_backend_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_multiplier)

    p = sub.add_parser(
        "sweep",
        help="stage-delay latency-accuracy sweep (fused on the "
             "default vector engine)",
    )
    p.add_argument("--ndigits", type=_positive_int, default=8)
    p.add_argument("--samples", type=_positive_int, default=20000)
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument(
        "--periods",
        type=_positive_float,
        nargs="+",
        default=None,
        metavar="P",
        help="normalized clock periods (fractions of the structural "
             "delay); default sweeps every chain-cut depth 0 .. N+delta",
    )
    _add_backend_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "synth",
        help="latency-accuracy auto-synthesis of a demo datapath "
             "(Pareto front + chosen assignment)",
    )
    p.add_argument(
        "--datapath",
        default="prodsum",
        choices=["prodsum", "mac", "dot3"],
        help="demo dataflow graph: product-of-products + sum (4 ops, "
             "mixed-optimal), multiply-accumulate (3 ops), or a 3-tap "
             "dot product (5 ops)",
    )
    p.add_argument("--ndigits", type=_positive_int, default=6)
    p.add_argument(
        "--wordlengths",
        type=_positive_int,
        nargs="+",
        default=None,
        metavar="N",
        help="word lengths to search (default: just --ndigits)",
    )
    p.add_argument("--target-mre", type=float, default=5.0,
                   help="accuracy bound: mean relative error in percent "
                        "(the 6-digit quantization floor is ~1.2%%)")
    p.add_argument("--target-snr", type=float, default=None,
                   help="accuracy bound: SNR in dB (overrides --target-mre)")
    p.add_argument(
        "--periods",
        type=_positive_float,
        nargs="+",
        default=None,
        metavar="P",
        help="clock periods as fractions of the online settle depth "
             "(default: the repro.synth.DEFAULT_PERIODS grid)",
    )
    p.add_argument("--samples", type=_positive_int, default=4000)
    p.add_argument("--seed", type=int, default=2014)
    _add_backend_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_synth, parser=p)

    p = sub.add_parser("filter", help="Gaussian-filter case study")
    p.add_argument("--image", default="lena",
                   choices=["lena", "pepper", "sailboat", "tiffany", "uniform"])
    p.add_argument("--size", type=_int_at_least(3), default=48,
                   help="image edge length (>= 3, the kernel size)")
    _add_backend_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("area", help="area comparison (Table 4)")
    p.add_argument("--ndigits", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser(
        "faults", help="fault-injection degradation curves"
    )
    from repro.faults import DEFAULT_RATES, FAULT_MODELS

    p.add_argument("--model", default="jitter", choices=list(FAULT_MODELS),
                   help="fault-model family to sweep")
    p.add_argument("--rates", type=_unit_interval, nargs="+",
                   default=list(DEFAULT_RATES),
                   help="fault-intensity grid in [0, 1]")
    p.add_argument("--ndigits", type=_positive_int, default=8)
    p.add_argument("--samples", type=_positive_int, default=2000)
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument("--overclock", type=float, default=1.0,
                   help="clock speedup over the rated period")
    p.add_argument("--shard-timeout", type=float, default=None,
                   help="per-shard wall-clock budget in seconds")
    _add_backend_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "probe", help="per-stage digit-error telemetry vs Algorithm 2"
    )
    p.add_argument("--ndigits", type=_positive_int, default=8)
    p.add_argument("--samples", type=_positive_int, default=20000)
    p.add_argument("--seed", type=int, default=2014)
    _add_backend_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser(
        "stats", help="render the metrics snapshot of a traced run"
    )
    p.add_argument("path", nargs="?", default=None,
                   help="trace file (default: the last traced run)")
    p.add_argument("--last", action="store_true",
                   help="use the last traced run (the default when no "
                        "path is given)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("trace", help="render the span tree of a trace file")
    p.add_argument("path", nargs="?", default=None,
                   help="trace file (default: the last traced run)")
    p.add_argument("--last", action="store_true",
                   help="use the last traced run (the default when no "
                        "path is given)")
    p.add_argument("--no-events", action="store_true",
                   help="hide point events (cache hits, pool failures)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve",
        help="run the evaluation daemon (JSON-lines over TCP)",
        description="Long-running evaluation service: Monte-Carlo, sweep "
                    "and synthesis requests over a JSON-lines protocol, "
                    "with admission control, deadlines and graceful "
                    "drain.  Identical in-flight requests share one "
                    "evaluation, and compatible requests queued for an "
                    "evaluator slot fuse into one.  Every answer is "
                    "computed exactly or is an explicit failure; none "
                    "comes from the analytical model.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7914,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--ndigits", type=_positive_int, default=8,
                   help="default word length for requests that omit one")
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument("--concurrency", type=int, default=2,
                   help="evaluator slots (resident worker threads)")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-request deadline in seconds")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="graceful-drain bound on SIGTERM")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "top",
        help="live one-screen view of a running service",
        description="Tail a live evaluation daemon: refreshes queue "
                    "depths, drain state, per-run shard progress and "
                    "cache counters from the statsz admin verb.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7914,
                   help="service port (matches 'repro serve')")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (non-TTY / CI mode)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="statsz request timeout in seconds")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("verilog", help="export an operator as Verilog")
    p.add_argument(
        "--what",
        default="online-mult",
        choices=["online-mult", "online-adder", "trad-mult", "rca",
                 "kogge-stone"],
    )
    p.add_argument("--ndigits", type=_positive_int, default=8)
    p.add_argument("--module", default=None, help="Verilog module name")
    p.add_argument("-o", "--output", default="-",
                   help="output file ('-' = stdout)")
    p.set_defaults(func=_cmd_verilog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)

    from repro.obs import Tracer, metrics, use_tracer
    from repro.obs.render import record_last_trace

    # Truncate up front: flush() appends (incremental flushes within one
    # run must not clobber each other), so a stale file from a previous
    # invocation would otherwise merge two runs' span ids into one tree.
    open(trace_path, "w").close()
    tracer = Tracer(sink=trace_path, enabled=True)
    try:
        with use_tracer(tracer):
            return args.func(args)
    finally:
        tracer.flush(
            extra=[{"type": "metrics", "snapshot": metrics().snapshot()}]
        )
        record_last_trace(trace_path)


if __name__ == "__main__":
    sys.exit(main())
