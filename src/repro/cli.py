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

The ``model``, ``sweep`` and ``synth`` subparsers are generated from
the request-kind declarations of :mod:`repro.experiments`, which
``repro serve`` parses its wire requests with too, so the same
arguments give the same cache key on both surfaces.
"""

from __future__ import annotations

import argparse
import sys


def _config_from_args(args: argparse.Namespace):
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
    return RunConfig(**kwargs)


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Normalize a ``model``/``sweep``/``synth`` invocation through its
    kind's one declaration, run the kind's entry point, print its report.
    A rejected value is a usage error (exit 2)."""
    from repro.experiments import EXPERIMENTS, RequestError, normalize

    exp = EXPERIMENTS[args.kind]
    values = {
        p.name: getattr(args, p.name)
        for p in exp.params
        if getattr(args, p.name, None) is not None
    }
    try:
        config, params, _ = normalize(
            args.kind, values, _config_from_args(args), "cli"
        )
    except RequestError as exc:
        if exc.param is not None:
            args.parser.error(f"argument {_flag(exc.param)}: {exc.reason}")
        print(f"{args.parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    args.report(args, config, exp.run(config, params))
    return 0


def _report_model(args: argparse.Namespace, config, mc) -> None:
    from repro.core.model import OverclockingErrorModel
    from repro.sim.reporting import format_run_stats, format_table

    model = OverclockingErrorModel(config.ndigits)
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
        title=f"{config.ndigits}-digit online multiplier: model vs "
              f"Monte-Carlo",
    ))
    print(format_run_stats(mc.run_stats))


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


def _report_sweep(args: argparse.Namespace, config, res) -> None:
    from repro.sim.reporting import format_run_stats, format_table

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


def _report_synth(args: argparse.Namespace, config, report) -> None:
    from repro.sim.reporting import format_run_stats

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


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _argtype(param):
    """argparse ``type`` of a declared :class:`~repro.experiments.Param`."""

    def parse(text: str):
        try:
            value = param.type(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {param.type.__name__} value: {text!r}"
            ) from None
        try:
            return param.check_one(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_param(p, param, **changes) -> None:
    """The ``--flag`` of a declared parameter; *changes* override its
    declaration (``cli=`` default, ``help=``) for one subcommand."""
    param = param._replace(**changes)
    kwargs = {"default": param.cli, "help": param.help}
    if param.choices:
        kwargs["choices"] = list(param.choices)
    else:
        kwargs["type"] = _argtype(param)
    if param.many:
        kwargs["nargs"] = "+"
    if param.metavar:
        kwargs["metavar"] = param.metavar
    p.add_argument(_flag(param.name), **kwargs)


def _add_experiment(sub, kind: str, report, name: str, **kwargs):
    """The subparser of request kind *kind*: a flag per declared
    parameter that has a CLI default, in declared order.  Parameters of
    which a request gives at most one form a mutually exclusive group
    whose flags default to None (the normalizer fills the default)."""
    from repro.experiments import EXPERIMENTS, WIRE_ONLY

    exp = EXPERIMENTS[kind]
    p = sub.add_parser(name, **kwargs)
    flags = [q for q in exp.params if q.cli is not WIRE_ONLY]
    either = [q.name for q in flags if q.name in exp.exclusive]
    group = p.add_mutually_exclusive_group() if len(either) > 1 else None
    for q in flags:
        if q.name in either and group is not None:
            _add_param(group, q, cli=None)
        else:
            _add_param(p, q)
    p.set_defaults(func=_cmd_experiment, kind=kind, report=report, parser=p)
    return p


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


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    from repro.experiments import Param

    _add_param(p, Param("jobs", int, 1, cli=None,
                        help="worker processes for sharded experiments "
                             "(default: $REPRO_JOBS or 1)"))
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
    from repro.experiments import (
        BACKEND, DEADLINE, NDIGITS, SAMPLES, SEED, Param,
    )

    parser = argparse.ArgumentParser(
        prog="repro-overclock",
        description="Regenerate the online-arithmetic overclocking experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_experiment(
        sub, "montecarlo", _report_model, "model",
        aliases=["montecarlo"],
        help="error model vs Monte-Carlo (Fig. 4)",
    )
    p.add_argument("--calibrate", action="store_true",
                   help="fit kappa to the Monte-Carlo before reporting")
    _add_param(p, BACKEND, cli=None)
    _add_run_flags(p)

    p = sub.add_parser("chains", help="chain-delay statistics (Fig. 5)")
    _add_param(p, NDIGITS)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("multiplier", help="gate-level multiplier sweep")
    _add_param(p, NDIGITS)
    _add_param(p, SAMPLES, cli=3000)
    _add_param(p, SEED)
    _add_param(p, BACKEND, cli=None)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_multiplier)

    p = _add_experiment(
        sub, "sweep", _report_sweep, "sweep",
        help="stage-delay latency-accuracy sweep (fused on the "
             "default vector engine)",
    )
    _add_param(p, BACKEND, cli=None)
    _add_run_flags(p)

    p = _add_experiment(
        sub, "synthesis", _report_synth, "synth",
        help="latency-accuracy auto-synthesis of a demo datapath "
             "(Pareto front + chosen assignment)",
    )
    _add_param(p, BACKEND, cli=None)
    _add_run_flags(p)

    p = sub.add_parser("filter", help="Gaussian-filter case study")
    p.add_argument("--image", default="lena",
                   choices=["lena", "pepper", "sailboat", "tiffany", "uniform"])
    _add_param(p, Param("size", int, 3, cli=48,
                        help="image edge length (>= 3, the kernel size)"))
    _add_param(p, BACKEND, cli=None)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("area", help="area comparison (Table 4)")
    _add_param(p, NDIGITS)
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
    _add_param(p, NDIGITS)
    _add_param(p, SAMPLES, cli=2000)
    _add_param(p, SEED)
    _add_param(p, Param("overclock", float, 0, cli=1.0,
                        help="clock speedup over the rated period"))
    _add_param(p, Param("shard_timeout", float, 0, cli=None,
                        help="per-shard wall-clock budget in seconds"))
    _add_param(p, BACKEND, cli=None)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "probe", help="per-stage digit-error telemetry vs Algorithm 2"
    )
    _add_param(p, NDIGITS)
    _add_param(p, SAMPLES, cli=20000)
    _add_param(p, SEED)
    _add_param(p, BACKEND, cli=None)
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
    _add_param(p, NDIGITS,
               help="default word length for requests that omit one")
    _add_param(p, SEED)
    _add_param(p, Param("concurrency", int, 1, cli=2,
                        help="evaluator slots (resident worker threads)"))
    _add_param(p, DEADLINE)
    _add_param(p, Param("drain_timeout", float, 0, cli=30.0,
                        help="graceful-drain bound on SIGTERM"))
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
    _add_param(p, Param("interval", float, 0, cli=1.0,
                        help="refresh period in seconds"))
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (non-TTY / CI mode)")
    _add_param(p, Param("timeout", float, 0, cli=5.0,
                        help="statsz request timeout in seconds"))
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("verilog", help="export an operator as Verilog")
    p.add_argument(
        "--what",
        default="online-mult",
        choices=["online-mult", "online-adder", "trad-mult", "rca",
                 "kogge-stone"],
    )
    _add_param(p, NDIGITS)
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
