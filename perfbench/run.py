"""Steady end-to-end benchmark of the ``repro`` CLI and ``repro serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-wave --seed 1 --seconds 20 --trace 0

Workloads: ``cli-wave``, ``cli-gate``, ``serve-compute``, ``serve-hot``
(README.md).  ``--trace 0`` measures the end-to-end metrics with the
program untraced; ``--trace 1`` reports the per-layer metrics of a run
whose program processes carry the layer clocks of ``layers.py``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced, valid runs also
append their end-to-end numbers to the bench ledger through
``benchmarks/_common.publish``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
#: what the ledger gate compares; peak_rss_mb, error_frac and
#: slo_miss_frac ride in the record's meta because the gate's name
#: heuristic would read them as higher-is-better
LEDGER_METRICS = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    from harness import Bench

    bench = Bench(ROOT, args.seed, args.seconds)
    try:
        outcome = workloads.WORKLOADS[args.workload](bench, bool(args.trace))
    finally:
        bench.close()
    tally = bench.tally
    error_frac = tally.failed / max(tally.attempted, 1)
    bench.log(
        f"{args.workload} seed={args.seed}: attempted={tally.attempted} "
        f"failed={tally.failed} wrong={tally.wrong} "
        f"error_frac={error_frac:.4g} slo_miss_frac={outcome.slo_miss_frac:.4g} "
        f"gen_lag_p95_ms={outcome.gen_lag_ms:.3g} "
        f"client_cpu_frac={outcome.client_cpu_frac:.3g} valid={outcome.valid}"
    )
    for reason in tally.reasons:
        bench.log(f"failure: {reason}")

    if args.trace:
        metrics = dict(outcome.per_layer)
        metrics.update({
            "bench.gen_lag_ms": outcome.gen_lag_ms,
            "bench.client_cpu_frac": outcome.client_cpu_frac,
            "bench.error_frac": error_frac,
            "bench.slo_miss_frac": outcome.slo_miss_frac,
        })
        units = layers.PER_LAYER_UNITS
    else:
        metrics, units = outcome.end_to_end, END_TO_END_UNITS
        if outcome.valid:
            sys.path.insert(0, str(ROOT / "benchmarks"))
            from _common import publish

            publish(
                f"perfbench.{args.workload}",
                {name: metrics[name] for name in LEDGER_METRICS},
                seed=args.seed, seconds=args.seconds,
                peak_rss_mb=metrics["peak_rss_mb"], error_frac=error_frac,
                slo_miss_frac=outcome.slo_miss_frac,
                attempted=tally.attempted, failed=tally.failed,
            )
        else:
            bench.log("invalid run: the load generator was the bottleneck; "
                      "not published to the ledger")
    bad = [name for name in units if not math.isfinite(metrics[name])]
    if bad:
        print(f"perfbench: no value measured for {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
