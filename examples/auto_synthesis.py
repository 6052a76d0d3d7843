#!/usr/bin/env python3
"""Auto-synthesis: from a dataflow graph to a latency-accuracy Pareto front.

Builds a two-output datapath

    prod = (x*y) * (w*v)        sum = x*y + w*v

and lets the synthesizer pick, per multiplier, between the gracefully
degrading online implementation and the exact conventional array
multiplier — across clock periods from deep overclocking to fully
settled.  The interesting structure: the inner products fit *narrow*
array multipliers that settle well under the online settle depth, while
the outer product would need a double-width one that does not, so the
best designs at aggressive periods mix both styles (conventional inner
multipliers feeding an online outer one through the truncating operand
bridge).

The report answers the paper's two design questions:

1. clocked at a given latency, how accurate can the datapath be?  The
   verified Pareto front lists the best measured error at each latency;
2. given an accuracy target, how fast can it be clocked?  The chosen
   point (marked ``*``) is the fastest verified design meeting it.

Run:  python examples/auto_synthesis.py
"""

from repro.core.synthesis import Datapath
from repro.runners import RunConfig
from repro.sim.reporting import format_run_stats
from repro.synth import AccuracyTarget, run_synthesis

N = 6


def build_datapath() -> Datapath:
    dp = Datapath(ndigits=N)
    x, y = dp.input("x"), dp.input("y")
    w, v = dp.input("w"), dp.input("v")
    p, q = x * y, w * v
    dp.output("prod", p * q)
    dp.output("sum", p + q)
    return dp


def main() -> None:
    config = RunConfig(ndigits=N, seed=2014, cache_dir=None)
    report = run_synthesis(
        config,
        build_datapath(),
        AccuracyTarget("mre", 5.0),
        num_samples=4000,
    )

    print("=== latency-accuracy Pareto front (chosen point marked *) ===")
    print(report.summary())
    print()

    chosen = report.chosen_point
    if chosen is None:
        print("no candidate meets the target")
        return
    print("chosen design, per operator:")
    for module in report.modules:
        print(
            f"  {module['label']:<6} {module['spec']:<16} "
            f"rated {module['stages']:>2} stages, "
            f"{module['area_luts']:>4} LUTs"
        )
    styles = set(report.chosen_assignment.values())
    if len(styles) > 1:
        print(
            "  -> a mixed design: exact narrow multipliers feed the online\n"
            "     outer multiplier through the truncating operand bridge"
        )
    print()
    print(
        f"grid: {report.candidates_total} candidates, "
        f"{report.candidates_pruned} pruned analytically "
        f"({100 * report.candidates_pruned / report.candidates_total:.0f}%), "
        f"{report.candidates_verified} verified on the vector engine"
    )
    print(format_run_stats(report.run_stats))


if __name__ == "__main__":
    main()
