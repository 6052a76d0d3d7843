"""Auto-synthesizer: analytical prune vs exhaustive verification.

The synthesizer's coarse-ranking claim, measured: on the three-operator
MAC datapath ``acc = x*y + (1/4)*x`` the Section-3 analytical model
prunes infeasible, duplicate and clearly-dominated candidates *before*
any simulation, so the fused vector engine only verifies a fraction of
the (assignment x wordlength x period) grid.  The exhaustive baseline

verifies every buildable candidate independently — what a search with
no model *and* no fused multi-period engine would cost (per-candidate
draw, quantize and datapath evaluation).

Both paths produce statistics from the same shared reference-precision
operand draws; the wall-clock gap is the combined value of the model
prune and the fused verification.

Run standalone (``python benchmarks/bench_synthesis.py [--quick]
[--report-only]``) for a CI-friendly run, or through pytest-benchmark
for the timed search.  A standalone run appends a ``synthesis`` record
(both wall times, the speedup and the prune ratio) to the bench ledger.
``--report-only`` writes the artifact and always exits 0 — correctness
(tolerance, determinism, prune floor) is gated by ``tests/synth`` in
CI, not here.
"""

import time

from _common import emit, publish
from repro.core.synthesis import Datapath
from repro.runners import RunConfig
from repro.runners.parallel import seed_tag, spawn_seeds, split_samples
from repro.sim.reporting import format_table
from repro.synth import AccuracyTarget, run_synthesis
from repro.synth.search import (
    DEFAULT_PERIODS,
    _replayable,
    _synth_verify_worker,
    enumerate_assignments,
    steps_for_periods,
)

NDIGITS = 6
SAMPLES = 4000
TARGET = AccuracyTarget("mre", 5.0)


def mac_datapath() -> Datapath:
    dp = Datapath(ndigits=NDIGITS)
    x, y = dp.input("x"), dp.input("y")
    dp.output("acc", x * y + dp.const("1/4") * x)
    return dp


def _config(**kw) -> RunConfig:
    return RunConfig(ndigits=NDIGITS, cache_dir=None, jobs=1, **kw)


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def exhaustive_verify(datapath, num_samples: int, config: RunConfig) -> int:
    """Verify every buildable candidate independently — no model, no fusion.

    The naive search the synthesizer replaces: each (assignment, period)
    candidate gets its own vector evaluation, re-drawing and re-running
    the datapath per candidate instead of fusing all periods of one
    assignment into a single multi-depth pass.  Returns the number of
    candidates evaluated.
    """
    graph = datapath.to_graph()
    depths = steps_for_periods(DEFAULT_PERIODS, NDIGITS, config.delta)
    sizes = split_samples(num_samples, config.shard_size)
    seeds = spawn_seeds(config.seed, len(sizes), seed_tag("synthesis"))
    verified = 0
    for assignment in enumerate_assignments(graph):
        if not _replayable(graph, assignment):
            continue
        for b in depths:
            for ss, m in zip(seeds, sizes):
                _synth_verify_worker(
                    {
                        "graph": graph,
                        "assignment": assignment,
                        "ndigits": NDIGITS,
                        "delta": config.delta,
                        "depths": [b],
                        "seed_seq": ss,
                        "samples": m,
                    }
                )
            verified += 1
    return verified


def compare_paths(num_samples: int, repeats: int = 3):
    config = _config()
    dp = mac_datapath()

    report = run_synthesis(config, dp, TARGET, num_samples=num_samples)
    t_pruned = _time(
        lambda: run_synthesis(config, dp, TARGET, num_samples=num_samples),
        repeats,
    )
    exhaustive_count = exhaustive_verify(dp, num_samples, config)
    t_exhaustive = _time(
        lambda: exhaustive_verify(dp, num_samples, config), repeats
    )

    prune_pct = 100.0 * report.candidates_pruned / report.candidates_total
    rows = [
        [
            "exhaustive (per-candidate)",
            str(exhaustive_count),
            "0",
            f"{t_exhaustive * 1e3:.1f}",
        ],
        [
            "model-pruned fused search",
            str(report.candidates_verified),
            f"{report.candidates_pruned} ({prune_pct:.0f}%)",
            f"{t_pruned * 1e3:.1f}",
        ],
    ]
    return rows, report, t_pruned, t_exhaustive


def report_tables(num_samples: int, repeats: int = 3, persist: bool = True):
    rows, report, t_pruned, t_exhaustive = compare_paths(
        num_samples, repeats
    )
    speedup = t_exhaustive / t_pruned
    emit(
        "synthesis_prune",
        format_table(
            ["path", "verified", "pruned", "wall (ms)"],
            rows,
            title=(
                f"3-operator MAC, n={NDIGITS}, "
                f"{len(DEFAULT_PERIODS)}-period grid, {num_samples} "
                f"samples: model-pruned search vs exhaustive "
                f"verification ({speedup:.1f}x)"
            ),
        ),
        persist=persist,
    )
    return report, t_pruned, t_exhaustive


def test_synthesis_prune(benchmark):
    report, _, _ = report_tables(SAMPLES, repeats=1)
    # the hard floor lives in tests/synth; this is the bench-side sanity
    assert report.candidates_pruned >= 0.5 * report.candidates_total
    config = _config()
    dp = mac_datapath()
    benchmark(
        lambda: run_synthesis(config, dp, TARGET, num_samples=SAMPLES)
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small batch, single repeat (CI smoke run)",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="write the artifact but never fail (tests/synth gates "
        "correctness and the prune floor)",
    )
    parser.add_argument("--samples", type=int, default=None)
    args = parser.parse_args(argv)
    num_samples = args.samples or (1000 if args.quick else SAMPLES)
    report, t_pruned, t_exhaustive = report_tables(
        num_samples,
        repeats=1 if args.quick else 3,
        persist=not args.quick,
    )
    publish(
        "synthesis",
        {
            "pruned_ms": t_pruned * 1e3,
            "exhaustive_ms": t_exhaustive * 1e3,
            "speedup": t_exhaustive / t_pruned,
            "prune_ratio": report.candidates_pruned / report.candidates_total,
        },
        samples=num_samples,
        quick=args.quick,
    )
    if args.report_only or args.quick:
        return 0
    if report.candidates_pruned < 0.5 * report.candidates_total:
        print(
            f"FAIL: pruned only {report.candidates_pruned} of "
            f"{report.candidates_total} candidates (need >= 50%)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
