"""Fused vs unfused multi-period sweep on the vector engine.

The acceptance workload of the one-pass sweep fusion: a 25-period
stage-delay latency-accuracy sweep of the 8-digit online multiplier on a
20000-sample operand batch.  The unfused baseline is the per-period
reference oracle (:func:`repro.sim.sweep.stage_sweep_partial` under
``backend="vector"``): one truncated wave evaluation per requested
period, i.e. the whole stage pipeline re-runs ``len(periods)`` times.
The fused path (:func:`repro.vec.fused.fused_sweep_partial`, what
``run_sweep(timing="stage", backend="vector")`` dispatches to) emits
every capture snapshot from a single stage-by-stage pass; the target is
a >= 8x speedup with bit-identical statistics — the identity is
re-checked on the benchmarked batch here and gated by
``tests/vec/test_fused_conformance.py`` in CI.

A second table row times the end-to-end ``run_sweep`` entry points, so
kernel wins and harness overhead can be told apart.

Run standalone (``python benchmarks/bench_fused_sweep.py [--quick]
[--report-only]``) for a CI-friendly run, or through pytest-benchmark
for the timed kernels.  ``--report-only`` writes the artifact and always
exits 0 — CI gates conformance, not the speedup.
"""

import time

import numpy as np

from _common import MC_SAMPLES, emit, publish
from repro.runners import RunConfig
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.reporting import format_table
from repro.sim.sweep import (
    run_sweep,
    stage_steps_for_periods,
    stage_sweep_partial,
)
from repro.vec.fused import fused_sweep_partial

NDIGITS = 8
DELTA = 3
#: the acceptance grid: 25 normalized clock periods
PERIODS = tuple(i / 25 for i in range(1, 26))
TARGET_SPEEDUP = 8.0


def _config(**kw) -> RunConfig:
    return RunConfig(
        ndigits=NDIGITS, backend="vector", cache_dir=None, jobs=1, **kw
    )


def _digit_batch(num_samples: int, seed: int = 2014):
    rng = np.random.default_rng(seed)
    return (
        uniform_digit_batch(NDIGITS, num_samples, rng),
        uniform_digit_batch(NDIGITS, num_samples, rng),
    )


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def compare_paths(num_samples: int, repeats: int = 3):
    """Measure fused vs per-period on the 25-period grid; verify identity.

    Returns table rows ``[workload, unfused (ms), fused (ms), speedup]``;
    row 0 is the kernel-level acceptance workload.
    """
    xd, yd = _digit_batch(num_samples)
    # one depth per requested period, duplicates included: the unfused
    # path re-runs the pipeline for every *period*; collapsing periods
    # that share a chain-cut depth is part of what fusion exploits
    grid = stage_steps_for_periods(PERIODS, NDIGITS + DELTA)

    t_unfused = _time(
        lambda: stage_sweep_partial(
            NDIGITS, DELTA, xd, yd, grid, backend="vector"
        ),
        repeats,
    )
    t_fused = _time(
        lambda: fused_sweep_partial(NDIGITS, DELTA, xd, yd, grid), repeats
    )
    fused = fused_sweep_partial(NDIGITS, DELTA, xd, yd, grid)
    oracle = stage_sweep_partial(NDIGITS, DELTA, xd, yd, grid, backend="vector")
    np.testing.assert_array_equal(fused["sum_err"], oracle["sum_err"])
    np.testing.assert_array_equal(fused["viol"], oracle["viol"])
    rows = [
        [
            f"sweep partial, {len(PERIODS)} periods ({num_samples})",
            f"{t_unfused * 1e3:.1f}",
            f"{t_fused * 1e3:.1f}",
            f"{t_unfused / t_fused:.1f}x",
        ]
    ]

    # end-to-end: the sharded entry point under each shard strategy
    t_end_unfused = t_unfused  # the oracle has no fused entry point knob;
    # time run_sweep itself on the fused path for the harness-overhead row
    t_end_fused = _time(
        lambda: run_sweep(
            _config(),
            num_samples=num_samples,
            timing="stage",
            periods=PERIODS,
        ),
        repeats,
    )
    rows.append(
        [
            f"run_sweep(timing='stage') ({num_samples})",
            f"{t_end_unfused * 1e3:.1f}",
            f"{t_end_fused * 1e3:.1f}",
            f"{t_end_unfused / t_end_fused:.1f}x",
        ]
    )
    return rows


def report(num_samples: int, repeats: int = 3, persist: bool = True):
    rows = compare_paths(num_samples, repeats)
    emit(
        "fused_sweep",
        format_table(
            ["workload", "unfused (ms)", "fused (ms)", "speedup"],
            rows,
            title=(
                f"{NDIGITS}-digit OM, {len(PERIODS)}-period stage sweep, "
                f"{num_samples} samples: fused one-pass kernel vs "
                "per-period evaluation"
            ),
        ),
        persist=persist,
    )
    return rows


def _kernel_speedup(rows) -> float:
    return float(rows[0][3].rstrip("x"))


def test_fused_sweep_speedup(benchmark):
    rows = report(MC_SAMPLES)
    speedup = _kernel_speedup(rows)
    assert speedup >= TARGET_SPEEDUP, (
        f"fused sweep only {speedup:.1f}x faster on the "
        f"{len(PERIODS)}-period, {MC_SAMPLES}-sample N={NDIGITS} workload "
        f"(need >= {TARGET_SPEEDUP:.0f}x)"
    )
    xd, yd = _digit_batch(MC_SAMPLES)
    grid = stage_steps_for_periods(PERIODS, NDIGITS + DELTA)
    benchmark(lambda: fused_sweep_partial(NDIGITS, DELTA, xd, yd, grid))


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
        help="write the artifact but never fail on the speedup "
        "(conformance is gated by tests/vec, not here)",
    )
    parser.add_argument("--samples", type=int, default=None)
    args = parser.parse_args(argv)
    if args.samples is not None:
        num_samples = args.samples
    else:
        num_samples = 4000 if args.quick else MC_SAMPLES
    rows = report(
        num_samples,
        repeats=1 if args.quick else 3,
        persist=not args.quick,
    )
    speedup = _kernel_speedup(rows)
    publish(
        "fused_sweep",
        {"speedup": speedup},
        samples=num_samples,
        quick=args.quick,
    )
    if not (args.quick or args.report_only) and speedup < TARGET_SPEEDUP:
        print(f"FAIL: speedup {speedup:.1f}x < {TARGET_SPEEDUP:.0f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
