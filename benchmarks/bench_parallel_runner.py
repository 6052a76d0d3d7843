"""Acceptance workload of the parallel runner and the result cache.

The tentpole guarantees, measured on the gate-level overclocking sweep of
the 8-digit online multiplier (20000 samples, FPGA delay model):

* **Bit-identity** — ``jobs=1`` and ``jobs=N`` merge to exactly the same
  :class:`SweepResult` arrays (deterministic shard layout + spawned
  seeds + ordered partial-sum accumulation).  Always asserted.
* **Parallel speedup** — ``jobs=4`` must be at least 3x faster than
  ``jobs=1``.  Asserted only in full mode on a machine with >= 4 cores
  (a single-core runner still *measures* and reports the ratio).
* **Warm cache** — re-running against a populated cache directory must
  hit and, in full mode, cost less than 10% of the cold run.

Run standalone (``python benchmarks/bench_parallel_runner.py [--quick]``)
for the CI smoke run, or through pytest-benchmark for the timed kernels.
"""

import os
import shutil
import tempfile
import time

import numpy as np
import pytest

from _common import MC_SAMPLES, emit, publish, run_config
from repro.sim.reporting import format_run_stats, format_table
from repro.sim.sweep import run_sweep

NDIGITS = 8

#: sample count for the pytest-benchmark kernels (kept modest: the timed
#: kernel repeats many times under pytest-benchmark)
KERNEL_SAMPLES = 2000


def _sweep_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in a._array_fields
    )


def _timed_sweep(config, num_samples):
    t0 = time.perf_counter()
    result = run_sweep(config, num_samples=num_samples)
    return result, time.perf_counter() - t0


def runner_report(num_samples: int, jobs: int, cache_dir=None):
    """Measure serial vs parallel vs cached sweeps; verify bit-identity.

    Returns ``(rows, measures)``: table rows for :func:`emit` plus the
    raw numbers (speedup ratio, warm/cold ratio, identity and cache-hit
    flags) the acceptance assertions check.
    """
    base = run_config(ndigits=NDIGITS, cache_dir=None)
    serial, t_serial = _timed_sweep(base.with_(jobs=1), num_samples)
    parallel, t_parallel = _timed_sweep(base.with_(jobs=jobs), num_samples)
    identical = _sweep_equal(serial, parallel)

    own_dir = cache_dir is None
    cdir = tempfile.mkdtemp(prefix="repro-bench-cache-") if own_dir else cache_dir
    try:
        cached_cfg = base.with_(jobs=jobs, cache_dir=str(cdir))
        cold, t_cold = _timed_sweep(cached_cfg, num_samples)
        warm, t_warm = _timed_sweep(cached_cfg, num_samples)
    finally:
        if own_dir:
            shutil.rmtree(cdir, ignore_errors=True)

    for result in (serial, parallel, cold, warm):
        print(format_run_stats(result.run_stats))

    rows = [
        ["jobs=1 (serial)", f"{t_serial:.3f}", "1.00", "off"],
        [f"jobs={jobs}", f"{t_parallel:.3f}",
         f"{t_serial / t_parallel:.2f}", "off"],
        [f"jobs={jobs} cold cache", f"{t_cold:.3f}",
         f"{t_serial / t_cold:.2f}", cold.run_stats.cache],
        [f"jobs={jobs} warm cache", f"{t_warm:.3f}",
         f"{t_serial / t_warm:.2f}", warm.run_stats.cache],
    ]
    measures = {
        "speedup": t_serial / t_parallel,
        "warm_ratio": t_warm / t_cold,
        "identical": identical,
        "cold_cache": cold.run_stats.cache,
        "warm_cache": warm.run_stats.cache,
        "warm_identical": _sweep_equal(serial, warm),
    }
    return rows, measures


# ------------------------------------------------------------ pytest kernels

@pytest.mark.parametrize("jobs", [1, 4])
def test_parallel_sweep_throughput(benchmark, jobs):
    config = run_config(ndigits=NDIGITS, jobs=jobs, cache_dir=None)
    result = benchmark(
        lambda: run_sweep(config, num_samples=KERNEL_SAMPLES)
    )
    assert result.error_free_step >= 1


def test_parallel_matches_serial_and_cache_hits(tmp_path):
    rows, measures = runner_report(
        KERNEL_SAMPLES, jobs=2, cache_dir=str(tmp_path)
    )
    assert measures["identical"], "jobs=2 diverged from jobs=1"
    assert measures["cold_cache"] == "miss"
    assert measures["warm_cache"] == "hit"
    assert measures["warm_identical"], "cache round-trip changed the result"


def test_warm_cache_throughput(benchmark, tmp_path):
    config = run_config(
        ndigits=NDIGITS, jobs=1, cache_dir=str(tmp_path)
    )
    run_sweep(config, num_samples=KERNEL_SAMPLES)  # populate
    result = benchmark(
        lambda: run_sweep(config, num_samples=KERNEL_SAMPLES)
    )
    assert result.run_stats.cache == "hit"


# ----------------------------------------------------------------- CLI mode

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sample budget, relaxed timing assertions (CI smoke)",
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory to use (default: fresh temporary directory)",
    )
    args = parser.parse_args(argv)

    num_samples = args.samples
    if num_samples is None:
        num_samples = 2000 if args.quick else MC_SAMPLES
    rows, measures = runner_report(
        num_samples, jobs=args.jobs, cache_dir=args.cache_dir
    )
    emit(
        "parallel_runner",
        format_table(
            ["configuration", "seconds", "speedup vs serial", "cache"],
            rows,
            title=(
                f"parallel runner: {NDIGITS}-digit online sweep, "
                f"{num_samples} samples"
            ),
        ),
        persist=not args.quick,
    )

    publish(
        "parallel_runner",
        {
            "speedup": measures["speedup"],
            # cold/warm so the ledger reads it as higher-is-better
            "warm_speedup": 1.0 / measures["warm_ratio"],
        },
        samples=num_samples,
        jobs=args.jobs,
        quick=args.quick,
    )

    failures = []
    if not measures["identical"]:
        failures.append(f"jobs={args.jobs} result diverged from jobs=1")
    if not measures["warm_identical"]:
        failures.append("cache round-trip changed the result")
    if measures["warm_cache"] != "hit":
        failures.append(f"warm re-run missed the cache "
                        f"({measures['warm_cache']!r})")
    cores = os.cpu_count() or 1
    if not args.quick:
        if measures["warm_ratio"] >= 0.10:
            failures.append(
                f"warm cache cost {measures['warm_ratio']:.1%} of the "
                "cold run (acceptance: < 10%)"
            )
        if args.jobs >= 4 and cores >= 4 and measures["speedup"] < 3.0:
            failures.append(
                f"jobs={args.jobs} speedup {measures['speedup']:.2f}x "
                "(acceptance: >= 3x)"
            )
        elif cores < 4:
            print(
                f"note: {cores} core(s) available — speedup acceptance "
                "(>= 3x at jobs=4) needs >= 4 cores and was not asserted"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
