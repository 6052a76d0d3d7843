"""Throughput of the digit-level behavioral engine vs the packed engine.

The acceptance workload of ``backend="vector"``: the 20000-sample
8-digit online-multiplier Monte-Carlo experiment (Fig. 4's statistics),
run end-to-end through :func:`repro.sim.montecarlo.run_montecarlo` with
``jobs=1`` and the cache off.  The vector engine must deliver at least a
20x speedup over the compiled bit-packed engine while producing
bit-identical ``E|eps|`` and violation-probability curves (the
``tests/vec`` conformance suite pins the tick-level identity; this
module measures the throughput and re-checks the end-to-end identity on
the benchmarked batch).

A second table row times the raw wave kernels in isolation
(:meth:`OnlineMultiplier.wave` under each backend) so regressions in the
kernel and in the sharding overhead can be told apart.

Run standalone (``python benchmarks/bench_vector_vs_packed.py
[--quick] [--report-only]``) for a CI-friendly run that also appends a
``vector_vs_packed`` record to the bench ledger, or through
pytest-benchmark for the timed kernels.  ``--report-only`` writes the
artifact and always exits 0 — CI gates conformance, not the speedup.
"""

import time

import numpy as np

from _common import MC_SAMPLES, emit, publish
from repro.core.online_multiplier import OnlineMultiplier
from repro.runners import RunConfig
from repro.sim.montecarlo import run_montecarlo, uniform_digit_batch
from repro.sim.reporting import format_table

NDIGITS = 8


def _config(backend: str) -> RunConfig:
    return RunConfig(ndigits=NDIGITS, backend=backend, cache_dir=None, jobs=1)


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


def compare_engines(num_samples: int, repeats: int = 3):
    """Measure both backends on the acceptance workload; verify identity.

    Returns table rows ``[workload, packed (ms), vector (ms), speedup]``;
    row 0 is the end-to-end Monte-Carlo acceptance workload.
    """
    t_packed = _time(
        lambda: run_montecarlo(_config("packed"), num_samples), repeats
    )
    t_vector = _time(
        lambda: run_montecarlo(_config("vector"), num_samples), repeats
    )
    ref = run_montecarlo(_config("packed"), num_samples)
    res = run_montecarlo(_config("vector"), num_samples)
    np.testing.assert_array_equal(res.mean_abs_error, ref.mean_abs_error)
    np.testing.assert_array_equal(
        res.violation_probability, ref.violation_probability
    )
    rows = [
        [
            f"run_montecarlo({num_samples})",
            f"{t_packed * 1e3:.1f}",
            f"{t_vector * 1e3:.1f}",
            f"{t_packed / t_vector:.1f}x",
        ]
    ]

    om = OnlineMultiplier(NDIGITS)
    xd, yd = _digit_batch(num_samples)
    t_packed = _time(lambda: om.wave(xd, yd, backend="packed"), repeats)
    t_vector = _time(lambda: om.wave(xd, yd, backend="vector"), repeats)
    np.testing.assert_array_equal(
        om.wave(xd, yd, backend="vector"), om.wave(xd, yd, backend="packed")
    )
    rows.append(
        [
            f"om.wave({num_samples})",
            f"{t_packed * 1e3:.1f}",
            f"{t_vector * 1e3:.1f}",
            f"{t_packed / t_vector:.1f}x",
        ]
    )
    return rows


def report(num_samples: int, repeats: int = 3, persist: bool = True):
    rows = compare_engines(num_samples, repeats)
    emit(
        "vector_vs_packed",
        format_table(
            ["workload", "packed (ms)", "vector (ms)", "speedup"],
            rows,
            title=(
                f"{NDIGITS}-digit OM, {num_samples} samples: digit-level "
                "behavioral engine vs compiled bit-packed engine"
            ),
        ),
        persist=persist,
    )
    return rows


def _mc_speedup(rows) -> float:
    return float(rows[0][3].rstrip("x"))


def _wave_speedup(rows) -> float:
    return float(rows[1][3].rstrip("x"))


def test_vector_speedup(benchmark):
    rows = report(MC_SAMPLES)
    speedup = _mc_speedup(rows)
    assert speedup >= 20.0, (
        f"vector engine only {speedup:.1f}x faster on the 20k-sample "
        f"N={NDIGITS} Monte-Carlo workload (need >= 20x)"
    )
    config = _config("vector")
    benchmark(lambda: run_montecarlo(config, MC_SAMPLES))


def test_vector_wave_kernel(benchmark):
    om = OnlineMultiplier(NDIGITS)
    xd, yd = _digit_batch(MC_SAMPLES)
    benchmark(lambda: om.wave(xd, yd, backend="vector"))


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
    speedup = _mc_speedup(rows)
    publish(
        "vector_vs_packed",
        {"speedup": speedup, "wave_speedup": _wave_speedup(rows)},
        samples=num_samples,
        quick=args.quick,
    )
    if not (args.quick or args.report_only) and speedup < 20.0:
        print(f"FAIL: speedup {speedup:.1f}x < 20x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
