"""Acceptance workload of the fault-injection subsystem.

Degradation curves of the online vs conventional multiplier under at
least two fault models (capture jitter and gate-delay drift), with the
graceful-degradation acceptance checks:

* **Clean baseline** — at fault rate 0 both designs are error-free at
  the rated clock (the null-fault golden identity).
* **Monotone, bounded online growth** — the online multiplier's mean
  relative error never decreases with fault intensity and stays below a
  small bound: most-significant digits are produced first, so faults
  cost low-order accuracy, not catastrophic magnitude errors.
* **Graceful ordering** — at every intensity the online error is at
  most the conventional (array) multiplier's, and strictly smaller at
  the top intensity: the MSD-first datapath degrades where the
  LSB-first carry chain breaks.

Run standalone (``python benchmarks/bench_fault_campaign.py [--quick]``)
for the CI smoke run, or through pytest for the timed kernels.
"""

import numpy as np
import pytest

from _common import emit, run_config
from repro.faults import run_fault_campaign
from repro.sim.reporting import (
    format_fault_stats,
    format_run_stats,
    format_table,
)

NDIGITS = 8

#: the two timing-fault families of the acceptance criteria
BENCH_MODELS = ("jitter", "drift")

#: acceptance bound on the online multiplier's mean relative error
ONLINE_ERROR_BOUND = 0.02

#: tolerance for the monotonicity check (exact float sums; zero slack
#: would still pass today, the epsilon guards rounding in future merges)
MONOTONE_TOL = 1e-12


def campaign_report(num_samples: int, ndigits: int = NDIGITS, jobs=None):
    """Run both fault models; return table rows plus acceptance measures."""
    config = run_config(ndigits=ndigits, cache_dir=None)
    if jobs is not None:
        config = config.with_(jobs=jobs)
    rows = []
    measures = {}
    for model in BENCH_MODELS:
        result = run_fault_campaign(
            config, model=model, num_samples=num_samples
        )
        print(format_run_stats(result.run_stats))
        print(format_fault_stats(result.fault_stats))
        online = result.online_error
        trad = result.traditional_error
        for i, rate in enumerate(result.rates):
            rows.append(
                [model, f"{float(rate):.3f}",
                 f"{online[i]:.4e}", f"{trad[i]:.4e}"]
            )
        measures[model] = {
            "baseline_clean": online[0] == 0.0 and trad[0] == 0.0,
            "online_monotone": bool(
                np.all(np.diff(online) >= -MONOTONE_TOL)
            ),
            "online_bounded": float(online.max()) <= ONLINE_ERROR_BOUND,
            "ordered": bool(np.all(online <= trad + MONOTONE_TOL)),
            "strict_at_top": float(online[-1]) < float(trad[-1]),
            "online_max": float(online.max()),
            "trad_max": float(trad.max()),
        }
    return rows, measures


def acceptance_failures(measures) -> list:
    failures = []
    for model, m in measures.items():
        if not m["baseline_clean"]:
            failures.append(f"{model}: rate 0 is not error-free")
        if not m["online_monotone"]:
            failures.append(f"{model}: online error not monotone in rate")
        if not m["online_bounded"]:
            failures.append(
                f"{model}: online error {m['online_max']:.3e} exceeds "
                f"bound {ONLINE_ERROR_BOUND}"
            )
        if not m["ordered"]:
            failures.append(
                f"{model}: online error exceeds the conventional design"
            )
        if not m["strict_at_top"]:
            failures.append(
                f"{model}: no strict online advantage at the top rate "
                f"(online {m['online_max']:.3e} vs trad {m['trad_max']:.3e})"
            )
    return failures


# ------------------------------------------------------------ pytest kernels

def test_fault_campaign_acceptance(capsys):
    _, measures = campaign_report(num_samples=800, ndigits=6)
    assert acceptance_failures(measures) == []


def test_fault_campaign_throughput(benchmark):
    config = run_config(ndigits=6, cache_dir=None)
    result = benchmark(
        lambda: run_fault_campaign(config, model="jitter", num_samples=400)
    )
    assert result.online_error[0] == 0.0


# ----------------------------------------------------------------- CLI mode

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sample budget and word length (CI smoke)",
    )
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--ndigits", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    ndigits = args.ndigits or (6 if args.quick else NDIGITS)
    num_samples = args.samples or (800 if args.quick else 4000)
    rows, measures = campaign_report(
        num_samples, ndigits=ndigits, jobs=args.jobs
    )
    emit(
        "fault_campaign",
        format_table(
            ["fault model", "rate", "online rel. err", "trad rel. err"],
            rows,
            title=(
                f"fault-injection degradation: {ndigits}-digit "
                f"multipliers, {num_samples} samples"
            ),
        ),
        persist=not args.quick,
    )
    failures = acceptance_failures(measures)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
