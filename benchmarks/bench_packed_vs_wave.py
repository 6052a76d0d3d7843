"""Throughput of the compiled bit-packed engine vs the waveform simulator.

The acceptance workload of the compiled engine: an 8-digit online
multiplier netlist under the FPGA delay model, a 20000-sample
Monte-Carlo batch, every clock period at once.  The packed engine must
deliver at least a 10x speedup over the interpreting
:class:`WaveformSimulator` while remaining bit-for-bit identical
(the equivalence suite enforces the identity; this module measures and
asserts the throughput, and re-checks identity on the benchmarked batch).

Run standalone (``python benchmarks/bench_packed_vs_wave.py [--quick]``)
for a CI-friendly smoke run, or through pytest-benchmark for the timed
kernels.
"""

import time

import numpy as np
import pytest

from _common import MC_SAMPLES, emit
from repro.core.online_multiplier import OnlineMultiplier
from repro.netlist.compiled import compile_circuit
from repro.netlist.delay import FpgaDelay, UnitDelay
from repro.netlist.sim import WaveformSimulator
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.reporting import format_table
from repro.sim.sweep import OnlineMultiplierHarness

NDIGITS = 8


def _ports(num_samples: int, seed: int = 2014):
    rng = np.random.default_rng(seed)
    harness = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=NDIGITS
    )
    return harness.encode(
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
    """Measure both engines on the acceptance workload; verify identity."""
    circuit = OnlineMultiplier(NDIGITS).build_circuit()
    ports = _ports(num_samples)
    rows = []
    for model_name, delay_model in (
        ("FpgaDelay", FpgaDelay()),
        ("UnitDelay", UnitDelay()),
    ):
        wave = WaveformSimulator(circuit, delay_model)
        packed = compile_circuit(circuit, delay_model)
        t_wave = _time(lambda: wave.run(ports), repeats)
        t_packed = _time(lambda: packed.run(ports), repeats)
        ref = wave.run(ports)
        res = packed.run(ports)
        for name in ref.output_names:
            np.testing.assert_array_equal(
                res.waveform(name), ref.waveform(name)
            )
        rows.append(
            [
                model_name,
                wave.settle_step,
                f"{t_wave * 1e3:.1f}",
                f"{t_packed * 1e3:.1f}",
                f"{t_wave / t_packed:.1f}x",
            ]
        )
    return rows


def report(num_samples: int, repeats: int = 3):
    rows = compare_engines(num_samples, repeats)
    emit(
        "packed_vs_wave",
        format_table(
            ["delay model", "settle", "wave (ms)", "packed (ms)", "speedup"],
            rows,
            title=(
                f"{NDIGITS}-digit OM netlist, {num_samples} samples: "
                "compiled bit-packed engine vs waveform simulator"
            ),
        ),
    )
    return rows


def test_packed_speedup(benchmark):
    rows = report(MC_SAMPLES)
    fpga_speedup = float(rows[0][4].rstrip("x"))
    assert fpga_speedup >= 10.0, (
        f"packed engine only {fpga_speedup:.1f}x faster on the "
        "acceptance workload (need >= 10x)"
    )

    circuit = OnlineMultiplier(NDIGITS).build_circuit()
    packed = compile_circuit(circuit, FpgaDelay())
    ports = _ports(MC_SAMPLES)
    benchmark(lambda: packed.run(ports))


def test_wave_baseline(benchmark):
    circuit = OnlineMultiplier(NDIGITS).build_circuit()
    wave = WaveformSimulator(circuit, FpgaDelay())
    ports = _ports(4000)
    benchmark(lambda: wave.run(ports))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small batch, single repeat (CI smoke run)",
    )
    parser.add_argument("--samples", type=int, default=None)
    args = parser.parse_args(argv)
    if args.samples is not None:
        num_samples = args.samples
    else:
        num_samples = 4000 if args.quick else MC_SAMPLES
    rows = report(num_samples, repeats=1 if args.quick else 3)
    fpga_speedup = float(rows[0][4].rstrip("x"))
    if not args.quick and fpga_speedup < 10.0:
        print(f"FAIL: speedup {fpga_speedup:.1f}x < 10x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
