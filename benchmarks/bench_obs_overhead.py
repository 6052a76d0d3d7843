"""Overhead gate of the observability layer: disabled tracing is free.

Every hot path in the simulation stack carries ``current_tracer().span``
instrumentation (see DESIGN.md, "Observability").  The design budget is
**< 3% overhead with tracing disabled** on the packed-engine acceptance
workload of ``bench_packed_vs_wave`` — i.e. the default, untraced
configuration must pay nothing measurable for the instrumentation
being *present*.

The measurement mirrors the real instrumentation density of a
Monte-Carlo shard (one ``shard`` span plus one ``mc.simulate`` span per
shard, an ambient-tracer lookup each): a sweep of packed-engine shard
simulations is timed twice over — an uninstrumented twin of the loop
body, and the instrumented loop under the ``DISABLED`` tracer — and the
relative difference is asserted against the budget.

Run standalone (``python benchmarks/bench_obs_overhead.py [--quick]``)
for the CI gate, or through pytest-benchmark for the timed kernel.
"""

import time

import numpy as np

from _common import emit
from repro.core.online_multiplier import OnlineMultiplier
from repro.netlist.compiled import compile_circuit
from repro.netlist.delay import FpgaDelay
from repro.obs.trace import DISABLED, current_tracer, use_tracer
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.reporting import format_table
from repro.sim.sweep import OnlineMultiplierHarness

NDIGITS = 8
OVERHEAD_BUDGET = 0.03  # relative; the DESIGN.md budget


def _shard_ports(num_shards: int, shard_samples: int):
    rng = np.random.default_rng(2014)
    harness = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=NDIGITS
    )
    return [
        harness.encode(
            uniform_digit_batch(NDIGITS, shard_samples, rng),
            uniform_digit_batch(NDIGITS, shard_samples, rng),
        )
        for _ in range(num_shards)
    ]


def _sweep_plain(packed, shards):
    """Uninstrumented twin of the instrumented shard loop."""
    for ports in shards:
        packed.run(ports)


def _sweep_instrumented(packed, shards):
    """The loop as the montecarlo shard worker instruments it."""
    tracer = current_tracer()
    for i, ports in enumerate(shards):
        with tracer.span("shard", shard=i, samples=len(shards)):
            with current_tracer().span("mc.simulate", backend="packed"):
                packed.run(ports)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(num_shards: int, shard_samples: int, repeats: int = 5):
    """Best-of-N timings of both loops with tracing disabled."""
    circuit = OnlineMultiplier(NDIGITS).build_circuit()
    packed = compile_circuit(circuit, FpgaDelay())  # warm the compile cache
    shards = _shard_ports(num_shards, shard_samples)
    _sweep_plain(packed, shards)  # warm numpy/allocator paths
    with use_tracer(DISABLED):
        t_plain = _best_of(lambda: _sweep_plain(packed, shards), repeats)
        t_instr = _best_of(
            lambda: _sweep_instrumented(packed, shards), repeats
        )
    overhead = t_instr / t_plain - 1.0
    return t_plain, t_instr, overhead


def report(
    num_shards: int,
    shard_samples: int,
    repeats: int = 5,
    persist: bool = True,
):
    t_plain, t_instr, overhead = measure(num_shards, shard_samples, repeats)
    emit(
        "obs_overhead",
        format_table(
            ["loop", "time (ms)", "overhead"],
            [
                ["uninstrumented", f"{t_plain * 1e3:.1f}", "-"],
                [
                    "instrumented, tracing off",
                    f"{t_instr * 1e3:.1f}",
                    f"{100 * overhead:+.2f}%",
                ],
            ],
            title=(
                f"{NDIGITS}-digit OM packed engine, {num_shards} shards x "
                f"{shard_samples} samples: disabled-tracing overhead "
                f"(budget {100 * OVERHEAD_BUDGET:.0f}%)"
            ),
        ),
        persist=persist,
    )
    return overhead


def test_disabled_tracing_overhead(benchmark):
    overhead = report(num_shards=32, shard_samples=250)
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled tracing costs {100 * overhead:.2f}% "
        f"(budget {100 * OVERHEAD_BUDGET:.0f}%)"
    )

    circuit = OnlineMultiplier(NDIGITS).build_circuit()
    packed = compile_circuit(circuit, FpgaDelay())
    shards = _shard_ports(8, 250)
    with use_tracer(DISABLED):
        benchmark(lambda: _sweep_instrumented(packed, shards))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer shards and repeats (CI smoke run)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        overhead = report(
            num_shards=16, shard_samples=250, repeats=3, persist=False
        )
    else:
        overhead = report(num_shards=64, shard_samples=500, repeats=5)
    if overhead >= OVERHEAD_BUDGET:
        print(
            f"FAIL: disabled tracing costs {100 * overhead:.2f}% "
            f"(budget {100 * OVERHEAD_BUDGET:.0f}%)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
