"""Ablation: does the online advantage survive FPGA carry chains?

Real FPGA fabric accelerates ripple-carry topologies with dedicated
MUXCY/CARRY4 chains, which is exactly why the paper's CoreGen baseline is
fast — and a potential threat to the reproduction's conclusions, since our
default delay model charges every adder level a full LUT hop.

This bench re-runs the raw multiplier comparison under
:class:`repro.netlist.CarryChainDelay` with the authentic fast baseline
(compressor + ripple adder riding the chain) and shows that while the
traditional design's rated frequency roughly doubles, the *overclocking*
contrast — orders-of-magnitude smaller online errors at matched
normalized factors — is unchanged.  The paper's claim is robust to the
carry-chain objection.
"""

import numpy as np

from _common import emit
from repro.arith.array_multiplier import build_array_multiplier
from repro.netlist.delay import CarryChainDelay, FpgaDelay
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.reporting import format_table
from repro.sim.sweep import (
    OnlineMultiplierHarness,
    SweepHarness,
    TraditionalMultiplierHarness,
)

N = 8
SAMPLES = 3000
FACTORS = (1.05, 1.15, 1.25)


def _array_baseline(width, delay_model):
    return TraditionalMultiplierHarness.from_spec(
        "array-mult", width=width, delay_model=delay_model
    )


class _RippleBaseline(TraditionalMultiplierHarness):
    """Baugh-Wooley compressor + ripple final adder (carry-chain style)."""

    def __init__(self, width, delay_model):
        self.width = width
        SweepHarness.__init__(
            self,
            build_array_multiplier(width, final_adder="ripple"),
            delay_model,
        )


def test_ablation_carry_chains(benchmark):
    rng = np.random.default_rng(47)
    xd = uniform_digit_batch(N, SAMPLES, rng)
    yd = uniform_digit_batch(N, SAMPLES, rng)
    xs = rng.integers(-255, 256, SAMPLES)
    ys = rng.integers(-255, 256, SAMPLES)

    scenarios = [
        ("LUT-only fabric", FpgaDelay, _array_baseline),
        ("carry-chain fabric", CarryChainDelay, _RippleBaseline),
    ]
    rows = []
    gaps = {}
    for label, delay_factory, baseline in scenarios:
        online = OnlineMultiplierHarness.from_spec(
            "online-mult", ndigits=N, delay_model=delay_factory()
        ).sweep(xd, yd)
        trad = baseline(N + 1, delay_factory()).sweep(xs, ys)
        for factor in FACTORS:
            e_o = online.at_normalized_frequency(factor)
            e_t = trad.at_normalized_frequency(factor)
            gaps[(label, factor)] = (e_t / e_o) if e_o > 0 else float("inf")
            rows.append(
                [
                    label,
                    f"{factor:.2f}x",
                    trad.rated_step,
                    online.rated_step,
                    f"{e_t:.3e}",
                    f"{e_o:.3e}",
                ]
            )
    emit(
        "ablation_carry_chains",
        format_table(
            ["fabric", "overclock", "trad rated", "online rated",
             "trad |err|", "online |err|"],
            rows,
            title=(
                f"Ablation ({N}-digit multipliers): the online advantage "
                "under carry-chain-accelerated fabric"
            ),
        ),
    )

    # the contrast survives the carry-chain objection at every factor
    for factor in FACTORS:
        assert gaps[("carry-chain fabric", factor)] > 5.0

    benchmark(
        OnlineMultiplierHarness.from_spec(
            "online-mult", ndigits=N, delay_model=CarryChainDelay()
        ).sweep,
        xd[:, :500],
        yd[:, :500],
    )
