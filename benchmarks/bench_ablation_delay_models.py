"""Ablation: sensitivity of the results to the gate-delay model.

The paper verifies its model twice — under idealized uniform stage delays
and on real FPGA timing.  This bench quantifies how the measured
annihilation headroom (error-free period / structural period) of the
online multiplier changes between the unit-delay model and jittered
FPGA-like models of increasing routing variance: jitter excites glitch
paths and erodes (but does not destroy) the headroom.
"""

import numpy as np

from _common import emit
from repro.netlist.delay import FpgaDelay, UnitDelay
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.reporting import format_table
from repro.sim.sweep import OnlineMultiplierHarness

N = 8
SAMPLES = 3000


def test_ablation_delay_models(benchmark):
    rng = np.random.default_rng(17)
    xd = uniform_digit_batch(N, SAMPLES, rng)
    yd = uniform_digit_batch(N, SAMPLES, rng)
    models = [
        ("unit", UnitDelay()),
        ("fpga jitter 0", FpgaDelay(base=4, jitter_min=0, jitter_max=0)),
        ("fpga jitter +-1", FpgaDelay(base=4, jitter_min=0, jitter_max=2)),
        ("fpga jitter +-2", FpgaDelay(base=3, jitter_min=0, jitter_max=4)),
    ]
    rows = []
    headrooms = {}
    for name, model in models:
        harness = OnlineMultiplierHarness.from_spec(
            "online-mult", ndigits=N, delay_model=model
        )
        res = harness.sweep(xd, yd)
        headroom = res.rated_step / res.error_free_step - 1
        headrooms[name] = headroom
        rows.append(
            [
                name,
                res.rated_step,
                res.error_free_step,
                f"{100 * headroom:.1f}%",
            ]
        )
    emit(
        "ablation_delay_models",
        format_table(
            ["delay model", "rated period", "error-free period", "headroom"],
            rows,
            title=(
                f"Ablation ({N}-digit OM): overclocking headroom vs "
                "delay-model fidelity"
            ),
        ),
    )

    # headroom exists under every model and is largest without jitter
    assert all(h > 0 for h in headrooms.values())
    assert headrooms["unit"] >= headrooms["fpga jitter +-2"] - 0.02

    harness = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=N, delay_model=UnitDelay()
    )
    benchmark(harness.sweep, xd[:, :500], yd[:, :500])
