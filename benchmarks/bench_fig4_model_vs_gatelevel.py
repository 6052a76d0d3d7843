"""Fig. 4 (bottom row): model vs gate-level "FPGA" results.

The paper's bottom row validates the model against post place-and-route
FPGA measurements.  The reproduction's stand-in is the gate-level waveform
simulation under the jittered FPGA-like delay model: real per-instance
delays, glitches and non-uniform stage depths — exactly the effects the
paper says its model does not fully capture (the small-error tail).
"""

import numpy as np
import pytest

from _common import emit
from repro.core.model import OverclockingErrorModel
from repro.netlist.delay import FpgaDelay
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.reporting import format_table
from repro.sim.sweep import OnlineMultiplierHarness

SAMPLES = 4000


@pytest.mark.parametrize("ndigits", [8, 12])
def test_fig4_model_vs_gatelevel(benchmark, ndigits):
    rng = np.random.default_rng(4)
    harness = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=ndigits, delay_model=FpgaDelay()
    )
    xd = uniform_digit_batch(ndigits, SAMPLES, rng)
    yd = uniform_digit_batch(ndigits, SAMPLES, rng)
    sweep = harness.sweep(xd, yd)
    model = OverclockingErrorModel(ndigits)

    # express each gate-level clock period as an equivalent stage depth
    quanta_per_stage = sweep.settle_step / model.num_stages
    rows = []
    for b in range(model.delta + 1, model.num_stages + 1):
        step = int(round(b * quanta_per_stage))
        e_gate = sweep.at_step(step)
        e_model = model.expected_error(b) if b < model.num_stages else 0.0
        rows.append(
            [
                b,
                step,
                f"{b / model.num_stages:.3f}",
                f"{e_gate:.4e}",
                f"{e_model:.4e}",
            ]
        )
    emit(
        f"fig4_bottom_N{ndigits}",
        format_table(
            ["b", "period (quanta)", "Ts normalized",
             "gate-level E|eps|", "model E|eps|"],
            rows,
            title=(
                f"Fig. 4 bottom ({ndigits}-digit OM): gate-level FPGA-like "
                f"results vs model ({SAMPLES} UI samples, jittered delays)"
            ),
        ),
    )

    # the gate level shows errors at least as long as the model predicts,
    # and both decay with increasing period
    gate_errors = [float(r[3]) for r in rows]
    assert gate_errors[0] > 0
    assert gate_errors[0] >= gate_errors[len(gate_errors) // 2]

    # timed kernel: one full waveform simulation of the batch
    ports = harness.encode(xd[:, :500], yd[:, :500])
    benchmark(harness.simulator.run, ports)
