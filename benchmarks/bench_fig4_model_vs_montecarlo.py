"""Fig. 4 (top row): expected overclocking error — model vs Monte-Carlo.

Regenerates the verification of the Section-3 analytical model against
stage-delay Monte-Carlo simulations for 8- and 12-digit online
multipliers: ``E|eps|`` as a function of the normalized clock period
``T_S / ((N + delta) * mu)`` under uniform-independent inputs.
"""

import pytest

from _common import MC_SAMPLES, emit, run_config
from repro.core.model import OverclockingErrorModel, clear_tables
from repro.sim.montecarlo import run_montecarlo
from repro.sim.reporting import format_table


def _series(ndigits: int):
    mc = run_montecarlo(
        run_config(ndigits=ndigits, seed=2014), num_samples=MC_SAMPLES
    )
    model = OverclockingErrorModel(ndigits)
    rows = []
    for i, b in enumerate(mc.depths):
        b = int(b)
        e_model = (
            model.expected_error(b) if b < model.num_stages else 0.0
        )
        rows.append(
            [
                b,
                f"{b / model.num_stages:.3f}",
                f"{mc.mean_abs_error[i]:.4e}",
                f"{e_model:.4e}",
            ]
        )
    return rows


@pytest.mark.parametrize("ndigits", [8, 12])
def test_fig4_model_vs_montecarlo(benchmark, ndigits):
    rows = _series(ndigits)
    emit(
        f"fig4_top_N{ndigits}",
        format_table(
            ["b", "Ts normalized", "Monte-Carlo E|eps|", "model E|eps|"],
            rows,
            title=(
                f"Fig. 4 top ({ndigits}-digit OM): expectation of "
                "overclocking error, model vs Monte-Carlo "
                f"({MC_SAMPLES} UI samples)"
            ),
        ),
    )

    # sanity: shapes agree where both are non-trivial
    for row in rows:
        mc_e, model_e = float(row[2]), float(row[3])
        if mc_e > 1e-4 and model_e > 0:
            assert 0.1 < model_e / mc_e < 10.0

    # timed kernel: a cold analytical model evaluation (the shared
    # model tables are emptied first)
    model = OverclockingErrorModel(ndigits)

    def kernel():
        clear_tables()
        return [
            model.expected_error(b)
            for b in range(model.delta + 1, model.num_stages)
        ]

    benchmark(kernel)
