"""Ablation: where overclocking errors land, digit by digit.

The quantitative version of the paper's central mechanism (and of the
Fig. 7 visuals): per-output-digit error rates as the clock tightens.  The
online multiplier's error front starts at the LSD and marches toward the
MSD; the conventional multiplier's front starts at the MSB.
"""

import numpy as np

from _common import emit
from repro.netlist.delay import FpgaDelay
from repro.sim.error_profile import (
    digit_error_profile,
    online_digit_groups,
    traditional_bit_groups,
)
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.sweep import OnlineMultiplierHarness, TraditionalMultiplierHarness
from repro.sim.reporting import format_table

N = 8
SAMPLES = 3000
FRACTIONS = (0.95, 0.85, 0.75, 0.6)


def _profile_online():
    rng = np.random.default_rng(41)
    harness = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=N, delay_model=FpgaDelay()
    )
    ports = harness.encode(
        uniform_digit_batch(N, SAMPLES, rng),
        uniform_digit_batch(N, SAMPLES, rng),
    )
    result = harness.simulator.run(ports)
    steps = [int(result.settle_step * f) for f in FRACTIONS]
    spec = online_digit_groups(N)
    return digit_error_profile(result, steps=steps, **spec), result


def _profile_traditional():
    rng = np.random.default_rng(42)
    harness = TraditionalMultiplierHarness.from_spec(
        "array-mult", width=N + 1, delay_model=FpgaDelay()
    )
    ports = harness.encode(
        rng.integers(-255, 256, SAMPLES), rng.integers(-255, 256, SAMPLES)
    )
    result = harness.simulator.run(ports)
    steps = [int(result.settle_step * f) for f in FRACTIONS]
    spec = traditional_bit_groups(N + 1)
    return digit_error_profile(result, steps=steps, **spec), result


def test_ablation_error_anatomy(benchmark):
    online, online_res = _profile_online()
    trad, trad_res = _profile_traditional()

    rows = []
    for frac in FRACTIONS:
        t_on = int(online_res.settle_step * frac)
        t_tr = int(trad_res.settle_step * frac)
        rows.append(
            [
                f"{frac:.2f}",
                online.first_affected(t_on),
                f"{online.mean_position_index(t_on):.1f}",
                trad.first_affected(t_tr),
                f"{trad.mean_position_index(t_tr):.1f}",
            ]
        )
    emit(
        "ablation_error_anatomy",
        format_table(
            ["period/settle", "online 1st bad digit", "online mean pos",
             "trad 1st bad bit", "trad mean pos"],
            rows,
            title=(
                f"Ablation ({N}-digit operators): error anatomy under "
                "overclocking — positions are MSD/MSB-first indices"
            ),
        ),
    )

    # the paper's mechanism: at mild overclocking the online front sits in
    # the lower half of the digits while the traditional front is already
    # in the upper product bits
    t_on = int(online_res.settle_step * 0.95)
    bad_row = online.rates[int(np.searchsorted(online.steps, t_on))]
    first_bad = int(np.nonzero(bad_row > 0)[0].min()) if bad_row.max() > 0 else N
    assert first_bad >= N // 2

    t_tr = int(trad_res.settle_step * 0.85)
    row_tr = trad.rates[int(np.searchsorted(trad.steps, t_tr))]
    first_bad_tr = (
        int(np.nonzero(row_tr > 0)[0].min()) if row_tr.max() > 0 else 2 * N
    )
    assert first_bad_tr < N

    benchmark(online.mean_position_index, t_on)
