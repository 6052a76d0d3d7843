"""Every capture-depth grid rejects an empty grid and a negative depth.

A negative depth used to index the wave from its end (the settled
product), so it reported zero error instead of failing; an empty grid
returned an empty result.  ``OnlineMultiplier.wave`` likewise rejects a
negative tick budget on every engine instead of returning no ticks.
"""

import numpy as np
import pytest

from repro.core.online_multiplier import OnlineMultiplier
from repro.obs.probe import run_stage_probe
from repro.runners import RunConfig
from repro.sim.error_profile import run_error_profile
from repro.sim.montecarlo import run_montecarlo
from repro.sim.sweep import run_sweep

CONFIG = RunConfig(ndigits=4, jobs=1, cache_dir=None, shard_size=100)
DIGITS = np.zeros((4, 8), dtype=np.int8)


def _wave_cut_at_shallowest(engine):
    """``wave`` cut at the grid's shallowest depth (-1 for an empty grid)."""
    return lambda g: OnlineMultiplier(4).wave(
        DIGITS, DIGITS, max_ticks=min(g, default=-1), backend=engine
    )


ENTRY_POINTS = {
    "montecarlo": lambda g: run_montecarlo(CONFIG, 100, depths=g),
    "stage_probe": lambda g: run_stage_probe(CONFIG, 100, depths=g),
    "sweep_stage": lambda g: run_sweep(
        CONFIG, num_samples=100, timing="stage", steps=g
    ),
    "error_profile_stage": lambda g: run_error_profile(
        CONFIG, num_samples=100, steps=g, timing="stage"
    ),
    "error_profile_gate": lambda g: run_error_profile(
        CONFIG, num_samples=100, steps=g
    ),
    **{
        f"wave_{e}": _wave_cut_at_shallowest(e)
        for e in ("vector", "packed", "wave")
    },
}


@pytest.mark.parametrize("grid", [[-1, 0, 7], [-1, 3], []], ids=repr)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_bad_grid_rejected(name, grid):
    with pytest.raises(ValueError, match="capture-depth grid|>= 0"):
        ENTRY_POINTS[name](grid)


def test_sweep_periods_grid_must_be_non_empty():
    with pytest.raises(ValueError, match="capture-depth grid"):
        run_sweep(CONFIG, num_samples=100, timing="stage", periods=[])
