"""Golden-value pinning of the N=8 Monte-Carlo error curve.

``run_montecarlo`` is fully deterministic given its seed (and shard
layout), and every simulation engine is bit-identical, so the
mean-absolute-error at any sampling depth is a *constant* of the
repository.  Pinning three depths to stored values turns any silent
numerical drift — a kernel change, an ops-provider change, a packing
bug, a change to the seed-split shard stream — into a loud test failure.

The constants are those of the seed-2014, 20000-sample run the CLI
``model`` command makes by default (Fig. 4 top, N=8, delta=3); the last
test checks the CLI prints them.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.runners import RunConfig
from repro.sim.montecarlo import run_montecarlo

#: depth b -> (E|eps|, P(violation)) for N=8, delta=3, seed=2014, S=20000
GOLDEN = {
    4: (0.1548701171875, 0.986),
    5: (0.039287109375, 0.94795),
    6: (0.009794921875, 0.8221),
}

TOL = 1e-12


@pytest.fixture(scope="module", params=["vector", "packed", "wave"])
def mc(request):
    config = RunConfig(
        ndigits=8, seed=2014, cache_dir=None, backend=request.param
    )
    return run_montecarlo(config, num_samples=20000)


@pytest.mark.parametrize("depth", sorted(GOLDEN))
def test_mean_abs_error_pinned(mc, depth):
    want_err, want_viol = GOLDEN[depth]
    got_err, got_viol = mc.at_depth(depth)
    assert got_err == pytest.approx(want_err, abs=TOL)
    assert got_viol == pytest.approx(want_viol, abs=TOL)


def test_settled_depths_are_error_free(mc):
    """From depth N (=8) on, every sample has settled: exact zero error."""
    for depth in range(8, int(mc.depths[-1]) + 1):
        err, viol = mc.at_depth(depth)
        assert err == 0.0
        assert viol == 0.0


def test_curve_is_monotone_decreasing(mc):
    assert np.all(np.diff(mc.mean_abs_error) <= 0)
    assert np.all(np.diff(mc.violation_probability) <= 0)


def test_cli_model_prints_the_golden_values(capsys):
    assert main(["model", "--no-cache"]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 5 and cells[0].isdigit():
            rows[int(cells[0])] = (cells[2], cells[4])
    for depth, (want_err, want_viol) in GOLDEN.items():
        assert rows[depth] == (f"{want_err:.4e}", f"{want_viol:.4f}")
