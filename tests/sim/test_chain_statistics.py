"""Tests for empirical settling-depth statistics and model calibration."""

import numpy as np
import pytest

from repro.core.conversion import digits_to_scaled_int
from repro.core.model import OverclockingErrorModel
from repro.core.online_multiplier import OnlineMultiplier
from repro.runners import RunConfig
from repro.sim.montecarlo import (
    default_depths,
    run_montecarlo,
    settle_depths,
    uniform_digit_batch,
)


@pytest.fixture(scope="module")
def waves8():
    """One N=8 operand batch through the stage-delay wave, shared by the
    settling histogram and the violation curve it is compared with."""
    rng = np.random.default_rng(5)
    xd = uniform_digit_batch(8, 6000, rng)
    yd = uniform_digit_batch(8, 6000, rng)
    return OnlineMultiplier(8).wave(xd, yd)


@pytest.fixture(scope="module")
def hist8(waves8):
    values, counts = np.unique(settle_depths(waves8), return_counts=True)
    total = waves8.shape[2]
    return {int(v): float(c) / total for v, c in zip(values, counts)}


def _violation_curve(waves):
    """``(depths, P(violation))``: the fraction of samples whose product
    captured after ``b`` ticks differs from the final one."""
    final = digits_to_scaled_int(waves[-1])
    depths = default_depths(8, 3)
    rates = [
        float((digits_to_scaled_int(waves[min(b, waves.shape[0] - 1)])
               != final).mean())
        for b in depths
    ]
    return depths, rates


class TestSettleDepthHistogram:
    def test_is_distribution(self, hist8):
        assert abs(sum(hist8.values()) - 1.0) < 1e-9
        assert all(v > 0 for v in hist8.values())

    def test_bounded_by_annihilation(self, hist8):
        """No sample settles later than the longest possible chain + 1."""
        longest = (8 + 2 * 3) // 2
        assert max(hist8) <= longest + 1

    def test_long_chains_are_common(self, hist8):
        """The paper's Fig. 5 observation: long chains occur with high
        probability in the OM (they are input-insensitive and overlap)."""
        deep = sum(v for d, v in hist8.items() if d >= 7)
        assert deep > 0.5

    def test_dominates_violation_curve(self, waves8, hist8):
        """P(depth > b) upper-bounds the pointwise MC violation rate (a
        sample may transiently coincide with its final value, so settling
        is not per-sample monotone), and the two agree at the deepest
        violating depth.  Both curves come from the same samples."""
        depths, violation = _violation_curve(waves8)
        last_violating = None
        for i, b in enumerate(depths):
            tail = sum(v for d, v in hist8.items() if d > int(b))
            assert tail >= violation[i] - 1e-9
            if violation[i] > 0:
                last_violating = i
        assert last_violating is not None
        b = int(depths[last_violating])
        tail = sum(v for d, v in hist8.items() if d > b)
        assert tail == pytest.approx(violation[last_violating], abs=1e-9)


class TestCalibration:
    def test_fit_improves_agreement(self):
        mc = run_montecarlo(
            RunConfig(ndigits=8, seed=7, cache_dir=None), num_samples=6000
        )
        model = OverclockingErrorModel(8)
        fitted = model.calibrated(
            [int(b) for b in mc.depths], mc.mean_abs_error
        )

        def loss(m):
            total = 0.0
            count = 0
            for i, b in enumerate(mc.depths):
                e_mc = mc.mean_abs_error[i]
                e_m = m.expected_error(int(b)) if int(b) < m.num_stages else 0
                if e_mc > 0 and e_m > 0:
                    total += abs(np.log(e_m / e_mc))
                    count += 1
            return total / count

        assert loss(fitted) <= loss(model) + 1e-9
        assert fitted.kappa != model.kappa

    def test_fit_requires_overlap(self):
        model = OverclockingErrorModel(8)
        with pytest.raises(ValueError):
            model.calibrated([20], [0.0])

    def test_fit_recovers_scale(self):
        """Fitting a model against its own scaled predictions recovers the
        scale factor."""
        model = OverclockingErrorModel(8, kappa=1.0)
        depths = [4, 5, 6]
        fake = [2.0 * model.expected_error(b) for b in depths]
        fitted = model.calibrated(depths, fake)
        assert fitted.kappa == pytest.approx(2.0)
