"""Tests for per-digit error profiling — the LSD-vs-MSB contrast."""

import numpy as np
import pytest

from repro.netlist.delay import UnitDelay
from repro.sim.error_profile import (
    digit_error_profile,
    online_digit_groups,
    traditional_bit_groups,
)
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.sweep import OnlineMultiplierHarness, TraditionalMultiplierHarness


@pytest.fixture(scope="module")
def online_profile():
    n = 8
    harness = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=n, delay_model=UnitDelay()
    )
    rng = np.random.default_rng(31)
    ports = harness.encode(
        uniform_digit_batch(n, 1500, rng), uniform_digit_batch(n, 1500, rng)
    )
    result = harness.simulator.run(ports)
    spec = online_digit_groups(n)
    steps = list(range(result.settle_step + 1))
    return digit_error_profile(result, steps=steps, **spec), result


@pytest.fixture(scope="module")
def trad_profile():
    w = 9
    harness = TraditionalMultiplierHarness.from_spec(
        "array-mult", width=w, delay_model=UnitDelay()
    )
    rng = np.random.default_rng(32)
    ports = harness.encode(
        rng.integers(-255, 256, 1500), rng.integers(-255, 256, 1500)
    )
    result = harness.simulator.run(ports)
    spec = traditional_bit_groups(w)
    steps = list(range(result.settle_step + 1))
    return digit_error_profile(result, steps=steps, **spec), result


class TestProfiles:
    def test_shape(self, online_profile):
        profile, result = online_profile
        assert profile.rates.shape == (result.settle_step + 1, 8)

    def test_settled_profile_clean(self, online_profile):
        profile, result = online_profile
        assert profile.rates[result.settle_step].max() == 0.0

    def test_online_errors_start_at_lsd(self, online_profile):
        """Just below the error-free point, only the bottom digits err."""
        profile, result = online_profile
        # find the largest step with any error
        dirty = [t for t in profile.steps if profile.rates[t].max() > 0]
        t = max(dirty)
        row = profile.rates[t]
        bad = np.nonzero(row > 0)[0]
        assert bad.min() >= 8 // 2  # no errors in the top half of digits

    def test_traditional_errors_start_at_msb(self, trad_profile):
        """The conventional multiplier's first violations sit in the
        upper product bits (the end of the carry network)."""
        profile, _result = trad_profile
        dirty = [t for t in profile.steps if profile.rates[t].max() > 0]
        t = max(dirty)
        row = profile.rates[t]
        bad = np.nonzero(row > 0)[0]
        # positions are MSB-first: an early index = a significant bit
        assert bad.min() < 6

    def test_mean_position_moves_up_with_overclock(self, online_profile):
        """Cutting the clock deeper pushes errors toward the MSD side."""
        profile, result = online_profile
        deep = profile.mean_position_index(result.settle_step // 2)
        shallow = profile.mean_position_index(
            int(result.settle_step * 0.9)
        )
        assert deep <= shallow + 1e-9

    def test_first_affected_label(self, online_profile):
        profile, result = online_profile
        assert profile.first_affected(result.settle_step) == "<none>"
        label = profile.first_affected(result.settle_step // 2)
        assert label.startswith("z")

    def test_spec_validation(self, online_profile):
        _profile, result = online_profile
        with pytest.raises(ValueError):
            digit_error_profile(result, [["zp0"]], ["a", "b"], [1])
