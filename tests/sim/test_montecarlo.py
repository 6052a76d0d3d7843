"""Tests for the stage-delay Monte-Carlo harness."""

import numpy as np
import pytest

from repro.runners.config import RunConfig
from repro.sim.montecarlo import (
    MonteCarloResult,
    run_montecarlo,
    uniform_digit_batch,
)


class TestUniformBatch:
    def test_shape_and_values(self):
        rng = np.random.default_rng(0)
        batch = uniform_digit_batch(8, 1000, rng)
        assert batch.shape == (8, 1000)
        assert set(np.unique(batch)) <= {-1, 0, 1}

    def test_roughly_uniform(self):
        rng = np.random.default_rng(1)
        batch = uniform_digit_batch(4, 30000, rng)
        for v in (-1, 0, 1):
            frac = (batch == v).mean()
            assert abs(frac - 1 / 3) < 0.02


class TestRunMontecarlo:
    @pytest.fixture(scope="class")
    def result(self):
        config = RunConfig(ndigits=8, seed=3, jobs=1, cache_dir=None)
        return run_montecarlo(config, num_samples=4000)

    def test_depths_default(self, result):
        assert result.depths[0] == 4  # delta + 1
        assert result.depths[-1] == 11  # N + delta

    def test_error_zero_at_full_depth(self, result):
        err, p = result.at_depth(11)
        assert err == 0.0 and p == 0.0

    def test_error_monotone(self, result):
        e = result.mean_abs_error
        assert all(a >= b for a, b in zip(e, e[1:]))

    def test_violations_monotone(self, result):
        p = result.violation_probability
        assert all(a >= b - 1e-12 for a, b in zip(p, p[1:]))

    def test_errors_present_when_overclocked(self, result):
        err, p = result.at_depth(5)
        assert err > 0
        assert 0 < p <= 1

    def test_normalized_periods(self, result):
        norm = result.normalized_periods()
        assert norm[-1] == pytest.approx(1.0)

    def test_at_depth_missing(self, result):
        with pytest.raises(KeyError):
            result.at_depth(99)

    def test_custom_depths(self):
        config = RunConfig(ndigits=6, seed=1, jobs=1, cache_dir=None)
        res = run_montecarlo(config, num_samples=500, depths=[5, 7])
        assert res.depths.tolist() == [5, 7]

    def test_deterministic_seed(self):
        config = RunConfig(ndigits=6, seed=5, jobs=1, cache_dir=None)
        a = run_montecarlo(config, num_samples=500)
        b = run_montecarlo(config, num_samples=500)
        assert np.array_equal(a.mean_abs_error, b.mean_abs_error)

    def test_errors_are_small_magnitude(self, result):
        """Online overclocking errors live in the LSDs: even one stage
        short, the mean error is far below the full-scale product."""
        err, _ = result.at_depth(8)
        assert err < 0.05
