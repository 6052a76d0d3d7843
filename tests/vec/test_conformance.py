"""Cross-engine conformance: ``backend="vector"`` vs the packed engine.

Two claims are pinned here, matching the acceptance criteria of the
vector engine:

* **Exact agreement on violation-free periods** (and in fact at every
  tick): with the same ``RunConfig`` seed, the vector and packed engines
  produce bit-identical digit waves, hence identical Monte-Carlo
  statistics at every depth — including the deep, violation-free periods
  where any deviation would be a correctness bug rather than noise.
* **Statistical agreement on overclocked periods** across *different*
  seeds: violation rates, ``E|eps|`` (the Monte-Carlo MRE analog), and
  first-erroneous-digit histograms drawn from independent sample streams
  must agree within sampling noise.  The tolerances are the suite-wide
  constants of ``tests/vec/conftest.py`` (``VIOLATION_TOL``,
  ``MAE_TOL``, ``TV_TOL``), shared with the fused-sweep suite.

Determinism (``jobs=1 == jobs=N``) and result-cache round-trips under
``backend="vector"`` ride along, since both are part of the backend
contract RunConfig promises.
"""

import numpy as np
import pytest

from repro.core.online_multiplier import OnlineMultiplier
from repro.obs.probe import run_stage_probe
from repro.runners import RunConfig
from repro.sim.montecarlo import run_montecarlo, uniform_digit_batch

from tests.vec.conftest import (
    assert_histograms_close,
    assert_sweep_statistics_close,
    payload_bytes,
)

NDIGITS = 8
SAMPLES = 5000


def _config(backend, seed=2014, **kw):
    return RunConfig(
        ndigits=NDIGITS, backend=backend, seed=seed, cache_dir=None, **kw
    )


class TestExactAgreement:
    def test_montecarlo_identical_with_same_seed(self):
        ref = run_montecarlo(_config("packed"), SAMPLES)
        res = run_montecarlo(_config("vector"), SAMPLES)
        np.testing.assert_array_equal(res.depths, ref.depths)
        np.testing.assert_array_equal(res.mean_abs_error, ref.mean_abs_error)
        np.testing.assert_array_equal(
            res.violation_probability, ref.violation_probability
        )

    def test_violation_free_periods_bit_exact(self):
        # Depths at which the packed engine reports zero violations must
        # carry *digit-identical* waves on the vector engine — and both
        # must equal the fully settled product there.
        om = OnlineMultiplier(NDIGITS)
        rng = np.random.default_rng(42)
        xd = uniform_digit_batch(NDIGITS, 512, rng)
        yd = uniform_digit_batch(NDIGITS, 512, rng)
        ref = om.wave(xd, yd, backend="packed")
        res = om.wave(xd, yd, backend="vector")
        np.testing.assert_array_equal(res, ref)
        settled = ref[-1]
        for b in range(ref.shape[0]):
            if np.array_equal(ref[b], settled):
                np.testing.assert_array_equal(res[b], settled)

    def test_settled_product_value_bound(self):
        # Ground truth, independent of any engine: the settled wave value
        # satisfies the paper's residual bound |x*y - z| < 2**-(N-1).
        om = OnlineMultiplier(NDIGITS)
        rng = np.random.default_rng(11)
        xd = uniform_digit_batch(NDIGITS, 256, rng)
        yd = uniform_digit_batch(NDIGITS, 256, rng)
        final = om.wave(xd, yd, backend="vector")[-1]
        weights = 2.0 ** -(np.arange(1, NDIGITS + 1))
        xval = weights @ xd
        yval = weights @ yd
        zval = weights @ final
        assert np.max(np.abs(xval * yval - zval)) < 2.0 ** -(NDIGITS - 1)


class TestStatisticalAgreement:
    def test_overclocked_statistics_across_seeds(self):
        a = run_montecarlo(_config("vector", seed=2014), SAMPLES)
        b = run_montecarlo(_config("packed", seed=99), SAMPLES)
        assert_sweep_statistics_close(a, b)

    def test_first_error_histograms(self):
        same = run_stage_probe(_config("vector"), SAMPLES)
        ref = run_stage_probe(_config("packed"), SAMPLES)
        # same seed: bit-identical telemetry
        np.testing.assert_array_equal(
            same.first_error_counts, ref.first_error_counts
        )
        np.testing.assert_array_equal(
            same.value_violations, ref.value_violations
        )
        np.testing.assert_array_equal(
            same.chain_depth_counts, ref.chain_depth_counts
        )
        # independent seed: distributions agree within sampling noise
        other = run_stage_probe(_config("packed", seed=99), SAMPLES)
        assert_histograms_close(
            same.first_error_counts, other.first_error_counts, SAMPLES
        )


class TestRunnerContract:
    def test_jobs_determinism(self):
        serial = run_montecarlo(_config("vector", jobs=1), SAMPLES)
        pooled = run_montecarlo(_config("vector", jobs=3), SAMPLES)
        np.testing.assert_array_equal(
            serial.mean_abs_error, pooled.mean_abs_error
        )
        np.testing.assert_array_equal(
            serial.violation_probability, pooled.violation_probability
        )

    def test_cache_roundtrip_and_key_separation(self, tmp_path):
        cfg = RunConfig(
            ndigits=6, backend="vector", cache_dir=str(tmp_path)
        )
        first = run_montecarlo(cfg, 2000)
        second = run_montecarlo(cfg, 2000)
        assert first.run_stats.cache == "miss"
        assert second.run_stats.cache == "hit"
        np.testing.assert_array_equal(
            first.mean_abs_error, second.mean_abs_error
        )
        # the engine is not part of the cache key: packed is served the
        # vector entry, and that answer is byte-equal to a fresh packed run
        packed = run_montecarlo(
            RunConfig(ndigits=6, backend="packed", cache_dir=str(tmp_path)),
            2000,
        )
        assert packed.run_stats.cache == "hit"
        assert packed.run_stats.engine is None
        fresh = run_montecarlo(
            RunConfig(ndigits=6, backend="packed", cache_dir=None), 2000
        )
        assert fresh.run_stats.engine == "packed"
        assert payload_bytes(packed) == payload_bytes(fresh)
