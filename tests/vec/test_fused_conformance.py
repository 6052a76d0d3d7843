"""Fused-vs-unfused conformance: the one-pass sweep kernel is exact.

The fused sweep (:mod:`repro.vec.fused`) claims to change the *cost* of
a multi-period sweep — one stage-by-stage pass emitting snapshots for
every requested chain-cut depth — without changing a single digit of
it.  That claim is pinned here at three levels:

* **Kernel**: :func:`om_sweep_vector` rows are bit-identical to the
  corresponding ticks of the unfused vector wave *and* of the packed
  gate engine, for every depth in the grid, including duplicates,
  unsorted grids, depth 0 and beyond-settle clamping, and so are the
  rows :func:`stage_snapshots` reads on every engine.  Hypothesis
  drives the geometry ``(n, delta, period grid, seed)``.
* **Statistics**: :func:`fused_sweep_partial` equals the per-period
  oracle :func:`stage_sweep_partial` (one truncated wave per depth)
  float-for-float — both under the vector engine and under the packed
  engine, so the gate-level reference transitively covers the fused
  path.
* **Harness**: ``run_sweep(timing="stage")`` produces bit-identical
  :class:`SweepResult` arrays under ``backend="vector"`` and
  ``backend="packed"``, is ``jobs``-independent,
  round-trips through the result cache under keys separated from the
  gate-level sweep, from other backends and from other period grids,
  and emits the ``vec.fused_sweep`` span / ``vec.fused_periods``
  metric.

Cross-seed statistical agreement reuses the suite-wide tolerances of
``tests/vec/conftest.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.online_multiplier import OnlineMultiplier
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, use_tracer
from repro.runners import RunConfig
from repro.sim.error_profile import run_error_profile
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.sweep import (
    run_sweep,
    stage_steps_for_periods,
    stage_sweep_partial,
)
from repro.vec.fused import (
    fused_sweep_partial,
    om_sweep_vector,
    stage_snapshots,
)

from tests.vec.conftest import (
    assert_sweep_statistics_close,
    payload_bytes,
)

NDIGITS = 8
S_TOT = NDIGITS + 3
#: the benchmark workload's period grid: 25 normalized periods
PERIODS_25 = tuple(i / 25 for i in range(1, 26))


def _batch(ndigits, samples, seed):
    rng = np.random.default_rng(seed)
    return (
        uniform_digit_batch(ndigits, samples, rng),
        uniform_digit_batch(ndigits, samples, rng),
    )


def _config(backend, seed=2014, **kw):
    return RunConfig(
        ndigits=NDIGITS, backend=backend, seed=seed, cache_dir=None, **kw
    )


class TestKernelBitIdentity:
    def test_every_depth_matches_unfused_vector_and_packed(self):
        xd, yd = _batch(NDIGITS, 900, seed=7)
        om = OnlineMultiplier(NDIGITS)
        vector = om.wave(xd, yd, backend="vector")
        packed = om.wave(xd, yd, backend="packed")
        depths = list(range(S_TOT + 1))
        snaps = om_sweep_vector(NDIGITS, 3, xd, yd, depths)
        for i, b in enumerate(depths):
            np.testing.assert_array_equal(snaps[i], vector[b])
            np.testing.assert_array_equal(snaps[i], packed[b])
        # stage_snapshots reads the same rows on every engine, for
        # unsorted, duplicate, zero and beyond-settle depths; the engines
        # loop here (not a parametrize) so the test keeps its id
        grid = [9, 2, 2, 0, S_TOT, 5, S_TOT + 4, 99]
        for engine in ("vector", "packed", "wave"):
            snaps = stage_snapshots(NDIGITS, 3, xd, yd, grid, backend=engine)
            assert snaps.shape == (len(grid), NDIGITS, 900)
            for i, b in enumerate(grid):
                np.testing.assert_array_equal(snaps[i], vector[min(b, S_TOT)])
                np.testing.assert_array_equal(snaps[i], packed[min(b, S_TOT)])
            for bad in ([], [3, -1]):
                with pytest.raises(ValueError):
                    stage_snapshots(NDIGITS, 3, xd, yd, bad, backend=engine)

    def test_duplicates_and_order_are_honored(self):
        xd, yd = _batch(NDIGITS, 300, seed=11)
        full = om_sweep_vector(NDIGITS, 3, xd, yd, range(S_TOT + 1))
        depths = [9, 2, 2, 0, S_TOT, 5, 9]
        snaps = om_sweep_vector(NDIGITS, 3, xd, yd, depths)
        assert snaps.shape[0] == len(depths)
        for i, b in enumerate(depths):
            np.testing.assert_array_equal(snaps[i], full[b])

    def test_beyond_settle_clamps_to_settled_product(self):
        xd, yd = _batch(NDIGITS, 200, seed=13)
        settled = OnlineMultiplier(NDIGITS).wave(xd, yd, backend="vector")[-1]
        snaps = om_sweep_vector(NDIGITS, 3, xd, yd, [S_TOT, S_TOT + 1, 99])
        for row in snaps:
            np.testing.assert_array_equal(row, settled)

    def test_depth_zero_is_reset_state(self):
        xd, yd = _batch(NDIGITS, 64, seed=17)
        snaps = om_sweep_vector(NDIGITS, 3, xd, yd, [0])
        assert not snaps.any()

    def test_invalid_grids_rejected(self):
        xd, yd = _batch(NDIGITS, 8, seed=19)
        with pytest.raises(ValueError):
            om_sweep_vector(NDIGITS, 3, xd, yd, [])
        with pytest.raises(ValueError):
            om_sweep_vector(NDIGITS, 3, xd, yd, [3, -1])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 7),
        delta=st.integers(3, 5),
        periods=st.lists(
            st.floats(0.01, 1.3, allow_nan=False), min_size=1, max_size=12
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_fused_equals_unfused(self, n, delta, periods, seed):
        """For any geometry, grid and operand stream, fusion is exact."""
        xd, yd = _batch(n, 48, seed)
        depths = stage_steps_for_periods(periods, n + delta)
        om = OnlineMultiplier(n, delta)
        full = om.wave(xd, yd, backend="vector")
        snaps = om_sweep_vector(n, delta, xd, yd, depths)
        for i, b in enumerate(depths):
            np.testing.assert_array_equal(snaps[i], full[b])

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(1, 5),
        delta=st.integers(3, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_fused_matches_packed_gate_engine(self, n, delta, seed):
        xd, yd = _batch(n, 40, seed)
        om = OnlineMultiplier(n, delta)
        packed = om.wave(xd, yd, backend="packed")
        snaps = om_sweep_vector(n, delta, xd, yd, range(n + delta + 1))
        np.testing.assert_array_equal(snaps, packed)


class TestPartialEquivalence:
    def test_fused_partial_equals_vector_oracle(self):
        """Same floats, not merely close: fused vs one-wave-per-period."""
        xd, yd = _batch(NDIGITS, 1200, seed=23)
        grid = sorted(set(stage_steps_for_periods(PERIODS_25, S_TOT)))
        fused = fused_sweep_partial(NDIGITS, 3, xd, yd, grid)
        oracle = stage_sweep_partial(
            NDIGITS, 3, xd, yd, grid, backend="vector"
        )
        assert fused["settle_step"] == oracle["settle_step"]
        assert fused["rated_step"] == oracle["rated_step"]
        assert fused["num_samples"] == oracle["num_samples"]
        np.testing.assert_array_equal(fused["sum_err"], oracle["sum_err"])
        np.testing.assert_array_equal(fused["viol"], oracle["viol"])

    def test_fused_partial_equals_packed_oracle(self):
        xd, yd = _batch(NDIGITS, 800, seed=29)
        grid = sorted(set(stage_steps_for_periods(PERIODS_25, S_TOT)))
        fused = fused_sweep_partial(NDIGITS, 3, xd, yd, grid)
        oracle = stage_sweep_partial(
            NDIGITS, 3, xd, yd, grid, backend="packed"
        )
        np.testing.assert_array_equal(fused["sum_err"], oracle["sum_err"])
        np.testing.assert_array_equal(fused["viol"], oracle["viol"])


class TestHarnessConformance:
    def test_vector_equals_packed_bit_identical(self):
        fused = run_sweep(
            _config("vector"),
            num_samples=3000,
            timing="stage",
            periods=PERIODS_25,
        )
        oracle = run_sweep(
            _config("packed"),
            num_samples=3000,
            timing="stage",
            periods=PERIODS_25,
        )
        np.testing.assert_array_equal(fused.steps, oracle.steps)
        np.testing.assert_array_equal(
            fused.mean_abs_error, oracle.mean_abs_error
        )
        np.testing.assert_array_equal(
            fused.violation_probability, oracle.violation_probability
        )
        assert fused.error_free_step == oracle.error_free_step
        assert fused.settle_step == oracle.settle_step == S_TOT

    def test_cross_seed_statistics(self):
        a = run_sweep(
            _config("vector", seed=2014), num_samples=5000, timing="stage"
        )
        b = run_sweep(
            _config("packed", seed=99), num_samples=5000, timing="stage"
        )
        assert_sweep_statistics_close(a, b)

    def test_jobs_determinism(self):
        serial = run_sweep(
            _config("vector", jobs=1),
            num_samples=2500,
            timing="stage",
            periods=PERIODS_25,
        )
        pooled = run_sweep(
            _config("vector", jobs=3),
            num_samples=2500,
            timing="stage",
            periods=PERIODS_25,
        )
        np.testing.assert_array_equal(
            serial.mean_abs_error, pooled.mean_abs_error
        )
        np.testing.assert_array_equal(
            serial.violation_probability, pooled.violation_probability
        )

    def test_cache_roundtrip_and_key_separation(self, tmp_path):
        cfg = RunConfig(ndigits=5, backend="vector", cache_dir=str(tmp_path))
        first = run_sweep(cfg, num_samples=600, timing="stage")
        again = run_sweep(cfg, num_samples=600, timing="stage")
        assert first.run_stats.cache == "miss"
        assert again.run_stats.cache == "hit"
        np.testing.assert_array_equal(
            first.mean_abs_error, again.mean_abs_error
        )
        # a different period grid is a different experiment
        sparse = run_sweep(
            cfg, num_samples=600, timing="stage", periods=(0.5, 1.0)
        )
        assert sparse.run_stats.cache == "miss"
        assert len(sparse.steps) == 2
        # the engine is not part of the cache key: the packed oracle is
        # served the fused entry, byte-equal to a fresh packed run
        packed = run_sweep(
            RunConfig(ndigits=5, backend="packed", cache_dir=str(tmp_path)),
            num_samples=600,
            timing="stage",
        )
        assert packed.run_stats.cache == "hit"
        assert packed.run_stats.engine is None
        fresh = run_sweep(
            RunConfig(ndigits=5, backend="packed", cache_dir=None),
            num_samples=600,
            timing="stage",
        )
        assert fresh.run_stats.engine == "packed"
        assert payload_bytes(packed) == payload_bytes(fresh)
        # and the gate-level sweep is keyed apart from the stage sweep
        gate = run_sweep(
            RunConfig(ndigits=5, backend="packed", cache_dir=str(tmp_path)),
            num_samples=200,
        )
        assert gate.run_stats.cache == "miss"

    def test_stage_sweep_argument_validation(self):
        with pytest.raises(ValueError):
            run_sweep(
                _config("vector"), design="traditional", timing="stage"
            )
        with pytest.raises(ValueError):
            run_sweep(
                _config("vector"),
                timing="stage",
                periods=(0.5,),
                steps=(3,),
            )
        with pytest.raises(ValueError):
            run_sweep(_config("vector"), timing="stage", periods=())
        with pytest.raises(ValueError):
            run_sweep(_config("vector"), periods=(0.5,))  # gate timing
        with pytest.raises(ValueError):
            run_sweep(_config("vector"), timing="flux-capacitor")

    def test_fused_span_and_metric_emitted(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=str(sink), enabled=True)
        with use_tracer(tracer):
            run_sweep(
                _config("vector"),
                num_samples=500,
                timing="stage",
                periods=PERIODS_25,
            )
            snapshot = metrics().snapshot()
        tracer.flush()
        assert "vec.fused_sweep" in sink.read_text()
        assert snapshot["counters"].get("vec.fused_periods", 0) >= len(
            PERIODS_25
        )


class TestOneWavePerShard:
    """A stage-timing shard captures its whole grid from one wave."""

    @pytest.fixture
    def waves(self, monkeypatch):
        calls = []
        wave = OnlineMultiplier.wave

        def counting_wave(self, *args, **kwargs):
            calls.append(kwargs.get("max_ticks"))
            return wave(self, *args, **kwargs)

        monkeypatch.setattr(OnlineMultiplier, "wave", counting_wave)
        return calls

    def test_stage_sweep_shard(self, waves):
        result = run_sweep(
            _config("packed", jobs=1, shard_size=200),
            num_samples=400,
            timing="stage",
            periods=PERIODS_25,
        )
        assert result.run_stats.num_shards == 2
        assert waves == [S_TOT, S_TOT]

    def test_stage_profile_shard(self, waves):
        result = run_error_profile(
            _config("packed", jobs=1, shard_size=200),
            num_samples=400,
            steps=[2, 5, 7],
            timing="stage",
        )
        assert result.run_stats.num_shards == 2
        assert waves == [S_TOT, S_TOT]
