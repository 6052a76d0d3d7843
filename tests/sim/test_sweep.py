"""Tests for the gate-level overclocking sweep harnesses."""

import numpy as np
import pytest

from repro.netlist.delay import FpgaDelay, UnitDelay, delay_signature
from repro.netlist.sta import static_timing
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.sweep import (
    OnlineMultiplierHarness,
    SweepResult,
    TraditionalMultiplierHarness,
    max_error_free_step,
    worker_harness,
)
from tests.delay_models import HiddenTableDelay, aliasing_pair


@pytest.fixture(scope="module")
def online_sweep():
    rng = np.random.default_rng(7)
    harness = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=6, delay_model=UnitDelay()
    )
    xd = uniform_digit_batch(6, 800, rng)
    yd = uniform_digit_batch(6, 800, rng)
    return harness, harness.sweep(xd, yd)


@pytest.fixture(scope="module")
def trad_sweep():
    rng = np.random.default_rng(8)
    harness = TraditionalMultiplierHarness.from_spec(
        "array-mult", width=7, delay_model=UnitDelay()
    )
    xs = rng.integers(-63, 64, 800)
    ys = rng.integers(-63, 64, 800)
    return harness, harness.sweep(xs, ys)


class TestOnlineHarness:
    def test_final_values_are_products(self, online_sweep):
        harness, res = online_sweep
        assert res.mean_abs_error[res.settle_step] == 0.0

    def test_error_free_step_definition(self, online_sweep):
        _h, res = online_sweep
        t0 = max_error_free_step(res)
        assert np.all(res.mean_abs_error[t0:] == 0)
        assert res.mean_abs_error[t0 - 1] > 0

    def test_rated_vs_settle(self, online_sweep):
        _h, res = online_sweep
        assert res.rated_step == res.settle_step

    def test_annihilation_margin(self, online_sweep):
        """The measured error-free period is well below the structural
        rating — the paper's chain-annihilation headroom."""
        _h, res = online_sweep
        assert res.error_free_step < res.rated_step

    def test_at_normalized_frequency(self, online_sweep):
        _h, res = online_sweep
        assert res.at_normalized_frequency(1.0) == 0.0
        deep = res.at_normalized_frequency(1.6)
        assert deep >= 0.0

    def test_encode_values_roundtrip(self, online_sweep):
        harness, _res = online_sweep
        vals = np.array([17, -33, 0], dtype=np.int64)
        ports = harness.encode_values(vals, vals)
        # decode of settled outputs equals the (value/2^n)^2 products
        final = harness.simulator.run(ports).final()
        got = harness.decode(final)
        expect = (vals / 2**6) ** 2
        assert np.allclose(got, expect, atol=2**-6)

    def test_speedup_at_budget(self, online_sweep):
        _h, res = online_sweep
        gain = res.speedup_at_budget(1e9)  # everything within budget
        assert gain is not None and gain > 0
        tight = res.speedup_at_budget(0.0)
        assert tight == pytest.approx(0.0) or tight is None

    def test_invalid_factor(self, online_sweep):
        _h, res = online_sweep
        with pytest.raises(ValueError):
            res.at_normalized_frequency(0)


class TestTraditionalHarness:
    def test_products_correct_at_settle(self, trad_sweep):
        _h, res = trad_sweep
        assert res.mean_abs_error[res.settle_step] == 0.0

    def test_msb_errors_are_large(self, trad_sweep):
        """Overclocking the conventional multiplier produces errors with
        magnitudes near full scale (the MSB-first failure)."""
        _h, res = trad_sweep
        mid = res.error_free_step // 2
        assert res.mean_abs_error[mid] > 0.01

    def test_operand_overflow_rejected(self):
        harness = TraditionalMultiplierHarness.from_spec(
            "array-mult", width=4, delay_model=UnitDelay()
        )
        with pytest.raises(ValueError):
            harness.encode(np.array([100]), np.array([0]))


class TestAtStep:
    """`at_step` answers with the *nearest* grid step.

    It used to return the right neighbour unconditionally (a plain
    ``searchsorted``), so a query just past a grid point — e.g. the
    fractional periods `at_normalized_frequency` produces — silently
    read the optimistic (slower-clock) entry.
    """

    @pytest.fixture()
    def result(self):
        return SweepResult(
            steps=np.arange(5, dtype=np.int64),
            mean_abs_error=np.array([0.8, 0.4, 0.2, 0.1, 0.0]),
            violation_probability=np.array([1.0, 0.9, 0.5, 0.2, 0.0]),
            rated_step=4,
            settle_step=4,
            error_free_step=4,
            num_samples=100,
        )

    def test_on_grid_queries_are_exact(self, result):
        for i, step in enumerate(result.steps):
            assert result.at_step(float(step)) == result.mean_abs_error[i]

    def test_between_grid_picks_nearest(self, result):
        assert result.at_step(1.4) == 0.4  # closer to step 1
        assert result.at_step(1.6) == 0.2  # closer to step 2

    def test_midpoint_tie_breaks_pessimistic(self, result):
        # equidistant: prefer the smaller (faster-clock, larger-error) step
        assert result.at_step(1.5) == 0.4

    def test_clips_below_grid(self, result):
        assert result.at_step(-3.0) == 0.8

    def test_clips_above_grid(self, result):
        assert result.at_step(99.0) == 0.0


def _result(steps, errs, viols, *, error_free=None, settle=None):
    steps = np.asarray(steps, dtype=np.int64)
    settle = int(steps[-1]) if settle is None and len(steps) else (settle or 0)
    return SweepResult(
        steps=steps,
        mean_abs_error=np.asarray(errs, dtype=np.float64),
        violation_probability=np.asarray(viols, dtype=np.float64),
        rated_step=settle,
        settle_step=settle,
        error_free_step=settle if error_free is None else error_free,
        num_samples=100,
    )


class TestSweepResultEdgeCases:
    """The query-method edge matrix: empty, single-point, exact hits,
    and out-of-range budgets — including ``speedup_at_budget``'s
    ``Optional`` contract."""

    @pytest.fixture()
    def empty(self):
        return _result([], [], [], error_free=0, settle=0)

    @pytest.fixture()
    def single(self):
        return _result([4], [0.25], [0.5], error_free=4, settle=8)

    def test_empty_sweep_at_step_raises(self, empty):
        with pytest.raises(ValueError, match="empty sweep"):
            empty.at_step(3.0)

    def test_empty_sweep_at_normalized_frequency_raises(self, empty):
        with pytest.raises(ValueError):
            empty.at_normalized_frequency(1.1)

    def test_empty_sweep_speedup_is_none(self, empty):
        assert empty.speedup_at_budget(1.0) is None

    def test_single_point_answers_every_query(self, single):
        for query in (-1.0, 0.0, 4.0, 99.0):
            assert single.at_step(query) == 0.25

    def test_single_point_speedup(self, single):
        # the only step is the error-free step itself: zero gain
        assert single.speedup_at_budget(0.3) == pytest.approx(0.0)
        # budget below the single point's error: nothing qualifies
        assert single.speedup_at_budget(0.1) is None

    def test_exact_step_hit_is_exact(self):
        res = _result([2, 5, 9], [0.3, 0.1, 0.0], [0.9, 0.4, 0.0],
                      error_free=9)
        for step, err in zip(res.steps, res.mean_abs_error):
            assert res.at_step(float(step)) == err

    def test_budget_below_range_is_none(self):
        # a sparse grid that omits the error-free step itself: every
        # swept step busts the budget, so nothing qualifies
        res = _result([1, 2, 3], [0.4, 0.3, 0.2],
                      [1.0, 0.9, 0.5], error_free=4, settle=4)
        assert res.speedup_at_budget(0.05) is None

    def test_budget_between_grid_errors_picks_qualifying_step(self):
        res = _result([1, 2, 3, 4], [0.4, 0.3, 0.2, 0.0],
                      [1.0, 0.9, 0.5, 0.0], error_free=4)
        # only steps 3 and 4 fit a 0.25 budget; fastest is step 3
        assert res.speedup_at_budget(0.25) == pytest.approx(4 / 3 - 1)

    def test_negative_budget_is_none(self):
        res = _result([1, 2], [0.1, 0.0], [0.5, 0.0], error_free=2)
        assert res.speedup_at_budget(-1.0) is None

    def test_budget_above_range_gives_max_gain(self):
        res = _result([1, 2, 3, 4], [0.4, 0.3, 0.2, 0.0],
                      [1.0, 0.9, 0.5, 0.0], error_free=4)
        # everything qualifies: the fastest clock is step 1 -> 4x (gain 3)
        assert res.speedup_at_budget(10.0) == pytest.approx(3.0)

    def test_zero_error_free_step_is_none(self):
        res = _result([0, 1], [0.0, 0.1], [0.0, 0.5], error_free=0)
        assert res.speedup_at_budget(1.0) is None


class TestSpeedupStrictMode:
    """Regression: a budget the sweep never meets used to return ``None``
    silently; ``strict=True`` turns that into an actionable error."""

    def test_strict_raises_when_budget_never_met(self):
        res = _result([1, 2, 3], [0.4, 0.3, 0.2],
                      [1.0, 0.9, 0.5], error_free=4, settle=4)
        with pytest.raises(ValueError, match="no swept period meets"):
            res.speedup_at_budget(0.05, strict=True)

    def test_strict_raises_on_empty_sweep(self):
        empty = _result([], [], [], error_free=0, settle=0)
        with pytest.raises(ValueError, match="strict=False"):
            empty.speedup_at_budget(1.0, strict=True)

    def test_strict_raises_on_negative_budget(self):
        res = _result([1, 2], [0.1, 0.0], [0.5, 0.0], error_free=2)
        with pytest.raises(ValueError):
            res.speedup_at_budget(-1.0, strict=True)

    def test_strict_passes_value_through_when_met(self):
        res = _result([1, 2, 3, 4], [0.4, 0.3, 0.2, 0.0],
                      [1.0, 0.9, 0.5, 0.0], error_free=4)
        assert res.speedup_at_budget(10.0, strict=True) == pytest.approx(3.0)
        assert res.speedup_at_budget(10.0, strict=True) == (
            res.speedup_at_budget(10.0)
        )

    def test_default_stays_optional(self):
        res = _result([1, 2, 3], [0.4, 0.3, 0.2],
                      [1.0, 0.9, 0.5], error_free=4, settle=4)
        assert res.speedup_at_budget(0.05) is None


class TestFromSpec:
    """The spec-driven constructors and their deprecation shims."""

    def test_online_from_spec_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = OnlineMultiplierHarness.from_spec(
                "online-mult", ndigits=4, delay_model=UnitDelay()
            )
        assert h.ndigits == 4
        assert h.spec.name == "online-mult"

    def test_traditional_from_spec_accepts_width_or_ndigits(self):
        by_width = TraditionalMultiplierHarness.from_spec(
            "array-mult", width=5, delay_model=UnitDelay()
        )
        by_digits = TraditionalMultiplierHarness.from_spec(
            "array-mult", ndigits=4, delay_model=UnitDelay()
        )
        assert by_width.width == by_digits.width == 5
        with pytest.raises(ValueError, match="not both"):
            TraditionalMultiplierHarness.from_spec(
                "array-mult", width=5, ndigits=4
            )

    def test_positional_constructors_rejected(self):
        with pytest.raises(TypeError):
            OnlineMultiplierHarness(4, UnitDelay())
        with pytest.raises(TypeError):
            TraditionalMultiplierHarness(5, UnitDelay())

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="'mul'"):
            OnlineMultiplierHarness.from_spec("online-add", ndigits=4)

    def test_style_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OnlineMultiplierHarness.from_spec("array-mult", ndigits=4)
        with pytest.raises(ValueError):
            TraditionalMultiplierHarness.from_spec("online-mult", width=5)

    def test_unknown_spec_lists_registry(self):
        with pytest.raises(KeyError, match="online-mult"):
            OnlineMultiplierHarness.from_spec("booth-mult", ndigits=4)

    def test_spec_object_accepted(self):
        from repro.synth.spec import operator_spec

        h = OnlineMultiplierHarness.from_spec(
            operator_spec("online-mult"), ndigits=4, delay_model=UnitDelay()
        )
        assert h.spec is operator_spec("online-mult")


class TestWorkerHarnessMemo:
    """Harnesses are views: the circuit is shared, the engine keys delays."""

    def test_signature_aliases_but_memo_does_not(self):
        model_a, model_b = aliasing_pair()
        # the repr-based signature cannot tell them apart ...
        assert delay_signature(model_a) == delay_signature(model_b)
        # ... but the compile LRU must: the compiled timings differ
        h_a = worker_harness("online", 3, "packed", model_a)
        h_b = worker_harness("online", 3, "packed", model_b)
        assert h_a.circuit is h_b.circuit
        assert h_a.simulator is not h_b.simulator
        assert h_a.rated_step != h_b.rated_step

    def test_equal_models_still_share_one_entry(self):
        model_a = HiddenTableDelay(np.ones(1001, dtype=np.int64))
        model_b = HiddenTableDelay(np.ones(1001, dtype=np.int64))
        h_a = worker_harness("online", 3, "packed", model_a)
        h_b = worker_harness("online", 3, "packed", model_b)
        assert h_a.circuit is h_b.circuit
        assert h_a.simulator is h_b.simulator


class TestRatedStep:
    """``rated_step`` read off the engine equals the static-timing figure."""

    @pytest.mark.parametrize("backend", ["packed", "wave"])
    @pytest.mark.parametrize("design", ["online", "traditional"])
    def test_matches_static_timing(self, design, backend):
        model = FpgaDelay()
        harness = worker_harness(design, 6, backend, model)
        assert harness.simulator.circuit is harness.circuit
        expected = static_timing(harness.circuit, model).critical_delay
        assert harness.rated_step == expected


class TestComparison:
    def test_online_smaller_errors_at_equal_violation(
        self, online_sweep, trad_sweep
    ):
        """At the first violating step of each design, the online error is
        orders of magnitude below the conventional one (LSD vs MSB)."""
        _h1, online = online_sweep
        _h2, trad = trad_sweep
        online_err = online.mean_abs_error[online.error_free_step - 1]
        trad_err = trad.mean_abs_error[trad.error_free_step - 1]
        assert online_err < trad_err
