"""Acceptance tests of :func:`run_synthesis` — the auto-synthesizer
searched end to end on the mixed-optimal prodsum datapath: prune rate,
model tolerance, Pareto front, jobs-determinism and cache dedup."""

import numpy as np
import pytest

from repro.core.model import stage_table, violation_tails
from repro.core.synthesis import Datapath
from repro.obs.metrics import metrics
from repro.runners.config import RunConfig
from repro.synth.search import (
    DEFAULT_PERIODS,
    AccuracyTarget,
    enumerate_assignments,
    run_synthesis,
    steps_for_periods,
)
from repro.synth.spec import operator_spec

from .conftest import build_prodsum

N = 6
TARGET = AccuracyTarget("mre", 5.0)


def _config(**overrides):
    kwargs = dict(
        ndigits=N, seed=2014, jobs=1, cache_dir=None, shard_size=1000
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _mul_styles(assignment):
    return {
        operator_spec(spec).style
        for spec in assignment.values()
        if operator_spec(spec).kind == "mul"
    }


@pytest.fixture(scope="module")
def base_run():
    """One full search plus the metrics it emitted (shared, read-only)."""
    metrics().reset()
    report = run_synthesis(
        _config(), build_prodsum(), TARGET, num_samples=2000
    )
    return report, metrics().snapshot()["counters"]


class TestEnumeration:
    def test_every_multiplier_combination(self, prodsum):
        graph = prodsum.to_graph()
        assignments = enumerate_assignments(graph)
        assert len(assignments) == 8  # 2^3 multiplier styles
        keys = {tuple(sorted(a.items())) for a in assignments}
        assert len(keys) == 8

    def test_adders_follow_the_design_style(self, prodsum):
        graph = prodsum.to_graph()
        add_label = next(
            n["label"] for n in graph["nodes"] if n["kind"] == "add"
        )
        for assign in enumerate_assignments(graph):
            mul_styles = _mul_styles(assign)
            expected = (
                "kogge-stone-add"
                if mul_styles == {"traditional"}
                else "online-add"
            )
            assert assign[add_label] == expected

    def test_steps_for_periods(self):
        # settle depth 9 at n=6: a unit period is exactly the settle depth
        assert steps_for_periods([1.0], N, 3) == [9]
        # duplicates collapse, tiny periods clamp to depth 1, sorted
        steps = steps_for_periods([0.01, 0.5, 0.5, 2.0], N, 3)
        assert steps == sorted(set(steps))
        assert steps[0] == 1
        assert steps_for_periods(DEFAULT_PERIODS, N, 3) == steps_for_periods(
            tuple(reversed(DEFAULT_PERIODS)), N, 3
        )

    def test_target_validation(self):
        with pytest.raises(ValueError, match="mre"):
            AccuracyTarget("rmse", 1.0)
        for value in (-1.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="target mre"):
                AccuracyTarget("mre", value)
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="target snr"):
                AccuracyTarget("snr", value)
        # a zero error budget and a negative SNR floor stay legal
        assert AccuracyTarget("mre", 0.0).value == 0.0
        assert AccuracyTarget("snr", -3.0).value == -3.0

    def test_operatorless_datapath_rejected(self):
        dp = Datapath(ndigits=N)
        dp.output("y", dp.input("x"))
        with pytest.raises(ValueError, match="no operators"):
            run_synthesis(_config(), dp, TARGET)


class TestAcceptance:
    def test_grid_accounting(self, base_run):
        report, counters = base_run
        assert report.candidates_total > 0
        assert (
            report.candidates_pruned + report.candidates_verified
            == report.candidates_total
        )
        assert report.candidates_verified == len(report.points)

    def test_analytical_prune_rate_via_metric(self, base_run):
        """>= 50% of the grid never reaches vector verification, and the
        observability counters agree with the report exactly."""
        report, counters = base_run
        assert counters["synth.candidates_total"] == report.candidates_total
        assert counters["synth.candidates_pruned"] == report.candidates_pruned
        assert (
            counters["synth.candidates_verified"]
            == report.candidates_verified
        )
        assert report.candidates_pruned >= 0.5 * report.candidates_total

    def test_every_verified_point_within_model_tolerance(self, base_run):
        report, _ = base_run
        assert report.points, "search verified nothing"
        bad = [p for p in report.design_points() if not p["within_tolerance"]]
        assert bad == []

    def test_pareto_front_and_mixed_assignment(self, base_run):
        report, _ = base_run
        front = report.pareto_front()
        assert front
        # front points are mutually non-dominated
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (
                    b["latency_gates"] < a["latency_gates"]
                    and b["measured_abs_error"] < a["measured_abs_error"]
                )
        # the prodsum width window puts a mixed design on the front
        assert any(
            _mul_styles(p["assignment"]) == {"online", "traditional"}
            for p in front
        )

    def test_chosen_is_cheapest_meeting_target(self, base_run):
        report, _ = base_run
        chosen = report.chosen_point
        assert chosen is not None
        assert chosen["meets_target"]
        assert chosen["measured_mre_percent"] <= TARGET.value
        meeting = [
            p for p in report.design_points() if p["meets_target"]
        ]
        assert chosen["latency_gates"] == min(
            p["latency_gates"] for p in meeting
        )

    def test_chosen_modules_describe_the_assignment(self, base_run):
        report, _ = base_run
        specs = {m["label"]: m["spec"] for m in report.modules}
        assert specs == report.chosen_assignment

    def test_uncached_run_reports_cache_off(self, base_run):
        report, _ = base_run
        assert report.run_stats is not None
        assert report.run_stats.cache == "off"

    def test_chosen_assignment_replays_through_synthesize(
        self, base_run, prodsum
    ):
        report, _ = base_run
        assignment = report.chosen_assignment
        synthesized = prodsum.synthesize("online", assignment=assignment)
        assert synthesized is not None
        with pytest.raises(ValueError):
            prodsum.synthesize(
                "online", assignment={"not-a-node": "online-mult"}
            )


class TestDeterminismAndCache:
    def test_jobs_do_not_affect_results(self, prodsum):
        serial = run_synthesis(
            _config(jobs=1), prodsum, TARGET, num_samples=2000
        )
        pooled = run_synthesis(
            _config(jobs=2), prodsum, TARGET, num_samples=2000
        )
        assert serial.points == pooled.points
        assert serial.chosen == pooled.chosen
        for name in type(serial)._array_fields:
            a, b = getattr(serial, name), getattr(pooled, name)
            assert np.array_equal(a, b, equal_nan=True)

    def test_second_run_is_served_from_cache(self, prodsum, tmp_path):
        config = _config(cache_dir=str(tmp_path))
        first = run_synthesis(config, prodsum, TARGET, num_samples=1500)
        assert first.run_stats.cache == "miss"
        second = run_synthesis(config, prodsum, TARGET, num_samples=1500)
        assert second.run_stats.cache == "hit"
        assert second.points == first.points
        for name in type(first)._array_fields:
            assert np.array_equal(
                getattr(first, name), getattr(second, name), equal_nan=True
            )

    def test_second_search_reads_the_model_table(self, prodsum):
        """The Section-3 predictions of a geometry are computed once per
        process: a repeat search (a new seed, nothing cached) adds no
        model-table misses."""
        run_synthesis(_config(), prodsum, TARGET, num_samples=500)
        hits = violation_tails.cache_info().hits
        misses = (
            stage_table.cache_info().misses,
            violation_tails.cache_info().misses,
        )
        report = run_synthesis(
            _config(seed=7), prodsum, TARGET, num_samples=500
        )
        assert report.run_stats.cache == "off"
        assert violation_tails.cache_info().hits > hits
        assert (
            stage_table.cache_info().misses,
            violation_tails.cache_info().misses,
        ) == misses

    def test_explicit_steps_override_periods(self, prodsum):
        report = run_synthesis(
            _config(),
            prodsum,
            TARGET,
            steps=[N + 3],
            num_samples=1000,
        )
        assert report.points
        assert {p["b"] for p in report.points} == {N + 3}
