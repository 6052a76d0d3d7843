"""Round-trip tests of :class:`SynthesisReport` through the Result
registry and the one-file JSON cache, and the report's cache key — the
serialization half of the synthesizer (property-based, non-finite
values included)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.synthesis import Datapath
from repro.runners.cache import ResultCache, cache_key
from repro.runners.config import RunConfig
from repro.runners.results import registered_kinds, result_from_dict
from repro.synth.report import SynthesisReport
from repro.synth.search import (
    AccuracyTarget,
    depth_grids,
    synthesis_key_components,
)


def _tiny_graph():
    dp = Datapath(ndigits=6)
    x, y = dp.input("x"), dp.input("y")
    dp.output("p", x * y)
    return dp.to_graph()


GRAPH = _tiny_graph()
MUL_LABEL = next(
    n["label"] for n in GRAPH["nodes"] if n["kind"] == "mul"
)

# full float64 range including the values JSON encoders most often lose
measurements = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _point(i, spec):
    return {
        "assignment": {MUL_LABEL: spec},
        "ndigits": 6,
        "b": 4 + i,
        "period": (4 + i) / 9,
        "latency_stages": 4 + i,
        "pipeline_depth": 1,
        "area_luts": 300 + i,
        "predicted_mre_percent": 0.5 * i,
        "measured_mre_percent": 0.4 * i,
        "meets_target": i % 2 == 0,
        "on_front": i == 0,
        "within_tolerance": True,
    }


def _report(pred, meas, snr, lat, chosen=-1):
    k = len(pred)
    points = [
        _point(i, "online-mult" if i % 2 else "array-mult") for i in range(k)
    ]
    return SynthesisReport(
        graph=GRAPH,
        target_metric="mre",
        target_value=1.0,
        points=points,
        predicted_abs_error=pred,
        measured_abs_error=meas,
        measured_snr_db=snr,
        latency_gates=lat,
        candidates_total=4 * k,
        candidates_pruned=3 * k,
        candidates_verified=k,
        chosen=chosen,
        delta=3,
        num_samples=1000,
        seed=7,
        ref_frac=24,
    )


def _assert_reports_equal(a, b):
    assert b.kind == "synthesis"
    assert b.graph == a.graph
    assert b.points == a.points
    assert b.target_metric == a.target_metric
    assert b.target_value == a.target_value
    assert (
        b.candidates_total,
        b.candidates_pruned,
        b.candidates_verified,
        b.chosen,
        b.delta,
        b.num_samples,
        b.seed,
        b.ref_frac,
    ) == (
        a.candidates_total,
        a.candidates_pruned,
        a.candidates_verified,
        a.chosen,
        a.delta,
        a.num_samples,
        a.seed,
        a.ref_frac,
    )
    for name in SynthesisReport._array_fields:
        got, want = getattr(b, name), getattr(a, name)
        assert got.dtype == np.float64
        # bit-exact including nan positions and signed infinities
        assert np.array_equal(got, want, equal_nan=True)


class TestRegistryRoundTrip:
    def test_kind_registered(self):
        assert registered_kinds()["synthesis"] is SynthesisReport

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(measurements, measurements, measurements, measurements),
            min_size=0,
            max_size=6,
        )
    )
    def test_json_roundtrip_preserves_everything(self, rows):
        pred = [r[0] for r in rows]
        meas = [r[1] for r in rows]
        snr = [r[2] for r in rows]
        lat = [r[3] for r in rows]
        chosen = 0 if rows else -1
        report = _report(pred, meas, snr, lat, chosen=chosen)
        wire = json.loads(json.dumps(report.to_dict()))
        back = result_from_dict(wire)
        assert isinstance(back, SynthesisReport)
        _assert_reports_equal(report, back)

    def test_error_free_point_snr_is_inf(self):
        report = _report([0.0], [0.0], [math.inf], [12.0], chosen=0)
        back = result_from_dict(json.loads(json.dumps(report.to_dict())))
        assert math.isinf(back.measured_snr_db[0])
        assert back.meets_target(0)  # inf SNR under an mre target: mre row
        assert back.chosen_point["measured_snr_db"] == math.inf

    def test_parallel_array_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parallel points"):
            _report([0.1, 0.2], [0.1], [1.0], [2.0])


class TestCacheRoundTrip:
    def test_cache_preserves_nonfinite(self, tmp_path):
        report = _report(
            [0.25, math.nan],
            [math.inf, 0.125],
            [-math.inf, 60.0],
            [10.0, 20.0],
            chosen=1,
        )
        cache = ResultCache(tmp_path)
        key = cache_key(experiment="synth.unit", seed=7)
        cache.put(key, report, {"experiment": "synth.unit", "seed": 7})
        back = cache.get(key)
        assert back is not None
        _assert_reports_equal(report, back)

    def test_cache_miss_on_absent_key(self, tmp_path):
        assert ResultCache(tmp_path).get(cache_key(experiment="nope")) is None


CONFIG = RunConfig(ndigits=6, seed=2014, jobs=1, cache_dir=None)


def _key(**changes):
    """The report key of one search, with *changes* to its arguments."""
    args = dict(
        config=CONFIG,
        graph=GRAPH,
        target=AccuracyTarget("mre", 5.0),
        grids=depth_grids(CONFIG, periods=(0.5, 1.0)),
        num_samples=2000,
    )
    args.update(changes)
    return cache_key(**synthesis_key_components(**args))


def _other_graph():
    dp = Datapath(ndigits=6)
    x, y = dp.input("x"), dp.input("y")
    dp.output("p", x * y + x)
    return dp.to_graph()


class TestReportKey:
    @pytest.mark.parametrize("changes", [
        {"target": AccuracyTarget("mre", 2.5)},
        {"target": AccuracyTarget("snr", 5.0)},
        {"grids": depth_grids(CONFIG, periods=(0.5, 0.7, 1.0))},
        {"grids": depth_grids(CONFIG, (4, 6), periods=(0.5, 1.0))},
        {"mul_specs": ("online-mult",)},
        {"kappa": 1.5},
        {"graph": _other_graph()},
        {"num_samples": 1000},
        {"config": CONFIG.with_(seed=7)},
    ], ids=["target_value", "target_metric", "grid", "wordlengths",
            "mul_specs", "kappa", "graph", "num_samples", "seed"])
    def test_each_argument_moves_the_key(self, changes):
        assert _key(**changes) != _key()

    def test_periods_resolving_to_one_grid_share_a_key(self):
        # 9 settle stages: 0.5 and 0.45 both capture at depth 5
        same = depth_grids(CONFIG, periods=(0.45, 0.5, 1.0))
        assert same == depth_grids(CONFIG, periods=(0.5, 1.0))
        assert _key(grids=same) == _key()

    def test_target_spellings_share_a_key(self):
        assert _key(target=5) == _key(target={"metric": "mre", "value": 5})
        assert _key(target=5) == _key()

    def test_execution_details_stay_out(self):
        config = CONFIG.with_(jobs=2, backend="packed")
        assert _key(config=config) == _key()


class TestViews:
    def test_design_points_fold_arrays_back(self):
        report = _report([0.1, 0.2], [0.3, 0.4], [30.0, 20.0], [9.0, 18.0])
        rows = report.design_points()
        assert [r["measured_abs_error"] for r in rows] == [0.3, 0.4]
        assert [r["latency_gates"] for r in rows] == [9.0, 18.0]
        assert report.pareto_front() == [rows[0]]  # only i==0 is on_front

    def test_chosen_accessors(self):
        none = _report([], [], [], [])
        assert none.chosen_point is None
        assert none.chosen_assignment is None
        some = _report([0.1], [0.1], [40.0], [9.0], chosen=0)
        assert some.chosen_assignment == {MUL_LABEL: "array-mult"}

    def test_meets_target_snr_metric(self):
        report = _report([0.1], [0.1], [42.0], [9.0])
        report.target_metric = "snr"
        report.target_value = 40.0
        assert report.meets_target(0)
        report.target_value = 50.0
        assert not report.meets_target(0)

    def test_summary_mentions_grid_accounting(self):
        report = _report([0.1], [0.1], [40.0], [9.0], chosen=0)
        text = report.summary()
        assert "1 verified" in text and "3 pruned" in text
        assert "4 candidates" in text
