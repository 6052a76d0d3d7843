"""Request parsing: strict validation onto the experiments' cache keys."""

import pytest

from repro.runners.cache import cache_key
from repro.runners.config import RunConfig
from repro.service.requests import (
    MAX_SAMPLES,
    EvalRequest,
    RequestError,
    parse_request,
)
from repro.sim.montecarlo import default_depths, montecarlo_key_components
from repro.sim.sweep import stage_sweep_key_components
from repro.synth.demos import demo_datapath
from repro.synth.search import (
    AccuracyTarget,
    depth_grids,
    run_synthesis,
    synthesis_key_components,
)


BASE = RunConfig(ndigits=4, seed=7, jobs=1, cache_dir=None)


def parse(message, **kwargs):
    return parse_request(message, base_config=BASE, **kwargs)


class TestMonteCarlo:
    def test_key_matches_the_entry_points_cache_key(self):
        req = parse(
            {"kind": "montecarlo", "params": {"samples": 500,
                                              "depths": [2, 4, 6]}}
        )
        expected = cache_key(
            **montecarlo_key_components(BASE, 500, [2, 4, 6])
        )
        assert req.key == expected

    def test_default_depths_mirror_the_entry_point(self):
        req = parse({"kind": "montecarlo", "params": {"samples": 100}})
        assert list(req.params["depths"]) == default_depths(
            BASE.ndigits, BASE.delta
        )

    def test_depth_order_is_normalized_into_the_key(self):
        a = parse({"kind": "montecarlo",
                   "params": {"samples": 100, "depths": [6, 2, 4]}})
        b = parse({"kind": "montecarlo",
                   "params": {"samples": 100, "depths": [2, 4, 6]}})
        assert a.key == b.key

    def test_different_seed_different_key(self):
        a = parse({"kind": "montecarlo", "params": {"samples": 100}})
        b = parse({"kind": "montecarlo",
                   "params": {"samples": 100, "seed": 8}})
        assert a.key != b.key
        assert b.config.seed == 8


class TestSweep:
    def test_key_matches_the_stage_sweep_key(self):
        req = parse({"kind": "sweep",
                     "params": {"samples": 300, "steps": [1, 3, 5]}})
        expected = cache_key(
            **stage_sweep_key_components(BASE, "online", 300, [1, 3, 5])
        )
        assert req.key == expected

    def test_steps_clamp_to_the_settle_depth(self):
        s_tot = BASE.ndigits + BASE.delta
        req = parse({"kind": "sweep",
                     "params": {"samples": 300, "steps": [1, s_tot + 9]}})
        assert max(req.params["steps"]) == s_tot

    def test_periods_and_steps_are_exclusive(self):
        with pytest.raises(RequestError):
            parse({"kind": "sweep",
                   "params": {"samples": 300, "steps": [1],
                              "periods": [0.5]}})


class TestSynthesis:
    def test_normalizes_target(self):
        req = parse({"kind": "synthesis",
                     "params": {"samples": 200, "target_snr": 30.0}})
        assert req.params["target_metric"] == "snr"
        assert req.params["target_value"] == 30.0
        graph = demo_datapath("prodsum", BASE.ndigits).to_graph()
        assert req.key == cache_key(
            **synthesis_key_components(
                BASE, graph, AccuracyTarget("snr", 30.0), depth_grids(BASE),
                200,
            )
        )

    def test_key_is_the_entry_points_stored_key(self, tmp_path):
        req = parse({"kind": "synthesis",
                     "params": {"samples": 100, "periods": [0.5, 1.0]}})
        run_synthesis(
            BASE.with_(cache_dir=str(tmp_path)),
            demo_datapath("prodsum", BASE.ndigits), 5.0,
            periods=[0.5, 1.0], num_samples=100,
        )
        assert [p.stem for p in tmp_path.glob("*.json")] == [req.key]

    def test_period_spellings_of_one_grid_share_a_key(self):
        # at ndigits=4, delta=3 both grids resolve to depths [4, 7]
        one = parse({"kind": "synthesis", "params": {"periods": [0.5, 1.0]}})
        two = parse({"kind": "synthesis",
                     "params": {"periods": [0.55, 0.5, 1.0]}})
        assert one.key == two.key

    def test_zero_mre_target_is_legal(self):
        req = parse({"kind": "synthesis", "params": {"target_mre": 0}})
        assert req.params["target_metric"] == "mre"
        assert req.params["target_value"] == 0.0

    def test_both_targets_rejected(self):
        with pytest.raises(RequestError):
            parse({"kind": "synthesis",
                   "params": {"target_mre": 5.0, "target_snr": 30.0}})

    def test_unknown_datapath_rejected(self):
        with pytest.raises(RequestError) as exc_info:
            parse({"kind": "synthesis", "params": {"datapath": "fft"}})
        assert "prodsum" in str(exc_info.value)

    def test_wordlengths_bound_the_geometry_not_ndigits(self):
        req = parse({"kind": "synthesis",
                     "params": {"ndigits": 32, "wordlengths": [1, 24]}})
        assert req.params["wordlengths"] == (1, 24)


class TestValidation:
    @pytest.mark.parametrize(
        "message",
        [
            {"kind": "warp"},
            {"kind": "montecarlo", "params": {"samples": 0}},
            {"kind": "montecarlo", "params": {"samples": "many"}},
            {"kind": "montecarlo", "params": {"depths": []}},
            {"kind": "montecarlo", "params": {"depths": [1, -2]}},
            {"kind": "montecarlo", "params": {"bogus": 1}},
            {"kind": "montecarlo", "params": {"ndigits": 0}},
            {"kind": "montecarlo", "deadline": 0},
            {"kind": "montecarlo", "deadline": -1.0},
            {"kind": "montecarlo", "params": "nope"},
            {"kind": "sweep", "params": {"periods": [0.0]}},
            # JSON admits non-finite numbers; the service does not
            {"kind": "montecarlo", "deadline": float("nan")},
            {"kind": "montecarlo", "deadline": float("inf")},
            {"kind": "sweep", "params": {"periods": [float("inf")]}},
            {"kind": "sweep", "params": {"periods": [float("nan")]}},
            {"kind": "synthesis", "params": {"target_mre": float("nan")}},
            {"kind": "synthesis", "params": {"target_snr": float("-inf")}},
            # beyond the synthesizer's reference precision (REF_FRAC)
            {"kind": "synthesis", "params": {"wordlengths": [0]}},
            {"kind": "synthesis", "params": {"wordlengths": [25, 6]}},
            {"kind": "synthesis", "params": {"ndigits": 32}},
            # AccuracyTarget's own range check, mapped at parse
            {"kind": "synthesis", "params": {"target_mre": -1}},
            {"kind": "synthesis", "params": {"target_mre": -0.5}},
            {"kind": "synthesis", "params": {"target_snr": float("nan")}},
            {"kind": "synthesis", "params": {"target_mre": "5"}},
            # a seed is an integer >= 0, and no parameter takes a bool
            {"kind": "montecarlo", "params": {"seed": "abc"}},
            {"kind": "montecarlo", "params": {"seed": -1}},
            {"kind": "montecarlo", "params": {"seed": 1.5}},
            {"kind": "sweep", "params": {"seed": True}},
            {"kind": "synthesis", "params": {"seed": -1}},
            {"kind": "montecarlo", "params": {"ndigits": True}},
            {"kind": "sweep", "params": {"delta": True}},
            {"kind": "montecarlo", "params": {"depths": [True]}},
        ],
    )
    def test_rejected(self, message):
        with pytest.raises(RequestError):
            parse(message)

    def test_sample_ceiling_enforced(self):
        with pytest.raises(RequestError) as exc_info:
            parse({"kind": "montecarlo",
                   "params": {"samples": MAX_SAMPLES + 1}})
        assert "samples" in str(exc_info.value)

    def test_default_deadline_applies_when_absent(self):
        req = parse({"kind": "montecarlo", "params": {"samples": 10}},
                    default_deadline=12.5)
        assert req.deadline == 12.5
        explicit = parse(
            {"kind": "montecarlo", "params": {"samples": 10},
             "deadline": 3.0},
            default_deadline=12.5,
        )
        assert explicit.deadline == 3.0

    def test_result_is_frozen(self):
        req = parse({"kind": "montecarlo", "params": {"samples": 10}})
        assert isinstance(req, EvalRequest)
        with pytest.raises(AttributeError):
            req.kind = "sweep"
