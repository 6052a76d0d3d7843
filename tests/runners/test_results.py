"""Result protocol: JSON round-trips, registry dispatch, jsonable()."""

import json
import math

import numpy as np
import pytest

from repro.faults.campaign import FaultCampaignResult
from repro.imaging.filters import FilterStudyResult
from repro.obs.probe import StageProbeResult
from repro.runners import (
    Result,
    jsonable,
    register_result,
    registered_kinds,
    result_from_dict,
)
from repro.sim.error_profile import DigitErrorProfile
from repro.sim.montecarlo import MonteCarloResult
from repro.sim.sweep import SweepResult
from repro.synth.report import SynthesisReport


def sample_results():
    """One instance of every registered kind.

    Scalars are handed in as numpy scalars or ints where the wire wants
    floats, so the pinned payloads below also pin the coercions.
    """
    montecarlo = MonteCarloResult(
        ndigits=np.int64(4),
        delta=3,
        num_samples=10,
        depths=np.array([4, 5, 6, 7], dtype=np.int64),
        mean_abs_error=np.array([0.1, 0.03, 0.0, 0.0]),
        violation_probability=np.array([0.8, 0.5, 0.0, 0.0]),
    )
    montecarlo.metrics = {"counters": {"mc.samples": 10}}
    return [
        montecarlo,
        SweepResult(
            steps=np.arange(5, dtype=np.int64),
            mean_abs_error=np.array([0.5, 0.25, 1.0 / 3.0, 0.0, 0.0]),
            violation_probability=np.array([1.0, 0.5, 0.25, 0.0, 0.0]),
            rated_step=4,
            settle_step=np.int64(3),
            error_free_step=3,
            num_samples=10,
        ),
        DigitErrorProfile(
            steps=np.array([0, 1, 2], dtype=np.int64),
            positions=["z0", "z1"],
            rates=np.array([[0.5, 0.25], [0.1, 0.0], [0.0, 0.0]]),
        ),
        StageProbeResult(
            ndigits=2,
            delta=np.int64(3),
            num_samples=4,
            depths=np.array([2, 3], dtype=np.int64),
            first_error_counts=np.array([[1, 2, 1], [0, 1, 3]]),
            value_violations=np.array([3, 1]),
            chain_depth_counts=np.array([0, 1, 2, 1, 0, 0]),
        ),
        FaultCampaignResult(
            model="seu",
            rates=np.array([0.0, 0.1]),
            online_error=np.array([0.0, 1.0 / 7.0]),
            traditional_error=np.array([0.0, 0.5]),
            overclock=1,
            num_samples=np.int64(100),
        ),
        FilterStudyResult(
            images=["lena", "pepper"],
            arithmetics=["traditional", "online"],
            factors=[1, 1.10],
            kernel="gaussian",
            size=24,
            ndigits=8,
            rated_step=np.array([[100, 101], [140, 141]], dtype=np.int64),
            error_free_step=np.array([[90, 91], [110, 111]], dtype=np.int64),
            settle_step=np.array([[100, 101], [140, 141]], dtype=np.int64),
            mre_percent=np.arange(8, dtype=np.float64).reshape(2, 2, 2) / 7.0,
            snr_db=np.arange(8, dtype=np.float64).reshape(2, 2, 2) * 3.1,
        ),
        SynthesisReport(
            graph={"nodes": [{"kind": "mul", "label": "m0"}],
                   "outputs": ["p"]},
            target_metric="mre",
            target_value=5,
            points=[
                {"assignment": {"m0": "online-mult"}, "ndigits": 6, "b": 4,
                 "on_front": True, "measured_mre_percent": 0.25},
                {"assignment": {"m0": "array-mult"}, "ndigits": 6, "b": 9,
                 "on_front": False, "measured_mre_percent": 0.0},
            ],
            predicted_abs_error=[0.125, 0.0],
            measured_abs_error=np.array([0.1, 0.0]),
            measured_snr_db=[31.5, math.inf],
            latency_gates=[12, 27.5],
            candidates_total=8,
            candidates_pruned=6,
            candidates_verified=2,
            chosen=0,
            modules=[{"label": "m0", "spec": "online-mult"}],
            delta=3,
            num_samples=np.int64(1000),
            seed=7,
            ref_frac=24,
        ),
    ]


#: kind -> ``json.dumps(to_dict())`` (unsorted) of its sample, computed
#: with the hand-written per-class serializers the codec replaced; a
#: changed byte or key order breaks the wire, the cache and the digests
PINNED_PAYLOADS = {
    "montecarlo": (
        '{"kind": "montecarlo", "ndigits": 4, "delta": 3, '
        '"num_samples": 10, "depths": [4, 5, 6, 7], '
        '"mean_abs_error": [0.1, 0.03, 0.0, 0.0], '
        '"violation_probability": [0.8, 0.5, 0.0, 0.0], '
        '"metrics": {"counters": {"mc.samples": 10}}}'
    ),
    "sweep": (
        '{"kind": "sweep", "steps": [0, 1, 2, 3, 4], '
        '"mean_abs_error": [0.5, 0.25, 0.3333333333333333, 0.0, 0.0], '
        '"violation_probability": [1.0, 0.5, 0.25, 0.0, 0.0], '
        '"rated_step": 4, "settle_step": 3, "error_free_step": 3, '
        '"num_samples": 10}'
    ),
    "error_profile": (
        '{"kind": "error_profile", "steps": [0, 1, 2], '
        '"positions": ["z0", "z1"], "rates": [[0.5, 0.25], [0.1, 0.0], '
        '[0.0, 0.0]]}'
    ),
    "stage_probe": (
        '{"kind": "stage_probe", "ndigits": 2, "delta": 3, '
        '"num_samples": 4, "depths": [2, 3], "first_error_counts": [[1, '
        '2, 1], [0, 1, 3]], "value_violations": [3, 1], '
        '"chain_depth_counts": [0, 1, 2, 1, 0, 0]}'
    ),
    "fault_campaign": (
        '{"kind": "fault_campaign", "model": "seu", "rates": [0.0, 0.1], '
        '"online_error": [0.0, 0.14285714285714285], '
        '"traditional_error": [0.0, 0.5], "overclock": 1.0, '
        '"num_samples": 100}'
    ),
    "filter_study": (
        '{"kind": "filter_study", "images": ["lena", "pepper"], '
        '"arithmetics": ["traditional", "online"], "factors": [1.0, '
        '1.1], "kernel": "gaussian", "size": 24, "ndigits": 8, '
        '"rated_step": [[100, 101], [140, 141]], '
        '"error_free_step": [[90, 91], [110, 111]], '
        '"settle_step": [[100, 101], [140, 141]], "mre_percent": [[[0.0, '
        '0.14285714285714285], [0.2857142857142857, '
        '0.42857142857142855]], [[0.5714285714285714, '
        '0.7142857142857143], [0.8571428571428571, 1.0]]], '
        '"snr_db": [[[0.0, 3.1], [6.2, 9.3]], [[12.4, 15.5], [18.6, '
        '21.7]]]}'
    ),
    "synthesis": (
        '{"kind": "synthesis", "graph": {"nodes": [{"kind": "mul", '
        '"label": "m0"}], "outputs": ["p"]}, "target_metric": "mre", '
        '"target_value": 5.0, '
        '"points": [{"assignment": {"m0": "online-mult"}, "ndigits": 6, '
        '"b": 4, "on_front": true, "measured_mre_percent": 0.25}, '
        '{"assignment": {"m0": "array-mult"}, "ndigits": 6, "b": 9, '
        '"on_front": false, "measured_mre_percent": 0.0}], '
        '"predicted_abs_error": [0.125, 0.0], '
        '"measured_abs_error": [0.1, 0.0], "measured_snr_db": [31.5, '
        'Infinity], "latency_gates": [12.0, 27.5], '
        '"candidates_total": 8, "candidates_pruned": 6, '
        '"candidates_verified": 2, "chosen": 0, '
        '"modules": [{"label": "m0", "spec": "online-mult"}], '
        '"delta": 3, "num_samples": 1000, "seed": 7, "ref_frac": 24}'
    ),
}


SAMPLES = sample_results()


@pytest.mark.parametrize("result", SAMPLES, ids=lambda r: type(r).kind)
class TestRoundTrip:
    def test_satisfies_protocol(self, result):
        assert isinstance(result, Result)

    def test_to_dict_bytes_are_pinned(self, result):
        assert json.dumps(result.to_dict()) == PINNED_PAYLOADS[result.kind]

    def test_to_dict_is_pure_json(self, result):
        # only the synthesis sample carries a non-finite value (inf SNR)
        json.dumps(result.to_dict(), allow_nan=result.kind == "synthesis")

    def test_json_round_trip_bit_exact(self, result):
        wire = json.loads(json.dumps(result.to_dict()))
        back = result_from_dict(wire)
        assert type(back) is type(result)
        for name, dtype in type(result)._array_fields.items():
            original = np.asarray(getattr(result, name))
            restored = getattr(back, name)
            assert restored.dtype == np.dtype(dtype)
            assert np.array_equal(original, restored)
        assert json.dumps(back.to_dict()) == json.dumps(result.to_dict())

    def test_kind_in_wire_format(self, result):
        assert result.to_dict()["kind"] == type(result).kind


class TestCodec:
    def test_missing_key_falls_back_to_the_field_default(self):
        data = SAMPLES[-1].to_dict()
        for name in ("chosen", "modules", "delta", "num_samples", "seed",
                     "ref_frac", "metrics"):
            data.pop(name, None)
        back = result_from_dict(data)
        assert (back.chosen, back.modules, back.delta) == (-1, [], 3)
        assert (back.num_samples, back.seed, back.ref_frac) == (0, 0, 0)

    def test_missing_required_key_raises(self):
        data = SAMPLES[0].to_dict()
        del data["depths"]
        with pytest.raises(KeyError):
            result_from_dict(data)

    def test_metrics_ride_last_and_restore(self):
        data = SAMPLES[0].to_dict()
        assert list(data)[-1] == "metrics"
        assert result_from_dict(data).metrics == SAMPLES[0].metrics
        assert not hasattr(result_from_dict(SAMPLES[1].to_dict()), "metrics")

    def test_only_dataclasses_register(self):
        class Plain:
            kind = "plain"

        with pytest.raises(TypeError, match="dataclass"):
            register_result(Plain)


class TestRegistry:
    def test_all_kinds_registered(self):
        # the samples cover every kind, so every kind is pinned above
        assert {type(r).kind for r in SAMPLES} == set(registered_kinds())

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown result kind"):
            result_from_dict({"kind": "hologram"})

    def test_missing_kind_raises(self):
        with pytest.raises(KeyError):
            result_from_dict({"steps": [1, 2]})


class TestJsonable:
    def test_numpy_values(self):
        out = jsonable(
            {
                "arr": np.array([1, 2]),
                "i": np.int64(3),
                "f": np.float64(0.5),
                "nested": [np.array([0.25]), (np.int32(1),)],
            }
        )
        assert out == {"arr": [1, 2], "i": 3, "f": 0.5, "nested": [[0.25], [1]]}
        json.dumps(out)
