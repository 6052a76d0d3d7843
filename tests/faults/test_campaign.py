"""Fault campaigns: layout invariance, caching, checkpoint resume."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.faults import DEFAULT_RATES, FaultCampaignResult, run_fault_campaign
from repro.netlist.compiled import CompiledCircuit
from repro.runners import RunConfig, ResultCache

ARGS = dict(model="jitter", rates=(0.0, 0.15), num_samples=80)

#: per-cell checkpoints of DRIFT_ARGS on small_config(), written by the
#: per-(design, rate, shard) campaign that preceded the (design, shard)
#: units: 2 designs x 2 rates x 2 shards, merged result removed
CHECKPOINTS = Path(__file__).resolve().parents[1] / "data" / "campaign_checkpoints"
DRIFT_ARGS = dict(model="drift", rates=(0.0, 0.2), num_samples=80)


def small_config(**kwargs):
    return RunConfig(ndigits=4, shard_size=40, **kwargs)


class TestCurves:
    def test_zero_rate_is_error_free_at_rated_clock(self):
        result = run_fault_campaign(small_config(), **ARGS)
        assert result.online_error[0] == 0.0
        assert result.traditional_error[0] == 0.0

    def test_positive_rate_injects(self):
        result = run_fault_campaign(small_config(), **ARGS)
        assert result.fault_stats.injected["jitter"] > 0

    def test_error_curve_lookup(self):
        result = run_fault_campaign(small_config(), **ARGS)
        assert np.array_equal(result.error_curve("online"), result.online_error)
        with pytest.raises(ValueError):
            result.error_curve("hologram")

    def test_rejects_empty_rates(self):
        with pytest.raises(ValueError):
            run_fault_campaign(small_config(), model="seu", rates=())

    def test_default_rates_start_at_zero(self):
        assert DEFAULT_RATES[0] == 0.0


class TestLayoutInvariance:
    def test_jobs_do_not_change_results(self):
        r1 = run_fault_campaign(small_config(jobs=1), **ARGS)
        r2 = run_fault_campaign(small_config(jobs=2), **ARGS)
        assert np.array_equal(r1.online_error, r2.online_error)
        assert np.array_equal(r1.traditional_error, r2.traditional_error)

    def test_backends_do_not_change_results(self):
        r1 = run_fault_campaign(small_config(backend="packed"), **ARGS)
        r2 = run_fault_campaign(small_config(backend="wave"), **ARGS)
        assert np.array_equal(r1.online_error, r2.online_error)
        assert np.array_equal(r1.traditional_error, r2.traditional_error)

    def test_seed_changes_results(self):
        r1 = run_fault_campaign(small_config(), **ARGS)
        r2 = run_fault_campaign(small_config(seed=1), **ARGS)
        # the online curve can legitimately be all-zero at both seeds
        # (that robustness is the point); the traditional curve is not
        assert not np.array_equal(r1.traditional_error, r2.traditional_error)


class TestCacheAndResume:
    def test_round_trip_through_cache(self, tmp_path):
        config = small_config(cache_dir=str(tmp_path))
        r1 = run_fault_campaign(config, **ARGS)
        assert r1.run_stats.cache == "miss"
        r2 = run_fault_campaign(config, **ARGS)
        assert r2.run_stats.cache == "hit"
        assert isinstance(r2, FaultCampaignResult)
        assert np.array_equal(r1.online_error, r2.online_error)
        assert np.array_equal(r1.rates, r2.rates)

    def test_resume_from_checkpoints_is_bit_identical(self, tmp_path):
        golden = run_fault_campaign(small_config(), **ARGS)
        config = small_config(cache_dir=str(tmp_path))
        first = run_fault_campaign(config, **ARGS)
        # drop the merged result but keep the per-shard checkpoints —
        # the state a killed campaign leaves behind
        dropped = 0
        for path in tmp_path.glob("*.json"):
            meta = json.loads(path.read_text())
            if meta.get("kind") == "fault_campaign":
                path.unlink()
                dropped += 1
        assert dropped == 1
        resumed = run_fault_campaign(config, **ARGS)
        assert resumed.fault_stats.shards_resumed == (
            resumed.fault_stats.shards_total
        )
        assert resumed.run_stats.num_shards == 0  # nothing recomputed
        for r in (first, resumed):
            assert np.array_equal(golden.online_error, r.online_error)
            assert np.array_equal(
                golden.traditional_error, r.traditional_error
            )

    def test_partial_checkpoints_recompute_only_missing(self, tmp_path):
        config = small_config(cache_dir=str(tmp_path))
        run_fault_campaign(config, **ARGS)
        # wipe the merged result and *one* shard checkpoint
        victims = []
        for path in sorted(tmp_path.glob("*.json")):
            meta = json.loads(path.read_text())
            if meta.get("kind") == "fault_campaign":
                path.unlink()
            elif meta.get("kind") == "_raw" and not victims:
                victims.append(path)
                path.unlink()
        assert victims
        resumed = run_fault_campaign(config, **ARGS)
        assert resumed.run_stats.num_shards == 1  # only the victim reran
        assert resumed.fault_stats.shards_resumed == (
            resumed.fault_stats.shards_total - 1
        )

    def test_corrupt_checkpoint_recomputed(self, tmp_path):
        config = small_config(cache_dir=str(tmp_path))
        golden = run_fault_campaign(config, **ARGS)
        for path in tmp_path.glob("*.json"):
            meta = json.loads(path.read_text())
            if meta.get("kind") == "fault_campaign":
                path.unlink()
        # rot one checkpoint: it must quarantine and recompute
        victim = sorted(
            p for p in tmp_path.glob("*.json")
            if json.loads(p.read_text()).get("kind") == "_raw"
        )[0]
        victim.write_text("{rotten")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            resumed = run_fault_campaign(config, **ARGS)
        assert np.array_equal(golden.online_error, resumed.online_error)


    def test_missing_rate_reruns_only_that_rate(self, tmp_path, monkeypatch):
        config = small_config(cache_dir=str(tmp_path))
        run_fault_campaign(config, **ARGS)
        victim = None
        for path in sorted(tmp_path.glob("*.json")):
            meta = json.loads(path.read_text())
            if meta.get("kind") == "fault_campaign":
                path.unlink()
            elif meta.get("kind") == "_raw" and victim is None:
                victim = path
                path.unlink()
        assert victim is not None
        written = []
        put_raw = ResultCache.put_raw

        def recording_put_raw(self, key, payload):
            written.append(key)
            return put_raw(self, key, payload)

        monkeypatch.setattr(ResultCache, "put_raw", recording_put_raw)
        resumed = run_fault_campaign(config, **ARGS)
        assert written == [victim.stem]  # exactly one new _raw entry
        assert resumed.run_stats.num_shards == 1

    def test_resumes_checkpoints_of_per_rate_shards(self, tmp_path):
        """Checkpoints written one per (design, rate, shard) payload
        keep their keys and content, so such a cache resumes whole."""
        cache_dir = tmp_path / "cache"
        shutil.copytree(CHECKPOINTS, cache_dir)
        golden = run_fault_campaign(small_config(), **DRIFT_ARGS)
        resumed = run_fault_campaign(
            small_config(cache_dir=str(cache_dir)), **DRIFT_ARGS
        )
        assert resumed.run_stats.cache == "miss"
        assert resumed.run_stats.num_shards == 0
        assert resumed.fault_stats.shards_resumed == 8
        assert resumed.fault_stats.shards_total == 8
        assert _curves(resumed) == _curves(golden)
        assert _curves(golden) == (
            [0.0, 0.004901960784313725], [0.0, 0.10532812178564081]
        )


class TestSimulationCount:
    """One clean simulation per (design, shard) serves every rate."""

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        run = CompiledCircuit.run

        def counting_run(self, *args, **kwargs):
            calls.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(CompiledCircuit, "run", counting_run)
        return calls

    def test_capture_faults_simulate_once_per_unit(self, runs):
        # 2 designs x 2 shards, whatever the number of rates
        config = small_config(jobs=1, backend="packed")
        result = run_fault_campaign(
            config, model="jitter", rates=(0.0, 0.1, 0.2), num_samples=80
        )
        assert len(runs) == 4
        assert result.run_stats.num_shards == 4
        assert result.run_stats.samples == 3 * 80 * 2
        assert result.fault_stats.shards_total == 12

    def test_drift_adds_one_run_per_drifted_rate(self, runs):
        # rate 0 has no drift and reuses the clean run; 0.2 and 0.5 do
        config = small_config(jobs=1, backend="packed")
        run_fault_campaign(
            config, model="drift", rates=(0.0, 0.2, 0.5), num_samples=80
        )
        assert len(runs) == 4 * (1 + 2)


class TestFaultedSimulatorMemo:
    """Each (design, rate) fault transform is derived once per process."""

    def test_stuck_cli_campaign_derives_eight_transforms(
        self, monkeypatch, capsys
    ):
        # 2 designs x 10 shards x 5 rates = 100 cells; rate 0 has no
        # stuck gates, so 2 x 4 transforms serve the other 80
        from collections import OrderedDict

        import repro.faults.campaign as campaign
        from repro.cli import main

        derived = []
        apply = campaign.apply_stuck_faults

        def counting_apply(circuit, stuck_rate, seed):
            derived.append((circuit.name, stuck_rate))
            return apply(circuit, stuck_rate, seed)

        monkeypatch.setattr(campaign, "apply_stuck_faults", counting_apply)
        monkeypatch.setattr(campaign, "_faulted", OrderedDict())
        assert main(["faults", "--model", "stuck", "--samples", "20000",
                     "--jobs", "1", "--no-cache"]) == 0
        assert " shards=80 " in capsys.readouterr().out
        assert len(derived) == 8
        assert len(set(derived)) == 8


def _curves(result):
    return result.online_error.tolist(), result.traditional_error.tolist()


class TestSharedCircuits:
    """Campaigns build each netlist once and never mutate the shared one."""

    def test_each_builder_runs_once_per_process(self, monkeypatch):
        import repro.synth.spec as spec_module
        from repro.core.online_multiplier import OnlineMultiplier
        from repro.netlist.compiled import clear_compile_cache
        from repro.sim.sweep import run_sweep

        calls = {"online": 0, "traditional": 0}
        build_om = OnlineMultiplier.build_circuit
        build_am = spec_module.build_array_multiplier

        def counting_om(self, *args, **kwargs):
            calls["online"] += 1
            return build_om(self, *args, **kwargs)

        def counting_am(*args, **kwargs):
            calls["traditional"] += 1
            return build_am(*args, **kwargs)

        monkeypatch.setattr(OnlineMultiplier, "build_circuit", counting_om)
        monkeypatch.setattr(spec_module, "build_array_multiplier", counting_am)
        clear_compile_cache()
        config = small_config(jobs=1, cache_dir=None)
        run_fault_campaign(config, num_samples=80)
        for design in ("online", "traditional"):
            run_sweep(config, design=design, num_samples=80)
        clear_compile_cache()
        assert calls == {"online": 1, "traditional": 1}

    def test_fault_transforms_leave_shared_circuits_untouched(self):
        from repro.netlist.compiled import circuit_fingerprint
        from repro.sim.sweep import design_circuit

        config = small_config(jobs=1, cache_dir=None)
        circuits = [design_circuit(d, 4) for d in ("online", "traditional")]
        before = [
            (c.num_gates, c.name, circuit_fingerprint(c)) for c in circuits
        ]
        stuck = run_fault_campaign(
            config, model="stuck", rates=(0.0, 0.2), num_samples=80
        )
        drift = run_fault_campaign(
            config, model="drift", rates=(0.0, 0.5), num_samples=80
        )
        assert stuck.fault_stats.stuck_gates > 0
        assert drift.fault_stats.drifted_gates > 0
        after = [
            (c.num_gates, c.name, circuit_fingerprint(c))
            for c in (design_circuit(d, 4) for d in ("online", "traditional"))
        ]
        assert after == before


class TestAliasingDelayModels:
    """Two models with one ``repr`` signature must not share answers."""

    ARGS = dict(model="drift", rates=(0.0, 0.5), num_samples=80, overclock=1.5)

    def test_second_model_matches_a_fresh_process(self):
        import subprocess
        import sys
        from pathlib import Path

        from tests.delay_models import aliasing_pair

        fast, slow = aliasing_pair()
        config = small_config(jobs=1, cache_dir=None)
        first = run_fault_campaign(config, delay_model=fast, **self.ARGS)
        second = run_fault_campaign(config, delay_model=slow, **self.ARGS)
        assert _curves(first) != _curves(second)

        root = Path(__file__).resolve().parents[2]
        script = (
            "import json\n"
            "from repro.faults import run_fault_campaign\n"
            "from repro.runners import RunConfig\n"
            "from tests.delay_models import aliasing_pair\n"
            "result = run_fault_campaign(\n"
            "    RunConfig(ndigits=4, shard_size=40, jobs=1, cache_dir=None),\n"
            f"    delay_model=aliasing_pair()[1], **{self.ARGS!r})\n"
            "print(json.dumps([result.online_error.tolist(),\n"
            "                  result.traditional_error.tolist()]))\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env={"PYTHONPATH": f"{root / 'src'}:{root}", "PATH": ""},
            capture_output=True,
            text=True,
            check=True,
        )
        assert list(_curves(second)) == json.loads(fresh.stdout)
