"""The shared cached run path, held to one contract at every entry point.

Every sharded experiment entry point answers through
:func:`repro.runners.run_cached`, so each one must label its run the
same way and serve a cached answer equal to the fresh one:

* no cache directory: the run is labelled ``"off"``;
* first cached run: ``"miss"``, with the engine that ran the shards;
* the repeat: ``"hit"``, with no engine (nothing was computed);
* the hit's ``to_dict()`` (minus the run's metrics snapshot) is byte
  for byte the fresh one;
* a ``jobs=2`` run hits the entry the ``jobs=1`` run wrote.

Each entry point's cache-key digest for one fixed config is pinned as a
literal: a silent key change would make every existing user cache miss.
"""

import json

import pytest

from repro.faults.campaign import run_fault_campaign
from repro.imaging.filters import run_filter_study
from repro.obs.probe import run_stage_probe
from repro.runners import RAW_KIND, ParallelRunner, RunConfig
from repro.sim.error_profile import run_error_profile
from repro.sim.montecarlo import run_montecarlo
from repro.sim.sweep import run_sweep
from repro.synth.demos import demo_datapath
from repro.synth.search import run_synthesis

#: id -> (the entry point at its smallest geometry, the engine it runs
#: on, its cache-key digest).  The digests were computed before the
#: entry points shared one run path; they must never change.  The one
#: deliberate exception: the filter study's key gained the exact
#: per-gate delays of its datapaths (57a09a1f... before).  Synthesis
#: joined last, when its report became one whole-report entry keyed by
#: ``synthesis_key_components``; its digest was pinned then.
ENTRY_POINTS = {
    "montecarlo": (
        lambda c: run_montecarlo(c, num_samples=200),
        "vector", "bf99fabfbae1e1d868ee7f99a4a51034",
    ),
    "sweep_stage": (
        lambda c: run_sweep(c, num_samples=200, timing="stage"),
        "vector", "efde5e8adf1f03c265eea54a3c9a1b70",
    ),
    "sweep_gate": (
        lambda c: run_sweep(c, num_samples=200),
        "packed", "c798016da30d796f35bd23e8e807cd72",
    ),
    "error_profile_stage": (
        lambda c: run_error_profile(c, num_samples=200, timing="stage"),
        "vector", "1c427a174039a2a05869d23344567a83",
    ),
    "error_profile_gate": (
        lambda c: run_error_profile(c, num_samples=200),
        "packed", "174e0d92f14e2ab1a117bfcea3b8cd61",
    ),
    "stage_probe": (
        lambda c: run_stage_probe(c, num_samples=200),
        "vector", "d232de9f75942f40fb2fa0323090a7d6",
    ),
    "fault_campaign": (
        lambda c: run_fault_campaign(
            c, model="seu", rates=(0.0, 0.1), num_samples=100
        ),
        "packed", "26a49f29573a32f4883765880db5938c",
    ),
    "filter_study": (
        # 8-bit pixels need an 8-digit datapath
        lambda c: run_filter_study(
            c.with_(ndigits=8), images=("uniform",), factors=(1.1,), size=5
        ),
        "packed", "70a8131fcb85067c0f9bd923c6e4db05",
    ),
    "synthesis": (
        lambda c: run_synthesis(
            c, demo_datapath("prodsum", c.ndigits), 5.0, num_samples=200
        ),
        "vector", "b2c367c95d469fbf36e35f100ca33727",
    ),
}


def _config(**changes) -> RunConfig:
    return RunConfig(ndigits=4, jobs=1, shard_size=100, cache_dir=None).with_(
        **changes
    )


def _payload(result) -> str:
    data = result.to_dict()
    data.pop("metrics", None)
    return json.dumps(data, sort_keys=True)


def _result_entries(cache_dir) -> list:
    """Digests of the Result entries in *cache_dir* (checkpoints skipped)."""
    return sorted(
        path.stem
        for path in cache_dir.glob("*.json")
        if json.loads(path.read_text())["kind"] != RAW_KIND
    )


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_cached_run_contract(name, tmp_path):
    run, engine, digest = ENTRY_POINTS[name]

    off = run(_config())
    assert off.run_stats.cache == "off"
    assert off.run_stats.engine == engine

    config = _config(cache_dir=str(tmp_path))
    fresh = run(config)
    assert fresh.run_stats.cache == "miss"
    assert fresh.run_stats.engine == engine
    assert _result_entries(tmp_path) == [digest]

    hit = run(config)
    assert hit.run_stats.cache == "hit"
    assert hit.run_stats.engine is None
    assert _payload(hit) == _payload(fresh) == _payload(off)

    again = run(config.with_(jobs=2))
    assert again.run_stats.cache == "hit"
    assert _payload(again) == _payload(fresh)


def test_hit_on_a_reused_runner_leaves_the_fresh_run_alone(tmp_path):
    """A hit ran no shards: it must not relabel (or report) the stats of
    the run the same runner executed before it."""
    runner = ParallelRunner(jobs=1)
    config = _config(cache_dir=str(tmp_path))
    fresh = run_montecarlo(config, num_samples=200, runner=runner)
    hit = run_montecarlo(config, num_samples=200, runner=runner)
    assert (fresh.run_stats.cache, fresh.run_stats.samples) == ("miss", 200)
    assert (hit.run_stats.cache, hit.run_stats.samples) == ("hit", 0)
    assert hit.run_stats.num_shards == 0
