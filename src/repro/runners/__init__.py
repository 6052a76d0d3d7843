"""Parallel experiment execution with a persistent result cache.

This package is the orchestration layer of the reproduction: it turns
the embarrassingly parallel batch experiments (Monte-Carlo curves,
overclocking sweeps, error-profile grids, per-image filter jobs) into
sharded multi-core runs with deterministic seed-splitting and a
content-addressed on-disk cache.

* :mod:`repro.runners.config` — :class:`RunConfig`, the single parameter
  block every experiment entry point consumes;
* :mod:`repro.runners.parallel` — :class:`ParallelRunner` (sharding,
  process pool, crash retry, in-process fallback) and the deterministic
  seed-splitting/merge helpers;
* :mod:`repro.runners.cache` — :class:`ResultCache` (JSON + npz entries
  addressed by content hash);
* :mod:`repro.runners.results` — the ``Result`` protocol
  (``to_dict``/``from_dict`` JSON round-trip) and its kind registry.

The experiment entry points themselves live next to their physics:
``run_montecarlo`` in :mod:`repro.sim.montecarlo`, ``run_sweep`` in
:mod:`repro.sim.sweep`, ``run_error_profile`` in
:mod:`repro.sim.error_profile` and ``run_filter_study`` in
:mod:`repro.imaging.filters`.
"""

from repro.runners.config import DEFAULT_SHARD_SIZE, RunConfig
from repro.runners.parallel import (
    CancelToken,
    ParallelRunner,
    RunCancelled,
    RunStats,
    ShardStat,
    merge_float_sums,
    merge_int_sums,
    seed_tag,
    split_samples,
    spawn_seeds,
)
from repro.runners.cache import (
    QUARANTINE_DIR,
    RAW_KIND,
    ResultCache,
    cache_for,
    cache_key,
)
from repro.runners.results import (
    Result,
    jsonable,
    register_result,
    registered_kinds,
    result_from_dict,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "RunConfig",
    "CancelToken",
    "RunCancelled",
    "ParallelRunner",
    "RunStats",
    "ShardStat",
    "merge_float_sums",
    "merge_int_sums",
    "seed_tag",
    "split_samples",
    "spawn_seeds",
    "QUARANTINE_DIR",
    "RAW_KIND",
    "ResultCache",
    "cache_for",
    "cache_key",
    "Result",
    "jsonable",
    "register_result",
    "registered_kinds",
    "result_from_dict",
]
