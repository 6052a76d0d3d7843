"""Parallel experiment execution with a persistent result cache.

This package is the orchestration layer of the reproduction: it turns
the embarrassingly parallel batch experiments (Monte-Carlo curves,
overclocking sweeps, error-profile grids, per-image filter jobs) into
sharded multi-core runs with deterministic seed-splitting and a
content-addressed on-disk cache.

* :mod:`repro.runners.config` — :class:`RunConfig`, the single parameter
  block every experiment entry point consumes;
* :mod:`repro.runners.parallel` — :class:`ParallelRunner` (sharding,
  process pool, crash retry, in-process fallback), :func:`shard_plan`
  (the one seed layout) and the ordered-merge helpers;
* :mod:`repro.runners.cache` — :class:`ResultCache` (one JSON file per
  entry, addressed by content hash) and :func:`run_cached` (the one cache
  policy every entry point answers through);
* :mod:`repro.runners.results` — the ``Result`` protocol
  (``to_dict``/``from_dict`` JSON round-trip) and its kind registry.

The experiment entry points themselves live next to their physics:
``run_montecarlo`` in :mod:`repro.sim.montecarlo`, ``run_sweep`` in
:mod:`repro.sim.sweep`, ``run_error_profile`` in
:mod:`repro.sim.error_profile`, ``run_stage_probe`` in
:mod:`repro.obs.probe`, ``run_fault_campaign`` in
:mod:`repro.faults.campaign` and ``run_filter_study`` in
:mod:`repro.imaging.filters`.  Each keeps only what is its own —
validation, key components, worker payload and merge.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "DEFAULT_SHARD_SIZE": "repro.runners.config",
    "RunConfig": "repro.runners.config",
    "CancelToken": "repro.runners.parallel",
    "RunCancelled": "repro.runners.parallel",
    "ParallelRunner": "repro.runners.parallel",
    "RunStats": "repro.runners.parallel",
    "ShardStat": "repro.runners.parallel",
    "merge_float_sums": "repro.runners.parallel",
    "merge_int_sums": "repro.runners.parallel",
    "seed_tag": "repro.runners.parallel",
    "split_samples": "repro.runners.parallel",
    "shard_plan": "repro.runners.parallel",
    "spawn_seeds": "repro.runners.parallel",
    "QUARANTINE_DIR": "repro.runners.cache",
    "RAW_KIND": "repro.runners.cache",
    "ResultCache": "repro.runners.cache",
    "cache_for": "repro.runners.cache",
    "cache_key": "repro.runners.cache",
    "run_cached": "repro.runners.cache",
    "Result": "repro.runners.results",
    "jsonable": "repro.runners.results",
    "register_result": "repro.runners.results",
    "registered_kinds": "repro.runners.results",
    "result_from_dict": "repro.runners.results",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
