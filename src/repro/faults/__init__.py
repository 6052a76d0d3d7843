"""Composable fault injection for the overclocking experiments.

The repository's original failure mode is *deterministic*: a capture
register clocked at period ``T_S`` truncates the propagation wave at
depth ``b = ceil(T_S / mu)``.  Real overclocked silicon misbehaves in
messier ways — clock jitter, voltage/temperature delay drift, single
event upsets, metastable register capture, stuck-at defects — and the
paper's graceful-degradation claim is only convincing if it survives
those regimes too.  This package perturbs the simulation at three layers:

**Timing faults** (:mod:`repro.faults.timing`)
    :class:`DriftedDelayModel` composes seeded per-gate delay drift on
    top of any existing :class:`~repro.netlist.delay.DelayModel`;
    per-cycle clock jitter perturbs the capture instant of every sample
    (each sample of a batch belongs to a different clock cycle).  Both
    reuse :func:`~repro.netlist.delay.delay_signature`, so faulted runs
    stay compile- and result-cacheable.

**Value faults** (:mod:`repro.faults.inject`, :mod:`repro.faults.stuck`)
    Seeded SEU bit-flips and metastable capture (a digit that settles
    within a guard window of the deadline resolves randomly) are
    injected at the capture boundary by :class:`FaultInjector` with
    bit-identical semantics on the wave and packed backends; stuck-at-0/1
    gates are a deterministic circuit transform
    (:func:`apply_stuck_faults`) consumed identically by every backend.

**Pipeline faults** (:mod:`repro.faults.pipeline`)
    A crash/hang/corruption-injecting harness for
    :mod:`repro.runners`, used by the robustness tests to prove that the
    hardened runner retries crashed shards, times out hung ones and
    recomputes corrupt cache entries.

:func:`run_fault_campaign` sweeps fault intensity for the online and
conventional multipliers and reports degradation curves; it checkpoints
every shard into the persistent result cache, so a killed campaign
resumes and completes only the missing shards (bit-identical to an
uninterrupted run).
"""

from repro import _lazy

#: fault-model families :func:`config_for_model` can instantiate; each
#: maps a scalar intensity ``rate`` to one FaultConfig.  Defined here,
#: not in :mod:`repro.faults.models`, so the CLI parser can offer them
#: without loading the fault machinery.
FAULT_MODELS = ("jitter", "drift", "seu", "metastable", "stuck")

#: default fault-intensity grid (dimensionless, family-scaled)
DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)

#: public name -> defining module, imported on first access
_EXPORTS = {
    "FaultConfig": "repro.faults.models",
    "config_for_model": "repro.faults.models",
    "fault_signature": "repro.faults.models",
    "DriftedDelayModel": "repro.faults.timing",
    "apply_stuck_faults": "repro.faults.stuck",
    "FaultInjector": "repro.faults.inject",
    "CAMPAIGN_DESIGNS": "repro.faults.campaign",
    "FaultCampaignResult": "repro.faults.campaign",
    "FaultStats": "repro.faults.campaign",
    "run_fault_campaign": "repro.faults.campaign",
    "FaultyPipelineWorker": "repro.faults.pipeline",
    "PipelineFaultPlan": "repro.faults.pipeline",
    "corrupt_cache_entry": "repro.faults.pipeline",
}

__all__ = ["FAULT_MODELS", "DEFAULT_RATES", *_EXPORTS]
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
