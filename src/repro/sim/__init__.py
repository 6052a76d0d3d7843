"""Experiment harnesses: Monte-Carlo timing runs and frequency sweeps.

Two levels of timing fidelity, matching the paper's two verification rows
(Fig. 4):

* :mod:`repro.sim.montecarlo` — the *stage-delay* model: every multiplier
  stage costs one unit; the wave state after ``b`` ticks is what a register
  clocked at ``T_S = b * mu`` captures.  Fast (vectorized), used to verify
  the analytical model under its own timing assumptions.
* :mod:`repro.sim.sweep` — *gate-level* waveform simulation of the actual
  netlists under a chosen delay model (the FPGA stand-in).  One simulation
  of a batch yields every clock period at once.

The ``run_*`` entry points are the unified API: each takes a
:class:`repro.runners.RunConfig` and shards its sample batch across
worker processes with deterministic seed-splitting (results are
bit-identical for any ``jobs``), consulting the persistent result cache
when one is configured.  :mod:`repro.sim.error_profile` adds the
per-digit error anatomy, and :mod:`repro.sim.reporting` renders the
tables (and runner statistics lines) the benchmarks print.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "uniform_digit_batch": "repro.sim.montecarlo",
    "default_depths": "repro.sim.montecarlo",
    "run_montecarlo": "repro.sim.montecarlo",
    "run_settle_histogram": "repro.sim.montecarlo",
    "settle_depths": "repro.sim.montecarlo",
    "MonteCarloResult": "repro.sim.montecarlo",
    "OnlineMultiplierHarness": "repro.sim.sweep",
    "TraditionalMultiplierHarness": "repro.sim.sweep",
    "SweepHarness": "repro.sim.sweep",
    "SweepResult": "repro.sim.sweep",
    "SWEEP_DESIGNS": "repro.sim.sweep",
    "run_sweep": "repro.sim.sweep",
    "stage_steps_for_periods": "repro.sim.sweep",
    "stage_sweep_partial": "repro.sim.sweep",
    "sweep_operator": "repro.sim.sweep",
    "max_error_free_step": "repro.sim.sweep",
    "DigitErrorProfile": "repro.sim.error_profile",
    "digit_error_profile": "repro.sim.error_profile",
    "online_digit_groups": "repro.sim.error_profile",
    "run_error_profile": "repro.sim.error_profile",
    "traditional_bit_groups": "repro.sim.error_profile",
    "format_run_stats": "repro.sim.reporting",
    "format_table": "repro.sim.reporting",
    "geomean": "repro.sim.reporting",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
