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

from repro.sim.montecarlo import (
    uniform_digit_batch,
    default_depths,
    run_montecarlo,
    run_settle_histogram,
    settle_depths,
    MonteCarloResult,
)
from repro.sim.sweep import (
    OnlineMultiplierHarness,
    TraditionalMultiplierHarness,
    SweepHarness,
    SweepResult,
    SWEEP_DESIGNS,
    run_sweep,
    stage_steps_for_periods,
    stage_sweep_partial,
    sweep_operator,
    max_error_free_step,
)
from repro.sim.error_profile import (
    DigitErrorProfile,
    digit_error_profile,
    online_digit_groups,
    run_error_profile,
    traditional_bit_groups,
)
from repro.sim.reporting import format_run_stats, format_table, geomean

__all__ = [
    "uniform_digit_batch",
    "default_depths",
    "run_montecarlo",
    "run_settle_histogram",
    "settle_depths",
    "MonteCarloResult",
    "OnlineMultiplierHarness",
    "TraditionalMultiplierHarness",
    "SweepHarness",
    "SweepResult",
    "SWEEP_DESIGNS",
    "run_sweep",
    "stage_steps_for_periods",
    "stage_sweep_partial",
    "sweep_operator",
    "max_error_free_step",
    "DigitErrorProfile",
    "digit_error_profile",
    "online_digit_groups",
    "run_error_profile",
    "traditional_bit_groups",
    "format_run_stats",
    "format_table",
    "geomean",
]
