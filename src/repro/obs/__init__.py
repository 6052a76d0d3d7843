"""Unified observability layer: tracing, metrics, digit-error telemetry.

Three cooperating pieces (see DESIGN.md "Observability"):

* :mod:`repro.obs.trace` — structured spans/events with contextvar
  ambient propagation, deterministic ids, and JSONL export; workers
  buffer spans which the pool re-parents into the parent trace.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and histograms, snapshotted into results and rendered by
  ``repro stats``.
* :mod:`repro.obs.probe` — the :class:`StageErrorProbe` experiment:
  first-erroneous-digit histograms and propagation-chain depths per
  overclocked period, cross-checked against Algorithm 2.
* :mod:`repro.obs.events` — live shard-progress telemetry: a
  :class:`ProgressReporter` fed by :class:`~repro.runners.parallel.ParallelRunner`
  lifecycle transitions hands each event to one callback, through which
  the service streams progress frames and keeps the ``statsz`` view
  ``repro top`` renders.
* :mod:`repro.obs.export` — stdlib-only Prometheus text exposition of
  a metrics snapshot (``render_prometheus``).
* :mod:`repro.obs.ledger` — the schema-versioned bench-regression
  ledger behind ``benchmarks/_common.publish`` and
  ``benchmarks/check_regression.py``.

``trace``, ``metrics``, and ``events`` are dependency-free (importable
from anywhere in the stack, including :mod:`repro.runners`); ``probe``
sits *above* the runner layer.  Like every package root, this one
imports a name's module on first access, so it stays cheap and
cycle-free to import.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "DISABLED": "repro.obs.trace",
    "TRACE_ENV": "repro.obs.trace",
    "MetricsRegistry": "repro.obs.metrics",
    "ProgressEvent": "repro.obs.events",
    "ProgressReporter": "repro.obs.events",
    "StageProbeResult": "repro.obs.probe",
    "Tracer": "repro.obs.trace",
    "current_tracer": "repro.obs.trace",
    "deterministic_snapshot": "repro.obs.metrics",
    "metrics": "repro.obs.metrics",
    "render_prometheus": "repro.obs.export",
    "reset_env_default": "repro.obs.trace",
    "run_stage_probe": "repro.obs.probe",
    "run_traced_worker": "repro.obs.trace",
    "set_tracer": "repro.obs.trace",
    "tracer_from_env": "repro.obs.trace",
    "use_tracer": "repro.obs.trace",
    "worker_trace_context": "repro.obs.trace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
