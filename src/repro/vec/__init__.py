"""Batched digit-level behavioral engine (``backend="vector"``).

Evaluates the Algorithm-1 online-operator recurrences directly on
signed-digit value arrays instead of boolean gate waves — bit-identical
to the gate-level engines at every tick (see :mod:`repro.vec.engine` for
the equivalence argument), orders of magnitude faster on large Monte
Carlo batches.

:mod:`repro.vec.fused` adds the one-pass multi-period sweep kernel:
capture snapshots for a whole grid of clock periods from a single
stage-by-stage pass, bit-identical to evaluating each period separately,
and :func:`~repro.vec.fused.stage_snapshots`, the one dispatch that
captures those rows on any engine.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "om_wave_vector": "repro.vec.engine",
    "vector_online_add": "repro.vec.engine",
    "om_sweep_vector": "repro.vec.fused",
    "stage_snapshots": "repro.vec.fused",
    "fused_sweep_partial": "repro.vec.fused",
    "stage_error_partials": "repro.vec.fused",
    "stage_digit_mismatch_counts": "repro.vec.fused",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
