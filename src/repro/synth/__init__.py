"""Latency-accuracy datapath synthesis (:func:`run_synthesis`).

The auto-synthesizer of the paper's titular trade-off: search
per-operator implementation (online vs. exact-traditional), word length
and clock period for a :class:`~repro.core.synthesis.Datapath`, coarse-
ranked by the Section-3 analytical error model and verified on the fused
vector engine.  The enabling abstraction is :class:`OperatorSpec` — a
composable operator description (netlist builder, lowering, analytical
error model, area/delay and encode/decode hooks) with a registry that
the online, ripple-carry, prefix-adder and array-multiplier
implementations all register into.
"""

from repro import _lazy

#: the demo datapaths :func:`repro.synth.demos.demo_datapath` builds, in
#: CLI/display order.  Defined here, not in :mod:`repro.synth.demos`, so
#: the request declarations (:mod:`repro.experiments`) can offer them
#: without loading the datapath machinery.
DEMO_DATAPATHS = ("prodsum", "mac", "dot3")

#: fractional bits of the synthesizer's shared reference-precision
#: operand draws
REF_FRAC = 24


def check_wordlength(ndigits: int) -> None:
    """Raise ``ValueError`` unless ``1 <= ndigits <= REF_FRAC``.

    Candidates re-quantize the shared :data:`REF_FRAC`-bit operand
    draws, so a wider (or empty) word can only fail.
    """
    if not 1 <= ndigits <= REF_FRAC:
        raise ValueError(
            f"must be in [1, {REF_FRAC}] for synthesis (the reference "
            f"precision), got {ndigits!r}"
        )


#: public name -> defining module, imported on first access
_EXPORTS = {
    "AccuracyTarget": "repro.synth.search",
    "DEFAULT_PERIODS": "repro.synth.search",
    "MODEL_TOLERANCE_FACTOR": "repro.synth.model",
    "OperatorSpec": "repro.synth.spec",
    "PredictedDesign": "repro.synth.model",
    "PredictedModule": "repro.synth.model",
    "SynthesisReport": "repro.synth.report",
    "default_spec_name": "repro.synth.spec",
    "enumerate_assignments": "repro.synth.search",
    "model_tolerance_floor": "repro.synth.model",
    "operator_spec": "repro.synth.spec",
    "predict_design": "repro.synth.model",
    "register_operator": "repro.synth.spec",
    "registered_operators": "repro.synth.spec",
    "run_synthesis": "repro.synth.search",
    "spec_area": "repro.synth.spec",
    "spec_stages": "repro.synth.spec",
    "stage_quantum": "repro.synth.spec",
    "steps_for_periods": "repro.synth.search",
    "within_model_tolerance": "repro.synth.model",
}

__all__ = ["DEMO_DATAPATHS", "REF_FRAC", "check_wordlength", *_EXPORTS]
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
