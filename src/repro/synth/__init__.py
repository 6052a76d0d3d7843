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

#: public name -> defining module, imported on first access
_EXPORTS = {
    "AccuracyTarget": "repro.synth.search",
    "DEFAULT_PERIODS": "repro.synth.search",
    "MODEL_TOLERANCE_FACTOR": "repro.synth.model",
    "OperatorSpec": "repro.synth.spec",
    "PredictedDesign": "repro.synth.model",
    "PredictedModule": "repro.synth.model",
    "REF_FRAC": "repro.synth.search",
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

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
