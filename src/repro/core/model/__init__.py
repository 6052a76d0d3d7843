"""Section 3 of the paper: probabilistic model of overclocking error.

The model predicts, for an ``N``-digit radix-2 online multiplier whose
stages each cost one delay unit ``mu``:

* which stages can generate propagation chains and how long those chains
  run before annihilating (:mod:`repro.core.model.chains` — the input-case
  analysis C1..C4 and the word-length recursion, Eqs. (5)-(8));
* the probability that a clock of period ``T_S = b * mu`` catches a chain
  mid-flight — Algorithm 2 (:meth:`OverclockingErrorModel.violation_probability`);
* the magnitude of the resulting error, which lands in the least
  significant digits (Eq. (9)); and
* the expected overclocking error ``E_ovc`` (Eqs. (10)/(11)).

Chain distributions and violation tails live in process-wide, bounded,
read-only tables (:func:`stage_table`, :func:`violation_tails`): every
model instance with the same geometry reads the same exact fractions.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "CASE_PROBABILITIES": "repro.core.model.chains",
    "stage_chain_distribution": "repro.core.model.chains",
    "chain_delay_distribution": "repro.core.model.chains",
    "OverclockingErrorModel": "repro.core.model.expectation",
    "clear_tables": "repro.core.model.expectation",
    "stage_table": "repro.core.model.chains",
    "violation_tails": "repro.core.model.expectation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
