"""Shared cross-engine conformance tolerances for the ``tests/vec`` suites.

The vector-engine acceptance gate distinguishes two kinds of agreement:

* **Exact**: same seed, same operand stream — engines must be
  bit-identical, no tolerance at all (use
  ``numpy.testing.assert_array_equal``).
* **Statistical**: independent seeds — Monte-Carlo statistics must agree
  within sampling noise.  The constants below are the suite-wide
  thresholds, set at roughly 3x the empirically observed spread at 5000
  samples (binomial std at ``p ~ 0.5`` is ~0.007); both the original
  vector-vs-packed suite (``test_conformance.py``) and the fused-sweep
  suite (``test_fused_conformance.py``) import them instead of
  re-hardcoding literals.
"""

import json

import numpy as np

#: max |difference| of per-depth violation probabilities across seeds
VIOLATION_TOL = 0.03

#: max |difference| of per-depth mean |error| (``E|eps|``) across seeds
MAE_TOL = 0.02

#: max total-variation distance between normalized per-depth
#: first-erroneous-digit histograms across seeds
TV_TOL = 0.06


def assert_sweep_statistics_close(a, b):
    """Cross-seed statistical agreement of two sweep-like results.

    *a* and *b* expose per-step ``violation_probability`` and
    ``mean_abs_error`` arrays on a common step grid (a
    :class:`~repro.sim.sweep.SweepResult` or
    :class:`~repro.sim.montecarlo.MonteCarloResult`).
    """
    assert (
        np.max(np.abs(a.violation_probability - b.violation_probability))
        < VIOLATION_TOL
    )
    assert np.max(np.abs(a.mean_abs_error - b.mean_abs_error)) < MAE_TOL


def assert_histograms_close(counts_a, counts_b, num_samples):
    """Per-depth total-variation agreement of two count histograms."""
    p = np.asarray(counts_a, dtype=np.float64) / num_samples
    q = np.asarray(counts_b, dtype=np.float64) / num_samples
    tv = 0.5 * np.abs(p - q).sum(axis=1)
    assert np.max(tv) < TV_TOL


def payload_bytes(result) -> bytes:
    """Canonical wire bytes of a result: ``to_dict()`` without metrics.

    The byte-equality currency of the engine contract — a cached answer
    and a fresh one, or the answers of two engines, must serialize to
    the same bytes.
    """
    payload = result.to_dict()
    payload.pop("metrics", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
