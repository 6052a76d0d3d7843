"""Algorithm 2 and the expected overclocking error (Eqs. (9)-(11)).

Timing model: every one of the ``N + delta`` multiplier stages costs one
delay unit ``mu``; a clock period ``T_S`` allows ``b = ceil(T_S / mu)``
stage traversals (Eq. (4)), so any chain longer than ``b`` digits is caught
mid-flight and the stale stages emit wrong product digits.

* ``violation_probability(b)`` — Algorithm 2: accumulate, over every stage
  ``tau`` and input case, the probability that ``d(tau) > b``.  As in the
  paper this is a first-order (union-bound) accumulation; an independent-
  stage variant is available for comparison.
* ``expected_error(b)`` — Eq. (10)/(11): combine the violation
  probabilities with the error magnitude.  A chain born at stage ``tau``
  and sampled after ``b`` traversals first corrupts the digit produced at
  stage ``tau + b``; digit ``z_j`` weighs ``2**-(j+1)`` and the digit-flip
  analysis (Table "Annihilation" in the paper) bounds the flip at
  ``|delta z| <= 2`` with a geometric tail over the downstream digits, so
  the magnitude model is ``|eps(tau, b)| = kappa * 2**-(tau + b)`` with the
  calibration constant ``kappa`` defaulting to 1 (the Fig. 4 verification
  benches report the fitted value).

The key qualitative property — the reason online arithmetic is
"overclocking friendly" — drops out of the formula: raising the frequency
(smaller ``b``) both *lowers* the violating-chain threshold and *raises*
the weight ``2**-(tau+b)`` only geometrically, while in conventional
arithmetic the first violated bit is the MSB, so the error magnitude jumps
to the full scale immediately.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.model.chains import (
    TABLE_MAXSIZE,
    stage_chain_distribution,
    stage_table,
)
from repro.numrep.rounding import ceil_scaled


@functools.lru_cache(maxsize=TABLE_MAXSIZE)
def violation_tails(
    ndigits: int, delta: int, p_zero: Fraction, b: int
) -> Tuple[Fraction, ...]:
    """Exact per-stage violation tails ``P(d(tau) > b)``, ``tau = -delta
    .. N-1`` in order — the process-wide table behind Algorithm 2 and
    Eq. (10)."""
    return tuple(
        sum(
            (q for d, q in stage_table(tau, ndigits, delta, p_zero) if d > b),
            Fraction(0),
        )
        for tau in range(-delta, ndigits)
    )


def clear_tables() -> None:
    """Empty the process-wide model tables (for timing a cold evaluation)."""
    stage_table.cache_clear()
    violation_tails.cache_clear()


class OverclockingErrorModel:
    """Analytical overclocking-error model for an ``N``-digit online
    multiplier (Section 3 of the paper).

    Parameters
    ----------
    ndigits:
        Operand word length ``N``.
    delta:
        Online delay (3 for radix 2).
    kappa:
        Error-magnitude calibration constant (see module docstring).
    p_zero:
        Probability that an input digit is zero (default 1/3 — uniform
        independent digits).  Real, correlated data has sparser nonzero
        digits; raising ``p_zero`` thins the chain population, modelling
        the paper's observation that real images allow deeper overclocking.
    """

    def __init__(
        self,
        ndigits: int,
        delta: int = 3,
        kappa: float = 1.0,
        p_zero: Optional[Fraction] = None,
    ) -> None:
        if ndigits < 1:
            raise ValueError("ndigits must be >= 1")
        self.ndigits = ndigits
        self.delta = delta
        self.kappa = kappa
        self.p_zero = Fraction(1, 3) if p_zero is None else Fraction(p_zero)

    # ------------------------------------------------------------ plumbing
    @property
    def num_stages(self) -> int:
        return self.ndigits + self.delta

    @property
    def structural_delay(self) -> int:
        """Naive structural critical path in stage delays: ``N + delta``."""
        return self.num_stages

    def stage_distribution(self, tau: int) -> Dict[int, Fraction]:
        """Chain-length distribution of stage ``tau`` (a fresh copy of the
        shared table entry)."""
        return stage_chain_distribution(
            tau, self.ndigits, self.delta, self.p_zero
        )

    def b_of_period(self, ts_normalized: float) -> int:
        """Eq. (4): error-free propagation depth for a clock period given as
        a fraction of the structural delay ``(N + delta) * mu``.

        The product is taken exactly (:func:`repro.numrep.ceil_scaled`):
        a period that is an exact multiple of ``mu`` must land on its own
        depth, not one above it (``ceil(0.28 * 25)`` is 8 in binary
        floating point).
        """
        return ceil_scaled(ts_normalized, self.structural_delay)

    def worst_case_delay(self) -> int:
        """Actual worst-case delay in stage units — chain annihilation.

        The longest possible chain is ``max_tau min(tau + 2*delta + 1,
        N - 1 - tau) = (N + 2*delta) // 2`` stages: the paper's
        (commented) refined worst-case analysis, substantially below the
        structural ``N + delta``.  Clocking at or above this depth is
        provably error-free under the stage-delay model.
        """
        best = 0
        for tau in range(-self.delta, self.ndigits):
            best = max(
                best,
                min(tau + 2 * self.delta + 1, self.ndigits - 1 - tau),
            )
        return best

    def annihilation_headroom(self) -> float:
        """Fraction of the structural delay saved by chain annihilation."""
        return 1.0 - self.worst_case_delay() / self.structural_delay

    # ----------------------------------------------------------- Algorithm 2
    def violation_probability(self, b: int, independent: bool = False) -> float:
        """Probability that sampling after ``b`` stage delays violates timing.

        With ``independent=False`` (default) this is Algorithm 2's
        accumulation ``sum_tau P(d(tau) > b)``; with ``independent=True``
        the stages are combined as ``1 - prod(1 - p_tau)``.
        """
        if b < self.delta:
            raise ValueError(
                "the model requires b > delta (the first digit must be "
                "produced correctly)"
            )
        p_stage = violation_tails(self.ndigits, self.delta, self.p_zero, b)
        if independent:
            prod = 1.0
            for p in p_stage:
                prod *= 1.0 - float(p)
            return 1.0 - prod
        return float(min(sum(p_stage, Fraction(0)), Fraction(1)))

    # ------------------------------------------------------ error magnitude
    def error_magnitude(self, tau: int, b: int) -> float:
        """Expected |error| when the chain born at stage ``tau`` is violated.

        The first stale product digit is ``z_{tau+b}`` (weight
        ``2**-(tau+b+1)``); the flip magnitude plus the geometric tail over
        later digits is folded into ``kappa * 2**-(tau+b)``.
        """
        first_bad = tau + b
        if first_bad > self.ndigits - 1:
            return 0.0
        first_bad = max(first_bad, 0)
        return self.kappa * 2.0 ** (-(first_bad))

    # -------------------------------------------------------- Eq. (10)/(11)
    def expected_error(self, b: int) -> float:
        """Expected overclocking error ``E_ovc`` at depth ``b`` (Eq. (10)).

        Sums, over stages and chain lengths ``d > b``, the probability of
        the violating chain times its error magnitude.
        """
        tails = violation_tails(self.ndigits, self.delta, self.p_zero, b)
        total = 0.0
        for tau, p_violate in zip(range(-self.delta, self.ndigits), tails):
            if p_violate:
                total += float(p_violate) * self.error_magnitude(tau, b)
        return total

    def expectation_curve(
        self, ts_normalized: Iterable[float]
    ) -> List[Tuple[float, float]]:
        """``E_ovc`` over a sweep of normalized clock periods.

        ``ts_normalized`` values are fractions of the structural delay
        ``(N + delta) * mu``; values >= 1 are timing-safe (zero error).
        """
        out: List[Tuple[float, float]] = []
        for ts in ts_normalized:
            b = self.b_of_period(ts)
            if b >= self.num_stages:
                out.append((ts, 0.0))
            else:
                b = max(b, self.delta + 1)
                out.append((ts, self.expected_error(b)))
        return out

    # ----------------------------------------------------------- Fig. 5 data
    def per_delay_curves(self) -> List[Tuple[int, float, float, float]]:
        """Per-chain-delay data behind the paper's Fig. 5.

        Returns rows ``(d, P_d, eps_d, P_d * eps_d)`` where ``P_d`` is the
        chain intensity at delay ``d`` and ``eps_d`` the mean violated-chain
        error magnitude, obtained by cutting each chain one stage before its
        natural annihilation (``b = d - 1``), the latest moment a violation
        of that chain can happen.
        """
        n, delta, p_zero = self.ndigits, self.delta, self.p_zero
        acc: Dict[int, Tuple[float, float]] = {}
        for tau in range(-delta, n):
            for d, q in stage_table(tau, n, delta, p_zero):
                if d <= 0:
                    continue
                eps = self.error_magnitude(tau, d - 1)
                p_prev, e_prev = acc.get(d, (0.0, 0.0))
                acc[d] = (p_prev + float(q), e_prev + float(q) * eps)
        rows = []
        for d in sorted(acc):
            p_d, e_d = acc[d]
            eps_d = e_d / p_d if p_d else 0.0
            rows.append((d, p_d, eps_d, e_d))
        return rows

    def eq11_expected_error(self, b: int) -> float:
        """Eq. (11): ``E_ovc = sum_{d > b} P_d * eps_d`` (Fig. 5 variant)."""
        return sum(
            e_d for d, _p, _eps, e_d in self.per_delay_curves() if d > b
        )

    # ------------------------------------------------------------ calibration
    def calibrated(self, depths: Sequence[int], measured: Sequence[float]
                   ) -> "OverclockingErrorModel":
        """Return a copy whose ``kappa`` is fitted to measured data.

        ``measured[i]`` is an observed mean |error| at depth ``depths[i]``
        (e.g. from :func:`repro.sim.montecarlo.run_montecarlo`).  The
        fit minimises the mean log-ratio over depths where both the model
        and the measurement are non-zero, which is the right loss for a
        quantity spanning several decades (Fig. 4's log axis).
        """
        ratios: List[float] = []
        for b, e_meas in zip(depths, measured):
            if e_meas <= 0 or b >= self.num_stages:
                continue
            e_model = self.expected_error(int(b))
            if e_model > 0:
                ratios.append(math.log(e_meas / e_model))
        if not ratios:
            raise ValueError("no overlapping non-zero points to fit kappa")
        factor = math.exp(sum(ratios) / len(ratios))
        return OverclockingErrorModel(
            self.ndigits,
            self.delta,
            kappa=self.kappa * factor,
            p_zero=self.p_zero,
        )
