"""Fault configuration: one frozen parameter block per fault regime.

A :class:`FaultConfig` bundles every fault knob the injection layers
understand.  All-zero rates mean *no fault anywhere*: the null config is
the contract behind the regression suite's golden-equivalence guarantee
(every faulted entry point with a null config reproduces the unfaulted
results bit-identically on both simulation backends).

The probabilistic shape follows the inaccurate-arithmetic literature
(Kedem & Muntimadugu's general inaccurate adders; Ranjbar et al.'s
error-resilient approximate full adders): faults are independent
Bernoulli events at gate or capture granularity, seeded so every draw is
reproducible and execution-layout independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.faults import FAULT_MODELS
from repro.numrep.rounding import ceil_scaled


@dataclass(frozen=True)
class FaultConfig:
    """Every fault knob of the injection subsystem.

    Attributes
    ----------
    clock_jitter:
        Maximum absolute per-cycle capture-instant offset in quanta; each
        sample latches at ``step + U{-j..+j}`` instead of ``step``.
    drift_rate / drift_max:
        Fraction of (non-free) gates whose delay drifts, and the maximum
        extra quanta per drifted gate — the voltage/temperature delay
        drift of an overclocked part, composed on the base delay model by
        :class:`~repro.faults.DriftedDelayModel`.
    seu_rate:
        Per captured output bit, the probability of a transient bit-flip
        (single event upset) at the capture boundary.
    stuck_rate:
        Fraction of gates permanently stuck at a random constant 0/1
        (:func:`~repro.faults.apply_stuck_faults`).
    meta_window / meta_rate:
        Metastability guard window: a captured bit whose waveform is
        still changing within ``meta_window`` quanta of the capture
        instant resolves to a random value with probability
        ``meta_rate``.
    seed:
        Seed of the *structural* fault draws (which gates drift / stick).
        Capture-boundary draws (jitter offsets, SEU flips, metastable
        resolutions) are seeded per shard by the campaign runner so that
        sharding stays execution-layout independent.
    """

    clock_jitter: int = 0
    drift_rate: float = 0.0
    drift_max: int = 0
    seu_rate: float = 0.0
    stuck_rate: float = 0.0
    meta_window: int = 0
    meta_rate: float = 1.0
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.clock_jitter < 0:
            raise ValueError(
                f"clock_jitter must be >= 0 quanta, got {self.clock_jitter}"
            )
        if self.meta_window < 0:
            raise ValueError(
                f"meta_window must be >= 0 quanta, got {self.meta_window}"
            )
        if self.drift_max < 0:
            raise ValueError(
                f"drift_max must be >= 0 quanta, got {self.drift_max}"
            )
        for name in ("drift_rate", "seu_rate", "stuck_rate", "meta_rate"):
            value = getattr(self, name)
            if not 0.0 <= float(value) <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value!r}"
                )
        if self.drift_rate > 0 and self.drift_max == 0:
            raise ValueError(
                "drift_rate > 0 needs drift_max >= 1 quantum of drift"
            )

    def is_null(self) -> bool:
        """True when no layer injects anything (the golden baseline)."""
        return (
            self.clock_jitter == 0
            and self.drift_rate == 0.0
            and self.seu_rate == 0.0
            and self.stuck_rate == 0.0
            and self.meta_window == 0
        )

    def with_(self, **changes: object) -> "FaultConfig":
        """A copy with the given fields replaced (the config is frozen)."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        """Cache-key material: every field that changes injected faults."""
        return {
            "clock_jitter": int(self.clock_jitter),
            "drift_rate": float(self.drift_rate),
            "drift_max": int(self.drift_max),
            "seu_rate": float(self.seu_rate),
            "stuck_rate": float(self.stuck_rate),
            "meta_window": int(self.meta_window),
            "meta_rate": float(self.meta_rate),
            "seed": int(self.seed),
        }


def fault_signature(config: FaultConfig) -> str:
    """Stable textual identity of a fault config (memo/cache keys)."""
    params = ", ".join(f"{k}={v!r}" for k, v in sorted(config.describe().items()))
    return f"{type(config).__name__}({params})"


def config_for_model(
    model: str,
    rate: float,
    rated_step: int,
    quanta_per_unit: int = 1,
    seed: int = 2014,
) -> FaultConfig:
    """Map a scalar intensity to a :class:`FaultConfig` of one family.

    ``rate`` is dimensionless in ``[0, 1]``; timing families scale it by
    the design's own rated period so "10% jitter" means the same physical
    severity for operators with different critical paths:

    * ``"jitter"`` — capture jitter of ``ceil(rate * rated_step)`` quanta;
    * ``"drift"`` — each gate drifts with probability *rate*, by up to
      one abstract full-adder delay (``quanta_per_unit``);
    * ``"seu"`` — each captured bit flips with probability *rate*;
    * ``"metastable"`` — guard window of ``ceil(rate * rated_step)``
      quanta, unstable captures always resolve randomly;
    * ``"stuck"`` — each gate sticks at a random constant with
      probability *rate*.

    ``rate = 0`` always yields the null config.
    """
    if model not in FAULT_MODELS:
        raise ValueError(
            f"unknown fault model {model!r}; expected one of {FAULT_MODELS}"
        )
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be in [0, 1], got {rate!r}")
    if rated_step < 1:
        raise ValueError(f"rated_step must be >= 1 quantum, got {rated_step}")
    if model == "jitter":
        return FaultConfig(
            clock_jitter=ceil_scaled(rate, rated_step), seed=seed
        )
    if model == "drift":
        return FaultConfig(
            drift_rate=rate,
            drift_max=max(1, int(quanta_per_unit)) if rate > 0 else 0,
            seed=seed,
        )
    if model == "seu":
        return FaultConfig(seu_rate=rate, seed=seed)
    if model == "metastable":
        return FaultConfig(
            meta_window=ceil_scaled(rate, rated_step), meta_rate=1.0, seed=seed
        )
    return FaultConfig(stuck_rate=rate, seed=seed)
