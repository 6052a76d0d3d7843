"""Per-digit error profiling of overclocked operators.

The paper's central mechanism is *where* timing violations land: the
online multiplier's errors start at the least significant digit and creep
upward as the clock tightens, while the conventional multiplier's errors
start at the most significant bit.  This module measures that directly:
for every output digit/bit position and clock period, the probability
that the sampled value differs from the settled one.

Used by the error-anatomy benchmark and by the tests that pin down the
LSD-first/MSB-first contrast quantitatively.

:func:`run_error_profile` is the unified :class:`~repro.runners.RunConfig`
entry point: it profiles a whole multiplier design on a random operand
batch, sharded across worker processes (per-shard mismatch *counts*
merge exactly, so the grid is independent of ``jobs``) and served from
the persistent result cache when one is configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence

import numpy as np

from repro.netlist.compiled import circuit_fingerprint
from repro.netlist.engines import resolve_backend
from repro.netlist.delay import DelayModel, FpgaDelay, delay_key_components
from repro.netlist.sim import SimulationResult
from repro.netlist.sta import static_timing
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runners.cache import run_cached
from repro.runners.config import RunConfig
from repro.runners.parallel import ParallelRunner, merge_int_sums, shard_plan
from repro.runners.results import register_result
from repro.sim.montecarlo import (
    capture_depths,
    map_om_shards,
    uniform_operands,
)
from repro.vec.fused import stage_digit_mismatch_counts, stage_snapshots


@register_result
@dataclass
class DigitErrorProfile:
    """Error-rate map: ``rates[t, k]`` = P(output digit k wrong at period t).

    ``positions`` labels the digit axis (most significant first, matching
    the row order of ``rates``).
    """

    steps: np.ndarray
    positions: List[str]
    rates: np.ndarray  # shape (len(steps), len(positions))

    kind: ClassVar[str] = "error_profile"
    _array_fields: ClassVar[Dict[str, str]] = {
        "steps": "int64",
        "rates": "float64",
    }

    def first_affected(self, step: int) -> str:
        """Most significant position with a non-zero error rate at *step*."""
        idx = int(np.searchsorted(self.steps, np.clip(step, self.steps[0], self.steps[-1])))
        row = self.rates[idx]
        bad = np.nonzero(row > 0)[0]
        if bad.size == 0:
            return "<none>"
        return self.positions[int(bad[0])]

    def mean_position_index(self, step: int) -> float:
        """Error-rate-weighted mean digit index (0 = MSD side)."""
        idx = int(np.searchsorted(self.steps, np.clip(step, self.steps[0], self.steps[-1])))
        row = self.rates[idx]
        total = row.sum()
        if total == 0:
            return float(len(self.positions))
        return float((row * np.arange(len(row))).sum() / total)


def _digit_error_counts(
    result: SimulationResult,
    digit_groups: Sequence[Sequence[str]],
    steps: np.ndarray,
) -> np.ndarray:
    """Mismatch counts per (step, digit position) — exact integers."""
    final = result.final()
    counts = np.zeros((len(steps), len(digit_groups)), dtype=np.int64)
    for i, t in enumerate(steps):
        sample = result.sample(int(t))
        for k, names in enumerate(digit_groups):
            bad = np.zeros(result.num_samples, dtype=bool)
            for name in names:
                bad |= sample[name] != final[name]
            counts[i, k] = int(bad.sum())
    return counts


def digit_error_profile(
    result: SimulationResult,
    digit_groups: Sequence[Sequence[str]],
    labels: Sequence[str],
    steps: Sequence[int],
) -> DigitErrorProfile:
    """Build a per-digit error profile from a finished simulation.

    Parameters
    ----------
    result:
        A :class:`SimulationResult` whose outputs include the named nets.
    digit_groups:
        For each digit position (MSD first), the output-net names whose
        joint mismatch constitutes an error in that digit (e.g. the
        ``(zp, zn)`` rail pair of a signed digit, or a single product bit).
    labels:
        Human-readable position labels, parallel to *digit_groups*.
    steps:
        Clock periods (quanta) to profile.
    """
    if len(digit_groups) != len(labels):
        raise ValueError("digit_groups and labels must pair up")
    steps_arr = np.asarray(sorted(steps), dtype=np.int64)
    counts = _digit_error_counts(result, digit_groups, steps_arr)
    rates = counts / float(result.num_samples)
    return DigitErrorProfile(steps_arr, list(labels), rates)


def online_digit_groups(ndigits: int) -> Dict[str, object]:
    """Digit-group spec for an online multiplier's outputs (MSD first)."""
    groups = [[f"zp{k}", f"zn{k}"] for k in range(ndigits)]
    labels = [f"z{k} (2^-{k + 1})" for k in range(ndigits)]
    return {"digit_groups": groups, "labels": labels}


def traditional_bit_groups(width: int) -> Dict[str, object]:
    """Bit-group spec for a two's-complement product (MSB first)."""
    groups = [[f"p{i}"] for i in range(2 * width - 1, -1, -1)]
    labels = [f"p{i}" for i in range(2 * width - 1, -1, -1)]
    return {"digit_groups": groups, "labels": labels}


# --------------------------------------------------------------- shard worker

def _design_groups(design: str, ndigits: int) -> Dict[str, object]:
    if design == "online":
        return online_digit_groups(ndigits)
    if design == "traditional":
        return traditional_bit_groups(ndigits + 1)
    raise ValueError(f"unknown design {design!r}")


def _profile_shard_worker(payload: Dict[str, Any]) -> np.ndarray:
    """One profile shard: mismatch counts over the (step, position) grid."""
    from repro.sim.sweep import worker_harness

    design = payload["design"]
    ndigits = payload["ndigits"]
    harness = worker_harness(
        design, ndigits, payload["backend"], payload["delay_model"]
    )
    rng = np.random.default_rng(payload["seed_seq"])
    ports = harness.random_ports(rng, payload["samples"])
    spec = _design_groups(design, ndigits)
    needed = {name for group in spec["digit_groups"] for name in group}
    with current_tracer().span(
        "profile.simulate",
        design=design,
        backend=payload["backend"],
        samples=payload["samples"],
    ):
        result = harness.simulator.run(ports, keep=needed)
        steps = np.asarray(payload["steps"], dtype=np.int64)
        return _digit_error_counts(result, spec["digit_groups"], steps)


# ------------------------------------------------------ stage-timing profile

def _stage_profile_shard_worker(payload: Dict[str, Any]) -> np.ndarray:
    """One stage-timing profile shard: per-(depth, digit) mismatch counts.

    Every requested depth plus the settled reference is captured in one
    :func:`repro.vec.fused.stage_snapshots` pass on the payload's engine.
    """
    ndigits, delta = payload["ndigits"], payload["delta"]
    steps = [int(t) for t in payload["steps"]]
    xd, yd = uniform_operands(payload)
    with current_tracer().span(
        "vec.fused_sweep",
        backend=payload["backend"],
        ndigits=ndigits,
        periods=len(steps),
        depths=len(steps),
        samples=payload["samples"],
    ):
        metrics().count("vec.fused_periods", len(steps))
        snaps = stage_snapshots(
            ndigits, delta, xd, yd, steps + [ndigits + delta],
            payload["backend"],
        )
    return stage_digit_mismatch_counts(snaps[:-1], snaps[-1])


def _run_stage_error_profile(
    config: RunConfig,
    design: str,
    num_samples: int,
    steps: Optional[Sequence[int]],
    runner: Optional[ParallelRunner],
) -> DigitErrorProfile:
    """The ``timing="stage"`` body of :func:`run_error_profile`."""
    if design != "online":
        raise ValueError(
            "stage-timing profiles are defined for the online design only"
        )
    s_tot = config.ndigits + config.delta
    if steps is None:
        steps = range(s_tot + 1)
    grid = sorted({min(t, s_tot) for t in capture_depths(steps)})
    engine = resolve_backend(config.backend, "om-wave")
    runner = runner or ParallelRunner.from_config(config)

    def compute() -> DigitErrorProfile:
        parts = map_om_shards(
            runner, _stage_profile_shard_worker, config, num_samples, engine,
            ("error_profile", design), steps=grid,
        )
        return _profile_from_counts(design, config, grid, parts, num_samples)

    with current_tracer().span(
        "run.error_profile",
        design=design,
        timing="stage",
        ndigits=config.ndigits,
        engine=engine,
        num_samples=int(num_samples),
    ):
        return run_cached(
            config,
            runner,
            f"error_profile_stage:{design}",
            engine,
            lambda: dict(
                experiment="error_profile_stage",
                design=design,
                num_samples=int(num_samples),
                steps=grid,
                **config.describe(),
            ),
            compute,
        )


def _profile_from_counts(
    design: str, config: RunConfig, steps, parts, num_samples: int
) -> DigitErrorProfile:
    """Merge per-shard mismatch counts into the error-rate grid."""
    counts = merge_int_sums(parts)
    spec = _design_groups(design, config.ndigits)
    return DigitErrorProfile(
        np.asarray(steps, dtype=np.int64),
        list(spec["labels"]),
        counts / float(num_samples),
    )


# ----------------------------------------------------------- unified entry

def run_error_profile(
    config: RunConfig,
    design: str = "online",
    num_samples: int = 2000,
    steps: Optional[Sequence[int]] = None,
    delay_model: Optional[DelayModel] = None,
    runner: Optional[ParallelRunner] = None,
    timing: str = "gate",
) -> DigitErrorProfile:
    """Sharded per-digit error-rate grid of one multiplier design.

    Profiles the ``config.ndigits``-digit online multiplier (or the
    ``ndigits + 1``-bit traditional one) on a random operand batch drawn
    exactly like :func:`run_sweep`'s.  *steps* defaults to every clock
    period up to the design's settle step.  Per-shard mismatch counts
    are integers, so the merged grid is independent of ``config.jobs``.

    ``timing="stage"`` profiles under the analytical stage-delay model
    instead (online design only, *steps* are chain-cut depths); on the
    vector engine (the default there) the whole grid is captured in one
    fused pass.
    """
    from repro.sim.sweep import design_circuit

    if timing == "stage":
        if delay_model is not None:
            raise ValueError(
                "stage timing uses the unit stage-delay model; delay_model "
                "applies to timing='gate' profiles"
            )
        return _run_stage_error_profile(
            config, design, num_samples, steps, runner
        )
    if timing != "gate":
        raise ValueError(
            f"unknown timing {timing!r}; expected 'gate' or 'stage'"
        )
    model = delay_model if delay_model is not None else FpgaDelay()
    circuit = design_circuit(design, config.ndigits)
    if steps is None:
        settle = static_timing(circuit, model).critical_delay
        steps = range(settle + 1)
    steps = sorted(capture_depths(steps))
    engine = resolve_backend(config.backend, "netlist")
    runner = runner or ParallelRunner.from_config(config)

    def compute() -> DigitErrorProfile:
        plan = shard_plan(config, num_samples, "error_profile", design)
        payloads = [
            {
                "design": design,
                "ndigits": config.ndigits,
                "backend": engine,
                "delay_model": model,
                "steps": steps,
                "seed_seq": ss,
                "samples": m,
            }
            for ss, m in plan
        ]
        parts = runner.map(
            _profile_shard_worker, payloads, samples=[m for _, m in plan]
        )
        return _profile_from_counts(design, config, steps, parts, num_samples)

    with current_tracer().span(
        "run.error_profile",
        design=design,
        ndigits=config.ndigits,
        engine=engine,
        num_samples=int(num_samples),
    ):
        return run_cached(
            config,
            runner,
            f"error_profile:{design}",
            engine,
            lambda: dict(
                experiment="error_profile",
                design=design,
                num_samples=int(num_samples),
                steps=steps,
                fingerprint=circuit_fingerprint(circuit),
                **delay_key_components(model, circuit),
                **config.describe(),
            ),
            compute,
        )
