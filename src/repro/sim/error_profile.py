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
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.netlist.compiled import circuit_fingerprint, resolve_backend
from repro.netlist.delay import DelayModel, FpgaDelay, delay_signature
from repro.netlist.sim import SimulationResult
from repro.netlist.sta import static_timing
from repro.obs.trace import current_tracer
from repro.runners.cache import cache_for, cache_key
from repro.runners.config import RunConfig
from repro.runners.parallel import (
    ParallelRunner,
    merge_int_sums,
    seed_tag,
    split_samples,
    spawn_seeds,
)
from repro.runners.results import (
    attach_metrics,
    metrics_entry,
    register_result,
    restore_metrics,
)


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

    # ------------------------------------------------- Result protocol
    def to_dict(self) -> Dict[str, Any]:
        """Pure-JSON representation (see :mod:`repro.runners.results`)."""
        return {
            "kind": self.kind,
            "steps": [int(t) for t in self.steps],
            "positions": list(self.positions),
            "rates": [[float(r) for r in row] for row in self.rates],
            **metrics_entry(self),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DigitErrorProfile":
        result = cls(
            steps=np.asarray(data["steps"], dtype=np.int64),
            positions=[str(p) for p in data["positions"]],
            rates=np.asarray(data["rates"], dtype=np.float64),
        )
        return restore_metrics(result, data)


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
    from repro.sim.sweep import sweep_shard_ports, worker_harness

    design = payload["design"]
    ndigits = payload["ndigits"]
    harness = worker_harness(
        design, ndigits, payload["backend"], payload["delay_model"]
    )
    rng = np.random.default_rng(payload["seed_seq"])
    ports = sweep_shard_ports(
        design, ndigits, harness, rng, payload["samples"]
    )
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

    The vector engine captures every requested depth plus the settled
    reference in one fused :func:`repro.vec.fused.om_sweep_vector` pass;
    other engines run one truncated wave per depth (the per-period
    oracle).  Both feed the same counting helper, so the grids are
    bit-identical.
    """
    from repro.sim.montecarlo import uniform_digit_batch
    from repro.vec.fused import stage_digit_mismatch_counts

    ndigits = payload["ndigits"]
    delta = payload["delta"]
    steps = [int(t) for t in payload["steps"]]
    m = payload["samples"]
    s_tot = ndigits + delta
    rng = np.random.default_rng(payload["seed_seq"])
    xd = uniform_digit_batch(ndigits, m, rng)
    yd = uniform_digit_batch(ndigits, m, rng)
    if payload["backend"] == "vector":
        from repro.obs.metrics import metrics
        from repro.vec.fused import om_sweep_vector

        with current_tracer().span(
            "vec.fused_sweep",
            ndigits=ndigits,
            periods=len(steps),
            depths=len(steps),
            samples=m,
        ):
            metrics().count("vec.fused_periods", len(steps))
            snaps = om_sweep_vector(
                ndigits, delta, xd, yd, steps + [s_tot]
            )
    else:
        from repro.core.online_multiplier import OnlineMultiplier

        om = OnlineMultiplier(ndigits, delta)
        with current_tracer().span(
            "profile.simulate_stage",
            backend=payload["backend"],
            depths=len(steps),
            samples=m,
        ):
            snaps = np.stack(
                [
                    om.wave(
                        xd,
                        yd,
                        max_ticks=min(b, s_tot),
                        backend=payload["backend"],
                    )[-1]
                    for b in steps
                ]
                + [om.wave(xd, yd, backend=payload["backend"])[-1]]
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
    steps_arr = np.asarray(
        sorted({min(int(t), s_tot) for t in steps}), dtype=np.int64
    )
    if steps_arr.size == 0:
        raise ValueError("the profile grid must contain at least one period")
    if steps_arr[0] < 0:
        raise ValueError("capture depths must be >= 0")
    engine = resolve_backend(config.backend, "om-wave")

    cache = cache_for(config)
    runner = runner or ParallelRunner.from_config(config)
    experiment = f"error_profile_stage:{design}"
    with current_tracer().span(
        "run.error_profile",
        design=design,
        timing="stage",
        ndigits=config.ndigits,
        engine=engine,
        num_samples=int(num_samples),
    ):
        key = None
        key_components = None
        if cache is not None:
            key_components = dict(
                experiment="error_profile_stage",
                design=design,
                num_samples=int(num_samples),
                steps=[int(t) for t in steps_arr],
                **config.describe(),
            )
            key = cache_key(**key_components)
            hit = cache.get(key)
            if hit is not None:
                hit.run_stats = runner.finalize_stats(
                    experiment, cache="hit"
                )
                return attach_metrics(hit)

        sizes = split_samples(num_samples, config.shard_size)
        seeds = spawn_seeds(
            config.seed, len(sizes), seed_tag("error_profile"), seed_tag(design)
        )
        payloads = [
            {
                "ndigits": config.ndigits,
                "delta": config.delta,
                "backend": engine,
                "steps": [int(t) for t in steps_arr],
                "seed_seq": ss,
                "samples": m,
            }
            for ss, m in zip(seeds, sizes)
        ]
        parts = runner.map(_stage_profile_shard_worker, payloads, samples=sizes)
        counts = merge_int_sums(parts)
        spec = _design_groups(design, config.ndigits)
        result = DigitErrorProfile(
            steps_arr, list(spec["labels"]), counts / float(num_samples)
        )
        if cache is not None:
            cache.put(key, result, key_components)
        result.run_stats = runner.finalize_stats(
            experiment,
            cache="miss" if cache is not None else "off",
            engine=engine,
        )
        attach_metrics(result)
    return result


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
    from repro.sim.sweep import _sweep_circuit

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
    circuit = _sweep_circuit(design, config.ndigits)
    if steps is None:
        settle = static_timing(circuit, model).critical_delay
        steps = range(settle + 1)
    steps_arr = np.asarray(sorted(int(t) for t in steps), dtype=np.int64)
    engine = resolve_backend(config.backend, "netlist")

    cache = cache_for(config)
    runner = runner or ParallelRunner.from_config(config)
    experiment = f"error_profile:{design}"
    with current_tracer().span(
        "run.error_profile",
        design=design,
        ndigits=config.ndigits,
        engine=engine,
        num_samples=int(num_samples),
    ):
        key = None
        key_components = None
        if cache is not None:
            key_components = dict(
                experiment="error_profile",
                design=design,
                num_samples=int(num_samples),
                steps=[int(t) for t in steps_arr],
                fingerprint=circuit_fingerprint(circuit),
                delay=delay_signature(model),
                delays=list(model.assign(circuit)),
                **config.describe(),
            )
            key = cache_key(**key_components)
            hit = cache.get(key)
            if hit is not None:
                hit.run_stats = runner.finalize_stats(
                    experiment, cache="hit"
                )
                return attach_metrics(hit)

        sizes = split_samples(num_samples, config.shard_size)
        seeds = spawn_seeds(
            config.seed, len(sizes), seed_tag("error_profile"), seed_tag(design)
        )
        payloads = [
            {
                "design": design,
                "ndigits": config.ndigits,
                "backend": engine,
                "delay_model": model,
                "steps": [int(t) for t in steps_arr],
                "seed_seq": ss,
                "samples": m,
            }
            for ss, m in zip(seeds, sizes)
        ]
        parts = runner.map(_profile_shard_worker, payloads, samples=sizes)
        counts = merge_int_sums(parts)
        spec = _design_groups(design, config.ndigits)
        result = DigitErrorProfile(
            steps_arr, list(spec["labels"]), counts / float(num_samples)
        )
        if cache is not None:
            cache.put(key, result, key_components)
        result.run_stats = runner.finalize_stats(
            experiment,
            cache="miss" if cache is not None else "off",
            engine=engine,
        )
        attach_metrics(result)
    return result
