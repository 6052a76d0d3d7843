"""Fault-intensity campaigns: degradation curves under injected faults.

:func:`run_fault_campaign` sweeps one fault-model family over a range of
intensities and measures the decoded-product degradation of the online
and conventional (array) multipliers side by side — the robustness
extension of the paper's overclocking experiments: instead of only
shortening the clock period, the circuit is subjected to clock jitter,
delay drift, SEUs, metastable captures or stuck-at defects, and the
claim under test is that the MSD-first online operator degrades
*gracefully* (bounded, monotone error growth) where the LSB-first
conventional operator fails catastrophically.

Execution rides the hardened runner stack end to end:

* shards split and seed exactly like :func:`repro.sim.sweep.run_sweep`
  (``jobs=1`` and ``jobs=N`` merge bit-identically); one operand stream
  per ``(design, shard)`` is *reused across rates*, so curves compare
  fault intensities on identical operands;
* the unit of work is one ``(design, shard)``: it draws its operands
  and runs the clean simulation once, and that one clean result serves
  every rate — a rate simulates again only when its faults change the
  simulator (delay drift, stuck-at gates); capture-boundary faults
  (jitter, metastability, SEUs) perturb the clean result's capture;
* every completed ``(design, rate, shard)`` cell **checkpoints** its
  exact partial sums into the persistent result cache
  (:meth:`~repro.runners.ResultCache.put_raw`) as soon as its rate is
  done, so a campaign killed mid-flight resumes from the completed
  cells — a unit reruns only its missing rates — and the resumed merge
  is bit-identical to an uninterrupted run;
* the finished campaign result is cached whole, keyed by the clean
  netlist fingerprints, the exact base delay assignment and the full
  fault parameterisation.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults import DEFAULT_RATES
from repro.faults.inject import CAPTURE_FAULT_KINDS, FaultInjector
from repro.faults.models import FaultConfig, config_for_model
from repro.faults.stuck import apply_stuck_faults
from repro.faults.timing import DriftedDelayModel
from repro.netlist.compiled import (
    COMPILE_CACHE_SIZE,
    circuit_fingerprint,
    make_simulator,
)
from repro.netlist.delay import (
    DelayModel,
    FpgaDelay,
    delay_key_components,
    delay_signature,
)
from repro.netlist.engines import resolve_backend
from repro.netlist.sta import static_timing
from repro.obs.trace import current_tracer
from repro.runners.cache import ResultCache, cache_for, cache_key, run_cached
from repro.runners.config import RunConfig
from repro.runners.parallel import ParallelRunner, shard_plan
from repro.runners.results import register_result
from repro.sim.sweep import SweepHarness, design_circuit, worker_harness

#: the two designs every campaign compares (the paper's pairing)
CAMPAIGN_DESIGNS = ("online", "traditional")


@dataclass
class FaultStats:
    """Execution-side fault bookkeeping of one campaign run.

    Ephemeral like ``RunStats`` (never cached): counts of injected
    faults by kind, structural fault sizes, and how many shards were
    resumed from checkpoints versus retried after pool losses.  Its
    shards are the ``(design, rate, shard)`` checkpoint cells; the
    runner's own ``RunStats`` counts ``(design, shard)`` units.
    """

    model: str = ""
    injected: Dict[str, int] = field(default_factory=dict)
    stuck_gates: int = 0
    drifted_gates: int = 0
    shards_total: int = 0
    shards_resumed: int = 0
    shards_retried: int = 0
    shards_timed_out: int = 0


@register_result
@dataclass
class FaultCampaignResult:
    """Degradation curves of one fault-model family.

    ``rates[i]`` is the dimensionless fault intensity;
    ``online_error[i]`` / ``traditional_error[i]`` are the mean
    *relative* decoded-product errors (``sum |err| / sum |correct|``)
    of the two designs at that intensity, captured at
    ``rated_step / overclock``.
    """

    model: str
    rates: np.ndarray
    online_error: np.ndarray
    traditional_error: np.ndarray
    overclock: float
    num_samples: int

    kind: ClassVar[str] = "fault_campaign"
    _array_fields: ClassVar[Dict[str, str]] = {
        "rates": "float64",
        "online_error": "float64",
        "traditional_error": "float64",
    }

    def error_curve(self, design: str) -> np.ndarray:
        """The degradation curve of one design."""
        if design == "online":
            return self.online_error
        if design == "traditional":
            return self.traditional_error
        raise ValueError(
            f"unknown design {design!r}; expected one of {CAMPAIGN_DESIGNS}"
        )


# --------------------------------------------------------------- worker side

#: this process's faulted simulators, keyed by everything that derives
#: them; a bounded LRU like the compile cache, so every (design, shard)
#: unit of one (design, rate) shares one transform
_faulted: "OrderedDict[Tuple[Any, ...], Tuple[Any, int, int]]" = OrderedDict()


def _faulted_simulator(clean: SweepHarness, fault_config: FaultConfig):
    """``(simulator, stuck_gates, drifted_gates)`` of the faulted design.

    Transforms on top of the clean harness, whose shared circuit is never
    touched: drift composes onto the delay model, stuck-at faults derive
    a new circuit.  Capture-boundary faults are the injector's job, so
    without drift or stuck-at faults this is the clean simulator.  The
    transform is memoised on the clean circuit's name and fingerprint,
    its exact delays, the engine and the fault configuration — the
    inputs of both seeded fault draws.
    """
    drifts = fault_config.drift_rate > 0 and fault_config.drift_max > 0
    if not drifts and fault_config.stuck_rate <= 0:
        return clean.simulator, 0, 0
    key = (
        clean.circuit.name,
        circuit_fingerprint(clean.circuit),
        tuple(clean.simulator.delays),
        clean.backend,
        fault_config,
    )
    built = _faulted.get(key)
    if built is not None:
        _faulted.move_to_end(key)
        return built
    model: DelayModel = clean.delay_model
    drifted = 0
    if drifts:
        model = DriftedDelayModel(
            model,
            fault_config.drift_rate,
            fault_config.drift_max,
            fault_config.seed,
        )
        drifted = model.drifted_gates(clean.circuit)
    circuit, stuck = apply_stuck_faults(
        clean.circuit, fault_config.stuck_rate, fault_config.seed
    )
    if circuit is clean.circuit and model is clean.delay_model:
        return clean.simulator, stuck, drifted
    built = (make_simulator(circuit, model, clean.backend), stuck, drifted)
    _faulted[key] = built
    while len(_faulted) > COMPILE_CACHE_SIZE:
        _faulted.popitem(last=False)
    return built


def _campaign_unit_worker(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One ``(design, shard)`` unit: simulate once, capture every rate.

    The unit draws its operands and runs the clean simulation once; each
    of its rates then captures either that clean result or, when the
    rate's faults change the simulator (drift, stuck-at), its own
    faulted run.  Each rate's partial is checkpointed as soon as it is
    done, so a kill mid-unit keeps the finished rates.  The partials
    contain only JSON scalars (floats round-trip exactly), so each
    doubles as its rate's checkpoint payload.
    """
    design = payload["design"]
    backend = payload["backend"]
    capture_step = int(payload["capture_step"])
    samples = int(payload["samples"])
    cache = ResultCache(payload["cache_dir"]) if payload["cache_dir"] else None

    clean = worker_harness(
        design, payload["ndigits"], backend, payload["delay_model"]
    )
    rng = np.random.default_rng(payload["op_seq"])
    ports = clean.random_ports(rng, samples)
    tracer = current_tracer()
    with tracer.span(
        "campaign.simulate", design=design, backend=backend, samples=samples
    ):
        clean_result = clean.simulator.run(ports)
        correct = clean.decode(
            clean_result.sample(clean_result.settle_step)
        ).astype(np.float64)
    sum_abs_correct = float(np.abs(correct).sum())

    partials: List[Dict[str, Any]] = []
    for index, rate, fault_config, raw_key in payload["cells"]:
        faulted, stuck, drifted = _faulted_simulator(clean, fault_config)
        with tracer.span(
            "campaign.capture",
            design=design,
            rate=rate,
            faulted=faulted is not clean.simulator,
        ):
            faulted_result = (
                clean_result
                if faulted is clean.simulator
                else faulted.run(ports)
            )
            injector = FaultInjector(fault_config, payload["fault_seq"])
            captured, injected = injector.capture(faulted_result, capture_step)
            values = clean.decode(captured).astype(np.float64)
        partial = {
            "design": design,
            "rate": rate,
            "shard": index,
            "capture_step": capture_step,
            "num_samples": samples,
            "sum_abs_err": float(np.abs(values - correct).sum()),
            "sum_abs_correct": sum_abs_correct,
            "stuck_gates": stuck,
            "drifted_gates": drifted,
        }
        for kind in CAPTURE_FAULT_KINDS:
            partial[f"injected_{kind}"] = int(injected[kind])
        if cache is not None:
            cache.put_raw(raw_key, partial)
        partials.append(partial)
    return partials


# ----------------------------------------------------------- parent side

def _capture_steps(
    ndigits: int, delay_model: DelayModel, overclock: float
) -> Dict[str, int]:
    """Per-design capture step: clean rated period over the overclock."""
    steps: Dict[str, int] = {}
    for design in CAMPAIGN_DESIGNS:
        circuit = design_circuit(design, ndigits)
        rated = static_timing(circuit, delay_model).critical_delay
        steps[design] = max(1, round(rated / overclock))
    return steps


def _shard_raw_key(
    config: RunConfig,
    model: str,
    fault_config: FaultConfig,
    design: str,
    rate: float,
    shard: int,
    samples: int,
    capture_step: int,
    delay_sig: str,
    fingerprint: str,
) -> str:
    """Content address of one shard checkpoint (layout-independent)."""
    return cache_key(
        experiment="fault_campaign_shard",
        model=model,
        design=design,
        rate=float(rate),
        shard=int(shard),
        samples=int(samples),
        capture_step=int(capture_step),
        delay=delay_sig,
        fingerprint=fingerprint,
        fault=fault_config.describe(),
        **config.describe(),
    )


def run_fault_campaign(
    config: RunConfig,
    model: str = "seu",
    rates: Sequence[float] = DEFAULT_RATES,
    num_samples: int = 2000,
    overclock: float = 1.0,
    delay_model: Optional[DelayModel] = None,
    runner: Optional[ParallelRunner] = None,
) -> FaultCampaignResult:
    """Sweep one fault family's intensity over both multiplier designs.

    Parameters
    ----------
    config:
        The unified run parameters (geometry, seed, jobs, cache_dir,
        shard_size, shard_timeout, engine override).
    model:
        Fault-model family (see :data:`repro.faults.FAULT_MODELS`).
    rates:
        Dimensionless intensity grid; ``0.0`` is the golden baseline
        (zero error at ``overclock = 1.0``).
    overclock:
        Clock speedup over the rated period; samples are captured at
        ``round(rated_step / overclock)``.

    Checkpoint/resume: with ``config.cache_dir`` set, every completed
    ``(design, rate, shard)`` cell persists its exact partial sums
    before the merge.  Re-running the identical campaign — e.g. after
    the process was killed — serves completed cells from the
    checkpoints and computes only the missing ones, one runner shard
    per ``(design, shard)`` that still misses a rate; the final merge
    is bit-identical either way because partials are JSON-exact and
    merged in a fixed ``(design, rate, shard)`` order.  Returns a
    :class:`FaultCampaignResult` with ``run_stats`` and ``fault_stats``
    attached.
    """
    engine = resolve_backend(config.backend, "netlist")
    rates = [float(r) for r in rates]
    with current_tracer().span(
        "run.fault_campaign",
        model=model,
        ndigits=config.ndigits,
        engine=engine,
        rates=rates,
        num_samples=int(num_samples),
        overclock=float(overclock),
    ):
        base_model = delay_model if delay_model is not None else FpgaDelay()
        if not rates:
            raise ValueError("rates must contain at least one intensity")
        runner = runner or ParallelRunner.from_config(config)
        capture_steps = _capture_steps(config.ndigits, base_model, overclock)
        circuits = {
            d: design_circuit(d, config.ndigits) for d in CAMPAIGN_DESIGNS
        }
        fingerprints = {d: circuit_fingerprint(c) for d, c in circuits.items()}
        delay_sig = delay_signature(base_model)
        fault_configs = {
            (d, r): config_for_model(
                model,
                r,
                capture_steps[d],
                quanta_per_unit=base_model.quanta_per_unit,
                seed=config.seed,
            )
            for d in CAMPAIGN_DESIGNS
            for r in rates
        }

        def compute() -> FaultCampaignResult:
            cache = cache_for(config)  # holds the shard checkpoints
            # one (operand, injector) seed pair per (design, shard), shared
            # across rates: every intensity sees the same operands and the
            # same underlying fault draws, which couples the points of a
            # curve.  The children are spawned here, once — spawning in
            # the worker would mutate the shared parent and make
            # inline/pool layouts diverge.
            plans = {
                d: [
                    (ss.spawn(2), m)
                    for ss, m in shard_plan(config, num_samples, "faults", d)
                ]
                for d in CAMPAIGN_DESIGNS
            }
            # one checkpoint cell per (design, rate, shard), in merge order
            cells: List[Tuple[str, float, int, Optional[str]]] = []
            for design, rate in itertools.product(CAMPAIGN_DESIGNS, rates):
                fc = fault_configs[(design, rate)]
                for shard, (_seqs, m) in enumerate(plans[design]):
                    raw_key = None if cache is None else _shard_raw_key(
                        config, model, fc, design, rate, shard, m,
                        capture_steps[design], delay_sig, fingerprints[design],
                    )
                    cells.append((design, rate, shard, raw_key))

            # resume: serve completed cells from their checkpoints
            partials: Dict[int, Dict[str, Any]] = {}
            if cache is not None:
                for index, (*_, raw_key) in enumerate(cells):
                    checkpoint = cache.get_raw(raw_key)
                    if checkpoint is not None:
                        partials[index] = checkpoint
                if partials:
                    current_tracer().event(
                        "campaign.resume",
                        shards=len(partials),
                        total=len(cells),
                    )
            resumed = len(partials)

            # the missing cells, grouped into one unit per (design, shard):
            # a unit simulates its operand stream once for all its rates
            units: Dict[Tuple[str, int], Dict[str, Any]] = {}
            for index, (design, rate, shard, raw_key) in enumerate(cells):
                if index in partials:
                    continue
                unit = units.get((design, shard))
                if unit is None:
                    seqs, m = plans[design][shard]
                    unit = units[(design, shard)] = {
                        "design": design,
                        "ndigits": config.ndigits,
                        "backend": engine,
                        "delay_model": base_model,
                        "capture_step": capture_steps[design],
                        "op_seq": seqs[0],
                        "fault_seq": seqs[1],
                        "samples": m,
                        "cache_dir": config.cache_dir,
                        "cells": [],
                    }
                unit["cells"].append(
                    (index, rate, fault_configs[(design, rate)], raw_key)
                )
            missing = list(units.values())
            if missing:
                computed = runner.map(
                    _campaign_unit_worker,
                    missing,
                    samples=[u["samples"] * len(u["cells"]) for u in missing],
                )
                for unit, unit_partials in zip(missing, computed):
                    for (index, *_), partial in zip(
                        unit["cells"], unit_partials
                    ):
                        partials[index] = partial

            # merge in fixed (design, rate, shard) order — the cell order
            result = _campaign_from_partials(
                model,
                rates,
                [partials[index] for index in range(len(cells))],
                overclock,
            )
            result.fault_stats = _fault_stats(
                model, partials, len(cells), resumed, runner
            )
            return result

        result = run_cached(
            config,
            runner,
            f"faults:{model}",
            engine,
            lambda: dict(
                experiment="fault_campaign",
                model=model,
                rates=rates,
                num_samples=int(num_samples),
                overclock=float(overclock),
                fingerprints=fingerprints,
                **delay_key_components(base_model, circuits),
                **config.describe(),
            ),
            compute,
        )
        if result.run_stats.cache == "hit":
            result.fault_stats = FaultStats(model=model)
        return result


def _campaign_from_partials(
    model: str,
    rates: List[float],
    ordered_partials: List[Dict[str, Any]],
    overclock: float,
) -> FaultCampaignResult:
    """Merge per-shard partial sums into the degradation curves.

    *ordered_partials* must already be in ``(design, rate, shard)``
    order; float sums accumulate in that fixed order, which keeps the
    merge bit-identical across execution layouts and resumes.
    """
    sums: Dict[Tuple[str, float], List[float]] = {}
    samples_per_cell: Dict[Tuple[str, float], int] = {}
    for partial in ordered_partials:
        cell = (str(partial["design"]), float(partial["rate"]))
        acc = sums.setdefault(cell, [0.0, 0.0])
        acc[0] += float(partial["sum_abs_err"])
        acc[1] += float(partial["sum_abs_correct"])
        samples_per_cell[cell] = samples_per_cell.get(cell, 0) + int(
            partial["num_samples"]
        )
    num_samples = max(samples_per_cell.values())

    curves: Dict[str, List[float]] = {}
    for design in CAMPAIGN_DESIGNS:
        curve = []
        for rate in rates:
            err_sum, correct_sum = sums[(design, rate)]
            curve.append(err_sum / correct_sum if correct_sum > 0 else 0.0)
        curves[design] = curve
    return FaultCampaignResult(
        model=model,
        rates=np.asarray(rates, dtype=np.float64),
        online_error=np.asarray(curves["online"], dtype=np.float64),
        traditional_error=np.asarray(curves["traditional"], dtype=np.float64),
        overclock=float(overclock),
        num_samples=num_samples,
    )


def _fault_stats(
    model: str,
    partials: Mapping[int, Dict[str, Any]],
    shards_total: int,
    shards_resumed: int,
    runner: ParallelRunner,
) -> FaultStats:
    """The execution-side fault bookkeeping of one computed campaign."""
    stats = FaultStats(
        model=model,
        shards_total=shards_total,
        shards_resumed=shards_resumed,
        shards_retried=runner.stats.retries,
        shards_timed_out=runner.stats.timeouts,
    )
    for partial in partials.values():
        for kind in CAPTURE_FAULT_KINDS:
            stats.injected[kind] = stats.injected.get(kind, 0) + int(
                partial.get(f"injected_{kind}", 0)
            )
        stats.stuck_gates = max(
            stats.stuck_gates, int(partial.get("stuck_gates", 0))
        )
        stats.drifted_gates = max(
            stats.drifted_gates, int(partial.get("drifted_gates", 0))
        )
    return stats
