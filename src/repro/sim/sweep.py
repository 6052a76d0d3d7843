"""Gate-level overclocking sweeps of the two multiplier designs.

This is the reproduction's equivalent of the paper's post place-and-route
FPGA experiments: build the operator netlist, assign (jittered) gate
delays, simulate the full waveform for a batch of operands, and read the
outputs at every candidate clock period.  The *maximum error-free
frequency* ``f0`` of a design is measured exactly as in the lab: the
fastest clock at which the whole batch still produces settled values.

``OnlineMultiplierHarness`` and ``TraditionalMultiplierHarness`` expose the
two designs under a common interface so the benchmarks can sweep them
side by side; both decode their outputs to the *product value* so error
magnitudes are directly comparable.

:func:`run_sweep` is the unified :class:`~repro.runners.RunConfig` entry
point: it shards the operand batch across worker processes with
deterministic seed-splitting (``jobs=1`` and ``jobs=N`` merge
bit-identically) and serves repeated sweeps from the persistent result
cache, keyed by the netlist's structural fingerprint and exact delay
assignment.

``run_sweep(..., timing="stage")`` is the *stage-delay* counterpart (the
paper's analytical timing model, Fig. 4 top row): every stage costs one
delay unit ``mu``, a clock period cuts every chain at depth
``b = ceil(T_S / mu)``, and the sweep grid is a set of such depths
(optionally derived from normalized periods via
:func:`stage_steps_for_periods`).  On the vector engine (the default
for stage sweeps) the whole grid is evaluated in **one fused pass**
over the operand batch (:func:`repro.vec.fused.om_sweep_vector` — span
``vec.fused_sweep``, metric ``vec.fused_periods``); an explicit
``backend="packed"``/``"wave"`` runs the per-period reference oracle
(:func:`stage_sweep_partial`, one truncated wave per depth).  Both paths
feed their capture snapshots through the same statistics helper, so the
resulting :class:`SweepResult` is bit-identical across backends — the
fused kernel changes the cost of a sweep, never a digit of it
(``tests/vec/test_fused_conformance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Mapping, Optional

import numpy as np

from repro.core.conversion import (
    bits_to_scaled_int,
    digits_to_scaled_int,
    port_values_from_digits,
    scaled_int_to_digits,
)
from repro.core.online_multiplier import OnlineMultiplier
from repro.arith.array_multiplier import build_array_multiplier
from repro.netlist.compiled import (
    circuit_fingerprint,
    make_simulator,
    resolve_backend,
)
from repro.netlist.delay import DelayModel, FpgaDelay, UnitDelay, delay_signature
from repro.netlist.sta import static_timing
from repro.numrep.rounding import ceil_scaled, floor_ratio
from repro.obs.trace import current_tracer
from repro.runners.cache import cache_for, cache_key
from repro.runners.config import RunConfig
from repro.runners.parallel import (
    ParallelRunner,
    merge_float_sums,
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
from repro.sim.montecarlo import uniform_digit_batch

#: designs :func:`run_sweep` can build
SWEEP_DESIGNS = ("online", "traditional")


@register_result
@dataclass
class SweepResult:
    """Per-clock-step error statistics of one overclocking sweep.

    ``steps[i]`` is a clock period in delay quanta; ``mean_abs_error[i]``
    and ``violation_probability[i]`` describe the decoded product error at
    that period.  ``rated_step`` is the static-timing (tool-reported)
    period; ``error_free_step`` is the measured minimum error-free period
    (the paper's ``1/f0``).
    """

    steps: np.ndarray
    mean_abs_error: np.ndarray
    violation_probability: np.ndarray
    rated_step: int
    settle_step: int
    error_free_step: int
    num_samples: int

    kind: ClassVar[str] = "sweep"
    _array_fields: ClassVar[Dict[str, str]] = {
        "steps": "int64",
        "mean_abs_error": "float64",
        "violation_probability": "float64",
    }

    def at_step(self, step: float) -> float:
        """Mean |error| at the grid step *nearest* to *step*.

        Queries are clamped to the swept range.  An off-grid period
        resolves to the nearest grid step; an exact midpoint resolves to
        the *smaller* (faster-clock, larger-error) neighbor — the
        pessimistic side.  Before this policy, the lookup was a bare
        ``searchsorted``, which always returned the *right* neighbor of
        an off-grid period, i.e. the next larger period and therefore an
        optimistically small error.
        """
        steps = self.steps
        if len(steps) == 0:
            raise ValueError("empty sweep: no steps to query")
        s = float(np.clip(step, steps[0], steps[-1]))
        idx = int(np.searchsorted(steps, s, side="left"))
        if idx == 0:
            return float(self.mean_abs_error[0])
        if idx >= len(steps):
            return float(self.mean_abs_error[-1])
        left_gap = s - float(steps[idx - 1])
        right_gap = float(steps[idx]) - s
        nearest = idx - 1 if left_gap <= right_gap else idx
        return float(self.mean_abs_error[nearest])

    def at_normalized_frequency(self, factor: float) -> float:
        """Mean |error| when clocked at ``factor * f0``.

        ``factor > 1`` overclocks beyond the measured error-free frequency;
        the sampled period is ``floor(error_free_step / factor)``, with
        the quotient taken exactly (:func:`repro.numrep.floor_ratio` —
        float division would drop a step on exact multiples).
        """
        if factor <= 0:
            raise ValueError("frequency factor must be positive")
        return self.at_step(floor_ratio(int(self.error_free_step), factor))

    def speedup_at_budget(
        self, budget: float, strict: bool = False
    ) -> Optional[float]:
        """Largest relative frequency gain whose error stays within *budget*.

        Scans periods at or below ``error_free_step``; returns
        ``f/f0 - 1`` for the fastest clock whose mean |error| does not
        exceed *budget*, or None when even one quantum of overclock busts
        the budget resolution — including an empty sweep, a negative
        budget, or ``error_free_step == 0`` (no positive period to
        normalize against).

        ``strict=True`` turns the never-met None into a ValueError, for
        callers that feed the gain straight into arithmetic (the
        ``DesignChoice``-era idiom assumed a float and crashed later
        with a TypeError far from the cause).
        """
        best: Optional[float] = None
        if budget >= 0 and self.error_free_step > 0:
            for step, err in zip(self.steps, self.mean_abs_error):
                if step > self.error_free_step:
                    break
                if step <= 0:
                    continue
                if err <= budget:
                    gain = self.error_free_step / step - 1.0
                    best = max(best, gain) if best is not None else gain
        if best is None and strict:
            raise ValueError(
                f"no swept period meets the error budget {budget!r} "
                f"(error-free step {self.error_free_step}); pass "
                f"strict=False to receive None instead"
            )
        return best

    # ------------------------------------------------- Result protocol
    def to_dict(self) -> Dict[str, Any]:
        """Pure-JSON representation (see :mod:`repro.runners.results`)."""
        return {
            "kind": self.kind,
            "steps": [int(s) for s in self.steps],
            "mean_abs_error": [float(e) for e in self.mean_abs_error],
            "violation_probability": [
                float(p) for p in self.violation_probability
            ],
            "rated_step": int(self.rated_step),
            "settle_step": int(self.settle_step),
            "error_free_step": int(self.error_free_step),
            "num_samples": int(self.num_samples),
            **metrics_entry(self),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        result = cls(
            steps=np.asarray(data["steps"], dtype=np.int64),
            mean_abs_error=np.asarray(data["mean_abs_error"], dtype=np.float64),
            violation_probability=np.asarray(
                data["violation_probability"], dtype=np.float64
            ),
            rated_step=int(data["rated_step"]),
            settle_step=int(data["settle_step"]),
            error_free_step=int(data["error_free_step"]),
            num_samples=int(data["num_samples"]),
        )
        return restore_metrics(result, data)


class SweepHarness:
    """Shared machinery: build once, sweep many batches.

    ``backend`` selects the simulation engine: ``"packed"`` (the
    default, :func:`~repro.netlist.compiled.resolve_backend`) compiles
    the netlist to the bit-packed engine of
    :mod:`repro.netlist.compiled`; ``"wave"`` uses the interpreting
    :class:`repro.netlist.sim.WaveformSimulator`; ``"vector"`` has no
    gate-level semantics, so :func:`make_simulator` substitutes the
    packed engine.  Results are bit-identical in every case.
    """

    def __init__(
        self,
        circuit,
        delay_model: Optional[DelayModel],
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.delay_model = delay_model if delay_model is not None else UnitDelay()
        self.backend = resolve_backend(backend, "netlist")
        self.simulator = make_simulator(
            circuit, self.delay_model, self.backend
        )
        self.rated_step = static_timing(circuit, self.delay_model).critical_delay

    def decode(self, outputs: Dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def run_partial(self, port_values: Dict[str, np.ndarray]) -> Dict[str, Any]:
        """One batch as exact partial sums (the shard-merge currency).

        Returns per-step |error| sums (float) and violation counts (int)
        plus the batch size — partials from different shards of one
        experiment merge exactly, independent of execution layout.
        """
        res = self.simulator.run(port_values)
        settle = res.settle_step
        correct = self.decode(res.sample(settle)).astype(np.float64)
        sum_err = np.empty(settle + 1)
        viol = np.empty(settle + 1, dtype=np.int64)
        for t in range(settle + 1):
            values = self.decode(res.sample(t)).astype(np.float64)
            err = np.abs(values - correct)
            sum_err[t] = float(err.sum())
            viol[t] = int((err > 0).sum())
        return {
            "settle_step": settle,
            "rated_step": self.rated_step,
            "sum_err": sum_err,
            "viol": viol,
            "num_samples": res.num_samples,
        }

    def run(self, port_values: Dict[str, np.ndarray]) -> "SweepResult":
        return _sweep_from_partials(
            [self.run_partial(port_values)]
        )


def error_free_step_on_grid(
    steps: np.ndarray, mean_err: np.ndarray, settle: int
) -> int:
    """Measured minimum error-free period of a (possibly sparse) grid.

    The smallest swept step above the last violating one — or the
    settle step when even the largest swept step violates (the settled
    state is error-free by construction).  This rule is grid-dependent:
    any consumer that re-slices a sweep onto a sub-grid (the service's
    request batcher) must recompute it through this helper rather than
    reuse the full-grid value.
    """
    steps_arr = np.asarray(steps, dtype=np.int64)
    violating = np.nonzero(np.asarray(mean_err) > 0)[0]
    if violating.size == 0:
        return int(steps_arr[0])
    if violating[-1] + 1 < len(steps_arr):
        return int(steps_arr[violating[-1] + 1])
    return int(settle)


def _sweep_from_partials(
    parts: List[Dict[str, Any]],
    steps: Optional[np.ndarray] = None,
) -> SweepResult:
    """Merge shard partials (in shard order) into one :class:`SweepResult`.

    *steps* is the swept period grid the partials were evaluated on; the
    default is the dense grid ``0 .. settle_step`` of the gate-level
    harnesses.  On a sparse grid the measured error-free period follows
    :func:`error_free_step_on_grid`.
    """
    settle = parts[0]["settle_step"]
    rated = parts[0]["rated_step"]
    for p in parts[1:]:
        if p["settle_step"] != settle or p["rated_step"] != rated:
            raise ValueError(
                "shards disagree on circuit timing; delay assignment is "
                "not deterministic"
            )
    num_samples = sum(p["num_samples"] for p in parts)
    sum_err = merge_float_sums([p["sum_err"] for p in parts])
    viol = merge_int_sums([p["viol"] for p in parts])
    mean_err = sum_err / num_samples
    p_viol = viol / num_samples
    steps_arr = (
        np.arange(settle + 1)
        if steps is None
        else np.asarray(steps, dtype=np.int64)
    )
    error_free = error_free_step_on_grid(steps_arr, mean_err, settle)
    return SweepResult(
        steps=steps_arr,
        mean_abs_error=mean_err,
        violation_probability=p_viol,
        rated_step=rated,
        settle_step=settle,
        error_free_step=error_free,
        num_samples=num_samples,
    )


#: historical private name, kept for downstream callers of the PR-4 API
_Harness = SweepHarness


def _harness_spec(spec, kind: str, style: Optional[str] = None):
    """Resolve *spec* (registry name or OperatorSpec) for a harness.

    Imported lazily: :mod:`repro.synth` depends on :mod:`repro.sim` for
    nothing at import time, but keeping the edge out of module scope
    makes the layering obvious and cheap.
    """
    from repro.synth.spec import OperatorSpec, operator_spec

    resolved = operator_spec(spec) if isinstance(spec, str) else spec
    if not isinstance(resolved, OperatorSpec):
        raise TypeError(
            f"spec must be a registry name or an OperatorSpec, "
            f"got {type(resolved).__name__}"
        )
    if resolved.kind != kind:
        raise ValueError(
            f"operator spec {resolved.name!r} is a {resolved.kind!r} "
            f"implementation; this harness sweeps {kind!r} operators"
        )
    if style is not None and resolved.style != style:
        raise ValueError(
            f"operator spec {resolved.name!r} has style {resolved.style!r}; "
            f"this harness requires style {style!r}"
        )
    return resolved


class OnlineMultiplierHarness(SweepHarness):
    """Gate-level online multiplier under overclocking.

    Construct via :meth:`from_spec` (the uniform spec-driven spelling).
    """

    def __init__(
        self,
        *,
        spec,
        ndigits: int,
        delay_model: Optional[DelayModel] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.spec = _harness_spec(spec, kind="mul", style="online")
        self.ndigits = ndigits
        super().__init__(self.spec.build(ndigits), delay_model, backend)

    @classmethod
    def from_spec(cls, spec="online-mult", **fmt) -> "OnlineMultiplierHarness":
        """Build from a registered online-multiplier :class:`OperatorSpec`.

        *spec* is a registry name or an ``OperatorSpec`` with
        ``kind="mul"``, ``style="online"``; *fmt* takes ``ndigits``
        (default 8), ``delay_model`` and ``backend``.
        """
        return cls(spec=spec, ndigits=fmt.pop("ndigits", 8), **fmt)

    def encode(self, xdigits: np.ndarray, ydigits: np.ndarray) -> Dict[str, np.ndarray]:
        """Port values from digit batches of shape ``(N, S)``."""
        ports, _ = port_values_from_digits("x", xdigits)
        ports_y, _ = port_values_from_digits("y", ydigits)
        ports.update(ports_y)
        return ports

    def encode_values(self, x_scaled: np.ndarray, y_scaled: np.ndarray) -> Dict[str, np.ndarray]:
        """Port values from integer operands scaled by ``2**N``."""
        return self.encode(
            scaled_int_to_digits(x_scaled, self.ndigits),
            scaled_int_to_digits(y_scaled, self.ndigits),
        )

    def decode(self, outputs: Dict[str, np.ndarray]) -> np.ndarray:
        digits = np.stack(
            [
                outputs[f"zp{k}"].astype(np.int8) - outputs[f"zn{k}"].astype(np.int8)
                for k in range(self.ndigits)
            ]
        )
        return digits_to_scaled_int(digits) / float(2**self.ndigits)

    def sweep(self, xdigits: np.ndarray, ydigits: np.ndarray) -> SweepResult:
        return self.run(self.encode(xdigits, ydigits))


class TraditionalMultiplierHarness(SweepHarness):
    """Gate-level two's-complement array multiplier under overclocking.

    Construct via :meth:`from_spec` (the uniform spec-driven spelling).
    """

    def __init__(
        self,
        *,
        spec,
        width: int,
        delay_model: Optional[DelayModel] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.spec = _harness_spec(spec, kind="mul", style="traditional")
        self.width = width
        super().__init__(
            self.spec.build(width - 1, width=width), delay_model, backend
        )

    @classmethod
    def from_spec(
        cls, spec="array-mult", **fmt
    ) -> "TraditionalMultiplierHarness":
        """Build from a registered conventional-multiplier spec.

        *spec* is a registry name or an ``OperatorSpec`` with
        ``kind="mul"``, ``style="traditional"``; *fmt* takes ``width``
        or ``ndigits`` (``width = ndigits + 1``, the paper's
        range-parity pairing), plus ``delay_model`` and ``backend``.
        """
        width = fmt.pop("width", None)
        ndigits = fmt.pop("ndigits", None)
        if width is None:
            width = 9 if ndigits is None else int(ndigits) + 1
        elif ndigits is not None:
            raise ValueError("pass either width or ndigits, not both")
        return cls(spec=spec, width=int(width), **fmt)

    def encode(self, x_scaled: np.ndarray, y_scaled: np.ndarray) -> Dict[str, np.ndarray]:
        """Port values from integers scaled by ``2**(width-1)`` (Q1 format)."""
        ports: Dict[str, np.ndarray] = {}
        w = self.width
        for name, values in (("a", x_scaled), ("b", y_scaled)):
            values = np.asarray(values, dtype=np.int64)
            lo, hi = -(2 ** (w - 1)), 2 ** (w - 1) - 1
            if values.min() < lo or values.max() > hi:
                raise ValueError(f"operands overflow {w}-bit two's complement")
            raw = np.where(values < 0, values + (1 << w), values)
            for i in range(w):
                ports[f"{name}{i}"] = ((raw >> i) & 1).astype(np.uint8)
        return ports

    def decode(self, outputs: Dict[str, np.ndarray]) -> np.ndarray:
        bits = np.stack(
            [outputs[f"p{i}"] for i in range(2 * self.width)]
        )
        scaled = bits_to_scaled_int(bits)
        return scaled / float(2 ** (2 * (self.width - 1)))

    def sweep(self, x_scaled: np.ndarray, y_scaled: np.ndarray) -> SweepResult:
        return self.run(self.encode(x_scaled, y_scaled))


# --------------------------------------------------------------- shard workers

#: per-process harness memo, keyed by (design, ndigits, backend, delay sig,
#: exact per-gate delay assignment)
_HARNESS_CACHE: Dict[Any, SweepHarness] = {}

#: per-process circuit memo for computing delay assignments in the memo key
_CIRCUIT_CACHE: Dict[Any, Any] = {}


def _worker_circuit(design: str, ndigits: int):
    """Per-process netlist memo (one build per (design, ndigits))."""
    key = (design, ndigits)
    circuit = _CIRCUIT_CACHE.get(key)
    if circuit is None:
        circuit = _sweep_circuit(design, ndigits)
        _CIRCUIT_CACHE[key] = circuit
    return circuit


def worker_harness(
    design: str,
    ndigits: int,
    backend: str,
    delay_model: DelayModel,
) -> SweepHarness:
    """Per-process harness memo (one netlist compile per worker process).

    The memo key includes the model's **exact per-gate delay assignment**,
    not just its :func:`delay_signature`: the signature renders instance
    attributes with ``repr``, which elides the middle of large numpy
    arrays, so two models differing only inside an elided region would
    alias one memo entry and silently reuse the wrong compiled timing.
    Computing the assignment costs one :meth:`DelayModel.assign` pass per
    shard (microseconds against a multi-second compile), with the circuit
    itself memoized per process.
    """
    circuit = _worker_circuit(design, ndigits)
    key = (
        design,
        ndigits,
        backend,
        delay_signature(delay_model),
        tuple(int(d) for d in delay_model.assign(circuit)),
    )
    harness = _HARNESS_CACHE.get(key)
    if harness is None:
        if design == "online":
            harness = OnlineMultiplierHarness.from_spec(
                "online-mult",
                ndigits=ndigits,
                delay_model=delay_model,
                backend=backend,
            )
        elif design == "traditional":
            harness = TraditionalMultiplierHarness.from_spec(
                "array-mult",
                ndigits=ndigits,
                delay_model=delay_model,
                backend=backend,
            )
        else:
            raise ValueError(
                f"unknown design {design!r}; expected one of {SWEEP_DESIGNS}"
            )
        _HARNESS_CACHE[key] = harness
    return harness


def sweep_shard_ports(
    design: str,
    ndigits: int,
    harness: SweepHarness,
    rng: np.random.Generator,
    m: int,
) -> Dict[str, np.ndarray]:
    """Draw one shard's operand batch and encode it as port values."""
    if design == "online":
        xd = uniform_digit_batch(ndigits, m, rng)
        yd = uniform_digit_batch(ndigits, m, rng)
        return harness.encode(xd, yd)
    lim = 2**ndigits - 1
    xs = rng.integers(-lim, lim + 1, m)
    ys = rng.integers(-lim, lim + 1, m)
    return harness.encode(xs, ys)


def _sweep_shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep shard: generate operands, simulate, return exact partials."""
    design = payload["design"]
    ndigits = payload["ndigits"]
    harness = worker_harness(
        design, ndigits, payload["backend"], payload["delay_model"]
    )
    rng = np.random.default_rng(payload["seed_seq"])
    ports = sweep_shard_ports(
        design, ndigits, harness, rng, payload["samples"]
    )
    with current_tracer().span(
        "sweep.simulate",
        design=design,
        backend=payload["backend"],
        samples=payload["samples"],
    ):
        return harness.run_partial(ports)


def _sweep_circuit(design: str, ndigits: int):
    if design == "online":
        return OnlineMultiplier(ndigits).build_circuit()
    if design == "traditional":
        return build_array_multiplier(ndigits + 1)
    raise ValueError(
        f"unknown design {design!r}; expected one of {SWEEP_DESIGNS}"
    )


# ------------------------------------------------------- stage-timing sweeps

def stage_steps_for_periods(periods, num_stages: int) -> List[int]:
    """Map normalized clock periods to chain-cut depths ``b``.

    A period is a fraction of the structural delay ``num_stages * mu``;
    the register then captures the wave after ``b = ceil(p * num_stages)``
    ticks (:func:`repro.numrep.ceil_scaled` — the exact-rational ceiling,
    so ``p = 7/25`` lands on 7, not 8).  Depths clamp to ``num_stages``:
    beyond the settle depth the wave no longer changes.  Several periods
    may share one depth — that is precisely the redundancy the fused
    kernel exploits.
    """
    steps: List[int] = []
    for p in periods:
        if p <= 0:
            raise ValueError(f"normalized periods must be positive, got {p}")
        steps.append(min(ceil_scaled(p, num_stages), num_stages))
    return steps


def stage_sweep_partial(
    ndigits: int,
    delta: int,
    xdigits: np.ndarray,
    ydigits: np.ndarray,
    steps,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Per-period reference oracle of the stage-timing sweep.

    The unfused spelling: one truncated
    :meth:`~repro.core.OnlineMultiplier.wave` evaluation per requested
    depth (the whole stage pipeline re-runs for every period), plus one
    settled evaluation for ground truth.  Snapshots go through the same
    :func:`repro.vec.fused.stage_error_partials` helper as the fused
    kernel, so the partials — and hence the merged
    :class:`SweepResult` — are bit-identical to
    :func:`repro.vec.fused.fused_sweep_partial` on the same operands.
    """
    from repro.vec.fused import stage_error_partials

    om = OnlineMultiplier(ndigits, delta)
    s_tot = om.num_stages
    snaps = np.stack(
        [
            om.wave(
                xdigits,
                ydigits,
                max_ticks=min(int(b), s_tot),
                backend=backend,
            )[-1]
            for b in steps
        ]
    )
    settled = om.wave(xdigits, ydigits, backend=backend)[-1]
    partial = stage_error_partials(snaps, settled, ndigits)
    partial["settle_step"] = s_tot
    partial["rated_step"] = s_tot
    return partial


def _stage_sweep_shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One stage-timing shard: draw operands, evaluate the depth grid.

    The vector engine takes the fused fast path — the whole grid in a
    single stage-by-stage pass; every other engine runs the per-period
    oracle.  Identical partials either way.
    """
    ndigits = payload["ndigits"]
    delta = payload["delta"]
    steps = payload["steps"]
    m = payload["samples"]
    rng = np.random.default_rng(payload["seed_seq"])
    xd = uniform_digit_batch(ndigits, m, rng)
    yd = uniform_digit_batch(ndigits, m, rng)
    if payload["backend"] == "vector":
        from repro.obs.metrics import metrics
        from repro.vec.fused import fused_sweep_partial

        with current_tracer().span(
            "vec.fused_sweep",
            ndigits=ndigits,
            periods=int(payload["requested_periods"]),
            depths=len(steps),
            samples=m,
        ):
            metrics().count(
                "vec.fused_periods", int(payload["requested_periods"])
            )
            return fused_sweep_partial(ndigits, delta, xd, yd, steps)
    with current_tracer().span(
        "sweep.simulate_stage",
        backend=payload["backend"],
        depths=len(steps),
        samples=m,
    ):
        return stage_sweep_partial(
            ndigits, delta, xd, yd, steps, backend=payload["backend"]
        )


def stage_sweep_plan(config: RunConfig, periods=None, steps=None):
    """Normalize a stage-sweep request into ``(requested, grid)`` depths.

    *requested* preserves the caller's grid (duplicates and order, for
    trace attributes); *grid* is the deduplicated, settle-clamped depth
    set actually simulated and keyed on.  Shared with the evaluation
    service so a service request and the batch entry point agree on the
    design points — and therefore on the cache key — for any spelling
    of the same grid.
    """
    if steps is not None and periods is not None:
        raise ValueError("pass either steps or periods, not both")
    s_tot = config.ndigits + config.delta
    if steps is not None:
        requested = [int(b) for b in steps]
        if any(b < 0 for b in requested):
            raise ValueError("capture depths must be >= 0")
    elif periods is not None:
        requested = stage_steps_for_periods(periods, s_tot)
    else:
        requested = list(range(s_tot + 1))
    if not requested:
        raise ValueError("the sweep grid must contain at least one period")
    grid = sorted({min(b, s_tot) for b in requested})
    return requested, grid


def stage_sweep_key_components(
    config: RunConfig, design: str, num_samples: int, grid
) -> Dict[str, object]:
    """Content-address components of one stage-timing sweep result.

    Shared with the evaluation service (see
    :func:`repro.sim.montecarlo.montecarlo_key_components`).
    """
    return dict(
        experiment="sweep_stage",
        design=design,
        num_samples=int(num_samples),
        steps=[int(b) for b in grid],
        **config.describe(),
    )


def _run_stage_sweep(
    config: RunConfig,
    design: str,
    num_samples: int,
    runner: Optional[ParallelRunner],
    periods,
    steps,
) -> SweepResult:
    """The ``timing="stage"`` body of :func:`run_sweep`."""
    if design != "online":
        raise ValueError(
            "stage-timing sweeps are defined for the online design only "
            "(the stage-delay model has no meaning for the array multiplier "
            "netlist)"
        )
    requested, grid = stage_sweep_plan(config, periods=periods, steps=steps)
    engine = resolve_backend(config.backend, "om-wave")

    cache = cache_for(config)
    runner = runner or ParallelRunner.from_config(config)
    experiment = f"sweep_stage:{design}"
    with current_tracer().span(
        "run.sweep",
        design=design,
        timing="stage",
        ndigits=config.ndigits,
        engine=engine,
        num_samples=int(num_samples),
        periods=len(requested),
        depths=len(grid),
    ):
        key = None
        key_components = None
        if cache is not None:
            key_components = stage_sweep_key_components(
                config, design, num_samples, grid
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
            config.seed, len(sizes), seed_tag("sweep"), seed_tag(design)
        )
        payloads = [
            {
                "ndigits": config.ndigits,
                "delta": config.delta,
                "backend": engine,
                "steps": [int(b) for b in grid],
                "requested_periods": len(requested),
                "seed_seq": ss,
                "samples": m,
            }
            for ss, m in zip(seeds, sizes)
        ]
        parts = runner.map(_stage_sweep_shard_worker, payloads, samples=sizes)
        result = _sweep_from_partials(
            parts, steps=np.asarray(grid, dtype=np.int64)
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

def run_sweep(
    config: RunConfig,
    design: str = "online",
    num_samples: int = 3000,
    delay_model: Optional[DelayModel] = None,
    runner: Optional[ParallelRunner] = None,
    timing: str = "gate",
    periods=None,
    steps=None,
) -> SweepResult:
    """Sharded overclocking sweep of one multiplier design.

    Parameters
    ----------
    config:
        The unified run parameters; ``config.ndigits`` sets the operand
        word length (the traditional design uses ``ndigits + 1`` bits,
        the paper's range-parity pairing).
    design:
        ``"online"`` or ``"traditional"``.
    delay_model:
        Gate delays; defaults to the FPGA-like jittered model
        (``timing="gate"`` only).
    timing:
        ``"gate"`` (default) simulates the netlist under *delay_model*;
        ``"stage"`` uses the paper's analytical stage-delay model —
        online design only, each stage costs one unit ``mu``, and the
        vector engine (the default) evaluates the whole period grid in
        one fused pass (:mod:`repro.vec.fused`).
    periods, steps:
        The ``timing="stage"`` sweep grid — either normalized periods
        (fractions of the structural delay, mapped through
        :func:`stage_steps_for_periods`) or explicit chain-cut depths.
        Default: every depth ``0 .. N + delta``.

    The operand batch shards exactly like :func:`run_montecarlo` —
    results depend on ``(seed, shard_size, num_samples)`` but never on
    ``config.jobs``.  The gate-level cache key includes the netlist's
    structural fingerprint and the exact per-gate delay assignment, so
    any change to the operator generator or the delay model invalidates
    stale entries automatically; stage-timing sweeps are keyed under a
    distinct ``sweep_stage`` experiment with their depth grid.
    """
    if timing == "stage":
        if delay_model is not None:
            raise ValueError(
                "stage timing uses the unit stage-delay model; delay_model "
                "applies to timing='gate' sweeps"
            )
        return _run_stage_sweep(
            config, design, num_samples, runner, periods, steps
        )
    if timing != "gate":
        raise ValueError(
            f"unknown timing {timing!r}; expected 'gate' or 'stage'"
        )
    if periods is not None or steps is not None:
        raise ValueError(
            "periods/steps grids apply to timing='stage' sweeps only; the "
            "gate-level sweep always covers every period up to settling"
        )
    model = delay_model if delay_model is not None else FpgaDelay()
    engine = resolve_backend(config.backend, "netlist")
    cache = cache_for(config)
    runner = runner or ParallelRunner.from_config(config)
    experiment = f"sweep:{design}"
    with current_tracer().span(
        "run.sweep",
        design=design,
        ndigits=config.ndigits,
        engine=engine,
        num_samples=int(num_samples),
    ):
        key = None
        key_components = None
        if cache is not None:
            circuit = _sweep_circuit(design, config.ndigits)
            key_components = dict(
                experiment="sweep",
                design=design,
                num_samples=int(num_samples),
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
            config.seed, len(sizes), seed_tag("sweep"), seed_tag(design)
        )
        payloads = [
            {
                "design": design,
                "ndigits": config.ndigits,
                "backend": engine,
                "delay_model": model,
                "seed_seq": ss,
                "samples": m,
            }
            for ss, m in zip(seeds, sizes)
        ]
        parts = runner.map(_sweep_shard_worker, payloads, samples=sizes)
        result = _sweep_from_partials(parts)
        if cache is not None:
            cache.put(key, result, key_components)
        result.run_stats = runner.finalize_stats(
            experiment,
            cache="miss" if cache is not None else "off",
            engine=engine,
        )
        attach_metrics(result)
    return result


def sweep_operator(harness: SweepHarness, port_values: Dict[str, np.ndarray]) -> SweepResult:
    """Free-function spelling of :meth:`SweepHarness.run` (public API)."""
    return harness.run(port_values)


def max_error_free_step(result: SweepResult) -> int:
    """Measured minimum error-free clock period (``1/f0``) of a sweep."""
    return result.error_free_step
