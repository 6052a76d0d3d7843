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
:func:`stage_steps_for_periods`).  On every engine each shard captures
the whole grid in **one pass** over its operand batch
(:func:`repro.vec.fused.fused_sweep_partial` through
:func:`repro.vec.fused.stage_snapshots` — span ``vec.fused_sweep``,
metric ``vec.fused_periods``), so the resulting :class:`SweepResult`
is bit-identical across backends.  :func:`stage_sweep_partial`, one
truncated wave per depth, is kept as the reference the fused path is
checked against (``tests/vec/test_fused_conformance.py``); no run
path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional

import numpy as np

from repro.core.conversion import (
    bits_to_scaled_int,
    digits_to_scaled_int,
    port_values_from_digits,
    scaled_int_to_digits,
)
from repro.core.online_multiplier import OnlineMultiplier
from repro.netlist.compiled import (
    circuit_fingerprint,
    critical_delay,
    make_simulator,
)
from repro.netlist.delay import (
    DelayModel,
    FpgaDelay,
    UnitDelay,
    delay_key_components,
)
from repro.netlist.engines import resolve_backend
from repro.numrep.rounding import ceil_scaled, floor_ratio
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runners.cache import run_cached
from repro.runners.config import RunConfig
from repro.runners.parallel import (
    ParallelRunner,
    merge_float_sums,
    merge_int_sums,
    shard_plan,
)
from repro.runners.results import register_result
from repro.sim.montecarlo import (
    capture_depths,
    map_om_shards,
    uniform_digit_batch,
    uniform_operands,
)
from repro.vec.fused import fused_sweep_partial, stage_error_partials

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
        callers that feed the gain straight into arithmetic (a None
        there would otherwise surface later as a TypeError far from the
        cause).
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


class SweepHarness:
    """Shared machinery: a cheap view that sweeps many batches.

    The circuit is the frozen netlist of
    :func:`~repro.netlist.compiled.shared_circuit` and the simulator comes
    from the compile LRU, so one harness per shard costs two cache hits.

    ``backend`` selects the simulation engine: ``"packed"`` (the
    default, :func:`~repro.netlist.engines.resolve_backend`) compiles
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
        self.rated_step = critical_delay(self.simulator)

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
        from repro.synth.spec import resolve_operator

        self.spec = resolve_operator(spec, "mul", "online")
        self.ndigits = ndigits
        super().__init__(self.spec.circuit(ndigits), delay_model, backend)

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

    def random_ports(self, rng: np.random.Generator, m: int) -> Dict[str, np.ndarray]:
        """Port values of *m* uniform random digit-vector operand pairs."""
        xd = uniform_digit_batch(self.ndigits, m, rng)
        yd = uniform_digit_batch(self.ndigits, m, rng)
        return self.encode(xd, yd)


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
        from repro.synth.spec import resolve_operator

        self.spec = resolve_operator(spec, "mul", "traditional")
        self.width = width
        super().__init__(
            self.spec.circuit(width - 1, width=width), delay_model, backend
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

    def random_ports(self, rng: np.random.Generator, m: int) -> Dict[str, np.ndarray]:
        """Port values of *m* uniform random operand pairs (symmetric range)."""
        lim = 2 ** (self.width - 1) - 1
        xs = rng.integers(-lim, lim + 1, m)
        ys = rng.integers(-lim, lim + 1, m)
        return self.encode(xs, ys)


# --------------------------------------------------------------- shard workers

#: sweep design -> (operator spec, harness class)
_DESIGNS = {
    "online": ("online-mult", OnlineMultiplierHarness),
    "traditional": ("array-mult", TraditionalMultiplierHarness),
}

#: designs :func:`run_sweep` can build
SWEEP_DESIGNS = tuple(_DESIGNS)


def _design(design: str):
    try:
        return _DESIGNS[design]
    except KeyError:
        raise ValueError(
            f"unknown design {design!r}; expected one of {SWEEP_DESIGNS}"
        ) from None


def design_circuit(design: str, ndigits: int):
    """The shared, frozen netlist of one sweep design (the traditional
    one is ``ndigits + 1`` bits wide, the paper's range-parity pairing)."""
    from repro.synth.spec import operator_spec

    return operator_spec(_design(design)[0]).circuit(ndigits)


def worker_harness(
    design: str,
    ndigits: int,
    backend: str,
    delay_model: DelayModel,
) -> SweepHarness:
    """The harness of one design, built fresh (it is a cheap view).

    Nothing is memoized here: the compile LRU keys the model's exact
    per-gate delays, never the ``repr``-based
    :func:`~repro.netlist.delay.delay_signature`,
    under which models differing in an elided numpy region alias.
    """
    spec, cls = _design(design)
    return cls.from_spec(
        spec, ndigits=ndigits, delay_model=delay_model, backend=backend
    )


def _sweep_shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep shard: generate operands, simulate, return exact partials."""
    design = payload["design"]
    harness = worker_harness(
        design, payload["ndigits"], payload["backend"], payload["delay_model"]
    )
    rng = np.random.default_rng(payload["seed_seq"])
    ports = harness.random_ports(rng, payload["samples"])
    with current_tracer().span(
        "sweep.simulate",
        design=design,
        backend=payload["backend"],
        samples=payload["samples"],
    ):
        return harness.run_partial(ports)


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
    path, so the partials are bit-identical to
    :func:`repro.vec.fused.fused_sweep_partial` on the same operands.
    The conformance tests and ``benchmarks/bench_fused_sweep.py``
    compare against it; no run path calls it.
    """
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

    The whole grid is captured in one pass on the payload's engine
    (:func:`repro.vec.fused.fused_sweep_partial`).
    """
    xd, yd = uniform_operands(payload)
    periods = int(payload["requested_periods"])
    with current_tracer().span(
        "vec.fused_sweep",
        backend=payload["backend"],
        ndigits=payload["ndigits"],
        periods=periods,
        depths=len(payload["steps"]),
        samples=payload["samples"],
    ):
        metrics().count("vec.fused_periods", periods)
        return fused_sweep_partial(
            payload["ndigits"],
            payload["delta"],
            xd,
            yd,
            payload["steps"],
            payload["backend"],
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
        requested = capture_depths(steps)
    elif periods is not None:
        requested = capture_depths(stage_steps_for_periods(periods, s_tot))
    else:
        requested = list(range(s_tot + 1))
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
    runner = runner or ParallelRunner.from_config(config)

    def compute() -> SweepResult:
        parts = map_om_shards(
            runner, _stage_sweep_shard_worker, config, num_samples, engine,
            ("sweep", design), steps=grid,
            requested_periods=len(requested),
        )
        return _sweep_from_partials(
            parts, steps=np.asarray(grid, dtype=np.int64)
        )

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
        return run_cached(
            config,
            runner,
            f"sweep_stage:{design}",
            engine,
            lambda: stage_sweep_key_components(
                config, design, num_samples, grid
            ),
            compute,
        )


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
    runner = runner or ParallelRunner.from_config(config)

    def key_components() -> Dict[str, Any]:
        circuit = design_circuit(design, config.ndigits)
        return dict(
            experiment="sweep",
            design=design,
            num_samples=int(num_samples),
            fingerprint=circuit_fingerprint(circuit),
            **delay_key_components(model, circuit),
            **config.describe(),
        )

    def compute() -> SweepResult:
        plan = shard_plan(config, num_samples, "sweep", design)
        payloads = [
            {
                "design": design,
                "ndigits": config.ndigits,
                "backend": engine,
                "delay_model": model,
                "seed_seq": ss,
                "samples": m,
            }
            for ss, m in plan
        ]
        parts = runner.map(
            _sweep_shard_worker, payloads, samples=[m for _, m in plan]
        )
        return _sweep_from_partials(parts)

    with current_tracer().span(
        "run.sweep",
        design=design,
        ndigits=config.ndigits,
        engine=engine,
        num_samples=int(num_samples),
    ):
        return run_cached(
            config, runner, f"sweep:{design}", engine, key_components, compute
        )


def sweep_operator(harness: SweepHarness, port_values: Dict[str, np.ndarray]) -> SweepResult:
    """Free-function spelling of :meth:`SweepHarness.run` (public API)."""
    return harness.run(port_values)


def max_error_free_step(result: SweepResult) -> int:
    """Measured minimum error-free clock period (``1/f0``) of a sweep."""
    return result.error_free_step
