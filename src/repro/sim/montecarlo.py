"""Monte-Carlo verification of the error model (Fig. 4 top row).

The paper verifies its analytical model against Monte-Carlo simulations
"based on the aforementioned timing model": every stage of the unrolled
online multiplier costs exactly one delay unit ``mu``, all internal state
resets to zero, inputs apply at t = 0, and a register clocked with period
``T_S = b * mu`` captures whatever the product digits hold after ``b``
ticks.  :meth:`repro.core.OnlineMultiplier.wave` implements exactly that;
this module wraps it with uniform-independent input generation and error
statistics.

:func:`run_montecarlo` and :func:`run_settle_histogram` take a
:class:`~repro.runners.RunConfig`: the sample budget is sharded across
worker processes with deterministic seed-splitting (``jobs=1`` and
``jobs=N`` merge bit-identically), and Monte-Carlo results are served
from the persistent result cache when one is configured.  Every OM-wave
entry point (these two, the stage probe, the stage sweep and the stage
profile) lays out its shards with :func:`map_om_shards`, draws each
shard's operands with :func:`uniform_operands` and captures through
:func:`repro.vec.fused.stage_snapshots`.  To derive
several statistics from one sample batch, draw it with
:func:`uniform_digit_batch`, run :meth:`OnlineMultiplier.wave` once and
read it directly (:func:`settle_depths` for settling depths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.conversion import digits_to_scaled_int
from repro.netlist.engines import resolve_backend
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
from repro.vec.fused import fused_sweep_partial, stage_snapshots


def uniform_digit_batch(
    ndigits: int, num_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. uniform signed digits — the paper's "UI inputs".

    Returns shape ``(ndigits, num_samples)`` int8 with values in
    ``{-1, 0, 1}``.
    """
    return rng.integers(-1, 2, size=(ndigits, num_samples)).astype(np.int8)


@register_result
@dataclass
class MonteCarloResult:
    """Error statistics of one stage-delay Monte-Carlo run.

    Attributes
    ----------
    ndigits / delta:
        Multiplier geometry.
    num_samples:
        Batch size.
    depths:
        The sampling depths ``b`` (stage traversals per clock period).
    mean_abs_error:
        ``E|eps|`` at each depth — the quantity of Fig. 4.
    violation_probability:
        Fraction of samples with any output error at each depth —
        the quantity Algorithm 2 predicts.
    """

    ndigits: int
    delta: int
    num_samples: int
    depths: np.ndarray
    mean_abs_error: np.ndarray
    violation_probability: np.ndarray

    kind: ClassVar[str] = "montecarlo"
    _array_fields: ClassVar[Dict[str, str]] = {
        "depths": "int64",
        "mean_abs_error": "float64",
        "violation_probability": "float64",
    }

    def normalized_periods(self) -> np.ndarray:
        """Depths as fractions of the structural delay ``(N + delta)``."""
        return self.depths / (self.ndigits + self.delta)

    def at_depth(self, b: int) -> Tuple[float, float]:
        """``(E|eps|, P(violation))`` at depth ``b``."""
        idx = int(np.searchsorted(self.depths, b))
        if idx >= len(self.depths) or self.depths[idx] != b:
            raise KeyError(f"depth {b} was not simulated")
        return (
            float(self.mean_abs_error[idx]),
            float(self.violation_probability[idx]),
        )


# --------------------------------------------------------------- shard workers

def uniform_operands(payload: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(x, y)`` UI operand digits of one OM-wave shard.

    Both are drawn from the shard's ``seed_seq``, *x* first, with
    :func:`uniform_digit_batch` — every OM-wave shard worker draws its
    operands here, so every statistic reads the same operand stream.
    """
    rng = np.random.default_rng(payload["seed_seq"])
    n, m = payload["ndigits"], payload["samples"]
    return uniform_digit_batch(n, m, rng), uniform_digit_batch(n, m, rng)


def map_om_shards(
    runner: ParallelRunner,
    worker: Callable[[Dict[str, Any]], Any],
    config: RunConfig,
    num_samples: int,
    engine: str,
    streams: Sequence[str],
    **grid: Any,
) -> List[Any]:
    """Run *worker* over the OM-wave shards of one experiment run.

    Lays out the shards with ``shard_plan(config, num_samples,
    *streams)`` and gives each worker one payload: ``ndigits``,
    ``delta``, ``backend`` (the resolved *engine*), ``seed_seq`` and
    ``samples``, plus the run's *grid* entries (its depth grid and the
    like).  Returns the shard results in shard order.
    """
    plan = shard_plan(config, num_samples, *streams)
    payloads = [
        dict(
            ndigits=config.ndigits,
            delta=config.delta,
            backend=engine,
            seed_seq=ss,
            samples=m,
            **grid,
        )
        for ss, m in plan
    ]
    return runner.map(worker, payloads, samples=[m for _, m in plan])


def _mc_shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One Monte-Carlo shard: per-depth |error| sums and violation counts.

    Returns exact partials (float sums, integer counts) so the parent can
    merge in shard order and divide once — the float accumulation order
    is then independent of ``jobs``.
    """
    xd, yd = uniform_operands(payload)
    with current_tracer().span(
        "mc.simulate", backend=payload["backend"], samples=payload["samples"]
    ):
        part = fused_sweep_partial(
            payload["ndigits"],
            payload["delta"],
            xd,
            yd,
            payload["depths"],
            payload["backend"],
        )
    return {"sum_err": part["sum_err"], "viol": part["viol"]}


def _settle_shard_worker(payload: Dict[str, Any]) -> Dict[int, int]:
    """One settling-depth shard: ``depth -> sample count`` (exact ints)."""
    ndigits, delta = payload["ndigits"], payload["delta"]
    xd, yd = uniform_operands(payload)
    waves = stage_snapshots(
        ndigits, delta, xd, yd, range(ndigits + delta + 1), payload["backend"]
    )
    values, counts = np.unique(settle_depths(waves), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def settle_depths(waves: np.ndarray) -> np.ndarray:
    """Per-sample settling depth (smallest ``b`` whose sample is final).

    *waves* is an :meth:`OnlineMultiplier.wave` result, shape
    ``(ticks + 1, N, S)``.
    """
    num_samples = waves.shape[2]
    final_vals = digits_to_scaled_int(waves[-1])
    depth = np.zeros(num_samples, dtype=np.int64)
    unset = np.ones(num_samples, dtype=bool)
    for b in range(waves.shape[0] - 2, -1, -1):
        still_wrong = digits_to_scaled_int(waves[b]) != final_vals
        newly = unset & still_wrong
        depth[newly] = b + 1
        unset &= ~newly
        if not unset.any():
            break
    return depth


# ----------------------------------------------------------- unified entry

def default_depths(ndigits: int, delta: int) -> List[int]:
    """The depth grid of Fig. 4: ``delta+1 .. N+delta``."""
    return list(range(delta + 1, ndigits + delta + 1))


def capture_depths(depths: Iterable[int]) -> List[int]:
    """A capture-depth grid as ints; ``ValueError`` if empty or negative.

    Every depth or period grid an entry point accepts passes through
    here (Monte-Carlo and probe depths, sweep and profile steps); each
    caller keeps its own clamping and duplicate handling.
    """
    grid = [int(b) for b in depths]
    if not grid:
        raise ValueError(
            "the capture-depth grid must contain at least one depth"
        )
    if min(grid) < 0:
        raise ValueError(f"capture depths must be >= 0, got {min(grid)}")
    return grid


def montecarlo_key_components(
    config: RunConfig, num_samples: int, depths: List[int]
) -> Dict[str, Any]:
    """The content-address components of one :func:`run_montecarlo` result.

    Shared with the evaluation service, whose dedup/coalescing key and
    pre-queue cache short-circuit must agree byte-for-byte with the key
    the batch entry point stores under.
    """
    return dict(
        experiment="montecarlo",
        num_samples=int(num_samples),
        depths=[int(b) for b in depths],
        **config.describe(),
    )


def run_montecarlo(
    config: RunConfig,
    num_samples: int = 20000,
    depths: Optional[List[int]] = None,
    runner: Optional[ParallelRunner] = None,
) -> MonteCarloResult:
    """Sharded Monte-Carlo ``E|eps|`` versus sampling depth.

    The sample budget is split into ``config.shard_size`` shards with seeds spawned
    from ``config.seed``, shards run on ``config.jobs`` worker processes,
    and the per-shard exact partials merge in shard order — so the result
    depends on ``(seed, shard_size, num_samples)`` but never on ``jobs``.
    With ``config.cache_dir`` set, repeated runs are served from the
    persistent cache.  Shards run on the digit-level behavioral engine
    (:mod:`repro.vec`) unless ``config.backend`` names another; every
    engine is bit-identical here, the vector one far faster on large
    batches.
    """
    if depths is None:
        depths = default_depths(config.ndigits, config.delta)
    depths = sorted(capture_depths(depths))
    engine = resolve_backend(config.backend, "om-wave")
    runner = runner or ParallelRunner.from_config(config)

    def compute() -> MonteCarloResult:
        parts = map_om_shards(
            runner, _mc_shard_worker, config, num_samples, engine,
            ("montecarlo",), depths=depths,
        )
        sum_err = merge_float_sums([p["sum_err"] for p in parts])
        viol = merge_int_sums([p["viol"] for p in parts])
        return MonteCarloResult(
            ndigits=config.ndigits,
            delta=config.delta,
            num_samples=num_samples,
            depths=np.asarray(depths, dtype=np.int64),
            mean_abs_error=sum_err / num_samples,
            violation_probability=viol / num_samples,
        )

    with current_tracer().span(
        "run.montecarlo",
        ndigits=config.ndigits,
        delta=config.delta,
        engine=engine,
        num_samples=int(num_samples),
        depths=depths,
    ):
        return run_cached(
            config,
            runner,
            "montecarlo",
            engine,
            lambda: montecarlo_key_components(config, num_samples, depths),
            compute,
        )


def run_settle_histogram(
    config: RunConfig,
    num_samples: int = 20000,
    runner: Optional[ParallelRunner] = None,
) -> Dict[int, float]:
    """Sharded settling-depth histogram (``depth -> fraction of samples``).

    The settling depth of one multiplication is the smallest ``b`` whose
    sample equals the final product — one more than the longest chain
    that input pair excites; its histogram is the empirical counterpart
    of the model's chain-delay statistics (Fig. 5).  Integer per-shard
    counts merge exactly, so the histogram is independent of
    ``config.jobs``.  Returns a plain dict (not cached — recomputation is
    cheap and the dict is not a :class:`~repro.runners.results.Result`).
    """
    engine = resolve_backend(config.backend, "om-wave")
    runner = runner or ParallelRunner.from_config(config)
    with current_tracer().span(
        "run.settle_histogram",
        ndigits=config.ndigits,
        delta=config.delta,
        engine=engine,
        num_samples=int(num_samples),
    ):
        parts = map_om_shards(
            runner, _settle_shard_worker, config, num_samples, engine,
            ("settle",),
        )
        counts: Dict[int, int] = {}
        for part in parts:
            for depth, c in part.items():
                counts[depth] = counts.get(depth, 0) + c
        runner.finalize_stats("settle_histogram", engine=engine)
    return {
        depth: counts[depth] / num_samples for depth in sorted(counts)
    }
