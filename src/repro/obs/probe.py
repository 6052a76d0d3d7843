"""Per-stage digit-error telemetry for the online multiplier.

The paper's Section 3 story is *positional*: an overclocking violation at
period ``T_S = b * mu`` happens because some propagation chain through
the ``P[j]`` path is longer than ``b`` stages, and the damage lands on a
specific output digit ``z_k``.  The Monte-Carlo harness
(:mod:`repro.sim.montecarlo`) reduces all of that to one scalar per
depth; this probe keeps the positional structure:

* ``first_error_counts[i, k]`` — how many samples, sampled at depth
  ``depths[i]``, have their most-significant erroneous output digit at
  position ``k`` (column ``N`` counts error-free samples);
* ``value_violations[i]`` — how many samples have a *value*-level error
  at that depth (several signed-digit vectors encode one value, so digit
  mismatches slightly over-count; the value-level count is the exact
  quantity Algorithm 2's ``Prob(T_S)`` predicts);
* ``chain_depth_counts[d]`` — how many samples settle exactly at depth
  ``d``, i.e. excite a longest propagation chain of ``d`` stages — the
  observed counterpart of the model's chain-delay statistics (Fig. 5).

:meth:`StageProbeResult.compare_to_model` lines the observed violation
fraction up against :class:`repro.core.model.OverclockingErrorModel`'s
Algorithm-2 prediction per depth, turning the probabilistic model into
an observable that every traced run can check.

Sharding, seeding, caching and merging follow :func:`run_montecarlo`
exactly, so the probe result is bit-identical across ``jobs`` and is
served from the persistent result cache when one is configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional

import numpy as np

from repro.core.model import OverclockingErrorModel
from repro.core.conversion import digits_to_scaled_int
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runners.cache import run_cached
from repro.runners.config import RunConfig
from repro.runners.parallel import ParallelRunner, merge_int_sums
from repro.runners.results import register_result


@register_result
@dataclass
class StageProbeResult:
    """Positional error telemetry of one stage-probe run.

    Attributes
    ----------
    ndigits / delta:
        Multiplier geometry.
    num_samples:
        Batch size.
    depths:
        The sampled depths ``b`` (stage traversals per clock period).
    first_error_counts:
        Shape ``(len(depths), ndigits + 1)`` — sample counts by
        most-significant erroneous output digit; the extra last column
        counts error-free samples.
    value_violations:
        Shape ``(len(depths),)`` — samples whose sampled *value*
        differs from the settled product (the Algorithm-2 quantity).
    chain_depth_counts:
        Shape ``(ndigits + delta + 1,)`` — settling-depth histogram:
        entry ``d`` counts samples whose longest excited propagation
        chain spans ``d`` stages.
    """

    ndigits: int
    delta: int
    num_samples: int
    depths: np.ndarray
    first_error_counts: np.ndarray
    value_violations: np.ndarray
    chain_depth_counts: np.ndarray

    kind: ClassVar[str] = "stage_probe"
    _array_fields: ClassVar[Dict[str, str]] = {
        "depths": "int64",
        "first_error_counts": "int64",
        "value_violations": "int64",
        "chain_depth_counts": "int64",
    }

    # ------------------------------------------------------------- views
    def first_error_histogram(self, b: int) -> np.ndarray:
        """Fractional first-erroneous-digit histogram at depth ``b``.

        Entry ``k < ndigits`` is the fraction of samples whose most
        significant wrong digit is ``z_k``; entry ``ndigits`` is the
        error-free fraction.
        """
        idx = int(np.searchsorted(self.depths, b))
        if idx >= len(self.depths) or self.depths[idx] != b:
            raise KeyError(f"depth {b} was not probed")
        return self.first_error_counts[idx] / self.num_samples

    def observed_violation_probability(self) -> np.ndarray:
        """Per-depth fraction of samples with any value-level error."""
        return self.value_violations / self.num_samples

    def mean_chain_depth(self) -> float:
        """Average observed propagation-chain depth across samples."""
        d = np.arange(len(self.chain_depth_counts))
        total = self.chain_depth_counts.sum()
        if total == 0:
            return 0.0
        return float((d * self.chain_depth_counts).sum() / total)

    def model_violation_probability(self) -> np.ndarray:
        """Algorithm-2 ``Prob(T_S)`` at each probed depth.

        Depths below the model's validity floor (``b < delta``) are
        reported as 1.0 — nothing can have settled there.
        """
        model = OverclockingErrorModel(self.ndigits, self.delta)
        out = np.empty(len(self.depths), dtype=np.float64)
        for i, b in enumerate(self.depths):
            out[i] = 1.0 if b < self.delta else model.violation_probability(int(b))
        return out

    def compare_to_model(self) -> List[Dict[str, float]]:
        """Observed-vs-predicted violation probability per depth."""
        observed = self.observed_violation_probability()
        predicted = self.model_violation_probability()
        return [
            {
                "depth": int(b),
                "observed": float(o),
                "predicted": float(p),
                "abs_diff": float(abs(o - p)),
            }
            for b, o, p in zip(self.depths, observed, predicted)
        ]


# --------------------------------------------------------------- shard worker

def _probe_shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One probe shard: positional error counts as exact integers.

    Integer partials merge in shard order, so the probe result is
    independent of ``jobs`` (same guarantee as ``_mc_shard_worker``).
    """
    from repro.sim.montecarlo import settle_depths, uniform_operands
    from repro.vec.fused import stage_snapshots

    ndigits, delta = payload["ndigits"], payload["delta"]
    backend, m = payload["backend"], payload["samples"]
    s_tot = ndigits + delta
    xd, yd = uniform_operands(payload)
    with current_tracer().span("probe.simulate", backend=backend, samples=m):
        waves = stage_snapshots(
            ndigits, delta, xd, yd, range(s_tot + 1), backend
        )
    final = waves[-1]
    final_vals = digits_to_scaled_int(final)

    first_error: List[List[int]] = []
    value_viol: List[int] = []
    for b in payload["depths"]:
        sampled = waves[min(int(b), s_tot)]
        wrong = sampled != final  # (N, S) digit-level mismatch, MSD first
        any_wrong = wrong.any(axis=0)
        first = np.where(any_wrong, np.argmax(wrong, axis=0), ndigits)
        first_error.append(
            np.bincount(first, minlength=ndigits + 1).astype(int).tolist()
        )
        value_viol.append(
            int((digits_to_scaled_int(sampled) != final_vals).sum())
        )

    depth = settle_depths(waves)
    chain = np.bincount(depth, minlength=s_tot + 1).astype(int)
    return {
        "first_error": first_error,
        "value_viol": value_viol,
        "chain": chain.tolist(),
    }


# ----------------------------------------------------------- unified entry

def run_stage_probe(
    config: RunConfig,
    num_samples: int = 20000,
    depths: Optional[List[int]] = None,
    runner: Optional[ParallelRunner] = None,
) -> StageProbeResult:
    """Sharded per-stage error probe over uniform-independent inputs.

    Follows the :func:`repro.sim.montecarlo.run_montecarlo` contract:
    deterministic across ``jobs``, cached under ``config.cache_dir``,
    traced under the ambient tracer.
    """
    from repro.netlist.engines import resolve_backend
    from repro.sim.montecarlo import (
        capture_depths,
        default_depths,
        map_om_shards,
    )

    if depths is None:
        depths = default_depths(config.ndigits, config.delta)
    depths = sorted(capture_depths(depths))
    engine = resolve_backend(config.backend, "om-wave")
    runner = runner or ParallelRunner.from_config(config)

    def compute() -> StageProbeResult:
        parts = map_om_shards(
            runner, _probe_shard_worker, config, num_samples, engine,
            ("stage_probe",), depths=depths,
        )
        first_error = np.zeros(
            (len(depths), config.ndigits + 1), dtype=np.int64
        )
        for part in parts:
            first_error += np.asarray(part["first_error"], dtype=np.int64)
        value_viol = merge_int_sums([p["value_viol"] for p in parts])
        chain = merge_int_sums([p["chain"] for p in parts])
        metrics().count("probe.samples", int(num_samples))
        return StageProbeResult(
            ndigits=config.ndigits,
            delta=config.delta,
            num_samples=num_samples,
            depths=np.asarray(depths, dtype=np.int64),
            first_error_counts=first_error,
            value_violations=value_viol.astype(np.int64),
            chain_depth_counts=chain.astype(np.int64),
        )

    with current_tracer().span(
        "run.stage_probe",
        ndigits=config.ndigits,
        delta=config.delta,
        engine=engine,
        num_samples=int(num_samples),
        depths=depths,
    ):
        return run_cached(
            config,
            runner,
            "stage_probe",
            engine,
            lambda: dict(
                experiment="stage_probe",
                num_samples=int(num_samples),
                depths=depths,
                **config.describe(),
            ),
            compute,
        )
