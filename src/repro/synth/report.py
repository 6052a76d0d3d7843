""":class:`SynthesisReport` — the serializable output of the synthesizer.

One report captures everything :func:`repro.synth.search.run_synthesis`
decided: the candidate grid totals (how many design points existed, how
many the analytical model pruned, how many were verified on the vector
engine), the verified points themselves (discrete metadata in ``points``,
float measurements in parallel numpy arrays at a declared dtype), the
latency-accuracy Pareto front, and the chosen assignment.

The class implements the :mod:`repro.runners.results` protocol
(``kind = "synthesis"``), so reports round-trip bit-exactly through the
on-disk :class:`~repro.runners.cache.ResultCache` — including non-finite
values: an error-free candidate measures ``snr_db = inf``, and Python's
JSON encoder, which writes every cache entry, preserves ``inf``/``nan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional

import numpy as np

from repro.runners.results import register_result

__all__ = ["SynthesisReport"]


@register_result
@dataclass(eq=False)
class SynthesisReport:
    """Latency-accuracy synthesis outcome for one datapath.

    Parameters
    ----------
    graph:
        The :meth:`repro.core.synthesis.Datapath.to_graph` dict the
        search ran on (kept in the report so a chosen assignment can be
        replayed without the original ``Datapath`` object).
    target_metric / target_value:
        The accuracy bound: ``"mre"`` (percent, upper bound) or
        ``"snr"`` (dB, lower bound).
    points:
        One dict per *verified* candidate, in deterministic search
        order: ``{"assignment": {label: spec}, "ndigits": n, "b": depth,
        "period": float, "latency_stages": int, "pipeline_depth": int,
        "area_luts": int, "meets_target": bool, "on_front": bool,
        "within_tolerance": bool, "predicted_mre_percent": float,
        "measured_mre_percent": float}``.
    predicted_abs_error / measured_abs_error / measured_snr_db /
    latency_gates:
        Float arrays parallel to ``points``.
    candidates_total / candidates_pruned / candidates_verified:
        Grid accounting: ``total = pruned + verified``.
    chosen:
        Index into ``points`` of the selected design (minimum latency
        among target-meeting points; area breaks ties), or ``-1``.
    modules:
        Per-module prediction rows for the chosen design.
    """

    graph: Dict[str, Any]
    target_metric: str
    target_value: float
    points: List[Dict[str, Any]]
    predicted_abs_error: np.ndarray
    measured_abs_error: np.ndarray
    measured_snr_db: np.ndarray
    latency_gates: np.ndarray
    candidates_total: int
    candidates_pruned: int
    candidates_verified: int
    chosen: int = -1
    modules: List[Dict[str, Any]] = field(default_factory=list)
    delta: int = 3
    num_samples: int = 0
    seed: int = 0
    ref_frac: int = 0

    kind: ClassVar[str] = "synthesis"
    _array_fields: ClassVar[Dict[str, str]] = {
        "predicted_abs_error": "float64",
        "measured_abs_error": "float64",
        "measured_snr_db": "float64",
        "latency_gates": "float64",
    }

    def __post_init__(self) -> None:
        self.graph = dict(self.graph)
        self.target_metric = str(self.target_metric)
        self.target_value = float(self.target_value)
        self.points = [dict(p) for p in self.points]
        self.modules = [dict(m) for m in self.modules]
        for name in ("candidates_total", "candidates_pruned",
                     "candidates_verified", "chosen", "delta",
                     "num_samples", "seed", "ref_frac"):
            setattr(self, name, int(getattr(self, name)))
        for name, dtype in self._array_fields.items():
            values = np.asarray(getattr(self, name), dtype=dtype)
            if len(values) != len(self.points):
                raise ValueError(
                    f"{name} must parallel points "
                    f"({len(values)} != {len(self.points)})"
                )
            setattr(self, name, values)
        self.run_stats = None  # attached by run_synthesis, not serialized

    # ------------------------------------------------------------- views
    def design_points(self) -> List[Dict[str, Any]]:
        """Points with their array measurements folded back in."""
        rows = []
        for i, point in enumerate(self.points):
            row = dict(point)
            for name in self._array_fields:
                row[name] = float(getattr(self, name)[i])
            rows.append(row)
        return rows

    def pareto_front(self) -> List[Dict[str, Any]]:
        """The non-dominated (latency, measured error) points."""
        return [p for p in self.design_points() if p["on_front"]]

    @property
    def chosen_point(self) -> Optional[Dict[str, Any]]:
        if self.chosen < 0:
            return None
        return self.design_points()[self.chosen]

    @property
    def chosen_assignment(self) -> Optional[Dict[str, str]]:
        point = self.chosen_point
        return None if point is None else dict(point["assignment"])

    def meets_target(self, i: int) -> bool:
        """Whether verified point *i* satisfies the accuracy bound."""
        if self.target_metric == "snr":
            return float(self.measured_snr_db[i]) >= self.target_value
        mre = self.points[i]["measured_mre_percent"]
        return float(mre) <= self.target_value

    # ----------------------------------------------------------- display
    def summary(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        bound = "<=" if self.target_metric == "mre" else ">="
        unit = "%" if self.target_metric == "mre" else " dB"
        lines = [
            f"synthesis: {len(self.points)} verified / "
            f"{self.candidates_pruned} pruned / "
            f"{self.candidates_total} candidates "
            f"(target {self.target_metric} {bound} "
            f"{self.target_value:g}{unit})",
        ]
        for i, row in enumerate(self.design_points()):
            if not row["on_front"]:
                continue
            marks = "*" if i == self.chosen else " "
            assign = ",".join(
                f"{k}={v}" for k, v in sorted(row["assignment"].items())
            )
            mre = row["measured_mre_percent"]
            pred = row["predicted_mre_percent"]
            lines.append(
                f" {marks} n={row['ndigits']} b={row['b']} "
                f"latency={row['latency_gates']:.1f}g "
                f"area={row['area_luts']} "
                f"mre={mre:.4f}% (pred {pred:.4f}%) "
                f"[{assign}]"
            )
        if self.chosen < 0:
            lines.append("  no candidate meets the target")
        return "\n".join(lines)
