"""Plain-text table rendering for the benchmark harnesses.

Every benchmark prints rows in the same layout as the corresponding paper
table/figure so EXPERIMENTS.md can be filled by copy-paste.  No plotting
dependencies: series data is printed as aligned columns.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 1e-3:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's summary column); ignores None entries."""
    vals = [v for v in values if v is not None]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def percent(value: float) -> str:
    """Format a ratio as a percentage string."""
    return f"{100.0 * value:.2f}%"


def format_run_stats(stats) -> str:
    """One grep-friendly line of runner statistics.

    *stats* is the :class:`repro.runners.RunStats` a ``run_*`` entry
    point attaches to its result as ``run_stats``.  ``key=value`` pairs
    on a fixed ``[runner]`` prefix so CI scripts can assert on e.g.
    ``cache=hit`` with a plain grep.
    """
    fields = [
        f"experiment={stats.experiment or '<unknown>'}",
        f"jobs={stats.jobs}",
        f"shards={stats.num_shards}",
        f"samples={stats.samples}",
        f"elapsed={stats.elapsed:.3f}s",
        f"samples/s={stats.samples_per_second:.0f}",
        f"cache={stats.cache}",
    ]
    engine = getattr(stats, "engine", None)
    if engine:
        fields.append(f"engine={engine}")
    if stats.retries:
        fields.append(f"retries={stats.retries}")
    if getattr(stats, "timeouts", 0):
        fields.append(f"timeouts={stats.timeouts}")
    if stats.degraded:
        fields.append("degraded=inline")
        reason = getattr(stats, "degrade_reason", None)
        if reason:
            fields.append(f'degrade_reason="{reason}"')
    return "[runner] " + " ".join(fields)


def format_fault_stats(stats) -> str:
    """One grep-friendly line of fault-injection statistics.

    *stats* is the :class:`repro.faults.FaultStats` a fault campaign
    attaches to its result as ``fault_stats``.  Same ``key=value``
    layout as :func:`format_run_stats`, on a ``[faults]`` prefix, so CI
    scripts can assert on e.g. ``resumed=0`` with a plain grep.
    """
    fields = [f"model={stats.model or '<unknown>'}"]
    for kind in sorted(stats.injected):
        fields.append(f"{kind}={stats.injected[kind]}")
    if stats.stuck_gates:
        fields.append(f"stuck_gates={stats.stuck_gates}")
    if stats.drifted_gates:
        fields.append(f"drifted_gates={stats.drifted_gates}")
    fields.append(f"shards={stats.shards_total}")
    fields.append(f"resumed={stats.shards_resumed}")
    fields.append(f"retried={stats.shards_retried}")
    if stats.shards_timed_out:
        fields.append(f"timed_out={stats.shards_timed_out}")
    return "[faults] " + " ".join(fields)
