"""Plain-text rendering of traces and metric snapshots.

Backs the ``repro trace`` and ``repro stats`` subcommands.  Like
:mod:`repro.sim.reporting`, output is aligned ASCII with grep-friendly
``key=value`` fragments — no plotting or terminal-control dependencies.

The "last trace" pointer lets ``repro trace --last`` / ``repro stats``
find the JSONL file the most recent traced command wrote without the
user re-typing the path: each traced CLI run records its sink path in
``$REPRO_STATE_DIR/last_trace`` (default ``.repro/last_trace`` under the
working directory).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import HISTOGRAM_BUCKETS

#: environment variable overriding where the last-trace pointer lives
STATE_DIR_ENV = "REPRO_STATE_DIR"

#: pointer file name inside the state directory
LAST_TRACE_NAME = "last_trace"


# ----------------------------------------------------------- state pointer

def state_dir() -> Path:
    """Directory holding cross-invocation CLI state (pointer files)."""
    override = os.environ.get(STATE_DIR_ENV)
    if override:
        return Path(override)
    return Path.cwd() / ".repro"


def record_last_trace(sink: os.PathLike) -> None:
    """Remember *sink* as the most recent trace file (best effort)."""
    try:
        directory = state_dir()
        directory.mkdir(parents=True, exist_ok=True)
        (directory / LAST_TRACE_NAME).write_text(
            os.fspath(Path(sink).resolve()) + "\n"
        )
    except OSError:
        pass  # a read-only working directory must not fail the run


def last_trace_path() -> Optional[Path]:
    """Path recorded by the most recent traced run, or None."""
    pointer = state_dir() / LAST_TRACE_NAME
    try:
        text = pointer.read_text().strip()
    except OSError:
        return None
    return Path(text) if text else None


# ---------------------------------------------------------------- loading

def load_trace(path: os.PathLike) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file; skips blank and truncated lines."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a crashed writer's torn final line
    return records


def span_tree(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Arrange span records into root-span forest (children nested).

    Returns the roots; each node gains a ``children`` list sorted by
    start time, and an ``events`` list of the point events attached to
    it.  Orphans (parent id absent from the record set) are treated as
    roots so a partial trace still renders.
    """
    spans: Dict[str, Dict[str, Any]] = {}
    events: List[Dict[str, Any]] = []
    for record in records:
        if record.get("type") == "span":
            node = dict(record)
            node["children"] = []
            node["events"] = []
            spans[node["id"]] = node
        elif record.get("type") == "event":
            events.append(record)
    roots: List[Dict[str, Any]] = []
    for node in spans.values():
        parent = spans.get(node.get("parent"))
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    for event in events:
        owner = spans.get(event.get("span"))
        if owner is not None:
            owner["events"].append(event)
    for node in spans.values():
        node["children"].sort(key=lambda n: (n.get("start", 0.0), n["id"]))
        node["events"].sort(key=lambda e: e.get("t", 0.0))
    roots.sort(key=lambda n: (n.get("start", 0.0), n["id"]))
    return roots


def normalized_tree(records: Iterable[Dict[str, Any]]) -> List[Any]:
    """Timing-free structural view of a trace, for equality testing.

    Each span becomes ``(name, sorted attrs, [children...])`` with
    children sorted by that same normal form — so two traces of the same
    run compare equal regardless of shard completion order, span ids, or
    clock values.  Events become ``("event:" + name, sorted attrs, [])``
    children of their span.
    """

    def norm(node: Dict[str, Any]) -> Any:
        kids = [norm(child) for child in node["children"]]
        kids += [
            (
                "event:" + event["name"],
                tuple(sorted(event.get("attrs", {}).items())),
                (),
            )
            for event in node["events"]
        ]
        kids.sort(key=repr)
        return (
            node["name"],
            tuple(sorted(node.get("attrs", {}).items())),
            tuple(kids),
        )

    forest = [norm(root) for root in span_tree(records)]
    forest.sort(key=repr)
    return forest


# -------------------------------------------------------------- rendering

def render_trace(records: List[Dict[str, Any]], show_events: bool = True) -> str:
    """Render a trace as an indented span tree with durations."""
    if not records:
        return "(empty trace)"
    lines: List[str] = []

    def emit(node: Dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        attrs = " ".join(
            f"{k}={_fmt_attr(v)}" for k, v in sorted(node.get("attrs", {}).items())
        )
        dur = node.get("dur", 0.0)
        lines.append(
            f"{indent}{node['name']}  [{dur * 1e3:.1f} ms]"
            + (f"  {attrs}" if attrs else "")
        )
        if show_events:
            for event in node["events"]:
                eattrs = " ".join(
                    f"{k}={_fmt_attr(v)}"
                    for k, v in sorted(event.get("attrs", {}).items())
                )
                lines.append(
                    f"{indent}  * {event['name']}"
                    + (f"  {eattrs}" if eattrs else "")
                )
        for child in node["children"]:
            emit(child, depth + 1)

    for root in span_tree(records):
        emit(root, 0)
    num_spans = sum(1 for r in records if r.get("type") == "span")
    num_events = sum(1 for r in records if r.get("type") == "event")
    lines.append(f"({num_spans} spans, {num_events} events)")
    return "\n".join(lines)


def _fmt_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "[" + ",".join(_fmt_attr(v) for v in value) + "]"
    return str(value)


def render_metrics(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as aligned text."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    hists = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name.ljust(width)}  {counters[name]}")
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name.ljust(width)}  {gauges[name]:.4g}")
    if hists:
        lines.append("histograms:")
        for name in sorted(hists):
            buckets = hists[name]
            parts = []
            for bound, count in zip(HISTOGRAM_BUCKETS, buckets):
                if count:
                    label = "inf" if bound == float("inf") else str(int(bound))
                    parts.append(f"<={label}:{count}")
            lines.append(f"  {name}  {' '.join(parts) or '(empty)'}")
    derived = derived_metrics(snapshot)
    if derived:
        lines.append("derived:")
        width = max(len(name) for name in derived)
        for name in sorted(derived):
            lines.append(f"  {name.ljust(width)}  {derived[name]:.4g}")
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def derived_metrics(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Ratios computed from raw counters (cache hit ratio etc.)."""
    counters = snapshot.get("counters", {})
    out: Dict[str, float] = {}
    for prefix in ("cache", "compile_cache"):
        hits = counters.get(f"{prefix}.hits", 0)
        misses = counters.get(f"{prefix}.misses", 0)
        if hits + misses:
            out[f"{prefix}.hit_ratio"] = hits / (hits + misses)
    return out


#: counters surfaced on the `repro top` screen, with display labels
_TOP_COUNTERS = (
    ("requests", "service.requests"),
    ("cache short-circuits", "service.cache_short_circuit"),
    ("coalesce hits", "service.coalesce_hits"),
    ("shed", "service.shed"),
    ("progress frames", "service.progress_frames"),
    ("events published", "events.published"),
)


def _progress_bar(done: int, total: int, width: int = 20) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(done, total) / total))
    return "#" * filled + "-" * (width - filled)


def render_top(statsz: Dict[str, Any]) -> str:
    """One-screen view of a daemon's ``statsz`` payload (``repro top``).

    Shows drain state, per-class queue depths, the counters an
    operator actually watches (with cache hit ratios derived the same
    way ``repro stats`` derives them), and a progress bar per in-flight
    run from the live shard-progress snapshots.
    """
    lines: List[str] = []
    draining = "yes" if statsz.get("draining") else "no"
    est = float(statsz.get("service_time_estimate", 0.0) or 0.0)
    lines.append(
        f"draining={draining}  inflight_keys={statsz.get('inflight_keys', 0)}"
        f"  service_time~{est:.3g}s"
    )
    depths = statsz.get("queue_depths") or {}
    if depths:
        parts = [f"{cls}={depths[cls]}" for cls in sorted(depths)]
        lines.append(
            f"queues: total={statsz.get('queue_depth', 0)}  "
            + "  ".join(parts)
        )
    snapshot = statsz.get("metrics") or {}
    counters = snapshot.get("counters", {})
    rows = [
        (label, counters[name])
        for label, name in _TOP_COUNTERS
        if name in counters
    ]
    if rows:
        lines.append("counters:")
        width = max(len(label) for label, _ in rows)
        for label, value in rows:
            lines.append(f"  {label.ljust(width)}  {value}")
    derived = derived_metrics(snapshot)
    if derived:
        parts = [f"{name}={derived[name]:.3f}" for name in sorted(derived)]
        lines.append("derived: " + "  ".join(parts))
    progress = statsz.get("progress") or {}
    if progress:
        lines.append("runs:")
        for key in sorted(progress):
            snap = progress[key]
            done = int(snap.get("shards_done", 0))
            total = int(snap.get("shards_total", 0))
            eta = snap.get("eta_s")
            eta_text = "eta=?" if eta is None else f"eta={float(eta):.1f}s"
            lines.append(
                f"  {key[:12]:<12}  {str(snap.get('experiment', '?')):<10} "
                f"[{_progress_bar(done, total)}] {done}/{total} shards  "
                f"{snap.get('samples_done', 0)}/{snap.get('samples_total', 0)}"
                f" samples  {eta_text}"
            )
    else:
        lines.append("runs: (idle)")
    return "\n".join(lines)


def latest_metrics_snapshot(
    records: Iterable[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """The last ``{"type": "metrics"}`` record in a trace, if any."""
    snapshot = None
    for record in records:
        if record.get("type") == "metrics":
            snapshot = record.get("snapshot")
    return snapshot
