"""Live shard-progress telemetry: progress events and their reporter.

:mod:`repro.obs.trace` and :mod:`repro.obs.metrics` materialize *after*
a run completes — a span tree is only exported once the root span
closes, a metrics snapshot is taken when the entry point returns.  A
long sweep or synthesis search is therefore unobservable in flight.
This module adds the third leg: **live, structured progress events**
emitted while the shards are still running, so the evaluation service
can stream per-shard progress to waiting clients and ``repro top`` can
render a refreshing view of a busy daemon.

Two pieces:

* :class:`ProgressEvent` — one immutable shard lifecycle transition
  (``queued`` / ``started`` / ``retried`` / ``cancelled`` /
  ``completed``) with cumulative counters and an EWMA-based ETA.
* :class:`ProgressReporter` — the stateful accumulator
  :class:`~repro.runners.parallel.ParallelRunner` feeds from its shard
  lifecycle transitions.  One reporter per run; each transition becomes
  one event handed to the reporter's ``on_event`` callable (the daemon
  passes one that hops the event onto its event loop).

Determinism contract (mirrors the tracer's): event *content* is a pure
function of the run — the multiset of ``(transition, shard, samples)``
tuples and the final cumulative counters are identical for ``jobs=1``
and ``jobs=N``; only the interleaving order of different shards'
transitions and the timing-derived ``eta_s`` field may differ across
execution layouts (pinned by ``tests/obs/test_events.py``).  Per shard
the order is always ``queued`` → ``started`` → (``retried`` →
``started``)\\* → ``completed`` | ``cancelled``, and ``shards_done`` /
``samples_done`` are monotonically non-decreasing within a run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import metrics

__all__ = [
    "TRANSITIONS",
    "ProgressEvent",
    "ProgressReporter",
]

#: shard lifecycle transitions, in per-shard order (``retried`` loops
#: back to ``started``; ``completed`` and ``cancelled`` are terminal)
TRANSITIONS = ("queued", "started", "retried", "cancelled", "completed")

#: EWMA smoothing factor of the per-sample throughput estimate
ETA_ALPHA = 0.3


@dataclass(frozen=True)
class ProgressEvent:
    """One shard lifecycle transition with cumulative run counters.

    ``eta_s`` is the only timing-derived field (wall-clock EWMA) and is
    excluded from the determinism contract; everything else is a pure
    function of the run's shard layout and outcome.
    """

    run_id: str
    experiment: str
    transition: str
    shard: int
    samples: int  # samples in this shard
    shards_done: int
    shards_total: int
    samples_done: int
    samples_total: int
    eta_s: Optional[float]
    seq: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the wire shape of a service progress frame)."""
        return {
            "run_id": self.run_id,
            "experiment": self.experiment,
            "transition": self.transition,
            "shard": self.shard,
            "samples": self.samples,
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "samples_done": self.samples_done,
            "samples_total": self.samples_total,
            "eta_s": self.eta_s,
            "seq": self.seq,
        }


class ProgressReporter:
    """Accumulates shard transitions into cumulative progress events.

    One reporter per run.  :class:`~repro.runners.parallel.ParallelRunner`
    calls the ``shard_*`` methods from its lifecycle transitions; each
    call hands one :class:`ProgressEvent` to *on_event* (None: events
    are only counted).  *on_event* runs on the shard loop's thread and
    never raises into it: an error is counted under
    ``events.callback_errors`` — a daemon's callback raises once drain
    has closed the event loop it hops onto.  Thread-safe: pool futures
    complete on the collecting thread, inline shards on the caller's —
    both may interleave with a service thread snapshotting.

    ``begin`` *accumulates* totals rather than resetting them, so a run
    that maps several task batches (synthesis verifies many candidate
    groups) keeps ``shards_done`` monotonically non-decreasing across
    the whole run — the property clients key their progress bars on.
    """

    def __init__(
        self,
        experiment: str = "",
        run_id: str = "",
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        self.experiment = experiment
        self.run_id = run_id
        self.on_event = on_event
        self._lock = threading.Lock()
        self._seq = 0
        self.shards_total = 0
        self.samples_total = 0
        self.shards_done = 0
        self.samples_done = 0
        self._ewma_rate: Optional[float] = None  # samples per second

    # ------------------------------------------------------------ lifecycle
    def begin(self, num_shards: int, num_samples: int) -> None:
        """Announce one batch of shards (additive across batches)."""
        with self._lock:
            self.shards_total += int(num_shards)
            self.samples_total += int(num_samples)

    def shard_queued(self, shard: int, samples: int) -> None:
        self._publish("queued", shard, samples)

    def shard_started(self, shard: int, samples: int) -> None:
        self._publish("started", shard, samples)

    def shard_retried(self, shard: int, samples: int) -> None:
        self._publish("retried", shard, samples)

    def shard_cancelled(self, shard: int, samples: int) -> None:
        self._publish("cancelled", shard, samples)

    def shard_completed(
        self, shard: int, samples: int, elapsed: Optional[float] = None
    ) -> None:
        with self._lock:
            self.shards_done += 1
            self.samples_done += int(samples)
            if elapsed is not None and elapsed > 0 and samples:
                rate = samples / elapsed
                if self._ewma_rate is None:
                    self._ewma_rate = rate
                else:
                    self._ewma_rate = (
                        (1 - ETA_ALPHA) * self._ewma_rate + ETA_ALPHA * rate
                    )
        self._publish("completed", shard, samples)

    # ------------------------------------------------------------ reporting
    def eta_seconds(self) -> Optional[float]:
        """EWMA-based seconds-to-completion estimate (None until one
        shard has completed — no fabricated ETAs)."""
        with self._lock:
            if self._ewma_rate is None or self._ewma_rate <= 0:
                return None
            remaining = self.samples_total - self.samples_done
            if remaining <= 0:
                return 0.0
            return remaining / self._ewma_rate

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able cumulative state (what ``statsz`` exposes)."""
        with self._lock:
            done, total = self.shards_done, self.shards_total
            sdone, stotal = self.samples_done, self.samples_total
        return {
            "run_id": self.run_id,
            "experiment": self.experiment,
            "shards_done": done,
            "shards_total": total,
            "samples_done": sdone,
            "samples_total": stotal,
            "eta_s": self.eta_seconds(),
        }

    # ------------------------------------------------------------ internals
    def _publish(self, transition: str, shard: int, samples: int) -> None:
        eta = self.eta_seconds()
        with self._lock:
            self._seq += 1
            event = ProgressEvent(
                run_id=self.run_id,
                experiment=self.experiment,
                transition=transition,
                shard=int(shard),
                samples=int(samples),
                shards_done=self.shards_done,
                shards_total=self.shards_total,
                samples_done=self.samples_done,
                samples_total=self.samples_total,
                eta_s=round(eta, 3) if eta is not None else None,
                seq=self._seq,
            )
        metrics().count("events.published")
        if self.on_event is not None:
            try:
                self.on_event(event)
            except Exception:
                metrics().count("events.callback_errors")
