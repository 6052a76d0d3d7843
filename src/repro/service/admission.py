"""Admission control: bounded per-class queues with load shedding.

The daemon admits a request only while its class (``montecarlo`` /
``sweep`` / ``synthesis``) has queue room; otherwise the request is shed
immediately with a ``429``-style rejection carrying a ``retry_after``
hint, so a saturated service degrades into fast, honest rejections
instead of an unbounded queue whose tail latency grows without limit.

``retry_after`` is derived from the live queue state: pending requests
ahead of the caller times an exponentially-weighted moving average of
recent service times, divided by the worker concurrency — i.e. "when a
slot is likely to free up", not a constant.

Occupancy is mirrored into gauges (``service.queue_depth`` overall,
``service.queue_depth.<class>`` per class) and every shed request counts
under ``service.shed`` plus a ``service.shed`` trace event naming the
class and depth.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer

__all__ = ["AdmissionController", "ShedRequest", "DEFAULT_LIMITS"]

#: default per-class occupancy limits (queued + running)
DEFAULT_LIMITS: Mapping[str, int] = {
    "montecarlo": 16,
    "sweep": 16,
    "synthesis": 4,
}

#: EWMA smoothing factor for the service-time estimate
EWMA_ALPHA = 0.2


class ShedRequest(Exception):
    """Raised when admission is denied; carries the retry hint."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


class AdmissionController:
    """Bounded per-class occupancy counters with a retry-after estimator.

    Parameters
    ----------
    limits:
        Per-class occupancy ceilings (queued + running requests).
    concurrency:
        Worker slots that drain the queue — the denominator of the
        retry-after estimate.
    initial_service_time:
        Seed of the service-time EWMA before any request completes.
    """

    def __init__(
        self,
        limits: Optional[Mapping[str, int]] = None,
        concurrency: int = 1,
        initial_service_time: float = 1.0,
    ) -> None:
        self.limits: Dict[str, int] = dict(
            DEFAULT_LIMITS if limits is None else limits
        )
        for cls, limit in self.limits.items():
            if limit < 1:
                raise ValueError(
                    f"limit for class {cls!r} must be >= 1, got {limit!r}"
                )
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency!r}")
        self.concurrency = concurrency
        self._lock = threading.Lock()
        self._pending: Dict[str, int] = {cls: 0 for cls in self.limits}
        self._ewma = float(initial_service_time)

    # -------------------------------------------------------------- queries
    def depth(self, cls: Optional[str] = None) -> int:
        if cls is not None:
            self._require_class(cls)
        with self._lock:
            if cls is None:
                return sum(self._pending.values())
            return self._pending[cls]

    @property
    def service_time_estimate(self) -> float:
        with self._lock:
            return self._ewma

    def _require_class(self, cls: str) -> None:
        if cls not in self.limits:
            raise ValueError(
                f"unknown request class {cls!r}; expected one of "
                f"{sorted(self.limits)}"
            )

    def _estimate_locked(self, ahead: int) -> float:
        """Retry-after estimate with *ahead* requests in front (lock held)."""
        return round(
            max(self._ewma, self._ewma * (ahead + 1) / self.concurrency),
            3,
        )

    def retry_after(self, cls: str) -> float:
        """Seconds until a slot for *cls* plausibly frees up.

        A class-limited shed waits on the *class* queue draining, so the
        estimate counts only that class's pending requests — other
        classes have their own slots and do not delay this one.
        """
        self._require_class(cls)
        with self._lock:
            return self._estimate_locked(self._pending[cls])

    # ------------------------------------------------------------ lifecycle
    def try_acquire(self, cls: str) -> None:
        """Admit one *cls* request or raise :class:`ShedRequest`."""
        self._require_class(cls)
        with self._lock:
            depth = self._pending[cls]
            if depth < self.limits[cls]:
                self._pending[cls] = depth + 1
                self._gauges()
                return
            # class queue full: the hint tracks this class's drain, not
            # total occupancy (which may be dominated by other,
            # independently-limited classes)
            reason = (
                f"queue full for class {cls!r} ({depth}/{self.limits[cls]})"
            )
            retry_after = self._estimate_locked(depth)
        metrics().count("service.shed")
        current_tracer().event(
            "service.shed", cls=cls, depth=depth, retry_after=retry_after
        )
        raise ShedRequest(reason, retry_after)

    def release(self, cls: str, service_time: Optional[float] = None) -> None:
        """Mark one *cls* request finished; fold its duration into the EWMA."""
        self._require_class(cls)
        with self._lock:
            if self._pending[cls] <= 0:
                raise RuntimeError(
                    f"release without acquire for class {cls!r}"
                )
            self._pending[cls] -= 1
            if service_time is not None and service_time >= 0:
                self._ewma = (
                    (1 - EWMA_ALPHA) * self._ewma + EWMA_ALPHA * service_time
                )
            self._gauges()

    def _gauges(self) -> None:
        """Mirror occupancy into gauges (caller holds the lock)."""
        reg = metrics()
        reg.gauge("service.queue_depth", float(sum(self._pending.values())))
        for cls, depth in self._pending.items():
            reg.gauge(f"service.queue_depth.{cls}", float(depth))
