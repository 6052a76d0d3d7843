"""Sharded multi-process execution of batch experiments.

The execution model every ``run_*`` entry point shares:

1. **Shard** the sample budget into fixed-size shards
   (:func:`split_samples`) — shard layout depends only on
   ``(num_samples, shard_size)``, never on ``jobs``.
2. **Spawn** one child seed per shard with
   :meth:`numpy.random.SeedSequence.spawn` (:func:`spawn_seeds`), keyed
   by the master seed plus a stable per-experiment tag
   (:func:`seed_tag`), so different experiments sharing one master seed
   draw independent streams.
3. **Map** a picklable worker over the shard payloads with
   :meth:`ParallelRunner.map` — in-process when ``jobs <= 1``, over a
   :class:`~concurrent.futures.ProcessPoolExecutor` private to that
   ``map`` call otherwise.
4. **Merge** the per-shard partial sums *in shard-index order* — float
   accumulation order is fixed, so the merged statistics are
   bit-identical for ``jobs=1`` and ``jobs=N``.

Failure semantics: a worker-process crash (``BrokenProcessPool``) or a
shard exceeding the per-shard wall-clock budget (``shard_timeout``) is
retried with exponential backoff on a fresh pool — the old pool is
abandoned without waiting, since a hung worker would block a graceful
shutdown indefinitely.  After ``max_pool_failures`` consecutive pool
losses the runner *degrades to in-process execution* for the remaining
shards, so a broken multiprocessing environment can slow an experiment
down but never fail it.  Every pool loss records *why* — the triggering
exception or timeout — in ``RunStats.failure_reasons`` (the degrade
decision additionally in ``RunStats.degrade_reason``) and as a
``pool.failure`` / ``pool.degraded`` trace event, so a degraded run is
diagnosable after the fact.  Ordinary exceptions raised by the worker
function are not retried — they are deterministic and would fail
in-process too — and propagate to the caller.

Cancellation is a *fourth* outcome, distinct from all of the above: a
caller holding the runner's :class:`CancelToken` (the service layer's
per-request deadline path) may cancel a run mid-flight.  The runner then
abandons its pool exactly like a timeout — without waiting on hung
workers — but the event is **not** a pool failure: it does not increment
``RunStats.pool_failures`` / ``retries``, appends nothing to
``failure_reasons``, and counts under the ``pool.cancelled`` metric
rather than ``pool.retries``/``pool.timeouts``.  :meth:`ParallelRunner.map`
raises :class:`RunCancelled` to the caller; partial results are
discarded.

Observability: each shard runs under a ``shard`` span.  With ``jobs >
1`` the worker process buffers its spans (it cannot share the parent's
sink) and ships them back with the result; the parent synthesizes the
shard span and re-parents the worker records under it
(:func:`repro.obs.trace.Tracer.absorb`), so the exported span tree has
the same shape regardless of execution layout.  Worker-side metric
counters ship back the same way and fold into the parent registry.

:class:`RunStats` records per-shard timing, throughput and cache
outcome; entry points attach it to their result as ``run_stats`` and
:func:`repro.sim.reporting.format_run_stats` renders it.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.events import ProgressReporter
from repro.obs.metrics import metrics
from repro.obs.trace import (
    current_tracer,
    run_traced_worker,
    worker_trace_context,
)

#: consecutive pool losses tolerated before degrading to in-process runs
DEFAULT_MAX_POOL_FAILURES = 2

#: base backoff (seconds) between pool rebuilds; doubles per failure
DEFAULT_BACKOFF = 0.1

#: polling granularity (seconds) while awaiting pool futures under a
#: cancel token — bounds how late a cancellation is noticed
CANCEL_POLL_INTERVAL = 0.05


class RunCancelled(RuntimeError):
    """A run was cancelled through its :class:`CancelToken`.

    Deliberately *not* a pool failure: the runner abandons its pool but
    records no ``pool.failure`` metrics or failure reasons — see the
    module docstring's failure-semantics contract.
    """


class CancelToken:
    """Thread-safe one-shot cancellation flag for a :class:`ParallelRunner`.

    The service layer holds the token on its side of the thread boundary
    and fires it when a request deadline expires; the runner checks it
    between inline shards and while polling pool futures.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Fire the token (idempotent; the first reason wins)."""
        if not self._event.is_set():
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def split_samples(num_samples: int, shard_size: int) -> List[int]:
    """Deterministic shard sizes: full shards then the remainder.

    Depends only on its arguments — in particular not on ``jobs`` — which
    is half of the bit-identical-merge guarantee (the other half is the
    ordered accumulation in the merge step).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    full, rest = divmod(num_samples, shard_size)
    sizes = [shard_size] * full
    if rest:
        sizes.append(rest)
    return sizes


def seed_tag(name: str) -> int:
    """Stable 32-bit tag for an experiment name (seed-stream separation)."""
    return int.from_bytes(
        hashlib.blake2b(name.encode(), digest_size=4).digest(), "big"
    )


def spawn_seeds(
    seed: int, nshards: int, *tags: int
) -> List[np.random.SeedSequence]:
    """One independent child :class:`~numpy.random.SeedSequence` per shard.

    The parent entropy is ``(seed, *tags)``; tags (from :func:`seed_tag`)
    keep experiments that share a master seed on independent streams.
    """
    parent = np.random.SeedSequence([int(seed)] + [int(t) for t in tags])
    return list(parent.spawn(nshards))


@dataclass
class ShardStat:
    """Timing record of one executed shard."""

    index: int
    samples: int
    elapsed: float
    where: str  # "pool" | "inline"


@dataclass
class RunStats:
    """Execution statistics of one ``run_*`` invocation."""

    experiment: str = ""
    jobs: int = 1
    samples: int = 0
    elapsed: float = 0.0
    cache: str = "off"  # "off" | "miss" | "hit"
    engine: Optional[str] = None  # engine that ran the shards; None on a hit
    pool_failures: int = 0
    retries: int = 0
    timeouts: int = 0
    cancelled: bool = False
    degraded: bool = False
    degrade_reason: Optional[str] = None
    failure_reasons: List[str] = field(default_factory=list)
    shards: List[ShardStat] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def samples_per_second(self) -> float:
        if self.elapsed <= 0:
            return float("inf") if self.samples else 0.0
        return self.samples / self.elapsed


def _timed_call(
    fn: Callable[[Any], Any],
    task: Any,
    trace_ctx: Optional[Dict[str, Any]] = None,
    ship_metrics: bool = False,
):
    """Run one shard; returns ``(result, dt, trace_records, counter_delta)``.

    *trace_ctx* (from :func:`worker_trace_context`) makes the call buffer
    its spans for the parent to absorb.  *ship_metrics* is set on pool
    submissions only: it snapshots the worker-process counter deltas so
    the parent can fold them into its registry — inline calls bump the
    parent registry directly and must not ship (double counting).
    """
    before = metrics().snapshot()["counters"] if ship_metrics else None
    t0 = time.perf_counter()
    result, records = run_traced_worker(trace_ctx, fn, task)
    dt = time.perf_counter() - t0
    delta = None
    if before is not None:
        after = metrics().snapshot()["counters"]
        delta = {
            name: count - before.get(name, 0)
            for name, count in after.items()
            if count != before.get(name, 0)
        }
    return result, dt, records, delta


class ParallelRunner:
    """Order-preserving parallel map with crash retry and inline fallback.

    Parameters
    ----------
    jobs:
        Worker processes; ``jobs <= 1`` runs everything in-process.
    max_pool_failures:
        Pool losses (crash or shard timeout) tolerated before degrading
        to in-process execution.
    backoff:
        Base sleep between pool rebuilds (doubles per consecutive loss).
    shard_timeout:
        Wall-clock budget in seconds a shard may spend in the pool
        before its whole pool is abandoned and the missing shards are
        retried; None (the default) waits forever.  The budget is *at
        least* semantics: shards are awaited in index order, so a
        shard's clock only starts once every earlier shard has been
        collected.  Timed-out shards eventually run to completion
        in-process (which cannot hang on a lost worker), preserving the
        never-fail guarantee.
    cancel_token:
        Optional :class:`CancelToken` another thread may fire to abort
        the run: :meth:`map` then raises :class:`RunCancelled` (after
        abandoning any pool without waiting).  A cancel is not a pool
        failure — it records the ``pool.cancelled`` metric and sets
        ``stats.cancelled``, but never touches ``pool_failures`` /
        ``retries`` / ``failure_reasons``.
    progress:
        Optional :class:`~repro.obs.events.ProgressReporter` fed from
        every shard lifecycle transition (``queued`` / ``started`` /
        ``retried`` / ``cancelled`` / ``completed``); the service
        attaches one keyed by the request's content address so clients
        can stream per-shard progress.  None (the default) publishes
        nothing and costs one attribute check per transition site.
    """

    def __init__(
        self,
        jobs: int = 1,
        max_pool_failures: int = DEFAULT_MAX_POOL_FAILURES,
        backoff: float = DEFAULT_BACKOFF,
        shard_timeout: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive or None, got {shard_timeout!r}"
            )
        self.jobs = jobs
        self.max_pool_failures = max_pool_failures
        self.backoff = backoff
        self.shard_timeout = shard_timeout
        self.cancel_token = cancel_token
        self.progress = progress
        self.stats = RunStats(jobs=jobs)

    @classmethod
    def from_config(cls, config) -> "ParallelRunner":
        return cls(
            jobs=config.jobs,
            shard_timeout=getattr(config, "shard_timeout", None),
        )

    # ----------------------------------------------------------------- map
    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        samples: Optional[Sequence[int]] = None,
    ) -> List[Any]:
        """Apply *fn* to every task; results return in task order.

        *fn* and each task must be picklable when ``jobs > 1`` (module-
        level worker functions with plain-data payloads).  *samples*
        optionally annotates each task's sample count for the stats.
        """
        tasks = list(tasks)
        counts = list(samples) if samples is not None else [0] * len(tasks)
        if len(counts) != len(tasks):
            raise ValueError("samples must parallel tasks")
        self.stats = RunStats(jobs=self.jobs)
        t_start = time.perf_counter()
        results: List[Any] = [None] * len(tasks)

        remaining = set(range(len(tasks)))
        progress = self.progress
        if progress is not None:
            progress.begin(len(tasks), sum(counts))
            for i in range(len(tasks)):
                progress.shard_queued(i, counts[i])
        try:
            if self.jobs > 1 and len(tasks) > 1:
                self._map_pool(fn, tasks, counts, results, remaining)
            tracer = current_tracer()
            for i in sorted(remaining):
                self._check_cancel()
                if progress is not None:
                    progress.shard_started(i, counts[i])
                if tracer.enabled:
                    with tracer.span("shard", shard=i, samples=counts[i]):
                        res, dt, _, _ = _timed_call(fn, tasks[i])
                else:
                    res, dt, _, _ = _timed_call(fn, tasks[i])
                results[i] = res
                remaining.discard(i)
                self.stats.shards.append(
                    ShardStat(i, counts[i], dt, "inline")
                )
                if progress is not None:
                    progress.shard_completed(i, counts[i], dt)
        except RunCancelled:
            # terminal `cancelled` transition for every shard that did
            # not complete — clients see an explicit end, not silence
            if progress is not None:
                for i in sorted(remaining):
                    progress.shard_cancelled(i, counts[i])
            raise
        self.stats.samples = sum(counts)
        self.stats.elapsed = time.perf_counter() - t_start
        return results

    def _check_cancel(self) -> None:
        """Raise :class:`RunCancelled` if the cancel token has fired.

        Records the cancellation (``pool.cancelled`` metric,
        ``stats.cancelled``) exactly once — the raise aborts the run, so
        this cannot re-fire.  Deliberately does *not* touch the pool
        failure accounting (``pool_failures``/``retries``/
        ``failure_reasons``): a request-level cancel is not a pool loss.
        """
        token = self.cancel_token
        if token is None or not token.cancelled:
            return
        reason = token.reason or "cancelled"
        self.stats.cancelled = True
        metrics().count("pool.cancelled")
        current_tracer().event("pool.cancelled", reason=reason)
        raise RunCancelled(reason)

    def _await_future(self, future):
        """Collect one pool future under the shard timeout and cancel token.

        Without a cancel token this is a plain ``result(shard_timeout)``
        wait; with one, the wait polls at :data:`CANCEL_POLL_INTERVAL`
        so a cancellation fired mid-shard is noticed promptly.
        """
        if self.cancel_token is None:
            return future.result(timeout=self.shard_timeout)
        deadline = (
            None
            if self.shard_timeout is None
            else time.monotonic() + self.shard_timeout
        )
        while True:
            self._check_cancel()
            wait = CANCEL_POLL_INTERVAL
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    raise FutureTimeoutError()
            try:
                return future.result(timeout=wait)
            except FutureTimeoutError:
                if deadline is not None and time.monotonic() >= deadline:
                    raise

    def _map_pool(
        self,
        fn: Callable[[Any], Any],
        tasks: List[Any],
        counts: List[int],
        results: List[Any],
        remaining: set,
    ) -> None:
        """Pool execution with crash/timeout retry; failures stay in *remaining*."""
        tracer = current_tracer()
        progress = self.progress
        reason: Optional[str] = None
        while remaining and self.stats.pool_failures < self.max_pool_failures:
            pool = ProcessPoolExecutor(max_workers=self.jobs)
            try:
                futures = {
                    i: pool.submit(
                        _timed_call, fn, tasks[i], worker_trace_context(i), True
                    )
                    for i in sorted(remaining)
                }
                if progress is not None:
                    for i in futures:
                        progress.shard_started(i, counts[i])
                for i, future in futures.items():
                    res, dt, records, delta = self._await_future(future)
                    results[i] = res
                    remaining.discard(i)
                    self.stats.shards.append(
                        ShardStat(i, counts[i], dt, "pool")
                    )
                    if delta:
                        metrics().merge_counters(delta)
                    if progress is not None:
                        progress.shard_completed(i, counts[i], dt)
                    if tracer.enabled:
                        span_id = tracer.add_span(
                            "shard",
                            start=0.0,
                            end=dt,
                            shard=i,
                            samples=counts[i],
                        )
                        tracer.absorb(records, parent=span_id)
            except FutureTimeoutError:
                self.stats.timeouts += 1
                metrics().count("pool.timeouts")
                reason = (
                    f"shard exceeded shard_timeout={self.shard_timeout}s"
                )
            except BrokenProcessPool as exc:
                reason = f"BrokenProcessPool: {exc}"
            except BaseException:
                # a cancellation (or a deterministic worker error) is not
                # a pool loss: abandon the pool without counting it
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            else:
                pool.shutdown(wait=True)
                return
            # abandon the lost pool without waiting: a hung worker would
            # block a graceful shutdown for as long as it hangs
            pool.shutdown(wait=False, cancel_futures=True)
            self.stats.pool_failures += 1
            self.stats.retries += 1
            self.stats.failure_reasons.append(reason)
            if progress is not None:
                # the shards lost with the pool will run again — either
                # on the next pool or degraded inline
                for i in sorted(remaining):
                    progress.shard_retried(i, counts[i])
            metrics().count("pool.retries")
            tracer.event(
                "pool.failure",
                reason=reason,
                failures=self.stats.pool_failures,
                remaining=len(remaining),
            )
            if self.stats.pool_failures >= self.max_pool_failures:
                break
            time.sleep(
                self.backoff * (2 ** (self.stats.pool_failures - 1))
            )
        if remaining:
            self.stats.degraded = True
            self.stats.degrade_reason = reason
            metrics().count("pool.degraded")
            tracer.event(
                "pool.degraded",
                reason=reason,
                remaining=len(remaining),
            )

    # --------------------------------------------------------------- stats
    def finalize_stats(
        self,
        experiment: str,
        cache: str = "off",
        engine: Optional[str] = None,
    ) -> RunStats:
        """Label the stats of the last :meth:`map` call and return them.

        *engine* is the resolved engine that computed the shards; a cache
        hit computed none, so its stats carry ``engine=None``.  When the
        run actually executed shards (``elapsed > 0``), records
        throughput gauges — per experiment, and per engine.
        """
        self.stats.experiment = experiment
        self.stats.cache = cache
        self.stats.engine = None if cache == "hit" else engine
        if self.stats.elapsed > 0 and self.stats.samples:
            rate = self.stats.samples_per_second
            metrics().gauge(f"samples_per_sec.{experiment}", rate)
            if self.stats.engine:
                metrics().gauge(f"samples_per_sec.{self.stats.engine}", rate)
        return self.stats


def merge_float_sums(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sum per-shard float arrays in shard order (deterministic merge)."""
    total = np.zeros_like(np.asarray(parts[0], dtype=np.float64))
    for part in parts:
        total = total + np.asarray(part, dtype=np.float64)
    return total


def merge_int_sums(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sum per-shard integer count arrays (exact, order-free)."""
    total = np.zeros_like(np.asarray(parts[0], dtype=np.int64))
    for part in parts:
        total = total + np.asarray(part, dtype=np.int64)
    return total
