"""The evaluation daemon: asyncio JSON-lines front-end over the pool.

``repro serve`` runs one :class:`EvalService` — a long-lived process
that answers Monte-Carlo, sweep and synthesis requests over a line-
oriented JSON protocol (one request object per line, one response
object per line; responses may arrive out of order and carry the
request ``id`` for correlation).

A request travels::

    parse -> cache short-circuit -> coalesce -> breaker -> admission
          -> [micro-batch] -> retry(evaluate, cancellable)
          -> respond

* **parse** (:mod:`repro.service.requests`) — strict validation; the
  normalized request carries the same content-addressed key the result
  cache uses, plus a *compatibility* key for the micro-batcher.
* **cache short-circuit** — a persistent-cache hit answers before the
  queue is ever consulted; a full queue cannot shed work the service
  already knows the answer to.
* **coalesce** (:mod:`repro.service.coalesce`) — identical in-flight
  requests share one evaluation.
* **breaker** (:mod:`repro.service.breaker`) — a pool that keeps
  failing is taken out of rotation; requests are answered from the
  Section-3 analytical model (:mod:`repro.service.degrade`) with
  ``"degraded": true`` until a half-open probe succeeds.
* **admission** (:mod:`repro.service.admission`) — bounded per-class
  occupancy; overload sheds fast with a ``retry_after`` hint.
* **micro-batch** (:mod:`repro.service.batch`, enabled by
  ``batch_window > 0``) — admitted montecarlo/sweep leaders differing
  only in their depth/step grid gather for a small window and fuse
  into one union-grid evaluation, split back into per-request
  responses bit-identical to their solo spelling.
* **retry** (:mod:`repro.service.retry`) — transient pool failures are
  retried under a jittered-backoff budget; a request ``deadline``
  cancels the evaluation *inside* the pool via the runner's
  :class:`~repro.runners.parallel.CancelToken`.

Evaluations run on a small resident :class:`~concurrent.futures.
ThreadPoolExecutor`.  At the default ``jobs=1`` every shard runs in the
daemon process, so per-process caches (operator netlists, compiled
engines) amortize across requests the way a long-running service wants
them to.  With ``jobs > 1`` each evaluation maps its shards over a
private process pool; a died worker is retried by the runner on a fresh
pool without ever surfacing as a request failure — which is why a
worker crash cannot open the circuit breaker by itself.

Lifecycle: ``SIGTERM``/``SIGINT`` trigger a graceful drain — the
listener closes, in-flight requests finish (bounded by
``drain_timeout``), stragglers are answered with a ``draining``
rejection — and ``healthz``/``readyz`` separate liveness ("the process
answers") from readiness ("new work is being admitted").
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.obs.events import ProgressEvent, ProgressReporter, progress_bus
from repro.obs.export import render_prometheus
from repro.obs.metrics import deterministic_snapshot, metrics
from repro.obs.trace import current_tracer
from repro.runners.cache import cache_for
from repro.runners.config import RunConfig
from repro.runners.parallel import CancelToken, ParallelRunner, RunCancelled
from repro.service.admission import AdmissionController, ShedRequest
from repro.service.batch import MicroBatcher, merge_requests, split_responses
from repro.service.breaker import CircuitBreaker
from repro.service.coalesce import Coalescer
from repro.service.degrade import degraded_answer
from repro.service.requests import (
    ADMIN_KINDS,
    EvalRequest,
    RequestError,
    parse_request,
)
from repro.service.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "ServiceConfig",
    "EvalService",
    "TransientEvalError",
    "evaluate_request",
    "run_service",
]


class TransientEvalError(RuntimeError):
    """A retryable evaluation failure (injectable in tests/benchmarks)."""


#: exception types the retry policy treats as transient
TRANSIENT_ERRORS = (TransientEvalError, BrokenProcessPool, OSError)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one :class:`EvalService` needs, in one place."""

    run_config: RunConfig = field(default_factory=RunConfig)
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is EvalService.port
    concurrency: int = 2  # resident warm evaluator threads
    batch_window: float = 0.0  # compatible-request gather window; 0 = off
    batch_max: int = 16  # members fused into one evaluation, at most
    limits: Optional[Mapping[str, int]] = None  # admission per-class caps
    total_limit: Optional[int] = None
    default_deadline: Optional[float] = None
    max_samples: int = 200_000
    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    failure_threshold: int = 3
    reset_timeout: float = 5.0
    half_open_probes: int = 1
    drain_timeout: float = 30.0


def evaluate_request(
    req: EvalRequest, cancel_token: CancelToken
) -> Dict[str, Any]:
    """Default evaluator: run the experiment entry point, return its dict.

    Runs on a worker thread.  The :class:`CancelToken` threads through
    to the :class:`ParallelRunner` so a fired deadline stops the
    evaluation between shards instead of orphaning it.
    """
    config = req.config
    runner = ParallelRunner.from_config(config)
    runner.cancel_token = cancel_token
    # publish shard lifecycle onto the process-wide bus keyed by the
    # request's coalescing key, so the daemon can stream progress frames
    # to the leader and every coalesced follower
    runner.progress = ProgressReporter(experiment=req.kind, run_id=req.key)
    params = req.params
    if req.kind == "montecarlo":
        from repro.sim.montecarlo import run_montecarlo

        result = run_montecarlo(
            config,
            num_samples=params["samples"],
            depths=list(params["depths"]),
            runner=runner,
        )
    elif req.kind == "sweep":
        from repro.sim.sweep import run_sweep

        result = run_sweep(
            config,
            design="online",
            num_samples=params["samples"],
            timing="stage",
            steps=list(params["steps"]),
            runner=runner,
        )
    else:  # synthesis
        from repro.synth.demos import demo_datapath
        from repro.synth.search import run_synthesis

        kwargs: Dict[str, Any] = {}
        if params["periods"]:  # otherwise keep run_synthesis's default grid
            kwargs["periods"] = list(params["periods"])
        result = run_synthesis(
            config,
            demo_datapath(params["datapath"], config.ndigits),
            target={
                "metric": params["target_metric"],
                "value": params["target_value"],
            },
            wordlengths=params["wordlengths"],
            num_samples=params["samples"],
            runner=runner,
            **kwargs,
        )
    payload = result.to_dict()
    payload.pop("metrics", None)
    return payload


class EvalService:
    """One daemon instance: admission, dedup, breaker, retry, lifecycle.

    ``evaluator`` is injectable (tests and the load benchmark swap in
    fault-injected ones); it must be a callable ``(EvalRequest,
    CancelToken) -> dict`` and may run for a while — it is always
    invoked on the executor, never on the event loop.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        evaluator: Optional[
            Callable[[EvalRequest, CancelToken], Dict[str, Any]]
        ] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.evaluator = (
            evaluator if evaluator is not None else evaluate_request
        )
        self.batcher: Optional[MicroBatcher] = (
            MicroBatcher(
                self._run_batch,
                window=self.config.batch_window,
                max_batch=self.config.batch_max,
            )
            if self.config.batch_window > 0 else None
        )
        self.admission = AdmissionController(
            limits=self.config.limits,
            total=self.config.total_limit,
            concurrency=self.config.concurrency,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.failure_threshold,
            reset_timeout=self.config.reset_timeout,
            half_open_probes=self.config.half_open_probes,
        )
        self.coalescer = Coalescer()
        self.cache = cache_for(self.config.run_config)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.concurrency,
            thread_name_prefix="repro-eval",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._closed = asyncio.Event()
        self.port: Optional[int] = None
        # live-progress plumbing (event-loop-confined, so no locks):
        # key -> {token: (req_id, async send)} of connections watching a
        # run, and key -> latest progress event dict for statsz
        self._watchers: Dict[str, Dict[int, Any]] = {}
        self._watch_seq = 0
        self._progress: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------ lifecycle
    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind the listener (idempotent); sets :attr:`port`."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._on_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        current_tracer().event(
            "service.start", host=self.config.host, port=self.port
        )

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Start and serve until :meth:`drain` completes."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(self.drain())
                    )
                except NotImplementedError:  # pragma: no cover - non-unix
                    pass
        await self._closed.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, let in-flight work finish."""
        if self._draining:
            return
        self._draining = True
        current_tracer().event("service.drain", inflight=self.admission.depth())
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout
        while self.admission.depth() > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        # anything still in flight gets an honest rejection, not silence
        draining = {"ok": False, "code": "draining",
                    "error": "service draining"}
        aborted = self.coalescer.abort_all(dict(draining))
        if self.batcher is not None:
            aborted += self.batcher.abort_all(draining)
        if aborted:
            metrics().count("service.drain_aborted", aborted)
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._closed.set()

    # ------------------------------------------------------------- protocol
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: a task per request line, responses as they land."""
        write_lock = asyncio.Lock()
        pending = set()

        async def respond(response: Dict[str, Any]) -> None:
            data = json.dumps(response, sort_keys=True).encode() + b"\n"
            async with write_lock:
                writer.write(data)
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    pass

        async def handle_line(line: bytes) -> None:
            try:
                message = json.loads(line)
            except json.JSONDecodeError as exc:
                await respond(
                    {"ok": False, "code": "bad_request",
                     "error": f"invalid JSON: {exc}"}
                )
                return
            try:
                response = await self.handle(message, send_progress=respond)
            except Exception as exc:  # a handler bug must not kill the client
                metrics().count("service.internal_errors")
                response = {
                    "ok": False,
                    "code": "internal",
                    "error": f"{type(exc).__name__}: {exc}",
                    "id": message.get("id")
                    if isinstance(message, Mapping) else None,
                }
            await respond(response)

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(handle_line(line))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            # close without awaiting wait_closed(): the peer may already
            # be gone and an event-loop teardown cancels the wait
            writer.close()

    # ------------------------------------------------------------- handling
    async def handle(
        self,
        message: Any,
        send_progress: Optional[
            Callable[[Dict[str, Any]], "asyncio.Future[Any]"]
        ] = None,
    ) -> Dict[str, Any]:
        """Answer one decoded request object (also the in-process API).

        *send_progress* is an async callable taking one JSON-able frame;
        when given, the caller is streamed ``{"event": "progress", ...}``
        frames for its request (leader or coalesced follower alike)
        before the final response.  ``None`` — the in-process default —
        streams nothing.
        """
        if isinstance(message, Mapping) and message.get("kind") in ADMIN_KINDS:
            return self._admin(message)
        try:
            req = parse_request(
                message if isinstance(message, Mapping) else None,
                base_config=self.config.run_config,
                default_deadline=self.config.default_deadline,
                max_samples=self.config.max_samples,
            )
        except RequestError as exc:
            metrics().count("service.bad_requests")
            req_id = message.get("id") if isinstance(message, Mapping) else None
            return {"ok": False, "code": "bad_request", "error": str(exc),
                    "id": req_id}
        if self._draining:
            return {"ok": False, "code": "draining",
                    "error": "service draining", "id": req.id}
        metrics().count("service.requests")
        metrics().count(f"service.requests.{req.kind}")

        cached = self._cache_lookup(req)
        if cached is not None:
            return cached

        future, is_leader = self.coalescer.lead_or_join(req.key)
        if not is_leader:
            metrics().count("service.coalesce_hits")
            current_tracer().event("service.coalesce", key=req.key)
            watch = self._add_watcher(req.key, req.id, send_progress)
            try:
                response = dict(await asyncio.shield(future))
            finally:
                self._remove_watcher(req.key, watch)
            response["id"] = req.id
            response["coalesced"] = True
            return response
        watch = self._add_watcher(req.key, req.id, send_progress)
        response: Optional[Dict[str, Any]] = None
        try:
            response = await self._evaluate_leader(req)
            return response
        finally:
            # resolve on *every* exit — unexpected exception, cancelled
            # task, early return — so a dying leader can never strand
            # its followers until their client-side timeout
            self._remove_watcher(req.key, watch)
            if response is None:
                response = {"ok": False, "code": "internal",
                            "error": "leader failed unexpectedly"}
            self.coalescer.resolve(req.key, response)

    # ---------------------------------------------------------- progress bus
    def _add_watcher(
        self,
        key: str,
        req_id: Any,
        send: Optional[Callable[[Dict[str, Any]], Any]],
    ) -> Optional[int]:
        """Register a connection's send callable for *key*'s frames."""
        if send is None:
            return None
        self._watch_seq += 1
        token = self._watch_seq
        self._watchers.setdefault(key, {})[token] = (req_id, send)
        return token

    def _remove_watcher(self, key: str, token: Optional[int]) -> None:
        if token is None:
            return
        watchers = self._watchers.get(key)
        if watchers is not None:
            watchers.pop(token, None)
            if not watchers:
                self._watchers.pop(key, None)

    def _dispatch_progress(self, key: str, event: ProgressEvent) -> None:
        """Fan one bus event out to every connection watching *key*.

        Runs on the event loop (hopped from the evaluator thread via
        ``call_soon_threadsafe``), so the registries need no locks and
        every frame is scheduled before the final response of the
        evaluation that published it.
        """
        self._progress[key] = event.to_dict()
        watchers = self._watchers.get(key)
        if not watchers:
            return
        metrics().count("service.progress_frames", len(watchers))
        for req_id, send in list(watchers.values()):
            frame = {
                "event": "progress",
                "id": req_id,
                "key": key,
                "transition": event.transition,
                "shard": event.shard,
                "shards_done": event.shards_done,
                "shards_total": event.shards_total,
                "samples_done": event.samples_done,
                "samples_total": event.samples_total,
                "eta_s": event.eta_s,
                "seq": event.seq,
            }
            asyncio.ensure_future(send(frame))

    def _admin(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        kind = message["kind"]
        req_id = message.get("id")
        if kind == "healthz":
            return {
                "ok": True,
                "id": req_id,
                "status": "alive",
                "draining": self._draining,
            }
        if kind == "readyz":
            ready = self._server is not None and not self._draining
            return {
                "ok": ready,
                "id": req_id,
                "status": "ready" if ready else "not-ready",
                "draining": self._draining,
                "breaker": self.breaker.state,
            }
        if kind == "statsz":
            return self._statsz(req_id)
        if kind == "metricsz":
            return {
                "ok": True,
                "id": req_id,
                "content_type": "text/plain; version=0.0.4",
                "body": render_prometheus(metrics().snapshot()),
            }
        # stats
        return {
            "ok": True,
            "id": req_id,
            "breaker": self.breaker.state,
            "queue_depth": self.admission.depth(),
            "inflight_keys": self.coalescer.depth,
            "service_time_estimate": self.admission.service_time_estimate,
            "counters": metrics().snapshot().get("counters", {}),
        }

    def _statsz(self, req_id: Any) -> Dict[str, Any]:
        """The machine-facing snapshot `repro top` refreshes from.

        ``metrics`` is the *deterministic* registry view (counters +
        histograms, gauges stripped); breaker/queue/progress state is
        live by nature and carried alongside, never inside it.
        """
        return {
            "ok": True,
            "id": req_id,
            "draining": self._draining,
            "breaker": self.breaker.state,
            "queue_depth": self.admission.depth(),
            "queue_depths": {
                cls: self.admission.depth(cls)
                for cls in sorted(self.admission.limits)
            },
            "inflight_keys": self.coalescer.depth,
            "service_time_estimate": self.admission.service_time_estimate,
            "progress": {
                key: dict(snap)
                for key, snap in sorted(self._progress.items())
            },
            "metrics": deterministic_snapshot(metrics().snapshot()),
        }

    def _cache_lookup(self, req: EvalRequest) -> Optional[Dict[str, Any]]:
        if self.cache is None or req.cache_key is None:
            return None
        hit = self.cache.get(req.cache_key)
        if hit is None:
            return None
        metrics().count("service.cache_short_circuit")
        payload = hit.to_dict()
        payload.pop("metrics", None)
        return {
            "ok": True,
            "id": req.id,
            "kind": req.kind,
            "key": req.key,
            "cached": True,
            "result": payload,
        }

    async def _evaluate_leader(self, req: EvalRequest) -> Dict[str, Any]:
        """Breaker -> admission -> (batched or direct) evaluation.

        Every leader holds its *own* admission slot for the duration —
        batched members included, so shedding sees the true demand and
        a fused evaluation cannot smuggle N requests past the limits.
        """
        if not self.breaker.allow():
            metrics().count("service.degraded")
            reason = (
                f"breaker open ({self.breaker.last_failure or 'pool down'})"
            )
            current_tracer().event("service.degraded", key=req.key)
            return degraded_answer(req, reason)
        try:
            self.admission.try_acquire(req.kind)
        except ShedRequest as exc:
            return {
                "ok": False,
                "code": "shed",
                "error": exc.reason,
                "retry_after": exc.retry_after,
                "id": req.id,
            }
        started = time.monotonic()
        try:
            if self.batcher is not None and req.batch_key is not None:
                return await self.batcher.submit(req)
            return await self._evaluate_admitted(req)
        finally:
            self.admission.release(
                req.kind, service_time=time.monotonic() - started
            )

    async def _run_batch(
        self, members: "list[EvalRequest]"
    ) -> "list[Dict[str, Any]]":
        """Evaluate one closed batch group; responses in member order.

        A single-member group takes the ordinary path — batching must be
        invisible when no compatible company showed up in the window.
        """
        if len(members) == 1:
            return [await self._evaluate_admitted(members[0])]
        merged = merge_requests(members)
        metrics().count("service.batched", len(members))
        metrics().observe("service.batch_size", len(members))
        current_tracer().event(
            "service.batch",
            kind=merged.kind,
            size=len(members),
            key=merged.key,
        )
        response = await self._evaluate_admitted(
            merged, watch_keys=tuple(r.key for r in members)
        )
        return split_responses(merged, response, members, cache=self.cache)

    async def _evaluate_admitted(
        self,
        req: EvalRequest,
        watch_keys: Optional[tuple] = None,
    ) -> Dict[str, Any]:
        """One retried, deadline-bounded evaluation on the executor.

        *watch_keys* routes progress frames: a fused evaluation streams
        its shard lifecycle to every member key's watchers (each member
        request keeps its own frames), the default to the request's own
        key only.
        """
        keys = watch_keys or (req.key,)
        loop = asyncio.get_running_loop()
        token = CancelToken()

        def on_event(event: ProgressEvent) -> None:
            # runs on the evaluator thread: hop onto the loop, where the
            # watcher registries live and writes are ordered before the
            # final response
            for key in keys:
                loop.call_soon_threadsafe(self._dispatch_progress, key, event)

        subscription = progress_bus().subscribe(
            run_id=req.key, callback=on_event
        )

        def on_retry(attempt: int, delay: float, exc: BaseException) -> None:
            metrics().count("service.retries")
            current_tracer().event(
                "service.retry", attempt=attempt, delay=delay, error=str(exc)
            )

        async def attempt() -> Dict[str, Any]:
            return await loop.run_in_executor(
                self._executor, self.evaluator, req, token
            )

        try:
            coro = self.config.retry.acall(
                attempt, retry_on=TRANSIENT_ERRORS, on_retry=on_retry
            )
            if req.deadline is not None:
                payload = await asyncio.wait_for(coro, timeout=req.deadline)
            else:
                payload = await coro
        except asyncio.TimeoutError:
            token.cancel("deadline exceeded")
            metrics().count("service.deadline_exceeded")
            return {
                "ok": False,
                "code": "deadline",
                "error": f"deadline of {req.deadline}s exceeded",
                "id": req.id,
            }
        except RunCancelled as exc:
            return {"ok": False, "code": "cancelled", "error": str(exc),
                    "id": req.id}
        except TRANSIENT_ERRORS as exc:
            # retries spent: this is a *final* pool failure — trip the
            # breaker's counter and still answer, from the model
            self.breaker.record_failure(f"{type(exc).__name__}: {exc}")
            metrics().count("service.pool_exhausted")
            metrics().count("service.degraded")
            return degraded_answer(
                req, f"pool failed after retries ({type(exc).__name__})"
            )
        except Exception as exc:  # deterministic evaluation error
            metrics().count("service.errors")
            return {
                "ok": False,
                "code": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "id": req.id,
            }
        finally:
            progress_bus().unsubscribe(subscription)
            for key in keys:
                self._progress.pop(key, None)
        self.breaker.record_success()
        return {
            "ok": True,
            "id": req.id,
            "kind": req.kind,
            "key": req.key,
            "result": payload,
        }


def run_service(
    config: Optional[ServiceConfig] = None,
    on_start: Optional[Callable[[int], None]] = None,
) -> None:
    """Blocking entry point for ``repro serve``.

    *on_start* is called with the bound port once the listener is up
    (``port=0`` binds an ephemeral one).
    """
    service = EvalService(config)

    async def main() -> None:
        await service.start()
        if on_start is not None:
            on_start(service.port)
        await service.serve_forever()

    asyncio.run(main())
