"""The evaluation daemon: asyncio JSON-lines front-end over the pool.

``repro serve`` runs one :class:`EvalService` — a long-lived process
that answers Monte-Carlo, sweep and synthesis requests over a line-
oriented JSON protocol (one request object per line, one response
object per line; responses may arrive out of order and carry the
request ``id`` for correlation).

A request travels::

    parse -> cache short-circuit -> follow an identical in-flight request
          |  or admission -> join/open a group -> slot
          -> evaluate (cancellable) -> cache write -> respond

* **parse** (:mod:`repro.service.requests`) — strict validation; the
  normalized request carries the same content-addressed key the result
  cache uses, plus a *compatibility* key (``batch_key``).
* **cache short-circuit** — a persistent-cache hit answers before the
  queue is ever consulted; a full queue cannot shed work the service
  already knows the answer to.  The daemon holds the service's one
  cache handle: evaluations run with the cache off, and each computed
  answer is written once, under its request's key, by the in-flight
  registry.
* **in-flight registry** (:mod:`repro.service.batch`) — the one
  mechanism for sharing work: a request identical to one in flight
  follows its answer; otherwise, once admitted, it joins the queued
  group of compatible requests (same ``batch_key``, different grids)
  or opens one.  A group closes when it acquires one of
  ``concurrency`` evaluator slots and runs as one union-grid
  evaluation, split back into per-request responses bit-identical to
  their solo spelling.  A follower waits for its leader no longer
  than its own deadline; one handed a ``deadline`` answer that is
  not its own (its deadline is later or absent) runs once more as
  its own request.
* **admission** (:mod:`repro.service.admission`) — bounded per-class
  occupancy; overload sheds fast with a ``retry_after`` hint.
* **evaluate** — the evaluator runs once per group; what it raises is
  answered ``cancelled`` (:class:`~repro.runners.parallel.RunCancelled`)
  or ``error``.  A request ``deadline`` cancels the evaluation *inside*
  the pool via the runner's :class:`~repro.runners.parallel.CancelToken`.

Evaluations run on a small resident :class:`~concurrent.futures.
ThreadPoolExecutor`.  At the default ``jobs=1`` every shard runs in the
daemon process, so per-process caches (operator netlists, compiled
engines) amortize across requests the way a long-running service wants
them to.  With ``jobs > 1`` each evaluation maps its shards over a
private process pool.  The runner is the one owner of pool failure: a
died worker or a failed fork is retried on a fresh pool and then run
inline, so it never surfaces as a request failure, and every answer is
computed — none comes from the analytical model.

Lifecycle: ``SIGTERM``/``SIGINT`` trigger a graceful drain — the
listener closes, groups still waiting for a slot are answered with a
``draining`` rejection, running evaluations finish (bounded by
``drain_timeout``), stragglers are rejected too — and
``healthz``/``readyz`` separate liveness ("the process answers") from
readiness ("new work is being admitted").
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.experiments import EXPERIMENTS
from repro.obs.events import ProgressEvent, ProgressReporter
from repro.obs.export import render_prometheus
from repro.obs.metrics import deterministic_snapshot, metrics
from repro.obs.trace import current_tracer
from repro.runners.cache import cache_for
from repro.runners.config import RunConfig
from repro.runners.parallel import CancelToken, ParallelRunner, RunCancelled
from repro.service.admission import AdmissionController, ShedRequest
from repro.service.batch import InflightRegistry, deadline_response
from repro.service.requests import (
    ADMIN_KINDS,
    EvalRequest,
    RequestError,
    parse_request,
)

__all__ = [
    "ServiceConfig",
    "EvalService",
    "evaluate_request",
    "run_service",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one :class:`EvalService` needs, in one place."""

    run_config: RunConfig = field(default_factory=RunConfig)
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is EvalService.port
    concurrency: int = 2  # evaluator slots = resident warm threads
    limits: Optional[Mapping[str, int]] = None  # admission per-class caps
    default_deadline: Optional[float] = None
    drain_timeout: float = 30.0


def evaluate_request(
    req: EvalRequest,
    cancel_token: CancelToken,
    progress: Optional[ProgressReporter],
) -> Dict[str, Any]:
    """Default evaluator: run the kind's entry point, return its dict.

    Runs on a worker thread.  The :class:`CancelToken` threads through
    to the :class:`ParallelRunner` so a fired deadline stops the
    evaluation between shards instead of orphaning it, and the runner
    feeds its shard lifecycle to *progress*, the reporter the daemon
    built to stream frames to every request sharing this evaluation.
    """
    config = req.config
    runner = ParallelRunner.from_config(config)
    runner.cancel_token = cancel_token
    runner.progress = progress
    result = EXPERIMENTS[req.kind].run(config, req.params, runner)
    payload = result.to_dict()
    payload.pop("metrics", None)
    return payload


class EvalService:
    """One daemon instance: admission, in-flight sharing, lifecycle.

    ``evaluator`` is injectable (tests and the load benchmark swap in
    instrumented or failing ones); it must be a callable ``(EvalRequest,
    CancelToken, ProgressReporter) -> dict`` and may run for a while —
    it is always invoked on the executor, never on the event loop.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        evaluator: Optional[
            Callable[[EvalRequest, CancelToken, ProgressReporter],
                     Dict[str, Any]]
        ] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.evaluator = (
            evaluator if evaluator is not None else evaluate_request
        )
        self.admission = AdmissionController(
            limits=self.config.limits,
            concurrency=self.config.concurrency,
        )
        # the service's one cache handle: requests evaluate with the
        # cache off, and the registry stores their answers through it
        self.cache = cache_for(self.config.run_config)
        self._request_config = self.config.run_config.with_(cache_dir=None)
        self.inflight = InflightRegistry(
            self._evaluate, self.config.concurrency, cache=self.cache
        )
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
        draining = {"ok": False, "code": "draining",
                    "error": "service draining"}
        # queued groups never start; running ones may finish
        aborted = self.inflight.abort_queued(draining)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout
        while self.admission.depth() > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        # anything still in flight gets an honest rejection, not silence
        aborted += self.inflight.abort_all(draining)
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
        frames for its request (group member or coalesced follower
        alike) before the final response.  ``None`` — the in-process
        default — streams nothing.
        """
        if isinstance(message, Mapping) and message.get("kind") in ADMIN_KINDS:
            return self._admin(message)
        try:
            req = parse_request(
                message if isinstance(message, Mapping) else None,
                base_config=self._request_config,
                default_deadline=self.config.default_deadline,
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

        loop = asyncio.get_running_loop()
        arrived = loop.time()
        response = await self._answer(req, arrived, send_progress)
        if (
            response.get("coalesced")
            and response.get("code") == "deadline"
            and (req.deadline is None
                 or loop.time() < arrived + req.deadline)
        ):
            # the deadline that fired was the request this one followed,
            # not its own (``key`` excludes the deadline): run it once
            # more, as its own request
            if self._draining:
                return {"ok": False, "code": "draining",
                        "error": "service draining", "id": req.id}
            metrics().count("service.readmitted")
            response = await self._answer(req, arrived, send_progress)
        return response

    async def _answer(
        self,
        req: EvalRequest,
        arrived: float,
        send_progress: Optional[Callable[[Dict[str, Any]], Any]],
    ) -> Dict[str, Any]:
        """Follow *req*'s in-flight twin, or admit and submit *req*."""
        future = self.inflight.follow(req.key)
        following = future is not None
        if following:  # identical work is in flight: share its answer
            metrics().count("service.coalesce_hits")
            current_tracer().event("service.coalesce", key=req.key)
        else:
            # every admitted request, fused or not, holds its own slot
            # until answered: shedding sees the true demand, and a group
            # never exceeds its class limit
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
            future = self.inflight.submit(req, arrived)
            started = time.monotonic()
        watch = self._add_watcher(req.key, req.id, send_progress)
        try:
            if following and req.deadline is not None:
                # wait for the leader no longer than this request's own
                # deadline; the leader's future and watchers stay alone
                loop = asyncio.get_running_loop()
                left = max(0.0, arrived + req.deadline - loop.time())
                await asyncio.wait({future}, timeout=left)
                if not future.done():
                    metrics().count("service.deadline_exceeded")
                    return {**deadline_response(req), "coalesced": True}
            response = dict(await asyncio.shield(future))
        finally:
            self._remove_watcher(req.key, watch)
            if not following:
                self.admission.release(
                    req.kind, service_time=time.monotonic() - started
                )
        response["id"] = req.id
        if following:
            response["coalesced"] = True
        return response

    # -------------------------------------------------------------- progress
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

    def _dispatch_progress(
        self, keys: "list[str]", event: ProgressEvent
    ) -> None:
        """Fan one progress event out to every connection watching one
        of *keys* (the members of the evaluation that emitted it).

        Runs on the event loop (hopped from the evaluator thread via
        ``call_soon_threadsafe``), so the registries need no locks and
        every frame is scheduled before the final response of the
        evaluation that emitted it.
        """
        snapshot = event.to_dict()
        for key in keys:
            self._progress[key] = snapshot
            watchers = self._watchers.get(key)
            if not watchers:
                continue
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
            "queue_depth": self.admission.depth(),
            "inflight_keys": self.inflight.depth,
            "service_time_estimate": self.admission.service_time_estimate,
            "counters": metrics().snapshot().get("counters", {}),
        }

    def _statsz(self, req_id: Any) -> Dict[str, Any]:
        """The machine-facing snapshot `repro top` refreshes from.

        ``metrics`` is the *deterministic* registry view (counters +
        histograms, gauges stripped); drain/queue/progress state is
        live by nature and carried alongside, never inside it.
        """
        return {
            "ok": True,
            "id": req_id,
            "draining": self._draining,
            "queue_depth": self.admission.depth(),
            "queue_depths": {
                cls: self.admission.depth(cls)
                for cls in sorted(self.admission.limits)
            },
            "inflight_keys": self.inflight.depth,
            "service_time_estimate": self.admission.service_time_estimate,
            "progress": {
                key: dict(snap)
                for key, snap in sorted(self._progress.items())
            },
            "metrics": deterministic_snapshot(metrics().snapshot()),
        }

    def _cache_lookup(self, req: EvalRequest) -> Optional[Dict[str, Any]]:
        if self.cache is None:
            return None
        hit = self.cache.get(req.key)
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

    async def _evaluate(
        self,
        req: EvalRequest,
        members: "list[EvalRequest]",
        token: CancelToken,
    ) -> Dict[str, Any]:
        """One evaluation of *req* on the executor.

        *req* is a group's lone member or its merged request.  Progress
        frames go to every member's watchers, so each request sharing
        the evaluation keeps its own frames.  *token* fires at the
        group's deadline (:class:`InflightRegistry` owns it).
        """
        keys = [member.key for member in members]
        loop = asyncio.get_running_loop()

        def on_event(event: ProgressEvent) -> None:
            # runs on the evaluator thread: one hop onto the loop, where
            # the watcher registries live and writes are ordered before
            # the final response
            loop.call_soon_threadsafe(self._dispatch_progress, keys, event)

        reporter = ProgressReporter(
            experiment=req.kind, run_id=req.key, on_event=on_event
        )
        try:
            payload = await loop.run_in_executor(
                self._executor, self.evaluator, req, token, reporter
            )
        except RunCancelled as exc:
            return {"ok": False, "code": "cancelled", "error": str(exc),
                    "id": req.id}
        except Exception as exc:  # the runner already absorbed pool loss
            metrics().count("service.errors")
            return {
                "ok": False,
                "code": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "id": req.id,
            }
        finally:
            for key in keys:
                self._progress.pop(key, None)
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

    async def main() -> None:
        # built inside the loop: before Python 3.10 the service's asyncio
        # primitives bind to the loop current at construction
        service = EvalService(config)
        await service.start()
        if on_start is not None:
            on_start(service.port)
        await service.serve_forever()

    asyncio.run(main())
