"""The evaluation daemon's one mechanism for sharing in-flight work.

:class:`InflightRegistry` holds every in-flight request.  A request
whose ``key`` is already in flight *follows* that answer: it takes no
admission slot and is answered ``"coalesced": true`` under its own id.
Any other admitted request joins the queued group of its ``batch_key``
(:func:`repro.service.requests.batch_compatibility_key`) or opens one;
synthesis has ``batch_key=None`` and always opens its own.  A group
closes when it acquires one of the daemon's ``concurrency`` evaluator
slots, so there is no gather window: at idle a request runs alone at
once, and under load exactly the requests that would otherwise queue
are fused.  Fusion pays because the engines are grid-oblivious: one
Monte-Carlo wave evaluation samples every requested depth, and the
fused stage sweep (:mod:`repro.vec.fused`) captures every step of its
grid in one pass.  A one-member group evaluates exactly like a solo
request, under its own key; a larger one is merged
(:func:`merge_requests`) into one request over the union grid and
split back (:func:`split_responses`) per member.

**Bit-identity contract.**  A split response is byte-identical to the
response the member request would have produced alone:

* The sample stream depends only on ``(seed, shard_size, samples)`` —
  all part of the batch key — never on the grid, so the fused run
  draws exactly the operands each solo run would draw.
* Per-depth statistics are *elementwise*: each grid point's error sum
  is accumulated independently and the shard merge
  (:func:`repro.runners.parallel.merge_float_sums`) adds element-wise
  in shard order.  Slicing the union result at a member's (sorted)
  grid positions therefore yields float-for-float the member's solo
  arrays.
* The one grid-*dependent* scalar — a sweep's ``error_free_step`` — is
  recomputed per member through the same rule the solo path uses
  (:func:`repro.sim.sweep.error_free_step_on_grid`).

Cache keys, cache writes, and progress frames stay per-request.  The
evaluation itself runs with the cache off; the registry stores every
answer — a lone member's and each fused member's slice — under the
member's own content address, so a later solo request cache-hits
exactly as if it had run alone, and the union grid is never stored.

**Deadlines.**  A member's deadline runs from its arrival, so the wait
for a slot counts toward it.  It is answered ``deadline`` when its own
deadline elapses, never earlier; the group's ``CancelToken`` fires at
the last member's deadline.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence
from typing import Set, Tuple

from repro.experiments import EXPERIMENTS
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runners.parallel import CancelToken
from repro.runners.results import result_from_dict
from repro.service.requests import EvalRequest, eval_request

__all__ = [
    "InflightRegistry",
    "deadline_response",
    "merge_requests",
    "split_result_payload",
    "split_responses",
]


# ---------------------------------------------------------------- merge/split

def merge_requests(reqs: Sequence[EvalRequest]) -> EvalRequest:
    """One synthetic request evaluating the union grid of *reqs*.

    All members share a ``batch_key`` by construction, so they agree on
    kind, config, sample budget and deadline; only the grid differs.
    The merged request carries the content address of the union grid;
    it is never cached itself — only its members' sliced answers are.
    """
    first = reqs[0]
    for req in reqs[1:]:
        if req.batch_key != first.batch_key:
            raise ValueError(
                "cannot merge requests from different batch classes"
            )
    axis = EXPERIMENTS[first.kind].axis
    if axis is None:
        raise ValueError(f"kind {first.kind!r} is not batchable")
    union = sorted({int(b) for r in reqs for b in r.params[axis]})
    return eval_request(
        first.kind, {**first.params, axis: union}, first.config,
        deadline=first.deadline,
    )


def _grid_indices(union: Sequence[int], member: Sequence[int]) -> List[int]:
    """Positions of *member*'s (sorted) grid points inside the union grid."""
    where = {int(v): i for i, v in enumerate(union)}
    return [where[int(v)] for v in member]


def split_result_payload(
    kind: str, merged: Dict[str, Any], member: EvalRequest
) -> Dict[str, Any]:
    """Slice the merged result payload down to *member*'s grid.

    Every array field of a batchable result runs along the kind's grid
    axis, whose result field bears the axis parameter's name, so one
    slice serves them all; the codec then spells the payload exactly as
    the solo path does.
    """
    axis = EXPERIMENTS[kind].axis
    if axis is None:
        raise ValueError(f"kind {kind!r} is not batchable")
    full = result_from_dict(merged)
    arrays = type(full)._array_fields
    idx = _grid_indices(getattr(full, axis), member.params[axis])
    result = replace(full, **{name: getattr(full, name)[idx] for name in arrays})
    if kind == "sweep":
        from repro.sim.sweep import error_free_step_on_grid

        result = replace(result, error_free_step=error_free_step_on_grid(
            result.steps, result.mean_abs_error, result.settle_step
        ))
    return result.to_dict()


def split_responses(
    merged_req: EvalRequest,
    response: Dict[str, Any],
    members: Sequence[EvalRequest],
) -> List[Dict[str, Any]]:
    """Per-member responses from the fused evaluation's *response*.

    * Success — each member gets its sliced payload under its own id
      and key.
    * Error / cancelled — the failure is copied per member with the
      member's id; the texts are grid-independent, so these too match
      the solo spelling.
    """
    if not response.get("ok") or "result" not in response:
        return [{**response, "id": member.id} for member in members]
    return [
        {
            "ok": True,
            "id": member.id,
            "kind": member.kind,
            "key": member.key,
            "result": split_result_payload(
                merged_req.kind, response["result"], member
            ),
        }
        for member in members
    ]


# ----------------------------------------------------------------- registry

def deadline_response(req: EvalRequest) -> Dict[str, Any]:
    """The answer of a request whose own deadline elapsed."""
    return {
        "ok": False,
        "code": "deadline",
        "error": f"deadline of {req.deadline}s exceeded",
        "id": req.id,
    }


class _Group:
    """Members sharing one evaluation; open until it holds a slot."""

    __slots__ = ("batch_key", "members", "expires")

    def __init__(self, batch_key: Optional[str]) -> None:
        self.batch_key = batch_key
        self.members: List[Tuple[EvalRequest, asyncio.Future]] = []
        self.expires: Optional[float] = None  # loop time of the last deadline


class InflightRegistry:
    """Every in-flight request, keyed by ``key`` and grouped by ``batch_key``.

    Event-loop-confined: every method runs on the daemon's loop, so the
    maps need no locks.  Futures resolve with *response dicts*, never
    exceptions — an evaluation error is itself a response — so a
    follower is never poisoned by an exception it has no context for.

    *evaluate* is the daemon callback running one evaluation:
    ``async (req, members, token) -> response``, where *req* is the
    lone member or the merged request, *members* route its progress
    frames and the :class:`CancelToken` fires at the group's deadline.
    *concurrency* is the number of groups evaluated at once; every
    member's computed answer is written to *cache* under its own key.
    """

    def __init__(
        self,
        evaluate: Callable[
            [EvalRequest, List[EvalRequest], CancelToken],
            Awaitable[Dict[str, Any]],
        ],
        concurrency: int,
        cache: Optional[Any] = None,
    ) -> None:
        self._evaluate = evaluate
        self._cache = cache
        self._slots = asyncio.Semaphore(concurrency)
        self._futures: Dict[str, asyncio.Future] = {}
        self._open: Dict[str, _Group] = {}  # joinable groups by batch_key
        self._queued: Set[_Group] = set()  # every group waiting for a slot
        self._tasks: Set[asyncio.Task] = set()

    @property
    def depth(self) -> int:
        """Number of distinct keys currently in flight."""
        return len(self._futures)

    def follow(self, key: str) -> Optional["asyncio.Future[Any]"]:
        """The future of the in-flight request for *key*, if there is one."""
        return self._futures.get(key)

    def submit(
        self, req: EvalRequest, arrived: float
    ) -> "asyncio.Future[Any]":
        """Join or open *req*'s group; return the future of its response.

        The caller has admitted *req* and checked that its key is not
        already in flight (:meth:`follow`).  *arrived* is the loop time
        *req* reached the daemon; its deadline runs from then.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._futures[req.key] = future
        group = self._open.get(req.batch_key)  # never for batch_key None
        if group is None:
            group = _Group(req.batch_key)
            self._queued.add(group)
            if req.batch_key is not None:
                self._open[req.batch_key] = group
            task = asyncio.ensure_future(self._run(group))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        group.members.append((req, future))
        if req.deadline is not None:
            expires = arrived + req.deadline
            group.expires = max(expires, group.expires or expires)
            timer = loop.call_at(expires, self._expire, req, future)
            future.add_done_callback(lambda _: timer.cancel())
        return future

    def abort_queued(self, response: Dict[str, Any]) -> int:
        """Resolve every group still waiting for a slot with *response*.

        Aborted groups never reach the evaluator (drain path).
        """
        aborted = 0
        for group in list(self._queued):
            self._close(group)
            for req, future in group.members:
                aborted += self._settle(
                    req, future, {**response, "id": req.id}
                )
        return aborted

    def abort_all(self, response: Dict[str, Any]) -> int:
        """Resolve every in-flight request with *response* (drain path)."""
        aborted = self.abort_queued(response)
        for future in self._futures.values():
            if not future.done():
                future.set_result(dict(response))
                aborted += 1
        self._futures.clear()
        return aborted

    # ----------------------------------------------------------- internals
    def _close(self, group: _Group) -> None:
        """No further joins: *group* runs or was aborted."""
        self._queued.discard(group)
        if self._open.get(group.batch_key) is group:
            del self._open[group.batch_key]

    def _settle(
        self,
        req: EvalRequest,
        future: asyncio.Future,
        response: Dict[str, Any],
    ) -> bool:
        """Retire *req*'s key and deliver *response*; False if already done."""
        if self._futures.get(req.key) is future:
            del self._futures[req.key]
        if future.done():
            return False
        future.set_result(response)
        return True

    def _expire(self, req: EvalRequest, future: asyncio.Future) -> None:
        if self._settle(req, future, deadline_response(req)):
            metrics().count("service.deadline_exceeded")

    async def _run(self, group: _Group) -> None:
        """Wait for a slot, close *group*, evaluate its live members.

        Resolves every member on every exit, so a group that dies
        unexpectedly strands no member, no follower and no key.
        """
        failure = "group ended without an answer"
        try:
            async with self._slots:
                self._close(group)
                live = [(r, f) for r, f in group.members if not f.done()]
                if live:  # members may have expired or been aborted
                    await self._evaluate_live(live, group.expires)
        except asyncio.CancelledError:
            failure = "group cancelled"
            raise
        except Exception as exc:
            failure = f"group evaluation failed: {type(exc).__name__}: {exc}"
            metrics().count("service.internal_errors")
            current_tracer().event("service.batch_failed", error=failure)
        finally:
            self._close(group)
            for req, future in group.members:
                self._settle(
                    req, future,
                    {"ok": False, "code": "internal", "error": failure,
                     "id": req.id},
                )

    async def _evaluate_live(
        self,
        live: List[Tuple[EvalRequest, asyncio.Future]],
        expires: Optional[float],
    ) -> None:
        """One evaluation for the closed group's unanswered members.

        A lone member is evaluated exactly like a solo request, under
        its own key; several are merged into one union-grid evaluation
        and split back per member.
        """
        members = [req for req, _ in live]
        req = members[0]
        if len(members) > 1:
            req = merge_requests(members)
            metrics().count("service.batched", len(members))
            metrics().observe("service.batch_size", len(members))
            current_tracer().event(
                "service.batch", kind=req.kind, size=len(members),
                key=req.key,
            )
        token = CancelToken()
        timeout = None
        if expires is not None:
            timeout = expires - asyncio.get_running_loop().time()
        try:
            response = await asyncio.wait_for(
                self._evaluate(req, members, token), timeout
            )
        except asyncio.TimeoutError:
            token.cancel("deadline exceeded")
            for member, future in live:
                self._expire(member, future)
            return
        responses = [response] if len(members) == 1 else split_responses(
            req, response, members
        )
        for (member, future), answer in zip(live, responses):
            self._store(member, answer)
            self._settle(member, future, answer)

    def _store(self, req: EvalRequest, answer: Dict[str, Any]) -> None:
        """Write a computed answer to the cache under *req*'s own key.

        The service's only cache write: evaluations run with the cache
        off, so each answered key costs one lookup (the daemon's
        short-circuit) and this one put.  Failures are never stored.
        """
        if (
            self._cache is None
            or not answer.get("ok")
            or "result" not in answer
        ):
            return
        self._cache.put(
            req.key, result_from_dict(answer["result"]),
            req.key_components,
        )
