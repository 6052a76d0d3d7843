"""End-to-end daemon tests: socket round trips, coalescing, shedding,
evaluation failures, deadlines and graceful drain.

No pytest-asyncio here by design — each test drives its own event loop
with ``asyncio.run``, which also guarantees the daemon's lifecycle is
exercised from a cold loop every time (exactly how ``repro serve``
runs it).  Evaluators are injected: these tests exercise the *service*
semantics; the real evaluator is covered by the round-trip test and
the integration suite.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.obs.metrics import metrics
from repro.runners.config import RunConfig
from repro.runners.parallel import RunCancelled
from repro.service import EvalService, ServiceClient, ServiceConfig


BASE = RunConfig(ndigits=3, seed=7, jobs=1, cache_dir=None)


def service_config(**overrides):
    kwargs = dict(
        run_config=BASE,
        concurrency=2,
        drain_timeout=2.0,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


async def started(config=None, evaluator=None):
    service = EvalService(config or service_config(), evaluator=evaluator)
    await service.start()
    client = await ServiceClient.connect("127.0.0.1", service.port)
    return service, client


async def finish(service, client):
    await client.aclose()
    await service.drain()


def cooperative_slow(duration):
    """An evaluator that honors the runner cancel token."""

    def evaluate(req, token, progress):
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline:
            if token.cancelled:
                raise RunCancelled(token.reason or "cancelled")
            time.sleep(0.01)
        return {"slept": duration}

    return evaluate


class TestRoundTrip:
    def test_real_montecarlo_over_the_socket(self):
        async def main():
            service, client = await started()
            resp = await client.request(
                "montecarlo", {"samples": 80, "depths": [2, 4]}
            )
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is True
        assert resp["kind"] == "montecarlo"
        assert resp["result"]["depths"] == [2, 4]
        assert len(resp["result"]["mean_abs_error"]) == 2
        assert "degraded" not in resp

    def test_health_endpoints(self):
        async def main():
            service, client = await started()
            health = await client.request("healthz")
            ready = await client.request("readyz")
            stats = await client.request("stats")
            await finish(service, client)
            return health, ready, stats

        health, ready, stats = asyncio.run(main())
        assert health["ok"] and health["status"] == "alive"
        assert ready["ok"] and ready["status"] == "ready"
        assert "breaker" not in ready and "breaker" not in stats
        assert stats["queue_depth"] == 0

    def test_bad_requests_answered_not_dropped(self):
        async def main():
            service, client = await started()
            unknown = await client.request("teleport")
            bad_param = await client.request(
                "montecarlo", {"samples": 10, "bogus": 1}
            )
            await finish(service, client)
            return unknown, bad_param

        unknown, bad_param = asyncio.run(main())
        assert unknown == {
            "ok": False, "code": "bad_request", "id": unknown["id"],
            "error": unknown["error"],
        }
        assert "bogus" in bad_param["error"]

    def test_infinite_period_is_a_bad_request_not_an_internal_error(self):
        metrics().reset()

        async def main():
            service, client = await started()
            # the client spells float("inf") as the JSON token Infinity
            resp = await client.request(
                "sweep", {"samples": 10, "periods": [float("inf")]}
            )
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is False
        assert resp["code"] == "bad_request"
        assert "periods" in resp["error"]
        counters = metrics().snapshot()["counters"]
        assert counters.get("service.internal_errors", 0) == 0

    def test_unsynthesizable_wordlengths_never_reach_the_evaluator(self):
        calls = []

        def counting(req, token, progress):
            calls.append(req.params)
            return {"value": 1}

        bad = [
            {"wordlengths": [0]},
            {"wordlengths": [25, 6]},
            {"ndigits": 32},
        ]

        async def main():
            service, client = await started(evaluator=counting)
            rejected = [
                await client.request("synthesis", {"samples": 10, **params})
                for params in bad
            ]
            control = await client.request(
                "synthesis", {"samples": 10, "wordlengths": [24]}
            )
            await finish(service, client)
            return rejected, control

        rejected, control = asyncio.run(main())
        assert [r["code"] for r in rejected] == ["bad_request"] * len(bad)
        assert control["ok"] is True
        assert [c["wordlengths"] for c in calls] == [(24,)]


class TestCoalescing:
    def test_n_identical_concurrent_requests_one_evaluation(self):
        metrics().reset()
        evaluations = []
        release = threading.Event()

        def evaluate(req, token, progress):
            evaluations.append(req.key)
            release.wait(timeout=5.0)
            return {"value": 42}

        async def main():
            service, client = await started(evaluator=evaluate)
            tasks = [
                asyncio.ensure_future(
                    client.request("montecarlo",
                                   {"samples": 100, "depths": [3]})
                )
                for _ in range(8)
            ]
            # let every request reach the registry before releasing
            while len(evaluations) == 0 or service.inflight.depth == 0:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            release.set()
            responses = await asyncio.gather(*tasks)
            await finish(service, client)
            return responses

        responses = asyncio.run(main())
        assert len(evaluations) == 1  # exactly one pool evaluation
        assert all(r["ok"] and r["result"]["value"] == 42 for r in responses)
        assert sum(r.get("coalesced", False) for r in responses) == 7
        counters = metrics().snapshot()["counters"]
        assert counters["service.coalesce_hits"] == 7

    def test_distinct_requests_do_not_coalesce(self):
        evaluations = []

        def evaluate(req, token, progress):
            evaluations.append(req.key)
            return {"ok": 1}

        async def main():
            service, client = await started(evaluator=evaluate)
            await asyncio.gather(
                client.request("montecarlo", {"samples": 100, "depths": [3]}),
                client.request("montecarlo", {"samples": 101, "depths": [3]}),
            )
            await finish(service, client)

        asyncio.run(main())
        assert len(evaluations) == 2
        assert evaluations[0] != evaluations[1]

    def test_followers_get_their_own_request_id(self):
        release = threading.Event()

        def evaluate(req, token, progress):
            release.wait(timeout=5.0)
            return {"v": 1}

        async def main():
            service, client = await started(evaluator=evaluate)
            t1 = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            t2 = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            await asyncio.sleep(0.1)
            release.set()
            r1, r2 = await asyncio.gather(t1, t2)
            await finish(service, client)
            return r1, r2

        r1, r2 = asyncio.run(main())
        assert r1["id"] != r2["id"]  # correlation survives coalescing


class TestCacheShortCircuit:
    def test_cached_result_answers_without_evaluating(self, tmp_path):
        evaluations = []

        def evaluate(req, token, progress):
            evaluations.append(req.key)
            return {"v": 7}

        config = service_config(
            run_config=BASE.with_(cache_dir=str(tmp_path))
        )

        async def main():
            service, client = await started(config)
            # the real evaluator populates the persistent cache
            first = await client.request(
                "montecarlo", {"samples": 60, "depths": [2]}
            )
            service.evaluator = evaluate
            second = await client.request(
                "montecarlo", {"samples": 60, "depths": [2]}
            )
            await finish(service, client)
            return first, second

        first, second = asyncio.run(main())
        assert first["ok"] and "cached" not in first
        assert second["ok"] and second["cached"] is True
        assert second["result"]["mean_abs_error"] == \
            first["result"]["mean_abs_error"]
        assert evaluations == []  # cache answered before the queue


    def test_a_miss_costs_one_lookup_and_one_put(self, tmp_path, monkeypatch):
        """The daemon's handle is the service's only one: an answered
        miss is looked up once and stored once, and no request builds a
        handle of its own."""
        from repro.runners.cache import ResultCache

        config = service_config(
            run_config=BASE.with_(cache_dir=str(tmp_path))
        )
        opened = []
        init = ResultCache.__init__

        def counting_init(self, *args, **kwargs):
            opened.append(args)
            init(self, *args, **kwargs)

        def cache_counters():
            counters = metrics().snapshot()["counters"]
            return tuple(
                counters.get(f"cache.{name}", 0)
                for name in ("misses", "puts", "hits")
            )

        async def main():
            service, client = await started(config)
            monkeypatch.setattr(ResultCache, "__init__", counting_init)
            request = ("montecarlo", {"samples": 60, "depths": [2, 3]})
            before = cache_counters()
            fresh = await client.request(*request)
            after_miss = cache_counters()
            cached = await client.request(*request)
            after_hit = cache_counters()
            await finish(service, client)
            return before, after_miss, after_hit, fresh, cached

        before, after_miss, after_hit, fresh, cached = asyncio.run(main())
        delta = lambda a, b: tuple(y - x for x, y in zip(a, b))  # noqa: E731
        assert delta(before, after_miss) == (1, 1, 0)
        assert delta(after_miss, after_hit) == (0, 0, 1)
        assert opened == []
        assert cached["cached"] is True
        assert json.dumps(cached["result"], sort_keys=True) == \
            json.dumps(fresh["result"], sort_keys=True)

    @pytest.mark.parametrize("request_", [
        ("montecarlo", {"samples": 60, "depths": [2, 3]}),
        ("sweep", {"samples": 60, "steps": [2, 4, 6]}),
        ("synthesis", {"samples": 60}),
    ], ids=lambda r: r[0])
    def test_cached_answer_equals_fresh_as_bytes(self, tmp_path, request_):
        """A cache hit answers the fresh answer's bytes, from one JSON
        file per entry."""
        config = service_config(
            run_config=BASE.with_(cache_dir=str(tmp_path))
        )

        async def main():
            service, client = await started(config)
            fresh = await client.request(*request_)
            cached = await client.request(*request_)
            await finish(service, client)
            return fresh, cached

        fresh, cached = asyncio.run(main())
        assert fresh["ok"] and "cached" not in fresh
        assert cached["ok"] and cached["cached"] is True
        assert json.dumps(cached["result"], sort_keys=True) == \
            json.dumps(fresh["result"], sort_keys=True)
        assert list(tmp_path.glob("*.json"))
        assert list(tmp_path.rglob("*.npz")) == []


class TestShedding:
    def test_saturated_class_sheds_with_retry_after(self):
        metrics().reset()
        release = threading.Event()

        def evaluate(req, token, progress):
            release.wait(timeout=5.0)
            return {"v": 1}

        config = service_config(limits={"montecarlo": 1, "sweep": 1,
                                        "synthesis": 1})

        async def main():
            service, client = await started(config, evaluator=evaluate)
            leader = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            while service.admission.depth("montecarlo") == 0:
                await asyncio.sleep(0.01)
            shed = await client.request(
                "montecarlo", {"samples": 999, "depths": [3]}
            )
            release.set()
            await leader
            await finish(service, client)
            return shed

        shed = asyncio.run(main())
        assert shed["ok"] is False
        assert shed["code"] == "shed"
        assert shed["retry_after"] > 0
        assert "queue full" in shed["error"]
        assert metrics().snapshot()["counters"]["service.shed"] == 1


class TestEvaluationFailure:
    def test_evaluator_exception_is_answered_error_once(self):
        metrics().reset()
        calls = []

        def broken(req, token, progress):
            calls.append(req.key)
            raise OSError("worker exploded")

        async def main():
            service, client = await started(evaluator=broken)
            failed = await client.request(
                "montecarlo", {"samples": 100, "depths": [4]}
            )
            # the next request is evaluated as usual: nothing was tripped
            service.evaluator = lambda req, token, progress: {"v": 1}
            healthy = await client.request(
                "montecarlo", {"samples": 101, "depths": [4]}
            )
            await finish(service, client)
            return failed, healthy

        failed, healthy = asyncio.run(main())
        assert len(calls) == 1  # no retry: the runner owns pool loss
        assert failed["ok"] is False
        assert failed["code"] == "error"
        assert failed["error"] == "OSError: worker exploded"
        assert "degraded" not in failed
        assert healthy == {
            "ok": True, "id": healthy["id"], "kind": "montecarlo",
            "key": healthy["key"], "result": {"v": 1},
        }
        counters = metrics().snapshot()["counters"]
        assert counters["service.errors"] == 1

    def test_run_cancelled_is_answered_cancelled(self):
        def cancelled(req, token, progress):
            raise RunCancelled("stopped")

        async def main():
            service, client = await started(evaluator=cancelled)
            resp = await client.request(
                "montecarlo", {"samples": 100, "depths": [4]}
            )
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is False
        assert resp["code"] == "cancelled"
        assert resp["error"] == "stopped"


class TestLeaderFailure:
    def test_dying_leader_resolves_its_followers(self):
        """A group killed by an unexpected (non-evaluation) exception
        must still resolve its registry entry — followers get an
        honest ``internal`` response instead of hanging until their
        client-side timeout."""

        async def main():
            service, client = await started()
            release = asyncio.Event()

            async def crashing_evaluation(req, members, token):
                await release.wait()
                raise RuntimeError("handler bug, not an evaluation error")

            service.inflight._evaluate = crashing_evaluation
            tasks = [
                asyncio.ensure_future(
                    client.request(
                        "montecarlo", {"samples": 100, "depths": [3]},
                        timeout=5.0,
                    )
                )
                for _ in range(3)
            ]
            # wait for one leader plus two parked followers
            while service.inflight.depth == 0:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            release.set()
            responses = await asyncio.gather(*tasks)
            depth = service.inflight.depth
            await finish(service, client)
            return responses, depth

        responses, depth = asyncio.run(main())
        assert all(r["ok"] is False for r in responses)
        assert all(r["code"] == "internal" for r in responses)
        assert depth == 0  # nothing stranded in the registry


class TestDeadline:
    def test_deadline_cancels_into_the_runner(self):
        async def main():
            service, client = await started(
                evaluator=cooperative_slow(10.0)
            )
            t0 = time.monotonic()
            r = await client.request(
                "montecarlo", {"samples": 100, "depths": [4]}, deadline=0.2
            )
            elapsed = time.monotonic() - t0
            await finish(service, client)
            return r, elapsed

        r, elapsed = asyncio.run(main())
        assert r["ok"] is False
        assert r["code"] == "deadline"
        assert elapsed < 5.0  # nowhere near the evaluator's 10s

    def test_follower_is_not_cut_short_by_its_leaders_deadline(self):
        calls = []
        slow = cooperative_slow(0.6)

        def evaluate(req, token, progress):
            calls.append(req.deadline)
            return slow(req, token, progress)

        async def main():
            service, client = await started(evaluator=evaluate)
            request = ("montecarlo", {"samples": 100, "depths": [4]})
            leader = asyncio.ensure_future(
                client.request(*request, deadline=0.3)
            )
            while service.inflight.depth == 0:
                await asyncio.sleep(0.005)
            follower = await client.request(*request)
            leader = await leader
            await finish(service, client)
            return leader, follower

        metrics().reset()
        leader, follower = asyncio.run(main())
        assert leader["code"] == "deadline"
        # the follower set no deadline: it is run as its own request
        assert follower["ok"] is True, follower
        assert follower["result"] == {"slept": 0.6}
        assert "coalesced" not in follower
        assert calls == [0.3, None]
        assert metrics().snapshot()["counters"]["service.readmitted"] == 1

    def test_follower_past_its_own_deadline_keeps_the_deadline(self):
        async def main():
            service, client = await started(
                evaluator=cooperative_slow(10.0)
            )
            request = ("montecarlo", {"samples": 100, "depths": [4]})
            leader = asyncio.ensure_future(
                client.request(*request, deadline=0.3)
            )
            while service.inflight.depth == 0:
                await asyncio.sleep(0.005)
            follower = await client.request(*request, deadline=0.05)
            leader = await leader
            await finish(service, client)
            return leader, follower

        leader, follower = asyncio.run(main())
        assert leader["code"] == "deadline"
        assert follower["code"] == "deadline"
        assert follower["coalesced"] is True

    def test_follower_is_answered_at_its_own_deadline(self):
        async def main():
            service, client = await started(
                evaluator=cooperative_slow(2.0)
            )
            request = ("montecarlo", {"samples": 100, "depths": [4]})
            leader = asyncio.ensure_future(
                client.request(*request, deadline=0.3)
            )
            while service.inflight.depth == 0:
                await asyncio.sleep(0.005)
            t0 = time.monotonic()
            follower = await client.request(*request, deadline=0.05)
            elapsed = time.monotonic() - t0
            leader = await leader
            await finish(service, client)
            return leader, follower, elapsed

        leader, follower, elapsed = asyncio.run(main())
        assert elapsed < 0.2, elapsed
        assert follower["code"] == "deadline"
        assert follower["error"] == "deadline of 0.05s exceeded"
        assert follower["coalesced"] is True
        # the leader's evaluation and answer are untouched
        assert leader["code"] == "deadline"
        assert leader["error"] == "deadline of 0.3s exceeded"

    def test_fast_request_beats_its_deadline(self):
        async def main():
            service, client = await started(evaluator=lambda r, t, p: {"v": 1})
            r = await client.request(
                "montecarlo", {"samples": 100, "depths": [4]}, deadline=30.0
            )
            await finish(service, client)
            return r

        r = asyncio.run(main())
        assert r["ok"] is True


class TestDrain:
    def test_drain_finishes_inflight_then_rejects(self):
        release = threading.Event()

        def evaluate(req, token, progress):
            release.wait(timeout=5.0)
            return {"v": "done"}

        async def main():
            service, client = await started(evaluator=evaluate)
            inflight = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            while service.admission.depth() == 0:
                await asyncio.sleep(0.01)
            drain_task = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)
            release.set()
            inflight_resp = await inflight
            await drain_task
            late = await service.handle(
                {"kind": "montecarlo", "params": {"samples": 10}}
            )
            ready = service._admin({"kind": "readyz"})
            await client.aclose()
            return inflight_resp, late, ready

        inflight_resp, late, ready = asyncio.run(main())
        assert inflight_resp["ok"] is True  # in-flight work completed
        assert inflight_resp["result"]["v"] == "done"
        assert late["code"] == "draining"
        assert ready["ok"] is False and ready["draining"] is True

    def test_drain_is_idempotent(self):
        async def main():
            service, client = await started()
            await service.drain()
            await service.drain()
            await client.aclose()

        asyncio.run(main())

    def test_progress_after_drain_closed_the_loop_does_not_raise(self):
        # a straggler outlives drain_timeout and the event loop; its
        # next shard report cannot hop onto the closed loop, and must
        # not raise into the orphaned evaluator thread either
        release = threading.Event()
        reported = threading.Event()
        raised = []

        def evaluate(req, token, progress):
            release.wait(timeout=5.0)
            try:
                progress.begin(1, 1)
                progress.shard_queued(0, 1)
            except Exception as exc:  # pragma: no cover - the failure
                raised.append(exc)
            reported.set()
            return {"v": "late"}

        async def main():
            service, client = await started(
                service_config(drain_timeout=0.1), evaluator=evaluate
            )
            inflight = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            while service.admission.depth() == 0:
                await asyncio.sleep(0.01)
            await service.drain()
            resp = await inflight
            await client.aclose()
            return resp

        before = metrics().snapshot()["counters"].get(
            "events.callback_errors", 0
        )
        resp = asyncio.run(main())  # returns with the loop closed
        release.set()
        assert reported.wait(timeout=5.0)
        assert resp["code"] == "draining"  # the straggler was rejected
        assert raised == []
        after = metrics().snapshot()["counters"]["events.callback_errors"]
        assert after == before + 1  # the one report that found no loop
