"""End-to-end daemon tests: socket round trips, coalescing, shedding,
breaker/degraded answers, deadlines and graceful drain.

No pytest-asyncio here by design — each test drives its own event loop
with ``asyncio.run``, which also guarantees the daemon's lifecycle is
exercised from a cold loop every time (exactly how ``repro serve``
runs it).  Evaluators are injected: these tests exercise the *service*
semantics; the real evaluator is covered by the round-trip test and
the integration suite.
"""

import asyncio
import threading
import time

from repro.obs.metrics import metrics
from repro.runners.config import RunConfig
from repro.runners.parallel import RunCancelled
from repro.service import (
    EvalService,
    ServiceClient,
    ServiceConfig,
    TransientEvalError,
)
from repro.service.retry import RetryPolicy


BASE = RunConfig(ndigits=3, seed=7, jobs=1, cache_dir=None)
FAST_RETRY = RetryPolicy(base=0.005, cap=0.01, budget=0.03, max_attempts=3)


def service_config(**overrides):
    kwargs = dict(
        run_config=BASE,
        concurrency=2,
        retry=FAST_RETRY,
        failure_threshold=2,
        reset_timeout=0.2,
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

    def evaluate(req, token):
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
        assert stats["breaker"] == "closed"
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

        def counting(req, token):
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

        def evaluate(req, token):
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

        def evaluate(req, token):
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

        def evaluate(req, token):
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

        def evaluate(req, token):
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
        assert cached["result"] == fresh["result"]


class TestShedding:
    def test_saturated_class_sheds_with_retry_after(self):
        metrics().reset()
        release = threading.Event()

        def evaluate(req, token):
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


class TestBreakerAndDegradation:
    def test_pool_down_still_answers_every_request(self):
        metrics().reset()

        def broken(req, token):
            raise TransientEvalError("worker exploded")

        async def main():
            service, client = await started(evaluator=broken)
            responses = []
            for i in range(5):
                responses.append(await client.request(
                    "montecarlo", {"samples": 100 + i, "depths": [4]}
                ))
            state = service.breaker.state
            await finish(service, client)
            return responses, state

        responses, state = asyncio.run(main())
        assert state == "open"
        # every request answered, all via the analytical degraded path
        assert all(r["ok"] for r in responses)
        assert all(r["degraded"] for r in responses)
        # first two paid the retry schedule and tripped the breaker;
        # the rest short-circuited on the open breaker
        counters = metrics().snapshot()["counters"]
        assert counters["service.breaker.opened"] == 1
        assert counters["service.pool_exhausted"] == 2
        assert counters["service.degraded"] == 5
        assert counters["service.retries"] == 2 * 2  # 2 retries x 2 requests

    def test_retry_backoff_does_not_hold_the_only_slot(self):
        def fail_one(req, token):
            if req.params["samples"] == 100:
                raise TransientEvalError("worker exploded")
            return {"v": 1}

        config = service_config(
            concurrency=1,
            failure_threshold=5,
            retry=RetryPolicy(base=0.2, cap=0.2, budget=0.4, max_attempts=3),
        )

        async def main():
            service, client = await started(config, evaluator=fail_one)
            order = []

            async def ask(samples):
                resp = await client.request(
                    "montecarlo", {"samples": samples, "depths": [4]}
                )
                order.append(samples)
                return resp

            failing = asyncio.ensure_future(ask(100))
            while metrics().snapshot()["counters"].get(
                    "service.retries", 0) == 0:
                await asyncio.sleep(0.005)
            healthy = await ask(101)
            degraded = await failing
            await finish(service, client)
            return healthy, degraded, order

        metrics().reset()
        healthy, degraded, order = asyncio.run(main())
        assert healthy["ok"] and "degraded" not in healthy
        assert degraded["degraded"] is True
        assert order == [101, 100]  # served during the other's backoff

    def test_half_open_probe_restores_service(self):
        calls = {"n": 0}

        def flaky_then_fixed(req, token):
            calls["n"] += 1
            if calls["n"] <= 6:  # 2 requests x 3 attempts all fail
                raise TransientEvalError("still down")
            return {"v": "recovered"}

        async def main():
            service, client = await started(evaluator=flaky_then_fixed)
            for i in range(2):
                r = await client.request(
                    "montecarlo", {"samples": 200 + i, "depths": [4]}
                )
                assert r["degraded"]
            assert service.breaker.state == "open"
            await asyncio.sleep(0.25)  # past reset_timeout
            probe = await client.request(
                "montecarlo", {"samples": 300, "depths": [4]}
            )
            state = service.breaker.state
            await finish(service, client)
            return probe, state

        probe, state = asyncio.run(main())
        assert probe["ok"] is True
        assert "degraded" not in probe
        assert probe["result"]["v"] == "recovered"
        assert state == "closed"

    def test_degraded_montecarlo_answer_has_model_rows(self):
        def broken(req, token):
            raise TransientEvalError("down")

        config = service_config(failure_threshold=1)

        async def main():
            service, client = await started(config, evaluator=broken)
            r = await client.request(
                "montecarlo", {"samples": 100, "depths": [4, 6]}
            )
            await finish(service, client)
            return r

        r = asyncio.run(main())
        assert r["degraded"] is True
        assert r["source"] == "analytical-model"
        rows = r["result"]["rows"]
        assert [row["depth"] for row in rows] == [4, 6]
        assert rows[0]["mean_abs_error"] >= rows[1]["mean_abs_error"]


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

    def test_fast_request_beats_its_deadline(self):
        async def main():
            service, client = await started(evaluator=lambda r, t: {"v": 1})
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

        def evaluate(req, token):
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
