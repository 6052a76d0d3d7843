"""Fusion: compatible requests queued for an evaluator slot fuse into
one evaluation whose split responses are byte-identical to solo runs.

Same test style as ``test_daemon.py``: each test drives its own event
loop with ``asyncio.run`` against a real daemon socket; the real
evaluator is used wherever bit-identity is the claim under test, and
injected evaluators wherever failure-path splitting is.  Fusion is
triggered the way load triggers it: a gated blocker request holds the
daemon's only evaluator slot (``concurrency=1``) while the requests
under test queue behind it.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.obs.metrics import metrics
from repro.runners.config import RunConfig
from repro.service import EvalService, ServiceClient, ServiceConfig
from repro.service.batch import merge_requests
from repro.service.daemon import evaluate_request
from repro.service.requests import parse_request


BASE = RunConfig(ndigits=3, seed=7, jobs=1, cache_dir=None)


def service_config(**overrides):
    kwargs = dict(
        run_config=BASE,
        concurrency=1,
        drain_timeout=2.0,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def counted(evaluator):
    """Wrap an evaluator, recording each invocation's coalescing key."""
    calls = []

    def wrapped(req, token, progress):
        calls.append(req.key)
        return evaluator(req, token, progress)

    return wrapped, calls


class Gate:
    """An evaluator whose blocker request holds the slot until opened.

    Every other request goes to the wrapped *evaluator*, so a counting
    evaluator never sees the blocker.
    """

    BLOCKER = ("synthesis", {"samples": 7})

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.entered = threading.Event()
        self.opened = threading.Event()

    def __call__(self, req, token, progress):
        kind, params = self.BLOCKER
        if req.kind == kind and req.params["samples"] == params["samples"]:
            self.entered.set()
            self.opened.wait(timeout=10.0)
            return {"blocked": True}
        return self.evaluator(req, token, progress)


async def started(config=None, evaluator=None):
    service = EvalService(
        config or service_config(),
        evaluator=Gate(evaluator or evaluate_request),
    )
    await service.start()
    client = await ServiceClient.connect("127.0.0.1", service.port)
    return service, client


async def finish(service, client):
    await client.aclose()
    await service.drain()


async def hold_slot(service, client):
    """Occupy the only evaluator slot; returns the blocker's task."""
    blocker = asyncio.ensure_future(client.request(*Gate.BLOCKER))
    while not service.evaluator.entered.is_set():
        await asyncio.sleep(0.005)
    return blocker


async def queued(service, client, requests, inflight=None):
    """Send *requests* behind the blocker, then open the gate.

    Opens once *inflight* keys (default: the blocker plus one per
    request) are registered, i.e. once every request has queued.
    """
    blocker = await hold_slot(service, client)
    tasks = [
        asyncio.ensure_future(client.request(kind, params))
        for kind, params in requests
    ]
    if inflight is None:
        inflight = 1 + len(requests)
    while service.inflight.depth < inflight:
        await asyncio.sleep(0.005)
    service.evaluator.opened.set()
    await blocker
    return await asyncio.gather(*tasks)


def canonical(response):
    return json.dumps(response["result"], sort_keys=True)


def parse(kind, params, deadline=None):
    return parse_request(
        {"id": "t", "kind": kind, "params": params, "deadline": deadline},
        base_config=BASE,
    )


class TestMergeRequests:
    def test_union_grid_carries_the_organic_content_address(self):
        r1 = parse("montecarlo", {"samples": 80, "depths": [2, 4]})
        r2 = parse("montecarlo", {"samples": 80, "depths": [3]})
        merged = merge_requests([r1, r2])
        assert merged.params["depths"] == (2, 3, 4)
        # the merged request is indistinguishable from an organic
        # request for the union grid — same key, same cache entry
        organic = parse("montecarlo", {"samples": 80, "depths": [2, 3, 4]})
        assert merged.key == organic.key
        assert merged.batch_key == r1.batch_key

    def test_sweep_union_steps(self):
        r1 = parse("sweep", {"samples": 80, "steps": [1, 2]})
        r2 = parse("sweep", {"samples": 80, "steps": [2, 3]})
        merged = merge_requests([r1, r2])
        assert merged.params["steps"] == (1, 2, 3)

    def test_different_batch_classes_refuse_to_merge(self):
        r1 = parse("montecarlo", {"samples": 80, "depths": [2]})
        r2 = parse("montecarlo", {"samples": 81, "depths": [3]})
        assert r1.batch_key != r2.batch_key
        with pytest.raises(ValueError):
            merge_requests([r1, r2])

    def test_synthesis_is_never_batchable(self):
        req = parse("synthesis", {"samples": 50})
        assert req.batch_key is None

    def test_deadline_is_part_of_the_compatibility_class(self):
        r1 = parse("montecarlo", {"samples": 80, "depths": [2]}, deadline=5.0)
        r2 = parse("montecarlo", {"samples": 80, "depths": [3]})
        assert r1.batch_key != r2.batch_key


class TestBatchedBitIdentity:
    def test_compatible_requests_fuse_once_and_split_bit_identical(self):
        metrics().reset()
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            # both queue behind the blocker -> one fused evaluation
            b1, b2 = await queued(service, client, [
                ("montecarlo", {"samples": 80, "depths": [2, 4]}),
                ("montecarlo", {"samples": 80, "depths": [3]}),
            ])
            # replay each request alone -> the ordinary solo path
            s1 = await client.request(
                "montecarlo", {"samples": 80, "depths": [2, 4]}
            )
            s2 = await client.request(
                "montecarlo", {"samples": 80, "depths": [3]}
            )
            await finish(service, client)
            return b1, b2, s1, s2

        b1, b2, s1, s2 = asyncio.run(main())
        merged = parse("montecarlo", {"samples": 80, "depths": [2, 3, 4]})
        assert calls[0] == merged.key  # the fused union-grid evaluation
        assert len(calls) == 3  # 1 fused + 2 solo replays
        for batched, solo in ((b1, s1), (b2, s2)):
            assert batched["ok"] and solo["ok"]
            assert batched["key"] == solo["key"]
            assert canonical(batched) == canonical(solo)  # byte-identical
        assert b1["result"]["depths"] == [2, 4]
        assert b2["result"]["depths"] == [3]
        counters = metrics().snapshot()["counters"]
        assert counters["service.batched"] == 2
        assert "service.batch_size" in metrics().snapshot()["histograms"]

    def test_batched_sweep_recomputes_member_error_free_step(self):
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            b1, b2 = await queued(service, client, [
                ("sweep", {"samples": 80, "steps": [1, 2]}),
                ("sweep", {"samples": 80, "steps": [2, 3]}),
            ])
            s1 = await client.request(
                "sweep", {"samples": 80, "steps": [1, 2]}
            )
            s2 = await client.request(
                "sweep", {"samples": 80, "steps": [2, 3]}
            )
            await finish(service, client)
            return b1, b2, s1, s2

        b1, b2, s1, s2 = asyncio.run(main())
        assert len(calls) == 3
        for batched, solo in ((b1, s1), (b2, s2)):
            # the whole payload — including the grid-dependent
            # error_free_step — must match the solo spelling
            assert canonical(batched) == canonical(solo)
        assert b1["result"]["steps"] == [1, 2]
        assert b2["result"]["steps"] == [2, 3]

    def test_members_keep_their_own_ids(self):
        async def main():
            service, client = await started(evaluator=evaluate_request)
            r1, r2 = await queued(service, client, [
                ("montecarlo", {"samples": 80, "depths": [2]}),
                ("montecarlo", {"samples": 80, "depths": [3]}),
            ])
            await finish(service, client)
            return r1, r2

        r1, r2 = asyncio.run(main())
        assert r1["id"] != r2["id"]
        assert r1["result"]["depths"] == [2]
        assert r2["result"]["depths"] == [3]


class TestBatchedProgress:
    def test_every_fused_member_streams_its_own_frames(self):
        members = [
            ({"samples": 80, "depths": [2, 4]}, []),
            ({"samples": 80, "depths": [3]}, []),
        ]

        async def main():
            service, client = await started(
                service_config(run_config=BASE.with_(shard_size=20))
            )
            blocker = await hold_slot(service, client)
            tasks = [
                asyncio.ensure_future(client.request(
                    "montecarlo", params, on_progress=frames.append
                ))
                for params, frames in members
            ]
            while service.inflight.depth < 1 + len(members):
                await asyncio.sleep(0.005)
            service.evaluator.opened.set()
            await blocker
            responses = await asyncio.gather(*tasks)
            await finish(service, client)
            return responses

        responses = asyncio.run(main())
        for resp, (_, frames) in zip(responses, members):
            assert resp["ok"] is True
            assert frames, "a fused member streamed no progress"
            assert {f["id"] for f in frames} == {resp["id"]}
            assert {f["key"] for f in frames} == {resp["key"]}
            assert frames[-1]["shards_done"] == frames[-1]["shards_total"] == 4
        # one evaluation: every member sees each of its events
        seqs = [[f["seq"] for f in frames] for _, frames in members]
        assert seqs[0] == seqs[1]


class TestPerMemberCacheWrites:
    def test_batched_members_cache_under_their_own_keys(self, tmp_path):
        evaluator, calls = counted(evaluate_request)
        config = service_config(
            run_config=BASE.with_(cache_dir=str(tmp_path))
        )

        async def main():
            service, client = await started(config, evaluator=evaluator)
            b1, _ = await queued(service, client, [
                ("montecarlo", {"samples": 60, "depths": [2, 4]}),
                ("montecarlo", {"samples": 60, "depths": [3]}),
            ])
            # a later solo request must cache-hit exactly as if its
            # member had run alone
            replay = await client.request(
                "montecarlo", {"samples": 60, "depths": [2, 4]}
            )
            await finish(service, client)
            return b1, replay

        b1, replay = asyncio.run(main())
        assert len(calls) == 1  # the replay never reached an evaluator
        assert replay["cached"] is True
        assert canonical(replay) == canonical(b1)


    def test_fused_group_stores_its_members_not_the_union_grid(
        self, tmp_path
    ):
        config = service_config(
            run_config=BASE.with_(cache_dir=str(tmp_path))
        )
        members = [
            ("montecarlo", {"samples": 60, "depths": [2, 4]}),
            ("montecarlo", {"samples": 60, "depths": [3]}),
        ]

        async def main():
            service, client = await started(config)
            responses = await queued(service, client, members)
            await finish(service, client)
            return responses

        responses = asyncio.run(main())
        stored = sorted(path.stem for path in tmp_path.glob("*.json"))
        assert stored == sorted(r["key"] for r in responses)


class TestCompatibilityBoundaries:
    def test_incompatible_requests_evaluate_separately(self):
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            await queued(service, client, [
                ("montecarlo", {"samples": 80, "depths": [2]}),
                ("montecarlo", {"samples": 81, "depths": [3]}),
            ])
            await finish(service, client)

        asyncio.run(main())
        assert len(calls) == 2

    def test_synthesis_requests_never_fuse(self):
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            responses = await queued(service, client, [
                ("synthesis", {"samples": 40, "datapath": "mac"}),
                ("synthesis", {"samples": 40, "datapath": "mac",
                               "target_mre": 9.0}),
            ])
            await finish(service, client)
            return responses

        responses = asyncio.run(main())
        assert all(r["ok"] for r in responses)
        assert len(calls) == 2  # each synthesis request is its own group

    def test_single_member_window_is_invisible(self):
        metrics().reset()
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            (resp,) = await queued(service, client, [
                ("montecarlo", {"samples": 80, "depths": [2]}),
            ])
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        solo = parse("montecarlo", {"samples": 80, "depths": [2]})
        assert calls == [solo.key]  # evaluated under its own key, unmerged
        assert resp["ok"] is True
        assert "service.batched" not in metrics().snapshot()["counters"]

    def test_lone_compatible_request_never_waits(self):
        starts = []

        def timed(req, token, progress):
            starts.append(time.monotonic())
            return evaluate_request(req, token, progress)

        async def main():
            service, client = await started(evaluator=timed)
            sent = time.monotonic()
            resp = await client.request(
                "montecarlo", {"samples": 80, "depths": [2]}
            )
            await finish(service, client)
            return resp, sent

        resp, sent = asyncio.run(main())
        assert resp["ok"] is True
        # an idle slot is taken at once: no gather window to sit out
        assert starts[0] - sent < 0.2

    def test_compatible_request_past_the_class_limit_is_shed(self):
        metrics().reset()
        evaluator, calls = counted(evaluate_request)
        config = service_config(
            limits={"montecarlo": 2, "sweep": 2, "synthesis": 1}
        )

        async def main():
            service, client = await started(config, evaluator=evaluator)
            responses = await queued(service, client, [
                ("montecarlo", {"samples": 80, "depths": [2]}),
                ("montecarlo", {"samples": 80, "depths": [3]}),
                ("montecarlo", {"samples": 80, "depths": [4]}),
            ], inflight=3)
            await finish(service, client)
            return responses

        r1, r2, r3 = asyncio.run(main())
        assert r1["ok"] and r2["ok"]
        assert r3["ok"] is False
        assert r3["code"] == "shed"
        assert r3["retry_after"] > 0
        # the two admitted members fused; the shed one never joined
        assert len(calls) == 1
        assert metrics().snapshot()["counters"]["service.batched"] == 2


class TestDeadlines:
    def test_late_joiner_is_not_cut_short_by_the_openers_deadline(self):
        def slow(req, token, progress):
            time.sleep(1.5)
            return evaluate_request(req, token, progress)

        async def main():
            service, client = await started(evaluator=slow)
            blocker = await hold_slot(service, client)
            t0 = time.monotonic()
            opener = asyncio.ensure_future(client.request(
                "montecarlo", {"samples": 80, "depths": [2]}, deadline=2.0
            ))
            await asyncio.sleep(1.0)
            joiner = asyncio.ensure_future(client.request(
                "montecarlo", {"samples": 80, "depths": [3]}, deadline=2.0
            ))
            while service.inflight.depth < 3:
                await asyncio.sleep(0.005)
            service.evaluator.opened.set()
            await blocker
            first = await opener
            first_at = time.monotonic() - t0
            second = await joiner
            await finish(service, client)
            return first, first_at, second

        first, first_at, second = asyncio.run(main())
        # the opener is answered at its own deadline, never before it
        assert first["code"] == "deadline"
        assert first_at >= 2.0
        # the fused evaluation ran on to the joiner's later deadline
        assert second["ok"] is True
        assert second["result"]["depths"] == [3]


class TestFailureSplitting:
    def test_deterministic_error_is_copied_per_member(self):
        def explode(req, token, progress):
            raise ValueError("bad geometry")

        async def main():
            service, client = await started(evaluator=explode)
            r1, r2 = await queued(service, client, [
                ("montecarlo", {"samples": 80, "depths": [2]}),
                ("montecarlo", {"samples": 80, "depths": [3]}),
            ])
            await finish(service, client)
            return r1, r2

        r1, r2 = asyncio.run(main())
        for resp in (r1, r2):
            assert resp["ok"] is False
            assert resp["code"] == "error"
            assert "bad geometry" in resp["error"]
        assert r1["id"] != r2["id"]

    def test_drain_aborts_a_gathering_window(self):
        async def main():
            service, client = await started(evaluator=evaluate_request)
            blocker = await hold_slot(service, client)
            pending = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 80, "depths": [2]})
            )
            while service.inflight.depth < 2:
                await asyncio.sleep(0.01)
            drain = asyncio.ensure_future(service.drain())
            resp = await pending
            service.evaluator.opened.set()
            await blocker
            await drain
            await client.aclose()
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is False
        assert resp["code"] == "draining"

    def test_drain_aborts_a_queued_group_before_it_evaluates(self):
        metrics().reset()
        evaluator, calls = counted(evaluate_request)
        group = [
            ("montecarlo", {"samples": 80, "depths": [2]}),
            ("montecarlo", {"samples": 80, "depths": [3]}),
            ("montecarlo", {"samples": 80, "depths": [3]}),  # a follower
        ]

        async def main():
            service, client = await started(evaluator=evaluator)
            blocker = await hold_slot(service, client)
            pending = [
                asyncio.ensure_future(client.request(kind, params))
                for kind, params in group
            ]
            counters = metrics().snapshot()["counters"]
            while service.inflight.depth < 3 or \
                    "service.coalesce_hits" not in counters:
                await asyncio.sleep(0.01)
                counters = metrics().snapshot()["counters"]
            drain = asyncio.ensure_future(service.drain())
            responses = await asyncio.gather(*pending)
            service.evaluator.opened.set()
            blocked = await blocker
            await drain
            depth = service.inflight.depth
            await client.aclose()
            return responses, blocked, depth

        responses, blocked, depth = asyncio.run(main())
        assert [r["code"] for r in responses] == ["draining"] * 3
        assert calls == []  # the queued group never reached the evaluator
        assert blocked["ok"] is True  # the running evaluation finished
        assert depth == 0
