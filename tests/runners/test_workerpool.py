"""WorkerPool: resident warm workers, crash replacement, cancellation.

The contracts under test:

* worker *processes* persist across ``map`` calls (the whole point —
  per-process caches stay hot);
* sharing a pool never changes results (bit-identity vs ``jobs=1``);
* a worker loss replaces the executor exactly once per generation,
  counts under ``pool.worker_restarts``, and the run still succeeds;
* a cancellation is *not* a loss — the resident workers stay warm;
* at the service level, a mid-evaluation worker kill yields a real
  recovered answer and never opens the circuit breaker.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.obs.metrics import metrics
from repro.runners import ParallelRunner, RunConfig, WorkerPool
from repro.runners.parallel import CancelToken, RunCancelled
from repro.sim.montecarlo import run_montecarlo


# module-level workers: must be picklable for the process pool
def _pid(task):
    return os.getpid()


def _double(task):
    return task * 2


def _kill_once(task):
    """Hard-kill the hosting worker the first time through (flag file)."""
    flag = task["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("killed")
        os._exit(3)
    return task["value"] * 2


class TestWarmWorkers:
    def test_worker_processes_persist_across_maps(self):
        pool = WorkerPool(jobs=2)
        try:
            # every resident worker is started by the first warm-up; under
            # CPU load one of them may absorb both barrier tasks, so keep
            # warming until each has reported its pid
            warm = set()
            for _ in range(50):
                warm |= set(pool.warm_up())
                if len(warm) == 2:
                    break
            assert len(warm) == 2
            first = set(ParallelRunner(worker_pool=pool).map(
                _pid, list(range(6)), samples=[1] * 6
            ))
            second = set(ParallelRunner(worker_pool=pool).map(
                _pid, list(range(6)), samples=[1] * 6
            ))
            # same resident processes, not respawns — which of them a
            # map happens to use is up to the scheduler
            assert first <= warm
            assert second <= warm
            assert pool.restarts == 0
        finally:
            pool.shutdown()

    def test_jobs_default_follows_pool_size(self):
        pool = WorkerPool(jobs=3)
        try:
            assert ParallelRunner(worker_pool=pool).jobs == 3
        finally:
            pool.shutdown()

    def test_warm_up_reports_worker_pids(self):
        pool = WorkerPool(jobs=2)
        try:
            pids = pool.warm_up()
            assert 1 <= len(pids) <= 2
            assert all(isinstance(p, int) for p in pids)
        finally:
            pool.shutdown()

    def test_bit_identity_with_shared_pool(self):
        config = RunConfig(
            ndigits=4, seed=11, jobs=1, cache_dir=None, shard_size=50
        )
        solo = run_montecarlo(config, num_samples=200, depths=[3, 5])
        pool = WorkerPool(jobs=2)
        try:
            warm = run_montecarlo(
                config,
                num_samples=200,
                depths=[3, 5],
                runner=ParallelRunner(worker_pool=pool),
            )
        finally:
            pool.shutdown()
        np.testing.assert_array_equal(solo.depths, warm.depths)
        np.testing.assert_array_equal(
            solo.mean_abs_error, warm.mean_abs_error
        )
        np.testing.assert_array_equal(
            solo.violation_probability, warm.violation_probability
        )


class TestCrashReplacement:
    def test_worker_kill_is_replaced_and_run_recovers(self, tmp_path):
        metrics().reset()
        pool = WorkerPool(jobs=2)
        try:
            runner = ParallelRunner(worker_pool=pool, backoff=0.01)
            flag = str(tmp_path / "killed.flag")
            tasks = [{"flag": flag, "value": v} for v in range(4)]
            results = runner.map(_kill_once, tasks, samples=[1] * 4)
            assert results == [0, 2, 4, 6]  # recovered, in order
            assert pool.restarts >= 1
            assert pool.generation == pool.restarts
            counters = metrics().snapshot()["counters"]
            assert counters["pool.worker_restarts"] == pool.restarts
            # a replacement is a pool failure for the *runner's* stats...
            assert runner.stats.pool_failures >= 1
            # ...but the replaced pool keeps serving
            again = ParallelRunner(worker_pool=pool).map(
                _double, [1, 2, 3], samples=[1] * 3
            )
            assert again == [2, 4, 6]
        finally:
            pool.shutdown()

    def test_replace_is_idempotent_per_generation(self):
        pool = WorkerPool(jobs=1)
        try:
            _, generation = pool.lease()
            assert pool.replace(generation, "test loss") is True
            # a second claim on the same generation is a no-op: another
            # runner racing on the same broken executor must not
            # double-replace
            assert pool.replace(generation, "test loss") is False
            assert pool.restarts == 1
            assert pool.generation == generation + 1
        finally:
            pool.shutdown()

    def test_replace_after_shutdown_is_refused(self):
        pool = WorkerPool(jobs=1)
        _, generation = pool.lease()
        pool.shutdown()
        assert pool.replace(generation) is False
        with pytest.raises(RuntimeError):
            pool.lease()

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)


class TestCancellation:
    def test_cancel_keeps_workers_resident(self):
        pool = WorkerPool(jobs=2)
        try:
            before = set(pool.warm_up())
            token = CancelToken()
            token.cancel("deadline expired")
            runner = ParallelRunner(worker_pool=pool, cancel_token=token)
            with pytest.raises(RunCancelled):
                runner.map(_double, list(range(4)), samples=[1] * 4)
            # not a loss: no replacement, and the same processes answer
            assert pool.restarts == 0
            assert pool.generation == 0
            after = set(ParallelRunner(worker_pool=pool).map(
                _pid, list(range(6)), samples=[1] * 6
            ))
            assert after <= before
        finally:
            pool.shutdown()


class TestServiceRecovery:
    def test_worker_kill_mid_request_recovers_without_breaker_trip(
        self, tmp_path
    ):
        from repro.service import EvalService, ServiceConfig
        from repro.service.client import ServiceClient

        flag = str(tmp_path / "service-killed.flag")

        def evaluate(req, token):
            # run the request over the service's *resident* pool with a
            # worker that kills itself once — the exact failure the
            # never-fail contract is about
            runner = ParallelRunner(
                worker_pool=service.worker_pool, backoff=0.01
            )
            tasks = [{"flag": flag, "value": v} for v in range(4)]
            return {"values": runner.map(_kill_once, tasks)}

        config = ServiceConfig(
            run_config=RunConfig(ndigits=3, seed=7, jobs=1, cache_dir=None),
            concurrency=2,
            workers=2,
            failure_threshold=1,  # a single recorded failure would open it
        )
        service = EvalService(config, evaluator=evaluate)

        async def main():
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            resp = await client.request(
                "montecarlo", {"samples": 100, "depths": [3]}
            )
            state = service.breaker.state
            restarts = service.worker_pool.restarts
            await client.aclose()
            await service.drain()
            return resp, state, restarts

        resp, state, restarts = asyncio.run(main())
        assert resp["ok"] is True
        assert "degraded" not in resp
        assert resp["result"]["values"] == [0, 2, 4, 6]
        assert state == "closed"  # a worker crash never trips the breaker
        assert restarts >= 1
