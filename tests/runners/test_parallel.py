"""ParallelRunner: determinism across jobs, crash fallback, shims.

The load-bearing guarantees of the orchestration layer:

* ``jobs=1`` and ``jobs=N`` merge to **bit-identical** results for every
  experiment entry point (deterministic shard layout + spawned seeds +
  ordered accumulation);
* a worker killed mid-run is retried on a fresh pool and the run
  recovers — also inside a live service, whose answer stays exact;
* a crashing worker pool, or one whose workers cannot be forked,
  degrades to in-process execution instead of failing the experiment.
"""

import asyncio
import errno
import os
import warnings

import numpy as np
import pytest

from repro.runners import (
    ParallelRunner,
    RunConfig,
    seed_tag,
    split_samples,
    spawn_seeds,
)
from repro.sim.error_profile import run_error_profile
from repro.sim.montecarlo import (
    run_montecarlo,
    run_settle_histogram,
    uniform_digit_batch,
)
from repro.sim.sweep import OnlineMultiplierHarness, run_sweep


class TestSplitSamples:
    def test_exact_division(self):
        assert split_samples(600, 200) == [200, 200, 200]

    def test_remainder_shard(self):
        assert split_samples(650, 200) == [200, 200, 200, 50]

    def test_single_small_shard(self):
        assert split_samples(5, 200) == [5]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_samples(0, 10)
        with pytest.raises(ValueError):
            split_samples(10, 0)


class TestSeeds:
    def test_seed_tag_stable_and_distinct(self):
        assert seed_tag("montecarlo") == seed_tag("montecarlo")
        assert seed_tag("montecarlo") != seed_tag("sweep")
        assert 0 <= seed_tag("sweep") < 2**32

    def test_spawned_streams_reproducible(self):
        a = spawn_seeds(2014, 3, seed_tag("x"))
        b = spawn_seeds(2014, 3, seed_tag("x"))
        for sa, sb in zip(a, b):
            assert (
                np.random.default_rng(sa).integers(0, 1 << 30, 8).tolist()
                == np.random.default_rng(sb).integers(0, 1 << 30, 8).tolist()
            )

    def test_tags_separate_streams(self):
        a, = spawn_seeds(2014, 1, seed_tag("x"))
        b, = spawn_seeds(2014, 1, seed_tag("y"))
        assert (
            np.random.default_rng(a).integers(0, 1 << 30, 8).tolist()
            != np.random.default_rng(b).integers(0, 1 << 30, 8).tolist()
        )


# module-level workers: must be picklable for the process pool
def _double(task):
    return task * 2


def _crash_in_child(task):
    if os.getpid() != task["parent"]:
        os._exit(3)  # hard-kill pool workers; inline execution survives
    return task["value"] * 2


def _raise_value_error(task):
    raise ValueError(f"bad task {task}")


def _raise_os_error(task):
    raise OSError(errno.ENOSPC, f"no space for task {task}")


def _kill_once(task):
    """Hard-kill the hosting worker the first time through (flag file)."""
    flag = task["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("killed")
        os._exit(3)
    return task["value"] * 2


class TestRunnerMap:
    def test_inline_map_preserves_order(self):
        runner = ParallelRunner(jobs=1)
        assert runner.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert all(s.where == "inline" for s in runner.stats.shards)

    def test_pool_map_preserves_order(self):
        runner = ParallelRunner(jobs=2)
        assert runner.map(_double, list(range(7))) == [
            2 * i for i in range(7)
        ]
        assert any(s.where == "pool" for s in runner.stats.shards)

    def test_stats_populated(self):
        runner = ParallelRunner(jobs=1)
        runner.map(_double, [1, 2, 3], samples=[10, 10, 5])
        stats = runner.finalize_stats("unit", cache="off")
        assert stats.samples == 25
        assert stats.num_shards == 3
        assert stats.elapsed > 0
        assert stats.samples_per_second > 0
        assert not stats.degraded

    def test_worker_crash_degrades_to_inline(self):
        runner = ParallelRunner(jobs=2, backoff=0.01)
        tasks = [{"parent": os.getpid(), "value": v} for v in range(4)]
        results = runner.map(_crash_in_child, tasks, samples=[1] * 4)
        assert results == [0, 2, 4, 6]
        stats = runner.finalize_stats("crashy")
        assert stats.degraded
        assert stats.pool_failures == runner.max_pool_failures
        assert stats.retries >= 1
        assert all(s.where == "inline" for s in stats.shards)

    def test_worker_kill_is_retried_on_fresh_pool(self, tmp_path):
        runner = ParallelRunner(jobs=2, backoff=0.01)
        flag = str(tmp_path / "killed.flag")
        tasks = [{"flag": flag, "value": v} for v in range(4)]
        results = runner.map(_kill_once, tasks, samples=[1] * 4)
        assert results == [0, 2, 4, 6]  # recovered, in order
        stats = runner.finalize_stats("killed-once")
        # exactly one loss, recovered on the second pool — not inline
        assert stats.pool_failures == stats.retries == 1
        assert not stats.degraded
        assert all(s.where == "pool" for s in stats.shards)

    def test_failed_fork_degrades_to_exact_inline_values(self, monkeypatch):
        # a pool that cannot fork its workers is a pool loss: counted,
        # retried on a fresh pool, then finished in-process
        from concurrent.futures import ProcessPoolExecutor

        def no_fork(pool, *args, **kwargs):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(ProcessPoolExecutor, "submit", no_fork)
        runner = ParallelRunner(jobs=2, backoff=0.01)
        results = runner.map(_double, list(range(5)), samples=[1] * 5)
        assert results == [0, 2, 4, 6, 8]
        stats = runner.finalize_stats("no-fork")
        assert stats.degraded
        assert stats.pool_failures == runner.max_pool_failures
        assert stats.retries == runner.max_pool_failures
        assert all(s.where == "inline" for s in stats.shards)
        assert len(stats.failure_reasons) == stats.pool_failures
        assert stats.degrade_reason.startswith("BlockingIOError")

    def test_degrade_reason_names_the_failure(self):
        # the abandonment reason must survive into the stats (and from
        # there into result metadata / the [runner] line), not just a
        # retry counter
        from repro.sim.reporting import format_run_stats

        runner = ParallelRunner(jobs=2, backoff=0.01)
        tasks = [{"parent": os.getpid(), "value": v} for v in range(4)]
        runner.map(_crash_in_child, tasks, samples=[1] * 4)
        stats = runner.finalize_stats("crashy")
        assert stats.degraded
        assert stats.degrade_reason is not None
        assert "BrokenProcessPool" in stats.degrade_reason
        assert len(stats.failure_reasons) == stats.pool_failures
        assert all("BrokenProcessPool" in r for r in stats.failure_reasons)
        line = format_run_stats(stats)
        assert "degraded=inline" in line
        assert 'degrade_reason="' in line
        assert "BrokenProcessPool" in line

    def test_no_degrade_reason_on_clean_run(self):
        runner = ParallelRunner(jobs=2)
        runner.map(_double, [1, 2, 3])
        stats = runner.finalize_stats("clean")
        assert stats.degrade_reason is None
        assert stats.failure_reasons == []

    def test_degrade_events_and_metrics_recorded(self):
        from repro.obs import Tracer, metrics, use_tracer

        before = metrics().snapshot()["counters"].get("pool.degraded", 0)
        tracer = Tracer()
        with use_tracer(tracer):
            runner = ParallelRunner(jobs=2, backoff=0.01)
            tasks = [{"parent": os.getpid(), "value": v} for v in range(4)]
            runner.map(_crash_in_child, tasks, samples=[1] * 4)
        events = [r for r in tracer.records if r["type"] == "event"]
        names = [e["name"] for e in events]
        assert "pool.failure" in names
        assert "pool.degraded" in names
        degraded = [e for e in events if e["name"] == "pool.degraded"][0]
        assert "BrokenProcessPool" in degraded["attrs"]["reason"]
        after = metrics().snapshot()["counters"]["pool.degraded"]
        assert after == before + 1

    def test_worker_exception_propagates(self):
        runner = ParallelRunner(jobs=2)
        with pytest.raises(ValueError, match="bad task"):
            runner.map(_raise_value_error, [1, 2])
        # an OSError the shard raises is no pool loss, unlike a failed fork
        with pytest.raises(OSError, match="no space for task"):
            runner.map(_raise_os_error, [1, 2])
        assert runner.stats.pool_failures == 0

    def test_from_config(self):
        assert ParallelRunner.from_config(RunConfig(jobs=3)).jobs == 3

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)


# small shard_size so even tiny budgets exercise multi-shard merging
def _config(jobs: int) -> RunConfig:
    return RunConfig(ndigits=4, jobs=jobs, cache_dir=None, shard_size=100)


class TestBitIdenticalAcrossJobs:
    def test_montecarlo(self):
        a = run_montecarlo(_config(1), num_samples=350)
        b = run_montecarlo(_config(2), num_samples=350)
        assert np.array_equal(a.depths, b.depths)
        assert np.array_equal(a.mean_abs_error, b.mean_abs_error)
        assert np.array_equal(a.violation_probability, b.violation_probability)

    def test_sweep(self):
        a = run_sweep(_config(1), num_samples=250)
        b = run_sweep(_config(2), num_samples=250)
        assert np.array_equal(a.mean_abs_error, b.mean_abs_error)
        assert np.array_equal(a.violation_probability, b.violation_probability)
        assert a.error_free_step == b.error_free_step

    def test_error_profile(self):
        a = run_error_profile(_config(1), num_samples=250)
        b = run_error_profile(_config(2), num_samples=250)
        assert np.array_equal(a.rates, b.rates)
        assert a.positions == b.positions

    def test_settle_histogram(self):
        a = run_settle_histogram(_config(1), num_samples=350)
        b = run_settle_histogram(_config(2), num_samples=350)
        assert a == b

    def test_run_stats_attached(self):
        result = run_montecarlo(_config(1), num_samples=150)
        stats = result.run_stats
        assert stats.experiment == "montecarlo"
        assert stats.samples == 150
        assert stats.num_shards == 2  # 100 + 50
        assert stats.cache == "off"

    def test_shard_size_changes_the_draw(self):
        a = run_montecarlo(_config(1), num_samples=350)
        b = run_montecarlo(
            _config(1).with_(shard_size=70), num_samples=350
        )
        # different shard layout => different per-shard streams
        assert not np.array_equal(a.mean_abs_error, b.mean_abs_error)


class TestCachedRuns:
    """Hit == fresh and the jobs=2 hit are held at every cached entry
    point by ``tests/runners/test_run_path.py``."""

    def test_param_change_invalidates(self, tmp_path):
        config = _config(1).with_(cache_dir=str(tmp_path))
        run_sweep(config, num_samples=250)
        assert run_sweep(config, num_samples=251).run_stats.cache == "miss"
        assert (
            run_sweep(config.with_(seed=7), num_samples=250).run_stats.cache
            == "miss"
        )


def _sleep_then_double(task):
    import time

    time.sleep(task["sleep"])
    return task["value"] * 2


class TestCancellation:
    """A request-level cancel is a fourth outcome: not success, not a
    pool failure, not a degrade — and it must never pollute the pool
    failure accounting."""

    def test_precancelled_token_raises_before_any_work(self):
        from repro.runners import CancelToken, RunCancelled

        token = CancelToken()
        token.cancel("caller gave up")
        runner = ParallelRunner(jobs=1, cancel_token=token)
        executed = []

        def worker(task):
            executed.append(task)
            return task

        with pytest.raises(RunCancelled, match="caller gave up"):
            runner.map(worker, [1, 2, 3])
        assert executed == []
        assert runner.stats.cancelled

    def test_inline_cancel_between_shards(self):
        from repro.runners import CancelToken, RunCancelled

        token = CancelToken()
        runner = ParallelRunner(jobs=1, cancel_token=token)
        executed = []

        def worker(task):
            executed.append(task)
            if len(executed) == 2:
                token.cancel()
            return task

        with pytest.raises(RunCancelled):
            runner.map(worker, [1, 2, 3, 4])
        assert executed == [1, 2]  # the check runs before each shard

    def test_pool_cancel_does_not_count_as_pool_failure(self):
        import threading
        import time

        from repro.obs import metrics
        from repro.runners import CancelToken, RunCancelled

        before = metrics().snapshot()["counters"].get("pool.cancelled", 0)
        token = CancelToken()
        runner = ParallelRunner(jobs=2, cancel_token=token)
        tasks = [{"sleep": 0.8, "value": v} for v in range(4)]
        timer = threading.Timer(0.15, token.cancel, args=("deadline",))
        timer.start()
        t0 = time.monotonic()
        try:
            with pytest.raises(RunCancelled, match="deadline"):
                runner.map(_sleep_then_double, tasks, samples=[1] * 4)
        finally:
            timer.cancel()
        assert time.monotonic() - t0 < 0.8  # did not wait for the shards
        stats = runner.finalize_stats("cancelled")
        # the satellite contract: exact failure accounting
        assert stats.cancelled is True
        assert stats.pool_failures == 0
        assert stats.failure_reasons == []
        assert not stats.degraded
        after = metrics().snapshot()["counters"]["pool.cancelled"]
        assert after == before + 1

    def test_cancel_event_recorded_with_reason(self):
        from repro.obs import Tracer, use_tracer
        from repro.runners import CancelToken, RunCancelled

        token = CancelToken()
        token.cancel("client disconnected")
        tracer = Tracer()
        with use_tracer(tracer):
            runner = ParallelRunner(jobs=1, cancel_token=token)
            with pytest.raises(RunCancelled):
                runner.map(_double, [1])
        events = [r for r in tracer.records if r["type"] == "event"]
        cancelled = [e for e in events if e["name"] == "pool.cancelled"]
        assert len(cancelled) == 1
        assert cancelled[0]["attrs"]["reason"] == "client disconnected"

    def test_shard_timeout_reason_string_is_exact(self):
        # the timeout path must keep its documented reason string even
        # with a cancel token installed (the polling await path)
        from repro.runners import CancelToken

        token = CancelToken()
        runner = ParallelRunner(
            jobs=2, shard_timeout=0.05, backoff=0.01, cancel_token=token
        )
        tasks = [{"sleep": 0.4, "value": v} for v in range(2)]
        results = runner.map(_sleep_then_double, tasks, samples=[1, 1])
        assert results == [0, 2]  # degraded inline and finished
        stats = runner.finalize_stats("timeouts")
        assert stats.degraded
        assert not stats.cancelled
        assert stats.pool_failures == runner.max_pool_failures
        assert stats.failure_reasons == [
            "shard exceeded shard_timeout=0.05s"
        ] * runner.max_pool_failures

    def test_timeout_without_token_keeps_same_reason(self):
        runner = ParallelRunner(jobs=2, shard_timeout=0.05, backoff=0.01)
        tasks = [{"sleep": 0.4, "value": v} for v in range(2)]
        runner.map(_sleep_then_double, tasks, samples=[1, 1])
        stats = runner.finalize_stats("timeouts")
        assert stats.failure_reasons == [
            "shard exceeded shard_timeout=0.05s"
        ] * runner.max_pool_failures

    def test_token_is_reusable_across_runners_until_fired(self):
        from repro.runners import CancelToken

        token = CancelToken()
        r1 = ParallelRunner(jobs=1, cancel_token=token)
        assert r1.map(_double, [1, 2]) == [2, 4]
        r2 = ParallelRunner(jobs=1, cancel_token=token)
        assert r2.map(_double, [3]) == [6]
        assert not r1.stats.cancelled and not r2.stats.cancelled


def _count_span_and_sleep(task):
    """Bump a counter and open a span, then sleep — picklable, so the
    pool path ships the delta/spans and the inline path records direct."""
    import time

    from repro.obs.metrics import metrics as _metrics
    from repro.obs.trace import current_tracer as _current_tracer

    _metrics().count("test.fold_counter")
    with _current_tracer().span("work", value=task["value"]):
        time.sleep(task["sleep"])
    return task["value"] * 2


class TestFailurePathTelemetry:
    """Worker-span re-parenting, counter folding, and progress events on
    the shard-timeout and CancelToken/RunCancelled paths — the happy and
    crash paths are asserted elsewhere."""

    def test_counter_folding_and_spans_under_shard_timeout(self):
        from repro.obs import Tracer, metrics, use_tracer

        before = metrics().snapshot()["counters"].get("test.fold_counter", 0)
        tracer = Tracer()
        with use_tracer(tracer):
            runner = ParallelRunner(jobs=2, shard_timeout=0.1, backoff=0.01)
            tasks = [
                {"sleep": 0.0, "value": 0},
                {"sleep": 0.0, "value": 1},
                {"sleep": 0.5, "value": 2},  # exceeds the timeout in pool
            ]
            results = runner.map(
                _count_span_and_sleep, tasks, samples=[1] * 3
            )
        assert results == [0, 2, 4]
        stats = runner.finalize_stats("timeout-fold")
        assert stats.degraded  # shard 2 degraded to inline

        # counter folding: pool shards fold their delta exactly once,
        # the timed-out attempts' counters die with the abandoned
        # workers, the inline rerun bumps the parent directly — total is
        # exactly one bump per shard, no double counting
        after = metrics().snapshot()["counters"]["test.fold_counter"]
        assert after == before + 3

        # span re-parenting: one "work" span per shard survived, each
        # parented under a "shard" span (pool shards via absorb with the
        # s<i>. prefix, the degraded shard recorded inline)
        spans = [r for r in tracer.records if r["type"] == "span"]
        shard_spans = {
            s["attrs"]["shard"]: s for s in spans if s["name"] == "shard"
        }
        work_spans = [s for s in spans if s["name"] == "work"]
        assert set(shard_spans) == {0, 1, 2}
        assert len(work_spans) == 3
        shard_ids = {s["id"] for s in shard_spans.values()}
        assert all(w["parent"] in shard_ids for w in work_spans)
        prefixed = [w for w in work_spans if w["id"][0] == "s"]
        assert len(prefixed) == 2  # the two pool shards shipped buffers

    def test_inline_cancel_emits_terminal_cancelled_transitions(self):
        from repro.obs.events import ProgressReporter
        from repro.runners import CancelToken, RunCancelled

        events = []
        token = CancelToken()
        runner = ParallelRunner(jobs=1, cancel_token=token)
        runner.progress = ProgressReporter(
            run_id="cancel", on_event=events.append
        )
        executed = []

        def worker(task):
            executed.append(task)
            if len(executed) == 2:
                token.cancel("enough")
            return task

        with pytest.raises(RunCancelled):
            runner.map(worker, [1, 2, 3, 4], samples=[5, 5, 5, 5])

        transitions = {}
        for event in events:
            transitions.setdefault(event.shard, []).append(event.transition)
        assert transitions[0] == ["queued", "started", "completed"]
        assert transitions[1] == ["queued", "started", "completed"]
        # shards that never ran still terminate explicitly — clients see
        # an end-of-run marker, not silence
        assert transitions[2] == ["queued", "cancelled"]
        assert transitions[3] == ["queued", "cancelled"]

    def test_pool_cancel_folds_completed_and_cancels_rest(self):
        import threading

        from repro.obs import Tracer, metrics, use_tracer
        from repro.obs.events import ProgressReporter
        from repro.runners import CancelToken, RunCancelled

        before = metrics().snapshot()["counters"].get("test.fold_counter", 0)
        events = []
        token = CancelToken()
        tracer = Tracer()
        tasks = [
            {"sleep": 0.0, "value": 0},
            {"sleep": 0.0, "value": 1},
            {"sleep": 1.2, "value": 2},
            {"sleep": 1.2, "value": 3},
        ]
        timer = threading.Timer(0.3, token.cancel, args=("deadline",))
        timer.start()
        try:
            with use_tracer(tracer):
                runner = ParallelRunner(jobs=2, cancel_token=token)
                runner.progress = ProgressReporter(
                    run_id="pc", on_event=events.append
                )
                with pytest.raises(RunCancelled, match="deadline"):
                    runner.map(
                        _count_span_and_sleep, tasks, samples=[1] * 4
                    )
        finally:
            timer.cancel()

        completed = {s.index for s in runner.stats.shards}
        terminal = {}
        for event in events:
            terminal[event.shard] = event.transition
        # every shard terminates: collected ones completed, the rest
        # with an explicit cancelled transition
        assert set(terminal) == {0, 1, 2, 3}
        for shard in range(4):
            expected = "completed" if shard in completed else "cancelled"
            assert terminal[shard] == expected

        # only collected shards folded their worker counters
        after = metrics().snapshot()["counters"].get("test.fold_counter", 0)
        assert after == before + len(completed)

        # and only collected shards had their worker spans re-parented
        spans = [r for r in tracer.records if r["type"] == "span"]
        work_spans = [s for s in spans if s["name"] == "work"]
        shard_ids = {s["id"] for s in spans if s["name"] == "shard"}
        assert len(work_spans) == len(completed)
        assert all(w["parent"] in shard_ids for w in work_spans)

    def test_pool_loss_emits_retried_transitions(self):
        from repro.obs.events import ProgressReporter

        events = []
        runner = ParallelRunner(jobs=2, backoff=0.01)
        runner.progress = ProgressReporter(
            run_id="crashy", on_event=events.append
        )
        tasks = [{"parent": os.getpid(), "value": v} for v in range(4)]
        results = runner.map(_crash_in_child, tasks, samples=[1] * 4)
        assert results == [0, 2, 4, 6]
        stats = runner.finalize_stats("crashy")
        assert stats.degraded

        transitions = {}
        for event in events:
            transitions.setdefault(event.shard, []).append(event.transition)
        for shard, seq in transitions.items():
            assert seq[0] == "queued"
            assert seq[-1] == "completed"
            # one retried per lost pool, then the inline rerun finishes
            assert seq.count("retried") == stats.pool_failures
            assert "cancelled" not in seq


class TestDeprecationShims:
    """The entry points that replaced the removed deprecation shims run
    without raising any DeprecationWarning."""

    def test_custom_circuit_profile_via_simulator(self):
        from repro.netlist.compiled import make_simulator
        from repro.sim.error_profile import digit_error_profile

        rng = np.random.default_rng(0)
        harness = OnlineMultiplierHarness.from_spec("online-mult", ndigits=2)
        ports = harness.encode(
            uniform_digit_batch(2, 4, rng), uniform_digit_batch(2, 4, rng)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulator = make_simulator(harness.circuit, harness.delay_model)
            result = simulator.run(ports, keep={"zp0", "zn0"})
            profile = digit_error_profile(
                result, [["zp0", "zn0"]], ["z0"], [1, 2]
            )
        assert profile.rates.shape == (2, 1)

    def test_new_api_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_montecarlo(_config(1), num_samples=120)


class TestServiceRecovery:
    def test_killed_worker_still_gets_the_exact_answer(self, tmp_path):
        from repro.service import EvalService, ServiceConfig
        from repro.service.client import ServiceClient

        flag = str(tmp_path / "service-killed.flag")

        def evaluate(req, token, progress):
            # run the request over a per-run pool whose worker kills
            # itself once — the one real pool failure a daemon sees
            runner = ParallelRunner(jobs=2, backoff=0.01, cancel_token=token)
            tasks = [{"flag": flag, "value": v} for v in range(4)]
            values = runner.map(_kill_once, tasks, samples=[1] * 4)
            return {
                "values": values,
                "pool_failures": runner.stats.pool_failures,
                "degraded": runner.stats.degraded,
            }

        config = ServiceConfig(
            run_config=RunConfig(ndigits=3, seed=7, jobs=1, cache_dir=None),
            concurrency=2,
        )

        async def main():
            service = EvalService(config, evaluator=evaluate)
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            resp = await client.request(
                "montecarlo", {"samples": 100, "depths": [3]}
            )
            await client.aclose()
            await service.drain()
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is True
        assert "degraded" not in resp  # the service never answers from a model
        assert resp["result"] == {
            "values": [0, 2, 4, 6],
            "pool_failures": 1,  # recovered on the fresh pool...
            "degraded": False,  # ...not by running inline
        }
