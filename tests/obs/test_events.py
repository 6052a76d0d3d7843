"""ProgressReporter: lifecycle, callback isolation, determinism."""

import threading

import pytest

from repro.obs.events import ProgressReporter
from repro.obs.metrics import metrics
from repro.runners import ParallelRunner


class TestProgressReporter:
    def test_counters_accumulate_and_eta_needs_a_completion(self):
        reporter = ProgressReporter(experiment="mc", run_id="k")
        reporter.begin(2, 200)
        assert reporter.eta_seconds() is None
        reporter.shard_completed(0, 100, elapsed=1.0)  # 100 samples/s
        eta = reporter.eta_seconds()
        assert eta == pytest.approx(1.0)
        snap = reporter.snapshot()
        assert snap["shards_done"] == 1
        assert snap["samples_done"] == 100
        assert snap["shards_total"] == 2
        assert snap["samples_total"] == 200

    def test_begin_is_additive_across_batches(self):
        reporter = ProgressReporter(run_id="k")
        reporter.begin(2, 20)
        reporter.shard_completed(0, 10, elapsed=0.1)
        reporter.shard_completed(1, 10, elapsed=0.1)
        reporter.begin(1, 10)  # a second map() in the same run
        snap = reporter.snapshot()
        assert snap["shards_total"] == 3
        assert snap["samples_total"] == 30
        assert snap["shards_done"] == 2  # never reset mid-run

    def test_seq_and_done_counts_monotonic(self):
        events = []
        reporter = ProgressReporter(run_id="k", on_event=events.append)
        reporter.begin(3, 30)
        for shard in range(3):
            reporter.shard_queued(shard, 10)
        for shard in range(3):
            reporter.shard_started(shard, 10)
            reporter.shard_completed(shard, 10, elapsed=0.01)
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        done = [e.shards_done for e in events]
        assert done == sorted(done)
        assert events[-1].shards_done == 3
        assert events[-1].samples_done == 30

    def test_event_to_dict_round_trips_all_fields(self):
        events = []
        ProgressReporter(
            experiment="mc", run_id="k9", on_event=events.append
        ).shard_queued(4, 25)
        payload = events[0].to_dict()
        assert payload["run_id"] == "k9"
        assert payload["experiment"] == "mc"
        assert payload["transition"] == "queued"
        assert payload["shard"] == 4
        assert payload["samples"] == 25
        assert payload["eta_s"] is None

    def test_thread_safe_publishing(self):
        events = []
        reporter = ProgressReporter(run_id="k", on_event=events.append)
        reporter.begin(400, 400)

        def complete(lo, hi):
            for shard in range(lo, hi):
                reporter.shard_completed(shard, 1, elapsed=0.001)

        threads = [
            threading.Thread(target=complete, args=(i * 100, (i + 1) * 100))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reporter.snapshot()["shards_done"] == 400
        assert len(events) == 400
        assert events[-1].seq == 400

    def test_callback_fires_and_errors_are_counted(self):
        before = metrics().snapshot()["counters"].get(
            "events.callback_errors", 0
        )
        seen = []

        def bad_callback(event):
            seen.append(event)
            raise RuntimeError("closed event loop")

        reporter = ProgressReporter(run_id="k", on_event=bad_callback)
        reporter.begin(1, 1)
        # none of the shard_* transitions raises into the shard loop
        reporter.shard_queued(0, 1)
        reporter.shard_started(0, 1)
        reporter.shard_retried(0, 1)
        reporter.shard_cancelled(0, 1)
        reporter.shard_completed(0, 1, elapsed=0.01)
        assert [e.transition for e in seen] == [
            "queued", "started", "retried", "cancelled", "completed",
        ]
        after = metrics().snapshot()["counters"]["events.callback_errors"]
        assert after == before + 5  # each raise counted once


# module-level worker: must be picklable for the process pool
def _triple(task):
    return task * 3


def _run_events(jobs: int):
    events = []
    runner = ParallelRunner(jobs=jobs)
    runner.progress = ProgressReporter(
        experiment="unit", run_id="det", on_event=events.append
    )
    results = runner.map(_triple, list(range(6)), samples=[10] * 6)
    assert results == [3 * i for i in range(6)]
    return events


class TestRunnerDeterminism:
    """The contract: event *content* is a pure function of the run."""

    def test_jobs1_vs_jobs2_same_multiset_and_finals(self):
        serial = _run_events(jobs=1)
        parallel = _run_events(jobs=2)

        def multiset(events):
            return sorted((e.transition, e.shard, e.samples) for e in events)

        assert multiset(serial) == multiset(parallel)
        for events in (serial, parallel):
            last = events[-1]
            assert last.shards_done == 6
            assert last.samples_done == 60
            assert last.shards_total == 6
            assert last.samples_total == 60

    def test_per_shard_transition_order(self):
        for events in (_run_events(jobs=1), _run_events(jobs=2)):
            by_shard = {}
            for e in events:
                by_shard.setdefault(e.shard, []).append(e.transition)
            for shard, transitions in by_shard.items():
                assert transitions[0] == "queued"
                assert transitions[1] == "started"
                assert transitions[-1] == "completed"

    def test_done_counts_monotonic_under_pool(self):
        events = _run_events(jobs=2)
        done = [e.shards_done for e in events]
        assert done == sorted(done)
        samples_done = [e.samples_done for e in events]
        assert samples_done == sorted(samples_done)

    def test_no_progress_by_default(self):
        runner = ParallelRunner(jobs=1)
        assert runner.progress is None
        assert runner.map(_triple, [1, 2]) == [3, 6]
