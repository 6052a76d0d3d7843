"""Admission control: bounded occupancy, shedding, retry-after hints."""

import pytest

from repro.obs.metrics import metrics
from repro.service.admission import AdmissionController, ShedRequest


class TestLimits:
    def test_admits_up_to_the_class_limit(self):
        adm = AdmissionController(limits={"montecarlo": 2, "sweep": 2})
        adm.try_acquire("montecarlo")
        adm.try_acquire("montecarlo")
        with pytest.raises(ShedRequest) as exc_info:
            adm.try_acquire("montecarlo")
        assert "queue full" in exc_info.value.reason
        assert exc_info.value.retry_after > 0

    def test_classes_are_isolated(self):
        adm = AdmissionController(limits={"montecarlo": 1, "sweep": 1})
        adm.try_acquire("montecarlo")
        adm.try_acquire("sweep")  # full montecarlo queue does not block sweep

    def test_release_reopens_the_slot(self):
        adm = AdmissionController(limits={"montecarlo": 1})
        adm.try_acquire("montecarlo")
        adm.release("montecarlo", service_time=0.5)
        adm.try_acquire("montecarlo")  # no raise

    def test_release_without_acquire_is_a_bug(self):
        adm = AdmissionController(limits={"montecarlo": 1})
        with pytest.raises(RuntimeError):
            adm.release("montecarlo")

    def test_unknown_class_rejected(self):
        adm = AdmissionController(limits={"montecarlo": 1})
        with pytest.raises(ValueError):
            adm.try_acquire("mystery")

    def test_unknown_class_rejected_everywhere(self):
        # every entry point names the offending class instead of leaking
        # a bare KeyError out of the counter dict
        adm = AdmissionController(limits={"montecarlo": 1})
        for call in (adm.try_acquire, adm.release, adm.retry_after,
                     adm.depth):
            with pytest.raises(ValueError, match="unknown request class"):
                call("mystery")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"limits": {"montecarlo": 0}},
            {"concurrency": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)


class TestRetryAfter:
    def test_ewma_folds_observed_service_times(self):
        adm = AdmissionController(
            limits={"montecarlo": 8}, initial_service_time=1.0
        )
        adm.try_acquire("montecarlo")
        adm.release("montecarlo", service_time=3.0)
        # 0.8 * 1.0 + 0.2 * 3.0
        assert adm.service_time_estimate == pytest.approx(1.4)

    def test_retry_after_grows_with_queue_depth(self):
        adm = AdmissionController(
            limits={"montecarlo": 8}, concurrency=2,
            initial_service_time=1.0,
        )
        empty = adm.retry_after("montecarlo")
        for _ in range(4):
            adm.try_acquire("montecarlo")
        assert adm.retry_after("montecarlo") > empty

    def test_retry_after_never_below_one_service_time(self):
        adm = AdmissionController(
            limits={"montecarlo": 8}, concurrency=16,
            initial_service_time=2.0,
        )
        assert adm.retry_after("montecarlo") >= 2.0

    def test_shed_carries_a_live_hint(self):
        adm = AdmissionController(
            limits={"montecarlo": 1}, concurrency=1,
            initial_service_time=0.5,
        )
        adm.try_acquire("montecarlo")
        with pytest.raises(ShedRequest) as exc_info:
            adm.try_acquire("montecarlo")
        # one request ahead on one worker: at least one service time out
        assert exc_info.value.retry_after >= 0.5

    def test_class_shed_hint_counts_the_class_queue_not_the_total(self):
        # a montecarlo shed waits on montecarlo's 2 pending requests, not
        # on sweep's 6 — the classes drain independently
        adm = AdmissionController(
            limits={"montecarlo": 2, "sweep": 8}, concurrency=1,
            initial_service_time=1.0,
        )
        for _ in range(6):
            adm.try_acquire("sweep")
        for _ in range(2):
            adm.try_acquire("montecarlo")
        with pytest.raises(ShedRequest) as exc_info:
            adm.try_acquire("montecarlo")
        assert exc_info.value.retry_after == pytest.approx(3.0)  # (2+1)/1
        assert adm.retry_after("montecarlo") == pytest.approx(3.0)


class TestObservability:
    def test_depth_and_gauges_track_occupancy(self):
        metrics().reset()
        adm = AdmissionController(limits={"montecarlo": 4, "sweep": 4})
        adm.try_acquire("montecarlo")
        adm.try_acquire("sweep")
        assert adm.depth() == 2
        assert adm.depth("sweep") == 1
        gauges = metrics().snapshot()["gauges"]
        assert gauges["service.queue_depth"] == 2.0
        assert gauges["service.queue_depth.montecarlo"] == 1.0
        adm.release("sweep")
        gauges = metrics().snapshot()["gauges"]
        assert gauges["service.queue_depth"] == 1.0

    def test_shed_counter(self):
        metrics().reset()
        adm = AdmissionController(limits={"montecarlo": 1})
        adm.try_acquire("montecarlo")
        for _ in range(3):
            with pytest.raises(ShedRequest):
                adm.try_acquire("montecarlo")
        assert metrics().snapshot()["counters"]["service.shed"] == 3
