"""One concurrent request mix against a live daemon: the safety net for
the service's in-flight sharing.

The mix holds identical requests (which must share one evaluation),
compatible ones (same batch class, different grids), incompatible ones
and synthesis requests.  The evaluator raises for one request, and the
daemon is drained while work is still in flight.  Only public
behaviour is checked: every request gets exactly one final response,
the failing request and its followers are answered ``error`` while
every ``ok`` answer is byte-equal to an in-process
:func:`~repro.service.daemon.evaluate_request` of the same request, no
handler dies, and nothing is left in flight.
"""

import asyncio
import json
import time

from repro.obs.metrics import metrics
from repro.runners.config import RunConfig
from repro.runners.parallel import CancelToken
from repro.service import EvalService, ServiceConfig
from repro.service.daemon import evaluate_request
from repro.service.requests import parse_request

BASE = RunConfig(ndigits=3, seed=7, jobs=1, cache_dir=None)

MIX = [
    # identical: one evaluation, which fails; the rest follow it
    ("montecarlo", {"samples": 120, "depths": [2, 4]}),
    ("montecarlo", {"samples": 120, "depths": [2, 4]}),
    ("montecarlo", {"samples": 120, "depths": [2, 4]}),
    # compatible with each other (same batch class, different grids)
    ("montecarlo", {"samples": 160, "depths": [2]}),
    ("montecarlo", {"samples": 160, "depths": [3, 5]}),
    ("montecarlo", {"samples": 160, "depths": [2]}),
    ("sweep", {"samples": 160, "steps": [1, 2]}),
    ("sweep", {"samples": 160, "steps": [2, 3]}),
    # incompatible: another sample budget, another seed
    ("montecarlo", {"samples": 170, "depths": [2]}),
    ("montecarlo", {"samples": 160, "depths": [2], "seed": 8}),
    # synthesis never shares a grid
    ("synthesis", {"samples": 40, "datapath": "mac"}),
    ("synthesis", {"samples": 40, "datapath": "mac"}),
    ("synthesis", {"samples": 40, "datapath": "mac", "target_mre": 9.0}),
]


def reference(kind, params):
    """The in-process answer, spelled the way the socket carries it."""
    req = parse_request({"kind": kind, "params": params}, base_config=BASE)
    payload = evaluate_request(req, CancelToken(), None)
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)


#: the MIX entries whose evaluation raises: the identical trio above
FAILING = {0, 1, 2}


def failing_slow_evaluator(completed):
    """The real evaluator, a little slow, raising for the identical trio.

    Appends to *completed* after each evaluation it finishes.
    """

    def evaluate(req, token, progress):
        if req.kind == "montecarlo" and req.params["samples"] == 120:
            raise RuntimeError("injected evaluation fault")
        time.sleep(0.03)
        payload = evaluate_request(req, token, progress)
        completed.append(req.key)
        return payload

    return evaluate


async def read_frames(reader, expected_ids, quiet=0.2, bound=30.0):
    """Every final response, read until all ids are answered and quiet."""
    finals = []
    answered = set()
    stop = time.monotonic() + bound
    while time.monotonic() < stop:
        timeout = stop - time.monotonic()
        if answered >= expected_ids:
            timeout = quiet  # linger to catch a duplicate answer
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        except asyncio.TimeoutError:
            break
        if not line:
            break
        frame = json.loads(line)
        if frame.get("event") == "progress":
            continue
        finals.append(frame)
        answered.add(frame.get("id"))
    return finals


def test_mixed_traffic_with_a_fault_and_a_drain():
    metrics().reset()
    config = ServiceConfig(run_config=BASE, concurrency=2, drain_timeout=2.0)
    completed = []

    async def main():
        evaluator = failing_slow_evaluator(completed)
        service = EvalService(config, evaluator=evaluator)
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        ids = set()
        for i, (kind, params) in enumerate(MIX):
            ids.add(f"m{i}")
            line = {"id": f"m{i}", "kind": kind, "params": params}
            writer.write(json.dumps(line).encode() + b"\n")
        await writer.drain()
        frames = asyncio.ensure_future(read_frames(reader, ids))
        # drain with work still in flight
        while len(completed) < 3:
            await asyncio.sleep(0.005)
        await service.drain()
        finals = await frames
        statsz = await service.handle({"id": "s", "kind": "statsz"})
        writer.close()
        return ids, finals, statsz

    ids, finals, statsz = asyncio.run(main())

    counts = {}
    for frame in finals:
        counts[frame.get("id")] = counts.get(frame.get("id"), 0) + 1
    assert counts == {req_id: 1 for req_id in ids}  # exactly one each

    refs = {}
    for frame in finals:
        index = int(frame["id"][1:])
        if index in FAILING:
            assert frame["code"] == "error", frame
            assert frame["error"] == "RuntimeError: injected evaluation fault"
            continue
        assert frame["ok"] or frame["code"] == "draining", frame
        if not frame["ok"]:
            continue
        assert not frame.get("degraded"), frame
        kind, params = MIX[index]
        key = json.dumps([kind, params], sort_keys=True)
        if key not in refs:
            refs[key] = reference(kind, params)
        assert json.dumps(frame["result"], sort_keys=True) == refs[key]

    counters = metrics().snapshot()["counters"]
    assert counters.get("service.internal_errors", 0) == 0
    assert counters["service.errors"] == 1  # one evaluation, three answers
    assert statsz["inflight_keys"] == 0
    assert statsz["queue_depth"] == 0
