"""Acceptance load test of the evaluation daemon (:mod:`repro.service`).

Five phases, each asserting one robustness guarantee end to end over
the real socket protocol:

* **coalescing** — N identical concurrent requests perform exactly ONE
  pool evaluation (asserted both by counting evaluator calls and via
  the ``service.coalesce_hits`` metric); every caller gets the answer.
* **throughput** — a hand-rolled async load generator (many clients,
  bounded in-flight) drives distinct requests through the full
  admission → in-flight registry → pool pipeline and
  reports req/s, p50 and p99 latency; a second leg measures the
  persistent-cache short-circuit path.
* **batching** — a compatible depth fan-out, sent all at once vs one
  request in flight at a time, at the same daemon config; asserts the
  fan-out fused requests queued for an evaluator slot, that every
  fused response is byte-identical to its serial twin, and publishes
  ``batch_speedup``.
* **shedding** — a saturated queue rejects fast, with a ``Retry-After``
  hint derived from live queue state, instead of growing an unbounded
  backlog.
* **pool loss** — every request maps its shards over a two-worker
  :class:`~repro.runners.ParallelRunner` pool whose worker kills itself
  once; the runner retries on a fresh pool, so every request is still
  answered ok with the exact values.

Run standalone (``python benchmarks/bench_service.py [--quick]``) for
the CI smoke run; the regenerated table lands in
``benchmarks/results/service.txt``.
"""

import argparse
import asyncio
import os
import tempfile
import time

from _common import emit, publish, run_config
from repro.obs.metrics import metrics
from repro.runners import ParallelRunner
from repro.service import EvalService, ServiceClient, ServiceConfig
from repro.sim.reporting import format_table

NDIGITS = 4

#: per-class admission ceilings used by every phase (small enough that
#: the shedding phase can saturate them quickly)
LIMITS = {"montecarlo": 16, "sweep": 16, "synthesis": 4}


def _percentile(sorted_values, q):
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[idx]


def _service_config(cache_dir=None, **overrides):
    base = run_config(ndigits=NDIGITS, jobs=1, cache_dir=cache_dir)
    kwargs = dict(
        run_config=base,
        concurrency=4,
        limits=LIMITS,
        drain_timeout=5.0,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


async def _with_service(config, evaluator, body):
    service = EvalService(config, evaluator=evaluator)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.drain()


async def _run_load(
    service, num_clients, requests, max_inflight, deadline=None
):
    """Fire *requests* (list of (kind, params)) and time each round trip."""
    clients = [
        await ServiceClient.connect("127.0.0.1", service.port)
        for _ in range(num_clients)
    ]
    gate = asyncio.Semaphore(max_inflight)
    latencies = []

    async def one(i, kind, params):
        async with gate:
            t0 = time.perf_counter()
            response = await clients[i % num_clients].request(
                kind, params, deadline=deadline
            )
            latencies.append(time.perf_counter() - t0)
            return response

    t0 = time.perf_counter()
    responses = await asyncio.gather(
        *(one(i, kind, params) for i, (kind, params) in enumerate(requests))
    )
    elapsed = time.perf_counter() - t0
    for client in clients:
        await client.aclose()
    latencies.sort()
    return {
        "responses": responses,
        "elapsed": elapsed,
        "req_per_s": len(requests) / elapsed,
        "p50": _percentile(latencies, 0.50),
        "p99": _percentile(latencies, 0.99),
    }


# ------------------------------------------------------------------ phases

def phase_coalescing(fanout):
    """N identical concurrent requests -> exactly one pool evaluation."""
    metrics().reset()
    evaluations = []

    def counting_evaluator(req, token, progress):
        evaluations.append(req.key)
        time.sleep(0.15)  # hold the leader open so every follower joins
        return {"value": 1}

    async def body(service):
        requests = [
            ("montecarlo", {"samples": 500, "depths": [4]})
        ] * fanout
        return await _run_load(
            service, num_clients=min(fanout, 8), requests=requests,
            max_inflight=fanout,
        )

    load = asyncio.run(
        _with_service(_service_config(), counting_evaluator, body)
    )
    coalesce_hits = metrics().snapshot()["counters"].get(
        "service.coalesce_hits", 0
    )
    measures = {
        "evaluations": len(evaluations),
        "coalesce_hits": coalesce_hits,
        "all_answered": all(r["ok"] for r in load["responses"]),
    }
    row = [
        "coalescing",
        f"{fanout} identical",
        f"{load['req_per_s']:.0f}",
        f"{load['p50'] * 1e3:.1f}",
        f"{load['p99'] * 1e3:.1f}",
        f"{len(evaluations)} eval, {coalesce_hits} joined",
    ]
    return row, measures


def phase_throughput(num_requests, cache_dir):
    """Distinct requests through the full pipeline; then cache hits."""

    def stub_evaluator(req, token, progress):
        return {"v": req.params["samples"]}

    async def distinct(service):
        requests = [
            ("montecarlo", {"samples": 100 + i, "depths": [4]})
            for i in range(num_requests)
        ]
        return await _run_load(
            service, num_clients=8, requests=requests, max_inflight=12,
        )

    load = asyncio.run(
        _with_service(_service_config(), stub_evaluator, distinct)
    )

    async def cached(service):
        # populate one real entry, then hammer it through the cache path
        warm = await _run_load(
            service, num_clients=1,
            requests=[("montecarlo", {"samples": 300, "depths": [2, 4]})],
            max_inflight=1,
        )
        assert warm["responses"][0]["ok"]
        requests = [
            ("montecarlo", {"samples": 300, "depths": [2, 4]})
        ] * num_requests
        return await _run_load(
            service, num_clients=8, requests=requests, max_inflight=12,
        )

    cached_load = asyncio.run(
        _with_service(_service_config(cache_dir=cache_dir), None, cached)
    )
    hits = [r for r in cached_load["responses"] if r.get("cached")]
    measures = {
        "all_ok": all(r["ok"] for r in load["responses"]),
        "cache_hits": len(hits),
        "num_requests": num_requests,
        "req_per_s": load["req_per_s"],
        "p50_ms": load["p50"] * 1e3,
        "p99_ms": load["p99"] * 1e3,
        "cached_req_per_s": cached_load["req_per_s"],
    }
    rows = [
        [
            "throughput", f"{num_requests} distinct",
            f"{load['req_per_s']:.0f}", f"{load['p50'] * 1e3:.1f}",
            f"{load['p99'] * 1e3:.1f}", "stub evaluator",
        ],
        [
            "cache hits", f"{num_requests} identical",
            f"{cached_load['req_per_s']:.0f}",
            f"{cached_load['p50'] * 1e3:.1f}",
            f"{cached_load['p99'] * 1e3:.1f}",
            f"{len(hits)} served pre-queue",
        ],
    ]
    return rows, measures


def phase_batched(fanout, samples):
    """Compatible depth fan-out: all at once vs one request at a time.

    Every request asks for one distinct depth of the same geometry —
    exactly the traffic one fused wave evaluation answers.  Both legs
    run the same daemon config.  The serial leg keeps one request in
    flight, so each is evaluated alone; the fan-out leg sends them all
    at once, so the requests queued for an evaluator slot fuse.  The
    fused responses must be byte-identical to the serial ones.
    """
    import json

    requests = [
        ("montecarlo", {"samples": samples, "depths": [2 + i]})
        for i in range(fanout)
    ]

    def leg(max_inflight):
        async def body(service):
            return await _run_load(
                service, num_clients=min(fanout, 8), requests=requests,
                max_inflight=max_inflight,
            )

        return asyncio.run(_with_service(_service_config(), None, body))

    serial = leg(max_inflight=1)
    metrics().reset()
    batched = leg(max_inflight=fanout)
    fused = metrics().snapshot()["counters"].get("service.batched", 0)

    def by_depth(load):
        return {
            r["result"]["depths"][0]: json.dumps(
                r["result"], sort_keys=True
            )
            for r in load["responses"]
        }

    identical = by_depth(serial) == by_depth(batched)
    batch_speedup = serial["elapsed"] / batched["elapsed"]
    measures = {
        "all_ok": all(
            r["ok"] for load in (serial, batched) for r in load["responses"]
        ),
        "fused_members": fused,
        "identical": identical,
        "serial_req_per_s": serial["req_per_s"],
        "batched_req_per_s": batched["req_per_s"],
        "batch_speedup": batch_speedup,
    }
    rows = [
        [
            "serial", f"{fanout} compatible",
            f"{serial['req_per_s']:.1f}", f"{serial['p50'] * 1e3:.1f}",
            f"{serial['p99'] * 1e3:.1f}", f"{fanout} evaluations",
        ],
        [
            "fan-out", f"{fanout} compatible",
            f"{batched['req_per_s']:.1f}", f"{batched['p50'] * 1e3:.1f}",
            f"{batched['p99'] * 1e3:.1f}",
            f"{fused} fused, bit-identical={identical}, "
            f"{batch_speedup:.2f}x",
        ],
    ]
    return rows, measures


def phase_shedding(num_requests):
    """A saturated queue sheds fast with a Retry-After hint."""
    metrics().reset()

    def slow_evaluator(req, token, progress):
        time.sleep(0.4)
        return {"v": 1}

    config = _service_config(
        limits={"montecarlo": 2, "sweep": 2, "synthesis": 1}, concurrency=2
    )

    async def body(service):
        requests = [
            ("montecarlo", {"samples": 100 + i, "depths": [4]})
            for i in range(num_requests)
        ]
        return await _run_load(
            service, num_clients=8, requests=requests,
            max_inflight=num_requests,
        )

    load = asyncio.run(_with_service(config, slow_evaluator, body))
    shed = [r for r in load["responses"] if r.get("code") == "shed"]
    measures = {
        "shed": len(shed),
        "retry_after_present": all("retry_after" in r for r in shed),
        "retry_after_positive": all(r["retry_after"] > 0 for r in shed),
        "answered": len(load["responses"]),
    }
    row = [
        "shedding", f"{num_requests} vs cap 2",
        f"{load['req_per_s']:.0f}", f"{load['p50'] * 1e3:.1f}",
        f"{load['p99'] * 1e3:.1f}",
        f"{len(shed)} shed w/ retry_after",
    ]
    return row, measures


def _kill_once(task):
    """Pool shard: hard-kill the hosting worker the first time through."""
    if not os.path.exists(task["flag"]):
        with open(task["flag"], "w") as fh:
            fh.write("killed")
        os._exit(3)
    return task["value"] * 2


def phase_pool_loss(num_requests):
    """A worker dies under every request: each is still answered exactly."""
    values = list(range(4))
    exact = [2 * v for v in values]

    with tempfile.TemporaryDirectory(prefix="repro-bench-pool-") as flags:

        def killing_evaluator(req, token, progress):
            runner = ParallelRunner(jobs=2, backoff=0.01, cancel_token=token)
            flag = os.path.join(flags, f"{req.key}.flag")
            tasks = [{"flag": flag, "value": v} for v in values]
            return {
                "values": runner.map(_kill_once, tasks),
                "pool_failures": runner.stats.pool_failures,
            }

        async def body(service):
            requests = [
                ("montecarlo", {"samples": 100 + i, "depths": [4]})
                for i in range(num_requests)
            ]
            return await _run_load(
                service, num_clients=2, requests=requests, max_inflight=2,
            )

        load = asyncio.run(
            _with_service(_service_config(), killing_evaluator, body)
        )
    exact_answers = [
        r for r in load["responses"]
        if r["ok"] and "degraded" not in r and r["result"]["values"] == exact
    ]
    lost = sum(r["result"]["pool_failures"] for r in exact_answers)
    measures = {
        "all_exact": len(exact_answers) == num_requests,
        "every_pool_lost": all(
            r["result"]["pool_failures"] >= 1 for r in exact_answers
        ),
    }
    row = [
        "pool loss", f"{num_requests} w/ worker kill",
        f"{load['req_per_s']:.0f}", f"{load['p50'] * 1e3:.1f}",
        f"{load['p99'] * 1e3:.1f}",
        f"{len(exact_answers)} exact, {lost} pools lost",
    ]
    return row, measures


# ------------------------------------------------------------ pytest smoke

def test_service_load_smoke(tmp_path):
    row, measures = phase_coalescing(fanout=6)
    assert measures["evaluations"] == 1
    assert measures["coalesce_hits"] == 5
    assert measures["all_answered"]
    row, measures = phase_pool_loss(num_requests=2)
    assert measures["all_exact"]
    assert measures["every_pool_lost"]


def test_service_batching_smoke():
    rows, measures = phase_batched(fanout=4, samples=400)
    assert measures["all_ok"]
    assert measures["identical"]  # batched == serial, byte for byte
    assert measures["fused_members"] > 0


# ----------------------------------------------------------------- CLI mode

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small request budget (CI smoke)",
    )
    parser.add_argument("--requests", type=int, default=None,
                        help="throughput-phase request count")
    args = parser.parse_args(argv)

    fanout = 8 if args.quick else 32
    num_requests = args.requests or (40 if args.quick else 400)
    shed_requests = 12 if args.quick else 48
    pool_loss_requests = 4 if args.quick else 16
    batch_fanout = 6 if args.quick else 12
    batch_samples = 2000 if args.quick else 10000

    rows = []
    coalesce_row, coalesce = phase_coalescing(fanout)
    rows.append(coalesce_row)
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as cdir:
        throughput_rows, throughput = phase_throughput(num_requests, cdir)
    rows.extend(throughput_rows)
    batch_rows, batch = phase_batched(batch_fanout, batch_samples)
    rows.extend(batch_rows)
    shed_row, shedding = phase_shedding(shed_requests)
    rows.append(shed_row)
    pool_loss_row, pool_loss = phase_pool_loss(pool_loss_requests)
    rows.append(pool_loss_row)

    emit(
        "service",
        format_table(
            ["phase", "load", "req/s", "p50 ms", "p99 ms", "outcome"],
            rows,
            title=(
                f"evaluation service: {NDIGITS}-digit requests, "
                f"concurrency 4, limits {LIMITS['montecarlo']}"
            ),
        ),
        persist=not args.quick,
    )

    publish(
        "service",
        {
            "req_per_s": throughput["req_per_s"],
            "p50_ms": throughput["p50_ms"],
            "p99_ms": throughput["p99_ms"],
            "cached_req_per_s": throughput["cached_req_per_s"],
            "batch_speedup": batch["batch_speedup"],
        },
        requests=num_requests,
        quick=args.quick,
    )

    failures = []
    if coalesce["evaluations"] != 1:
        failures.append(
            f"{fanout} identical requests made "
            f"{coalesce['evaluations']} pool evaluations (acceptance: 1)"
        )
    if coalesce["coalesce_hits"] != fanout - 1:
        failures.append(
            f"coalesce_hits={coalesce['coalesce_hits']} "
            f"(acceptance: {fanout - 1})"
        )
    if not coalesce["all_answered"]:
        failures.append("coalesced requests lost answers")
    if not throughput["all_ok"]:
        failures.append("throughput phase had failed requests")
    if not batch["all_ok"]:
        failures.append("batching phase had failed requests")
    if not batch["identical"]:
        failures.append(
            "batched responses are not byte-identical to serial ones"
        )
    if batch["fused_members"] == 0:
        failures.append(
            f"the fan-out of {batch_fanout} compatible requests fused "
            f"nothing (acceptance: service.batched > 0)"
        )
    if throughput["cache_hits"] != throughput["num_requests"]:
        failures.append(
            f"cache phase: {throughput['cache_hits']} hits of "
            f"{throughput['num_requests']} (acceptance: all pre-queue)"
        )
    if shedding["shed"] == 0:
        failures.append("saturated queue shed nothing")
    if not (shedding["retry_after_present"]
            and shedding["retry_after_positive"]):
        failures.append("shed responses missing a positive retry_after")
    if not pool_loss["all_exact"]:
        failures.append("pool-loss phase answered a request inexactly")
    if not pool_loss["every_pool_lost"]:
        failures.append("pool-loss phase lost no pool (the kill never ran)")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
