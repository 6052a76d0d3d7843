"""The four workloads.  README.md records why each exists and what it loads.

Each workload function takes the run's :class:`~harness.Bench` and
returns an :class:`Outcome`: end-to-end metrics from an untraced run,
or, with ``traced=True``, per-layer metrics from a run whose measured
window is split between untraced and traced program processes (the
difference is the tracing overhead).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import checks
import layers
from harness import (
    Bench,
    Conn,
    arrival,
    children_peak_rss_mb,
    median,
    percentile,
)

#: the load generator counts as the bottleneck above this CPU share ...
GEN_CPU_LIMIT = 0.9
#: ... or, in the open loop, when its p95 send lag exceeds this
GEN_LAG_LIMIT_MS = 20.0

Request = Tuple[str, Dict[str, Any]]


@dataclass
class Outcome:
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    gen_lag_ms: float = 0.0  # open-loop p95 send lag
    client_cpu_frac: float = 0.0  # generator CPU seconds per wall second
    slo_miss_frac: float = 0.0

    @property
    def valid(self) -> bool:
        """False when the load generator, not the program, was the bottleneck."""
        return (self.client_cpu_frac < GEN_CPU_LIMIT
                and self.gen_lag_ms < GEN_LAG_LIMIT_MS)


def request_seed(seed: int, index: int) -> int:
    """Distinct per request and per run seed: no accidental cache hits."""
    return 1_000_000 * (seed % 1000) + index


# ------------------------------------------------------------------- CLI

#: OM stage-delay experiments (the paper's headline path), ~0.2-0.9 s each
WAVE_OPS = (
    ("model", ["model", "--samples", "10000"]),
    ("sweep", ["sweep", "--samples", "2000"]),
    ("probe", ["probe", "--samples", "4000"]),
    ("synth", ["synth"]),
)
#: gate-level FpgaDelay experiments at their default sizes, ~0.3-0.4 s each
GATE_OPS = (
    ("multiplier", ["multiplier"]),
    ("faults", ["faults"]),
    ("filter", ["filter", "--image", "lena"]),
)
#: the no-simulation invocation whose cold start is setup_s
SETUP_OP = ("chains", ["chains"])
#: latency_tail_ms is the highest percentile with >= 10 samples beyond it
#: (a CLI run times ~45 commands, serve-compute ~250 requests), except on
#: serve-hot (~50000 requests): above its p95 lie the fresh answers' fsynced
#: cache writes, whose time follows the shared disk and drifts by 20% or
#: more between runs, so its tail is p95, a third of the way into the
#: fresh and coalesced requests (7.5% of the traffic)
CLI_TAIL_PERCENTILE = 75
COMPUTE_TAIL_PERCENTILE = 95
HOT_TAIL_PERCENTILE = 95
_UNSEEDED = {"filter", "chains"}  # commands without a --seed flag


def _seeded(ops, seed: int) -> List[Tuple[str, List[str]]]:
    return [
        (name, list(argv) if name in _UNSEEDED
         else [*argv, "--seed", str(2014 + seed % 100_000)])
        for name, argv in ops
    ]


def _cycle_s(latencies: Dict[str, List[float]]) -> float:
    """Seconds for one of each op: the sum of the per-op medians."""
    return sum(median(v) for v in latencies.values())


def run_cli(bench: Bench, ops, traced: bool) -> Outcome:
    """Closed loop, one caller, one CLI process per op, cycling *ops*."""
    ops = _seeded(ops, bench.seed)
    (setup_name, setup_argv), = _seeded([SETUP_OP], bench.seed)
    bench.log(
        "config: closed loop, 1 caller, one process per op; default flags "
        "(jobs=1 backend=packed, no cache); scrubbed env: "
        f"{bench.scrubbed or 'none'}; ops: "
        + " | ".join(" ".join(argv) for _, argv in ops)
    )
    first_pass: Dict[str, str] = {}

    def op(name: str, argv: List[str], stats: Optional[Path] = None) -> float:
        run = bench.cli(argv, stats)
        reason = checks.cli_failure(
            run.returncode, run.stdout, first_pass.get(name)
        )
        if reason is None:
            first_pass.setdefault(name, checks.strip_runner_lines(run.stdout))
        bench.tally.record(name, reason, wrong=reason == checks.TABLE_DIFFERS)
        return run.seconds

    bench.compile_sources()
    for name, argv in [*ops, (setup_name, setup_argv)]:
        op(name, argv)  # untimed first pass: warm page cache, reference tables

    plain: Dict[str, List[float]] = defaultdict(list)
    traced_lat: Dict[str, List[float]] = defaultdict(list)
    setup: List[float] = []
    stats_files: List[Path] = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    cycle = 0
    # whole cycles only, so every op runs equally often
    while time.perf_counter() - t0 < bench.seconds:
        tracing = traced and cycle % 2 == 1
        for name, argv in ops:
            stats = None
            if tracing:
                stats = bench.run_dir / f"layers-{len(stats_files)}.json"
                stats_files.append(stats)
            (traced_lat if tracing else plain)[name].append(
                op(name, argv, stats)
            )
        if not traced:
            setup.append(op(setup_name, setup_argv))  # spread over the run
        cycle += 1
    cpu_frac = (time.process_time() - cpu0) / (time.perf_counter() - t0)

    if traced:
        dumps = [json.loads(p.read_text()) for p in stats_files if p.exists()]
        per_layer = layers.summarize(dumps, ops=len(dumps))
        per_layer["obs.trace_overhead_frac"] = (
            _cycle_s(traced_lat) / _cycle_s(plain) - 1.0
            if traced_lat else 0.0
        )
        return Outcome(per_layer=per_layer, client_cpu_frac=cpu_frac)

    def typical(q: float) -> float:
        # the commands differ in cost several-fold, so a percentile of the
        # pooled latencies jumps between commands; take each command's
        # percentile and report the median command's
        return 1e3 * median([percentile(v, q) for v in plain.values()])

    bench.log(f"{sum(map(len, plain.values()))} commands timed; tail is "
              f"p{CLI_TAIL_PERCENTILE} of each command")
    return Outcome(
        end_to_end={
            "setup_s": median(setup),
            "ops_per_s": len(plain) / _cycle_s(plain),
            "latency_p50_ms": typical(50),
            "latency_tail_ms": typical(CLI_TAIL_PERCENTILE),
            "peak_rss_mb": children_peak_rss_mb(),
        },
        client_cpu_frac=cpu_frac,
    )


def run_cli_wave(bench: Bench, traced: bool) -> Outcome:
    return run_cli(bench, WAVE_OPS, traced)


def run_cli_gate(bench: Bench, traced: bool) -> Outcome:
    return run_cli(bench, GATE_OPS, traced)


# ----------------------------------------------------------------- serve

CONNECTIONS = 2  # load-generator connections: one per CPU of a 2-vCPU machine
#: idle daemon starts sampled before and after the loaded one (setup_s)
EXTRA_STARTS = (3, 3)


@dataclass
class Phase:
    """One daemon's lifetime under load."""

    latencies: List[float]  # seconds, answered requests only
    p50_s: float  # the workload's median latency (see each phase)
    ops_per_s: float
    ready_s: float
    peak_rss_mb: float
    cpu_frac: float
    lags: List[float] = field(default_factory=list)
    slo_misses: int = 0
    requests: int = 0
    dump: Optional[Dict[str, Any]] = None
    admin_frames: int = 0


def _serve_phase(bench: Bench, drive: Callable, traced: bool):
    """Start a daemon (traced or not), run ``drive(port)``, drain it."""
    stats = bench.run_dir / "layers-daemon.json" if traced else None
    daemon = bench.start_daemon(bench.fresh_cache_dir(), stats)
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        result = asyncio.run(drive(daemon.port))
    finally:
        peak = bench.stop_daemon(daemon)
    cpu_frac = (time.process_time() - cpu0) / (time.perf_counter() - t0)
    dump = json.loads(stats.read_text()) if traced and stats.exists() else None
    return result, daemon, peak, cpu_frac, dump


def _serve_outcome(bench: Bench, phase: Callable[[bool], Phase],
                   traced: bool, tail: int,
                   overhead: Callable[[Phase, Phase], float]) -> Outcome:
    """Untraced: setup samples around one loaded daemon.  Traced: two halves."""
    bench.compile_sources()
    if traced:
        plain, tr = phase(False), phase(True)
        requests = tr.dump["counters"].get("service.requests", 0) if tr.dump else 0
        per_layer = layers.summarize(
            [tr.dump] if tr.dump else [], ops=requests,
            admin_frames=tr.admin_frames,
        )
        per_layer["obs.trace_overhead_frac"] = overhead(plain, tr)
        lags = plain.lags + tr.lags
        return Outcome(
            per_layer=per_layer,
            gen_lag_ms=1e3 * percentile(lags, 95) if lags else 0.0,
            client_cpu_frac=max(plain.cpu_frac, tr.cpu_frac),
            slo_miss_frac=(plain.slo_misses + tr.slo_misses)
            / max(plain.requests + tr.requests, 1),
        )
    before, after = EXTRA_STARTS
    starts = [bench.daemon_start_sample() for _ in range(before)]
    loaded = phase(False)
    starts.append(loaded.ready_s)
    starts += [bench.daemon_start_sample() for _ in range(after)]
    lat = loaded.latencies
    e2e = {
        "setup_s": median(starts),
        "ops_per_s": loaded.ops_per_s,
        "latency_p50_ms": 1e3 * loaded.p50_s,
        "latency_tail_ms": 1e3 * percentile(lat, tail),
        "peak_rss_mb": loaded.peak_rss_mb,
    }
    bench.log(f"{len(lat)} requests answered in the window; tail is p{tail}")
    return Outcome(
        end_to_end=e2e,
        gen_lag_ms=1e3 * percentile(loaded.lags, 95) if loaded.lags else 0.0,
        client_cpu_frac=loaded.cpu_frac,
        slo_miss_frac=loaded.slo_misses / max(loaded.requests, 1),
    )


def _reference_check(what: str, request: Request,
                     response: Dict[str, Any]) -> Optional[str]:
    kind, params = request
    return checks.mismatch(
        response["result"], checks.reference_payload(kind, params),
        f"{what} vs the in-process {kind} run",
    )


# ---------------------------------------------------------- serve-compute

#: offered requests/s: a little under half of the mix's ~22/s capacity
COMPUTE_RATE = 10.0
COMPUTE_SLO_MS = 1000.0  # latency limit of slo_miss_frac
COMPUTE_SHAPE_SEED = 2014  # fixes arrivals, kinds and sizes for every run
COMPUTE_CHECKS_PER_KIND = 2  # responses per kind checked in-process


def compute_schedule(seed: int, seconds: float) -> List[Tuple[float, str, Dict]]:
    """Jittered arrivals of unique montecarlo/synthesis/sweep requests.

    Request *i* arrives at a uniformly random point of its own
    ``1/COMPUTE_RATE`` slot: a fixed rate without Poisson bursts, whose
    queueing would amplify every slow stretch of a shared machine into
    the tail.  Arrival times, kinds and sizes come from a fixed generator,
    so every run offers the same load; *seed* only picks request seeds.
    """
    shape = random.Random(COMPUTE_SHAPE_SEED)
    schedule: List[Tuple[float, str, Dict]] = []
    while True:
        t = (len(schedule) + shape.random()) / COMPUTE_RATE
        if t >= seconds:
            return schedule
        kind, params = _compute_request(shape)
        params["seed"] = request_seed(seed, len(schedule))
        schedule.append((t, kind, params))


def _compute_request(shape: random.Random) -> Request:
    """One request of the mix, all within ~10-70 ms at the packed default.

    Cheap requests let a 25 s window hold 250 of them at under half
    of capacity.  Synthesis carries most of the mix, so the median sits
    inside its cost band rather than on a jump between request classes.
    """
    kind = shape.choices(
        ("montecarlo", "synthesis", "sweep"), weights=(2, 4, 1)
    )[0]
    if kind == "montecarlo":  # ~35-50 ms
        return kind, {"ndigits": shape.choice((4, 5)),
                      "samples": shape.choice((1000, 2000))}
    if kind == "synthesis":  # ~10-25 ms
        return kind, {"ndigits": shape.choice((4, 6)), "samples": 1000,
                      "datapath": shape.choice(("prodsum", "mac", "dot3"))}
    # per-period packed oracle at one depth: ~60-70 ms
    return kind, {"ndigits": 4, "samples": 1000,
                  "steps": [shape.randrange(1, 8)]}


def compute_class(kind: str, params: Dict[str, Any]) -> Tuple:
    """A request's cost class: its kind and size (a sweep's depth is no size)."""
    return (kind, params["ndigits"], params["samples"],
            params.get("datapath"))


def typical_latency_s(by_class: Dict[Tuple, List[float]]) -> float:
    """Geometric mean over the request classes of each class's median.

    The classes differ in cost several-fold, so the pooled median sits on
    a jump between two of them and flips with small slowdowns; each class
    median moves smoothly, and the mean weighs every class alike.
    """
    if not by_class:
        return math.nan
    return statistics.geometric_mean(median(v) for v in by_class.values())


def compute_warmup(seed: int) -> List[Request]:
    """Untimed first requests: the daemon's lazy imports happen here."""
    shape = random.Random(COMPUTE_SHAPE_SEED + 1)
    warm: Dict[str, Request] = {}
    while len(warm) < 3:
        kind, params = _compute_request(shape)
        warm.setdefault(kind, (kind, params))
    return [
        (kind, dict(params, seed=request_seed(seed, 999_000 + i)))
        for i, (kind, params) in enumerate(warm.values())
    ]


async def _open_loop(port: int, warmup: List[Request],
                     schedule) -> Tuple[list, list, list, float]:
    """Send on schedule over CONNECTIONS; latency counts from the due time."""
    conns = [await Conn.open(port) for _ in range(CONNECTIONS)]
    warm = []
    for request in warmup:
        (future,) = conns[0].send([request])
        warm.append((await arrival(future, 60.0))[1])
    start = time.perf_counter() + 0.05
    sent, lags = [], []
    for i, (offset, kind, params) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        (future,) = conns[i % CONNECTIONS].send([(kind, params)])
        sent.append((due, future))
    deadline = time.perf_counter() + 60.0
    answers, last = [], start
    for due, future in sent:
        done, response = await arrival(future, deadline - time.perf_counter())
        answers.append((done - due, response))
        last = max(last, done)
    for conn in conns:
        await conn.close()
    return warm, answers, lags, last - start


def _compute_phase(bench: Bench, schedule, traced: bool) -> Phase:
    warmup = compute_warmup(bench.seed)
    (warm, answers, lags, span), daemon, peak, cpu, dump = _serve_phase(
        bench, lambda port: _open_loop(port, warmup, schedule), traced
    )
    for response in warm:
        bench.tally.record("warm-up", checks.response_failure(response))
    checked: Dict[str, int] = defaultdict(int)
    latencies, misses = [], 0
    by_class: Dict[Tuple, List[float]] = defaultdict(list)
    for (_, kind, params), (latency, response) in zip(schedule, answers):
        reason = checks.response_failure(response)
        wrong = False
        if reason is None and checked[kind] < COMPUTE_CHECKS_PER_KIND:
            checked[kind] += 1
            reason = _reference_check("answer", (kind, params), response)
            wrong = reason is not None
        bench.tally.record(kind, reason, wrong)
        if reason is None:
            latencies.append(latency)
            by_class[compute_class(kind, params)].append(latency)
        if reason is not None or latency * 1e3 > COMPUTE_SLO_MS:
            misses += 1
    return Phase(
        latencies=latencies, p50_s=typical_latency_s(by_class),
        ops_per_s=len(latencies) / span,
        ready_s=daemon.ready_s, peak_rss_mb=peak, cpu_frac=cpu, lags=lags,
        slo_misses=misses, requests=len(schedule), dump=dump,
        admin_frames=daemon.admin_frames,
    )


def run_serve_compute(bench: Bench, traced: bool) -> Outcome:
    seconds = bench.seconds / 2 if traced else bench.seconds
    schedule = compute_schedule(bench.seed, seconds)
    bench.log(
        f"config: repro serve at default flags (jobs=1 backend=packed "
        f"concurrency=2 workers=0 no batch window), fresh --cache-dir; "
        f"open loop, {COMPUTE_RATE:g} req/s jittered over {CONNECTIONS} "
        f"connections, {len(schedule)} unique requests, SLO "
        f"{COMPUTE_SLO_MS:g} ms; scrubbed env: {bench.scrubbed or 'none'}"
    )
    return _serve_outcome(
        bench, lambda tr: _compute_phase(bench, schedule, tr), traced,
        tail=COMPUTE_TAIL_PERCENTILE,
        overhead=lambda plain, tr: tr.p50_s / plain.p50_s - 1.0,
    )


# -------------------------------------------------------------- serve-hot

HOT_BURST = 4  # identical fresh requests sent together (coalescing)
HOT_WORKING_SET = 8  # distinct requests the repeats cycle over
#: one round of closed-loop items: cache reads dominate, plus a burst of
#: identical fresh requests and one small fresh vector-engine request.
#: Fresh answers become fsynced cache files that the run leaves behind,
#: so they stay rare (~3% of requests).
HOT_ROUND = ("burst",) + ("repeat",) * 31 + ("fresh",) + ("repeat",) * 31


def hot_working_set(seed: int) -> List[Request]:
    return [
        ("montecarlo", {"ndigits": (4, 6, 8)[k % 3], "samples": 2000,
                        "backend": "vector", "seed": request_seed(seed, k)})
        for k in range(HOT_WORKING_SET)
    ]


def hot_items(seed: int) -> Iterator[Tuple[str, List[Request]]]:
    """The closed loop's endless item stream: (slot, requests sent together)."""
    working = hot_working_set(seed)
    repeats = itertools.cycle(working)
    fresh = itertools.count(HOT_WORKING_SET)
    for i in itertools.count():
        slot = HOT_ROUND[i % len(HOT_ROUND)]
        if slot == "repeat":
            yield slot, [next(repeats)]
        elif slot == "burst":
            request = ("montecarlo", {
                "ndigits": 8, "samples": 4000, "backend": "vector",
                "seed": request_seed(seed, next(fresh))})
            yield slot, [request] * HOT_BURST
        else:  # the vector kernel takes ~1-3 ms here
            index = next(fresh)
            kind = ("montecarlo", "sweep")[index % 2]
            yield slot, [(kind, {
                "ndigits": (6, 8)[index % 2], "samples": 5000,
                "backend": "vector", "seed": request_seed(seed, index)})]


async def _closed_loop(port: int, seed: int, seconds: float):
    """Warm the working set, then CONNECTIONS callers each keep one item in flight."""
    conns = [await Conn.open(port) for _ in range(CONNECTIONS)]
    warm = []
    for request in hot_working_set(seed):
        (future,) = conns[0].send([request])
        warm.append((request, (await arrival(future, 60.0))[1]))
    items = hot_items(seed)
    records = []
    start = time.perf_counter()
    stop = start + seconds

    async def caller(conn: Conn) -> None:
        while time.perf_counter() < stop:
            slot, requests = next(items)
            sent = time.perf_counter()
            for request, future in zip(requests, conn.send(requests)):
                done, response = await arrival(future, 60.0)
                records.append((slot, request, done - sent, response))

    await asyncio.gather(*(caller(conn) for conn in conns))
    elapsed = time.perf_counter() - start
    for conn in conns:
        await conn.close()
    return warm, records, elapsed


def _hot_phase(bench: Bench, traced: bool) -> Phase:
    seconds = bench.seconds / 2 if traced else bench.seconds
    (warm, records, elapsed), daemon, peak, cpu, dump = _serve_phase(
        bench, lambda port: _closed_loop(port, bench.seed, seconds), traced
    )
    fresh: Dict[str, Any] = {}
    for i, (request, response) in enumerate(warm):
        reason = checks.response_failure(response)
        wrong = False
        if reason is None:
            fresh[response["key"]] = response["result"]
            if i < 2:
                reason = _reference_check("fresh answer", request, response)
                wrong = reason is not None
        bench.tally.record("warm-up", reason, wrong)
    bursts: Dict[str, List[Any]] = defaultdict(list)
    checked = set()
    latencies = []
    for slot, request, latency, response in records:
        reason = checks.response_failure(response)
        wrong = False
        if reason is None:
            latencies.append(latency)
            if slot == "repeat":
                reason = checks.mismatch(
                    response["result"], fresh.get(response["key"]),
                    "cached answer vs the fresh one",
                )
            elif slot == "burst":
                bursts[response["key"]].append(response["result"])
            elif request[0] not in checked:
                checked.add(request[0])
                reason = _reference_check("fresh answer", request, response)
            wrong = reason is not None
        bench.tally.record(slot, reason, wrong)
    for key, results in bursts.items():
        for result in results[1:]:
            reason = checks.mismatch(result, results[0],
                                     "coalesced answer vs the leader's")
            if reason:
                bench.tally.fail(f"burst: {reason}", wrong=True)
    return Phase(
        latencies=latencies, p50_s=median(latencies),
        ops_per_s=len(records) / elapsed,
        ready_s=daemon.ready_s, peak_rss_mb=peak, cpu_frac=cpu,
        requests=len(records), dump=dump, admin_frames=daemon.admin_frames,
    )


def run_serve_hot(bench: Bench, traced: bool) -> Outcome:
    bench.log(
        f"config: repro serve at default flags (jobs=1 backend=packed "
        f"concurrency=2 workers=0 no batch window), fresh --cache-dir; "
        f"closed loop, {CONNECTIONS} connections x 1 item in flight; rounds "
        f"of {len(HOT_ROUND)} items: {HOT_ROUND.count('repeat')} repeats "
        f"over a working set of {HOT_WORKING_SET}, a burst of {HOT_BURST}, "
        f"a fresh request; scrubbed env: {bench.scrubbed or 'none'}"
    )
    return _serve_outcome(
        bench, lambda tr: _hot_phase(bench, tr), traced,
        tail=HOT_TAIL_PERCENTILE,
        overhead=lambda plain, tr: plain.ops_per_s / tr.ops_per_s - 1.0,
    )


WORKLOADS = {
    "cli-wave": run_cli_wave,
    "cli-gate": run_cli_gate,
    "serve-compute": run_serve_compute,
    "serve-hot": run_serve_hot,
}
