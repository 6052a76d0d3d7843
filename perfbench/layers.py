"""Per-layer clocks for traced benchmark runs.

Child side: :func:`install` registers an import hook.  The moment one of
the :data:`TARGETS` modules finishes executing, its public layer entry
points are replaced by timing wrappers, before any other module can bind
them with ``from ... import``.  Every caller, the CLI and ``repro serve``
included, therefore runs the unchanged code through the wrappers;
untraced runs never load this module.

Each synchronous wrapper keeps a per-thread stack, so a layer's *self*
time excludes the time of nested wrapped layers (its duration minus the
part its wrapped children cover).  The coroutine wrapper
(``EvalService.handle``) records wall time only: coroutine frames
interleave on the event loop and cannot nest on a stack.

Parent side: :func:`summarize` folds the JSON dumps of the traced
processes into the per-layer metrics of the run.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: module -> [(attribute path, layer)] of the wrapped entry points
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "repro.cli": [("build_parser", "cli.start")],
    "repro.netlist.compiled": [
        ("compile_circuit", "netlist.compile"),
        ("CompiledCircuit.run", "netlist.eval"),
        ("CompiledCircuit.evaluate_packed", "netlist.eval"),
    ],
    "repro.core.online_multiplier": [("OnlineMultiplier.wave", "om.wave")],
    "repro.core.conversion": [("digits_to_scaled_int", "sim.reduce")],
    "repro.vec.engine": [("om_wave_vector", "vec.wave")],
    "repro.vec.fused": [
        ("om_sweep_vector", "vec.fused"),
        ("fused_sweep_partial", "sim.partial"),
        ("stage_error_partials", "sim.partial"),
    ],
    "repro.sim.sweep": [("stage_sweep_partial", "sim.partial")],
    "repro.synth.search": [("run_synthesis", "synth.search")],
    "repro.faults.campaign": [("run_fault_campaign", "faults.campaign")],
    "repro.imaging.filters": [("run_filter_study", "imaging.filter")],
    "repro.runners.parallel": [("ParallelRunner.map", "runners.map")],
    "repro.runners.cache": [
        ("ResultCache.get", "runners.cache_get"),
        ("ResultCache.get_raw", "runners.cache_get"),
        ("ResultCache.put", "runners.cache_put"),
        ("ResultCache.put_raw", "runners.cache_put"),
    ],
    "repro.service.requests": [("parse_request", "service.parse")],
    "repro.service.daemon": [
        ("evaluate_request", "service.evaluate"),
        ("EvalService.handle", "service.handle"),
    ],
}


class LayerClock:
    """Thread-safe totals of per-layer wall time, self time and calls."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.wall: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def add(self, layer: str, wall: float, self_time: Optional[float] = None,
            calls: int = 1) -> None:
        with self._lock:
            self.wall[layer] += wall
            self.self_time[layer] += wall if self_time is None else self_time
            self.calls[layer] += calls

    def wrap(self, layer: str, fn: Callable,
             after: Optional[Callable[[tuple], None]] = None) -> Callable:
        """Time *fn* under *layer*; *after(args)* runs once it returned."""
        local = self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)  # wall time of wrapped children
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                self.add(layer, dt, dt - children)
            if after is not None:
                after(args)
            return result

        timed.perfbench_layer = layer
        return timed

    def wrap_async(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.add(layer, time.perf_counter() - t0)

        return timed

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                layer: {
                    "wall_s": self.wall[layer],
                    "self_s": self.self_time[layer],
                    "calls": self.calls[layer],
                }
                for layer in sorted(self.calls)
            }


class _JsonShim:
    """Stands in for ``json`` inside the daemon module to time the codec."""

    def __init__(self, clock: LayerClock) -> None:
        self._clock = clock

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)

    def dumps(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return json.dumps(*args, **kwargs)
        finally:
            self._clock.add("service.serialize", time.perf_counter() - t0)

    def loads(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return json.loads(*args, **kwargs)
        finally:
            self._clock.add("service.decode", time.perf_counter() - t0)


def _wrapper(clock: LayerClock, layer: str, fn: Callable,
             spawn_t: float) -> Callable:
    if layer == "service.handle":
        return clock.wrap_async(layer, fn)
    if layer == "runners.map":
        def shards(args: tuple) -> None:
            done = args[0].stats.shards
            clock.add(
                "runners.shard", sum(s.elapsed for s in done), calls=len(done)
            )

        return clock.wrap(layer, fn, after=shards)
    if layer == "cli.start":
        # start time = spawn (parent clock) -> parse_args returned
        @functools.wraps(fn)
        def build_parser():
            parser = fn()
            parse_args = parser.parse_args

            def parse(*args, **kwargs):
                parsed = parse_args(*args, **kwargs)
                clock.add(layer, time.time() - spawn_t)
                return parsed

            parser.parse_args = parse
            return parser

        return build_parser
    return clock.wrap(layer, fn)


def _patch(module: Any, clock: LayerClock, spawn_t: float) -> None:
    for path, layer in TARGETS[module.__name__]:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        setattr(owner, attr, _wrapper(clock, layer, getattr(owner, attr),
                                      spawn_t))
    if module.__name__ == "repro.service.daemon":
        module.json = _JsonShim(clock)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, clock: LayerClock, spawn_t: float) -> None:
        self._clock = clock
        self._spawn_t = spawn_t

    def find_spec(self, name, path, target=None):
        if name not in TARGETS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def patched_exec(module):
            exec_module(module)
            _patch(module, self._clock, self._spawn_t)

        spec.loader.exec_module = patched_exec
        return spec


def _time_executor_hops(clock: LayerClock) -> None:
    """Queue wait of each evaluation: executor submit -> evaluator start."""
    import asyncio.base_events

    loop_cls = asyncio.base_events.BaseEventLoop
    run_in_executor = loop_cls.run_in_executor

    def timed_run_in_executor(self, executor, func, *args):
        if getattr(func, "perfbench_layer", None) == "service.evaluate":
            submitted = time.perf_counter()
            evaluate = func

            def func(*call_args):
                clock.add("service.queue_wait", time.perf_counter() - submitted)
                return evaluate(*call_args)

        return run_in_executor(self, executor, func, *args)

    loop_cls.run_in_executor = timed_run_in_executor


def install(spawn_t: float) -> LayerClock:
    """Install the wrappers; call before anything imports ``repro``."""
    loaded = sorted(name for name in TARGETS if name in sys.modules)
    if loaded:
        raise RuntimeError(f"layer modules imported before install: {loaded}")
    clock = LayerClock()
    sys.meta_path.insert(0, _PatchingFinder(clock, spawn_t))
    _time_executor_hops(clock)
    return clock


# ------------------------------------------------------------- parent side

#: the per-layer metrics every traced run reports, with their units
PER_LAYER_UNITS = {
    "cli.start_s": "s",
    "netlist.eval_ms": "ms",
    "netlist.compile_ms": "ms",
    "netlist.compile_misses": "count",
    "om.wave_ms": "ms",
    "vec.wave_ms": "ms",
    "vec.fused_ms": "ms",
    "sim.partial_ms": "ms",
    "sim.reduce_ms": "ms",
    "synth.search_ms": "ms",
    "synth.prune_ratio": "1",
    "faults.campaign_ms": "ms",
    "imaging.filter_ms": "ms",
    "runners.map_ms": "ms",
    "runners.dispatch_ms": "ms",
    "runners.shards": "count",
    "runners.cache_get_ms": "ms",
    "runners.cache_put_ms": "ms",
    "service.parse_ms": "ms",
    "service.overhead_ms": "ms",
    "service.serialize_ms": "ms",
    "service.frames_per_request": "count",
    "service.queue_wait_ms": "ms",
    "service.cache_hit_ratio": "1",
    "service.coalesce_ratio": "1",
    "obs.trace_overhead_frac": "1",
    "bench.gen_lag_ms": "ms",
    "bench.client_cpu_frac": "1",
    "bench.error_frac": "1",
    "bench.slo_miss_frac": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(dumps: Iterable[Dict[str, Any]], ops: int,
              admin_frames: int = 0) -> Dict[str, float]:
    """Per-operation layer metrics from the traced processes' dumps.

    *ops* is the number of operations the traced processes served (CLI
    commands, or evaluation requests of a daemon); every time below is a
    total over the traced processes divided by it, except the queue
    wait, which is per evaluation.  *admin_frames* are the readiness
    responses to subtract from the daemon's written frames.
    """
    wall: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counters: Dict[str, float] = defaultdict(float)
    for dump in dumps:
        for layer, t in dump["layers"].items():
            wall[layer] += t["wall_s"]
            self_s[layer] += t["self_s"]
            calls[layer] += t["calls"]
        for name, value in dump["counters"].items():
            counters[name] += value

    def ms(total: float) -> float:
        return 1e3 * _ratio(total, ops)

    requests = counters["service.requests"]
    return {
        "cli.start_s": _ratio(wall["cli.start"], ops),
        "netlist.eval_ms": ms(self_s["netlist.eval"]),
        "netlist.compile_ms": ms(self_s["netlist.compile"]),
        "netlist.compile_misses": _ratio(counters["compile_cache.misses"], ops),
        "om.wave_ms": ms(self_s["om.wave"]),
        "vec.wave_ms": ms(self_s["vec.wave"]),
        "vec.fused_ms": ms(self_s["vec.fused"]),
        "sim.partial_ms": ms(self_s["sim.partial"]),
        "sim.reduce_ms": ms(self_s["sim.reduce"]),
        "synth.search_ms": ms(self_s["synth.search"]),
        "synth.prune_ratio": _ratio(
            counters["synth.candidates_pruned"],
            counters["synth.candidates_total"],
        ),
        "faults.campaign_ms": ms(self_s["faults.campaign"]),
        "imaging.filter_ms": ms(self_s["imaging.filter"]),
        "runners.map_ms": ms(wall["runners.map"]),
        "runners.dispatch_ms": ms(wall["runners.map"] - wall["runners.shard"]),
        "runners.shards": _ratio(calls["runners.shard"], ops),
        "runners.cache_get_ms": ms(wall["runners.cache_get"]),
        "runners.cache_put_ms": ms(wall["runners.cache_put"]),
        "service.parse_ms": ms(wall["service.decode"] + wall["service.parse"]),
        "service.overhead_ms": ms(
            wall["service.handle"] - wall["service.evaluate"]
        ) if requests else 0.0,
        "service.serialize_ms": ms(wall["service.serialize"]),
        "service.frames_per_request": _ratio(
            calls["service.serialize"] - admin_frames, requests
        ),
        "service.queue_wait_ms": 1e3 * _ratio(
            wall["service.queue_wait"], calls["service.queue_wait"]
        ),
        "service.cache_hit_ratio": _ratio(
            counters["service.cache_short_circuit"], requests
        ),
        "service.coalesce_ratio": _ratio(
            counters["service.coalesce_hits"], requests
        ),
    }
