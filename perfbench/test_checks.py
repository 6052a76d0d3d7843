"""Every answer check of the benchmark rejects a deliberately corrupted answer.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import asyncio
import copy

import checks
import layers

TABLE = """\
b  Ts norm.  MC E|eps|
4  0.364     1.2340e-02
[runner] experiment=montecarlo jobs=1 shards=4 elapsed=0.412s cache=off"""


def test_cli_table_ignores_runner_timing():
    later = TABLE.replace("elapsed=0.412s", "elapsed=0.377s")
    first = checks.strip_runner_lines(TABLE)
    assert checks.cli_failure(0, later, first) is None


def test_cli_table_rejects_a_changed_digit():
    first = checks.strip_runner_lines(TABLE)
    corrupted = TABLE.replace("1.2340e-02", "1.2341e-02")
    assert checks.cli_failure(0, corrupted, first) == checks.TABLE_DIFFERS


def test_cli_rejects_failed_or_empty_runs():
    assert checks.cli_failure(1, TABLE, None) == "exit status 1"
    assert checks.cli_failure(0, "[runner] elapsed=1s\n", None) == "empty output"


def test_service_errors_sheds_and_degraded_answers_are_failures():
    assert checks.response_failure(None) == "no response"
    shed = {"ok": False, "code": "shed", "error": "queue full"}
    assert checks.response_failure(shed).startswith("shed")
    degraded = {"ok": True, "degraded": True, "result": {}}
    assert checks.response_failure(degraded) == "degraded answer"
    assert checks.response_failure({"ok": True, "result": {}}) is None


def _daemon_answer(kind, params):
    """The default daemon's in-process answer to one request."""
    from repro.runners import RunConfig
    from repro.service.daemon import EvalService, ServiceConfig

    service = EvalService(ServiceConfig(run_config=RunConfig(
        jobs=1, cache_dir=None)))

    async def ask():
        try:
            return await service.handle(
                {"id": "t", "kind": kind, "params": params}
            )
        finally:
            await service.drain()

    return asyncio.run(ask())


def test_reference_payload_equals_the_daemon_answer_and_rejects_corruption():
    requests = [
        ("montecarlo", {"ndigits": 4, "samples": 300, "seed": 5}),
        ("sweep", {"ndigits": 4, "samples": 300, "steps": [3], "seed": 5}),
        ("synthesis", {"ndigits": 4, "samples": 300, "datapath": "mac",
                       "seed": 5}),
        ("montecarlo", {"ndigits": 6, "samples": 300, "backend": "vector",
                        "seed": 5}),
    ]
    for kind, params in requests:
        response = _daemon_answer(kind, params)
        assert checks.response_failure(response) is None
        reference = checks.reference_payload(kind, params)
        assert checks.mismatch(response["result"], reference, kind) is None
        corrupted = copy.deepcopy(response["result"])
        _perturb_first_float(corrupted)
        assert checks.mismatch(corrupted, reference, kind) == f"{kind} differs"


def _perturb_first_float(payload):
    """Nudge the first float in a JSON payload by one part in 10^12."""
    stack = [payload]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float) and value != 0.0:
                node[key] = value * (1 + 1e-12)
                return
            if isinstance(value, (dict, list)):
                stack.append(value)
    raise AssertionError("payload holds no non-zero float")


def test_cached_and_coalesced_answers_must_equal_the_fresh_one():
    fresh = {"kind": "montecarlo", "mean_abs_error": [0.25, 0.125]}
    assert checks.mismatch(copy.deepcopy(fresh), fresh, "cached") is None
    stale = copy.deepcopy(fresh)
    stale["mean_abs_error"][1] = 0.0625
    assert checks.mismatch(stale, fresh, "cached") == "cached differs"
    assert checks.mismatch(None, fresh, "cached") == "cached differs"


def test_summarize_reports_every_per_layer_metric_per_operation():
    dump = {
        "layers": {
            "netlist.eval": {"wall_s": 0.4, "self_s": 0.3, "calls": 4},
            "runners.map": {"wall_s": 1.0, "self_s": 0.2, "calls": 2},
            "runners.shard": {"wall_s": 0.9, "self_s": 0.9, "calls": 6},
        },
        "counters": {"synth.candidates_total": 8,
                     "synth.candidates_pruned": 6},
    }
    metrics = layers.summarize([dump, dump], ops=4)
    assert metrics["netlist.eval_ms"] == 1e3 * 0.6 / 4
    assert abs(metrics["runners.dispatch_ms"] - 1e3 * 0.2 / 4) < 1e-9
    assert metrics["runners.shards"] == 3.0
    assert metrics["synth.prune_ratio"] == 0.75
    owned = {"obs.trace_overhead_frac", "bench.gen_lag_ms",
             "bench.client_cpu_frac", "bench.error_frac", "bench.slo_miss_frac"}
    assert set(metrics) | owned == set(layers.PER_LAYER_UNITS)
