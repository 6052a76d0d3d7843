"""The engine contract: one rule picks the engine, and no key contains it.

``RunConfig.backend`` is an execution detail like ``jobs``: None lets
:func:`repro.netlist.compiled.resolve_backend` choose per workload, an
explicit name overrides it.  Because every engine is bit-identical on
the workloads it serves, the engine must stay out of ``describe()``
(hence every cache key) and out of the service's request and batch
keys — and the default, explicit-``packed`` and explicit-``vector``
answers must serialize to the same bytes.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs.probe import run_stage_probe
from repro.runners import RunConfig
from repro.service.requests import parse_request
from repro.sim.montecarlo import run_montecarlo
from repro.sim.sweep import run_sweep
from repro.synth import run_synthesis
from repro.synth.demos import demo_datapath

ENGINES = (None, "packed", "vector")


def _run(kind, config, samples):
    if kind == "montecarlo":
        return run_montecarlo(config, num_samples=samples)
    if kind == "sweep":
        return run_sweep(config, num_samples=samples, timing="stage")
    if kind == "probe":
        return run_stage_probe(config, num_samples=samples)
    return run_synthesis(
        config,
        demo_datapath("prodsum", config.ndigits),
        target={"metric": "mre", "value": 5.0},
        num_samples=samples,
    )


def _payload(result) -> str:
    payload = result.to_dict()
    payload.pop("metrics", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["montecarlo", "sweep", "synthesis", "probe"]),
    ndigits=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    samples=st.integers(min_value=20, max_value=300),
)
def test_engines_answer_byte_equal_and_stay_out_of_keys(
    kind, ndigits, seed, samples
):
    configs = [
        RunConfig(
            ndigits=ndigits, seed=seed, backend=engine, jobs=1,
            cache_dir=None, shard_size=128,
        )
        for engine in ENGINES
    ]
    for config in configs:
        assert "backend" not in config.describe()
        assert config.describe() == configs[0].describe()
    payloads = {_payload(_run(kind, config, samples)) for config in configs}
    assert len(payloads) == 1


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["montecarlo", "sweep", "synthesis"]),
    ndigits=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    samples=st.integers(min_value=1, max_value=5000),
)
def test_request_and_batch_keys_omit_the_engine(kind, ndigits, seed, samples):
    base = RunConfig(cache_dir=None, jobs=1)
    parsed = []
    for engine in ENGINES:
        params = {"ndigits": ndigits, "seed": seed, "samples": samples}
        if engine is not None:
            params["backend"] = engine
        parsed.append(
            parse_request({"id": 1, "kind": kind, "params": params}, base)
        )
    assert {req.key for req in parsed} == {parsed[0].key}
    assert {req.batch_key for req in parsed} == {parsed[0].batch_key}
    for req in parsed:
        assert "backend" not in req.key_components
    # the override itself still reaches the evaluation
    assert [req.config.backend for req in parsed] == list(ENGINES)
