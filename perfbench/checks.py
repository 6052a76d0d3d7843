"""Answer checks of the benchmark: pure functions over program outputs.

``test_checks.py`` proves each one rejects a deliberately corrupted
answer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional


#: the failure reason of a CLI op whose answer changed (a wrong answer)
TABLE_DIFFERS = "table differs from the first pass"


def strip_runner_lines(text: str) -> str:
    """A CLI table without its ``[runner]`` timing lines."""
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("[runner]")
    )


def cli_failure(returncode: int, stdout: str,
                first_pass: Optional[str]) -> Optional[str]:
    """Why one CLI op failed, or None.

    An op fails when it exits non-zero, prints no table, or prints a table
    (``[runner]`` lines stripped) that differs from the first pass of the
    same command in the run.
    """
    if returncode != 0:
        return f"exit status {returncode}"
    table = strip_runner_lines(stdout)
    if not table.strip():
        return "empty output"
    if first_pass is not None and table != first_pass:
        return TABLE_DIFFERS
    return None


def canonical(payload: Any) -> str:
    """Byte-exact comparison form of a JSON payload."""
    return json.dumps(payload, sort_keys=True)


def response_failure(response: Optional[Mapping[str, Any]]) -> Optional[str]:
    """Why a service response is not a usable answer, or None.

    Errors, sheds, deadline misses and drains arrive as ``ok: false``;
    breaker answers from the analytical model arrive ``degraded``.
    """
    if response is None:
        return "no response"
    if not response.get("ok"):
        return f"{response.get('code', 'error')}: {response.get('error', '')}"
    if response.get("degraded"):
        return "degraded answer"
    if "result" not in response:
        return "response without a result"
    return None


def mismatch(result: Any, expected: Any, what: str) -> Optional[str]:
    """A reason when *result* is not byte-identical to *expected*."""
    if canonical(result) != canonical(expected):
        return f"{what} differs"
    return None


def reference_payload(kind: str, params: Mapping[str, Any],
                      base_ndigits: int = 8,
                      base_seed: int = 2014) -> Dict[str, Any]:
    """The in-process answer to one service request, in wire form.

    Mirrors the daemon at its defaults (``--ndigits 8 --seed 2014``,
    packed backend, ``jobs=1``): request parameters override those, and
    the payload is the entry point's ``to_dict()`` without its metrics
    snapshot, round-tripped through JSON like a response.
    """
    from repro.runners import RunConfig

    config = RunConfig(
        ndigits=params.get("ndigits", base_ndigits),
        seed=params.get("seed", base_seed),
        backend=params.get("backend", "packed"),
        jobs=1,
        cache_dir=None,
    )
    samples = params.get("samples", 4000)
    if kind == "montecarlo":
        from repro.sim.montecarlo import run_montecarlo

        result = run_montecarlo(
            config, num_samples=samples, depths=params.get("depths")
        )
    elif kind == "sweep":
        from repro.sim.sweep import run_sweep

        result = run_sweep(
            config,
            design="online",
            num_samples=samples,
            timing="stage",
            steps=params.get("steps"),
            periods=params.get("periods"),
        )
    elif kind == "synthesis":
        from repro.synth import run_synthesis
        from repro.synth.demos import demo_datapath

        kwargs = {"periods": params["periods"]} if params.get("periods") else {}
        result = run_synthesis(
            config,
            demo_datapath(params.get("datapath", "prodsum"), config.ndigits),
            target={"metric": "mre",
                    "value": float(params.get("target_mre", 5.0))},
            wordlengths=params.get("wordlengths"),
            num_samples=samples,
            **kwargs,
        )
    else:
        raise ValueError(f"no in-process reference for kind {kind!r}")
    payload = result.to_dict()
    payload.pop("metrics", None)
    return json.loads(canonical(payload))
