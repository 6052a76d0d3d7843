"""Request parsing and normalization for the evaluation service.

A wire request is one JSON object::

    {"id": "r1", "kind": "montecarlo",
     "params": {"ndigits": 6, "samples": 4000, "seed": 7},
     "deadline": 10.0}

``kind`` selects the request class (:data:`REQUEST_CLASSES`), ``params``
the experiment parameters, ``deadline`` an optional per-request
wall-clock budget in seconds.  Parsing is *strict*: unknown parameter
names, out-of-range values and oversized sample budgets are rejected
with a :class:`RequestError` naming the offending field — a malformed
request must never reach the queue, let alone the pool.

This module parses the envelope; each kind's parameters, with their
bounds and defaults, are declared once in :mod:`repro.experiments`,
whose normalizer the CLI shares.

Normalization produces an :class:`EvalRequest` whose ``key`` is the
**same content address the result cache uses** (the experiment entry
points' key-component builders are imported, not imitated), which is
what makes dedup/coalescing exact and lets cache hits short-circuit
before admission control ever sees the request.

Next to the identity key sits the **compatibility key** (``batch_key``):
two requests with the same batch key differ only along an axis the
vector engine evaluates in one pass anyway — the montecarlo depth grid,
or the stage-sweep step grid — while everything that changes the sample
stream or the evaluation semantics (geometry, seed, shard size, sample
budget, deadline) is part of the key.  The ``backend`` param is an
engine override: engines are bit-identical where they serve a request,
so like ``jobs`` it enters neither key.  The service's in-flight
registry (:mod:`repro.service.batch`) fuses same-``batch_key``
requests queued for an evaluator slot into one evaluation; synthesis
requests have no batchable axis and carry ``batch_key=None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.experiments import DEADLINE, EXPERIMENTS, RequestError, normalize
from repro.runners.cache import cache_key
from repro.runners.config import RunConfig

__all__ = [
    "REQUEST_CLASSES",
    "ADMIN_KINDS",
    "RequestError",
    "EvalRequest",
    "batch_compatibility_key",
    "eval_request",
    "parse_request",
]

#: evaluation request classes, each with its own admission limit
REQUEST_CLASSES = tuple(EXPERIMENTS)

#: control-plane kinds answered inline by the daemon (never queued).
#: ``statsz`` is the deterministic machine-facing snapshot (metrics +
#: drain state + per-class queue depths + live run progress); ``metricsz``
#: carries the Prometheus text exposition of the same registry.
ADMIN_KINDS = ("healthz", "readyz", "stats", "statsz", "metricsz")

#: hard ceiling on per-request sample budgets — one request must not be
#: able to monopolize the pool for minutes
MAX_SAMPLES = 200_000


@dataclass(frozen=True)
class EvalRequest:
    """One normalized, keyed evaluation request."""

    id: Optional[str]
    kind: str
    config: RunConfig
    params: Mapping[str, Any]
    key_components: Mapping[str, Any]
    key: str  # dedup/coalescing and ResultCache content address
    deadline: Optional[float]
    batch_key: Optional[str] = None  # fusion compatibility class


def batch_compatibility_key(
    kind: str, config: RunConfig, samples: int, deadline: Optional[float]
) -> Optional[str]:
    """Compatibility class of one request for service-side fusion.

    Everything but the kind's grid axis must match for two requests to
    fuse: the :meth:`RunConfig.describe` fields (geometry, seed, shard
    size) pin the sample stream, ``samples`` pins the shard
    layout, and ``deadline`` keeps the fused evaluation's cancellation
    semantics identical to each member's solo run.  A kind without a
    grid axis (synthesis) never batches.
    """
    if EXPERIMENTS[kind].axis is None:
        return None
    return cache_key(
        experiment=f"service.batch.{kind}",
        num_samples=int(samples),
        deadline=deadline,
        **config.describe(),
    )


def eval_request(
    kind: str,
    values: Mapping[str, Any],
    base: RunConfig,
    req_id: Optional[str] = None,
    deadline: Optional[float] = None,
) -> EvalRequest:
    """The keyed :class:`EvalRequest` of *values* (see
    :func:`repro.experiments.normalize`)."""
    config, params, components = normalize(kind, values, base)
    return EvalRequest(
        id=req_id, kind=kind, config=config, params=params,
        key_components=components, key=cache_key(**components),
        deadline=deadline,
        batch_key=batch_compatibility_key(
            kind, config, params["samples"], deadline
        ),
    )


def parse_request(
    message: Mapping[str, Any],
    base_config: RunConfig,
    default_deadline: Optional[float] = None,
) -> EvalRequest:
    """Validate and normalize one wire request into an :class:`EvalRequest`."""
    if not isinstance(message, Mapping):
        raise RequestError("request must be a JSON object")
    kind = message.get("kind")
    if kind not in REQUEST_CLASSES:
        raise RequestError(
            f"unknown kind {kind!r}; expected one of "
            f"{', '.join(REQUEST_CLASSES + ADMIN_KINDS)}"
        )
    req_id = message.get("id")
    if req_id is not None and not isinstance(req_id, (str, int)):
        raise RequestError(f"id must be a string or integer, got {req_id!r}")
    params = message.get("params", {})
    if not isinstance(params, Mapping):
        raise RequestError("params must be a JSON object")
    unknown = set(params) - {p.name for p in EXPERIMENTS[kind].params}
    if unknown:
        raise RequestError(
            f"unknown parameter(s) for {kind}: {', '.join(sorted(unknown))}"
        )
    deadline = message.get("deadline", default_deadline)
    if deadline is not None:
        try:
            deadline = DEADLINE.check(deadline)
        except ValueError as exc:
            raise RequestError(str(exc), "deadline") from None
    req = eval_request(kind, params, base_config, req_id, deadline)
    if req.params["samples"] > MAX_SAMPLES:
        raise RequestError(
            f"must be in [1, {MAX_SAMPLES}], got {req.params['samples']}",
            "samples",
        )
    return req
