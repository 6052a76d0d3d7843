""":mod:`repro.service` — the robust evaluation daemon.

Everything the long-running front-end over the experiment entry points
needs, one concern per module:

* :mod:`repro.service.requests` — strict wire-request parsing onto the
  experiments' own content-addressed cache keys.
* :mod:`repro.service.admission` — bounded per-class queues and load
  shedding with live ``retry_after`` hints.
* :mod:`repro.service.batch` — the in-flight registry, the one
  mechanism for sharing work: identical requests follow one answer,
  and *compatible* requests queued for an evaluator slot fuse into one
  union-grid evaluation, split back into bit-identical per-request
  responses.
* :mod:`repro.service.retry` — decorrelated-jitter backoff under a
  hard sleep budget.
* :mod:`repro.service.breaker` — the circuit breaker over the worker
  pool.
* :mod:`repro.service.degrade` — analytical (Section-3 model) answers
  while the pool is down, marked ``"degraded": true``.
* :mod:`repro.service.daemon` — the asyncio JSON-lines server tying
  them together, with graceful drain and health endpoints.
* :mod:`repro.service.client` — the multiplexing JSON-lines client.

Stdlib-only by design: the daemon adds zero dependencies beyond what
the simulation core already uses.
"""

from repro.service.admission import AdmissionController, ShedRequest
from repro.service.batch import (
    InflightRegistry,
    merge_requests,
    split_responses,
)
from repro.service.breaker import CircuitBreaker
from repro.service.client import ServiceClient, request_once
from repro.service.daemon import (
    EvalService,
    ServiceConfig,
    TransientEvalError,
    evaluate_request,
    run_service,
)
from repro.service.degrade import degraded_answer
from repro.service.requests import (
    ADMIN_KINDS,
    REQUEST_CLASSES,
    EvalRequest,
    RequestError,
    batch_compatibility_key,
    parse_request,
)
from repro.service.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "AdmissionController",
    "ShedRequest",
    "InflightRegistry",
    "merge_requests",
    "split_responses",
    "CircuitBreaker",
    "ServiceClient",
    "request_once",
    "EvalService",
    "ServiceConfig",
    "TransientEvalError",
    "evaluate_request",
    "run_service",
    "degraded_answer",
    "ADMIN_KINDS",
    "REQUEST_CLASSES",
    "EvalRequest",
    "RequestError",
    "batch_compatibility_key",
    "parse_request",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
]
