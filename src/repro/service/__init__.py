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
* :mod:`repro.service.daemon` — the asyncio JSON-lines server tying
  them together, with graceful drain and health endpoints.  Pool
  failure is the runner's alone (:class:`repro.runners.ParallelRunner`
  retries a lost pool, then finishes inline): every answer is computed
  or an explicit failure, never an analytical stand-in.
* :mod:`repro.service.client` — the multiplexing JSON-lines client.

Stdlib-only by design: the daemon adds zero dependencies beyond what
the simulation core already uses.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "AdmissionController": "repro.service.admission",
    "ShedRequest": "repro.service.admission",
    "InflightRegistry": "repro.service.batch",
    "merge_requests": "repro.service.batch",
    "split_responses": "repro.service.batch",
    "ServiceClient": "repro.service.client",
    "request_once": "repro.service.client",
    "EvalService": "repro.service.daemon",
    "ServiceConfig": "repro.service.daemon",
    "evaluate_request": "repro.service.daemon",
    "run_service": "repro.service.daemon",
    "ADMIN_KINDS": "repro.service.requests",
    "REQUEST_CLASSES": "repro.service.requests",
    "EvalRequest": "repro.service.requests",
    "RequestError": "repro.service.requests",
    "batch_compatibility_key": "repro.service.requests",
    "parse_request": "repro.service.requests",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
