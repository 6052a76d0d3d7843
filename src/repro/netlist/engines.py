"""The engine names and the one rule that picks an engine per workload.

Kept apart from :mod:`repro.netlist.compiled` and free of numpy, so the
CLI's argument parser can offer ``--backend`` choices without loading
any simulation engine.
"""

from __future__ import annotations

from typing import Optional

#: engine names accepted by
#: :func:`~repro.netlist.compiled.make_simulator` and every ``backend=``
#: parameter downstream.  ``"vector"`` is the digit-level behavioral
#: engine (:mod:`repro.vec`): gate-level netlist simulations fall back to
#: the packed engine under it (see :func:`resolve_backend`), while the
#: online-operator wave recurrences dispatch to the vectorized kernels.
BACKENDS = ("packed", "wave", "vector")

#: the engine each workload runs on when the caller names none: the
#: fastest engine whose conformance suite proves it bit-identical there.
#: ``"om-wave"`` is the stage-delay OM recurrence (Monte-Carlo, stage
#: sweeps and profiles, the stage probe; ``tests/vec``); ``"netlist"``
#: is gate-level simulation of a circuit (FpgaDelay sweeps, fault
#: campaigns, imaging; ``tests/netlist/test_packed_equivalence.py``).
DEFAULT_ENGINES = {"om-wave": "vector", "netlist": "packed"}


def resolve_backend(
    backend: Optional[str] = None, workload: str = "om-wave"
) -> str:
    """The engine that runs *workload*: *backend* if named, else the rule.

    ``None`` picks :data:`DEFAULT_ENGINES` for the workload; an explicit
    name is honoured (``ValueError`` on unknown names).  ``"vector"``
    has no gate-level semantics, so a ``"netlist"`` workload asking for
    it gets the packed engine instead (bit-identical results; a
    ``backend.vector_fallback`` trace event and the
    ``vec.netlist_fallbacks`` metric record the substitution).
    """
    if workload not in DEFAULT_ENGINES:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of "
            f"{tuple(DEFAULT_ENGINES)}"
        )
    if backend is None:
        return DEFAULT_ENGINES[workload]
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "vector" and workload == "netlist":
        from repro.obs.metrics import metrics
        from repro.obs.trace import current_tracer

        current_tracer().event("backend.vector_fallback", to="packed")
        metrics().count("vec.netlist_fallbacks")
        return "packed"
    return backend
