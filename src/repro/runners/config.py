"""The unified experiment configuration (:class:`RunConfig`).

Every batch experiment in the repository — the stage-delay Monte-Carlo,
the gate-level overclocking sweeps, the per-digit error-profile grids and
the image-filter case study — is parameterised by the same handful of
knobs: operand geometry (``ndigits``/``delta``), the master ``seed``,
and the execution environment (``jobs`` worker processes, ``cache_dir``
for the persistent result cache, an optional ``backend`` engine
override).  Historically each entry point grew its own ad-hoc subset of
these as keyword arguments; :class:`RunConfig` replaces that with one
immutable dataclass consumed uniformly by

* :func:`repro.sim.montecarlo.run_montecarlo`,
* :func:`repro.sim.sweep.run_sweep`,
* :func:`repro.sim.error_profile.run_error_profile`, and
* :func:`repro.imaging.filters.run_filter_study`.

Three fields deserve emphasis:

``jobs``
    Number of worker processes.  **Results never depend on it**: the
    workload is split into shards of ``shard_size`` samples with
    deterministically spawned per-shard seeds, and shards merge in index
    order, so ``jobs=1`` and ``jobs=N`` produce bit-identical results
    (``tests/runners/test_parallel.py`` enforces this).
``shard_size``
    Samples per shard.  Part of the statistical identity of a run —
    changing it regroups the per-shard RNG streams and therefore changes
    the drawn samples — so it participates in cache keys while ``jobs``
    and ``cache_dir`` do not.
``backend``
    The simulation engine override, None by default: each workload
    then runs on the engine :func:`repro.netlist.engines.resolve_backend`
    picks for it (``vector`` for OM-wave experiments, ``packed`` for
    gate-level netlists).  Every engine is proven bit-identical on the
    workloads it serves, so like ``jobs`` it never enters cache keys.

Environment defaults: ``REPRO_JOBS`` seeds the default ``jobs`` and
``REPRO_CACHE_DIR`` the default ``cache_dir``, so CI legs and benchmark
sweeps can opt whole suites into parallel/cached execution without
touching call sites.

Validation is *eager*: every field is checked at construction with an
actionable message naming the offending value, including that
``cache_dir`` can actually be created and written — a typo'd cache path
fails in milliseconds at config time, not after an hour of simulation
when the first result is flushed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional

from repro.netlist.engines import resolve_backend

#: default samples per shard (see :attr:`RunConfig.shard_size`)
DEFAULT_SHARD_SIZE = 2500


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _default_cache_dir() -> Optional[str]:
    return os.environ.get("REPRO_CACHE_DIR") or None


@dataclass(frozen=True)
class RunConfig:
    """Uniform parameter block for every batch experiment.

    Attributes
    ----------
    ndigits / delta:
        Operand geometry (word length ``N`` and online delay).
    seed:
        Master seed; per-shard streams are spawned from it via
        :class:`numpy.random.SeedSequence`.
    jobs:
        Worker processes (>= 1).  Execution detail only — never affects
        results.  Defaults to ``$REPRO_JOBS`` or 1.
    backend:
        Engine override: ``"packed"``, ``"wave"`` or ``"vector"``, or
        None (default) to let each workload run on the engine chosen
        per workload by :func:`~repro.netlist.engines.resolve_backend`.
        Execution detail like ``jobs`` — all engines are bit-identical
        where they serve a workload, so it never affects results.
    cache_dir:
        Directory of the persistent result cache, or None to disable
        caching.  Defaults to ``$REPRO_CACHE_DIR`` or None.  Validated
        eagerly: it must be creatable and writable.
    shard_size:
        Samples per shard of the deterministic seed-splitting scheme.
    shard_timeout:
        Per-shard wall-clock budget in seconds for pool execution, or
        None (default) for no budget.  Execution detail like ``jobs`` —
        never affects results (a timed-out shard is retried and
        ultimately completes in-process).
    """

    ndigits: int = 8
    delta: int = 3
    seed: int = 2014
    jobs: int = field(default_factory=_default_jobs)
    backend: Optional[str] = None
    cache_dir: Optional[str] = field(default_factory=_default_cache_dir)
    shard_size: int = DEFAULT_SHARD_SIZE
    shard_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        for name, lo in (
            ("ndigits", 1), ("delta", 1), ("seed", 0), ("shard_size", 1)
        ):
            value = getattr(self, name)
            bad = not isinstance(value, int) or isinstance(value, bool)
            if bad or value < lo:
                raise ValueError(
                    f"{name} must be an integer >= {lo}, got {value!r}"
                )
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ValueError(
                f"jobs must be an integer >= 1, got {self.jobs!r} "
                "(use jobs=1 for in-process execution)"
            )
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ValueError(
                "shard_timeout must be a positive number of seconds or "
                f"None, got {self.shard_timeout!r}"
            )
        if self.backend is not None:
            resolve_backend(self.backend)
        self._check_cache_dir()

    def _check_cache_dir(self) -> None:
        if not self.cache_dir:
            return
        path = Path(self.cache_dir).expanduser()
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"cache_dir {self.cache_dir!r} cannot be created "
                f"({type(exc).__name__}: {exc}); point it at a writable "
                "directory or set cache_dir=None to disable caching"
            ) from exc
        if not os.access(path, os.W_OK | os.X_OK):
            raise ValueError(
                f"cache_dir {self.cache_dir!r} exists but is not "
                "writable; fix its permissions or set cache_dir=None "
                "to disable caching"
            )

    def with_(self, **changes: object) -> "RunConfig":
        """A copy with the given fields replaced (the config is frozen)."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        """The fields that define *what* is computed (cache-key material).

        Excludes ``jobs``, ``backend`` and ``cache_dir`` on purpose: they
        change how a result is produced, never the result itself.
        """
        return {
            "ndigits": self.ndigits,
            "delta": self.delta,
            "seed": self.seed,
            "shard_size": self.shard_size,
        }
