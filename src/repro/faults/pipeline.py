"""Pipeline faults: crash/hang/corruption harness for the runner stack.

The third injection layer does not touch the simulation at all — it
attacks the *experiment pipeline*: worker processes that die mid-shard,
shards that hang past any reasonable wall-clock budget, and cache
entries whose bytes rot on disk.  The hardened
:class:`~repro.runners.ParallelRunner` and
:class:`~repro.runners.ResultCache` must survive all three (retry,
timeout + retry, quarantine + recompute); the robustness tests use this
module to prove it.

Everything here is picklable (module-level classes with plain-data
state), because the whole point is to ride through a real
``ProcessPoolExecutor``.  Fault-once semantics are tracked with sentinel
files so a *retried* shard succeeds even though the retry runs in a
fresh worker process with no shared memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Tuple

#: exit code of an injected worker crash (aids debugging test failures)
CRASH_EXIT_CODE = 113


@dataclass(frozen=True)
class PipelineFaultPlan:
    """Which shards misbehave, and how.

    ``crash_shards`` die with ``os._exit`` (uncatchable, breaks the
    pool); ``hang_shards`` sleep ``hang_seconds`` (tripping the runner's
    per-shard timeout).  With ``fault_once`` (the default) each shard
    faults only on its first attempt — the sentinel directory remembers
    attempts across processes — so a retrying runner makes progress.
    """

    sentinel_dir: str
    crash_shards: Tuple[int, ...] = ()
    hang_shards: Tuple[int, ...] = ()
    hang_seconds: float = 30.0
    fault_once: bool = True


class FaultyPipelineWorker:
    """Wrap a shard worker function with an injection plan.

    The wrapped payloads must be mappings carrying their shard index
    under *index_key* (the convention of every sharded entry point).
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        plan: PipelineFaultPlan,
        index_key: str = "shard",
    ) -> None:
        self.fn = fn
        self.plan = plan
        self.index_key = index_key

    def _first_attempt(self, tag: str) -> bool:
        path = Path(self.plan.sentinel_dir) / tag
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            path.touch(exist_ok=False)
            return True
        except FileExistsError:
            return False

    def __call__(self, payload: Any) -> Any:
        index = int(payload[self.index_key])
        if index in self.plan.crash_shards and (
            not self.plan.fault_once or self._first_attempt(f"crash-{index}")
        ):
            os._exit(CRASH_EXIT_CODE)
        if index in self.plan.hang_shards and (
            not self.plan.fault_once or self._first_attempt(f"hang-{index}")
        ):
            time.sleep(self.plan.hang_seconds)
        return self.fn(payload)


def corrupt_cache_entry(
    cache_dir: os.PathLike, key: str, mode: str = "garbage"
) -> None:
    """Damage one on-disk cache entry the way real storage rots.

    ``mode``: ``"garbage"`` overwrites the entry with random binary
    bytes, ``"truncate"`` chops it mid-way.  The hardened cache must
    treat every variant as a miss (quarantine + recompute), never raise.
    """
    path = Path(cache_dir) / f"{key}.json"
    if mode == "garbage":
        path.write_bytes(bytes(range(256)) * 4)
    elif mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 3)])
    else:
        raise ValueError(
            f"unknown corruption mode {mode!r}; "
            "expected 'garbage' or 'truncate'"
        )
