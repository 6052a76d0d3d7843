"""Content-addressed on-disk cache for experiment results.

A cache entry is addressed by the blake2b digest of the canonical JSON of
its *key components* — the experiment name plus everything that
determines the result: netlist structural fingerprint and exact delay
assignment for gate-level experiments, operand geometry, master seed,
shard size and per-experiment parameters (sample counts, depths, steps,
images, frequency factors).  Execution details — ``jobs``, ``backend``,
``cache_dir`` — never enter the key, so a result computed by one worker
layout or engine is served to every other.

Each entry is one file, ``<digest>.json``: a header (cache format
version and result ``kind``), the key components (for debuggability)
and the result's ``to_dict()`` payload, whose array fields are the
plain JSON lists the :mod:`repro.runners.results` codec writes.  A hit
parses that one file and decodes it through the codec, which rebuilds
every array at its declared dtype bit-exactly (Python's float repr
round-trips IEEE-754 doubles, ``inf``, ``-0.0`` and subnormals
included; a NaN comes back as the canonical quiet NaN).

The file is written to a temporary name, fsynced, and atomically
renamed, so a crashed (even SIGKILLed) writer can never leave a
half-entry that poisons later runs: a reader either sees no entry (a
plain miss) or a complete one.  Keys are content addresses, so two
writers racing on one key are by construction writing identical bytes
and either rename order is safe.  A writer killed before its rename
leaves only a ``*.tmp`` droppings file, which never matches the
``*.json`` read path and is swept on the next :class:`ResultCache`
construction once it is unambiguously stale (:data:`STALE_TMP_SECONDS`).

Robustness: the store never *trusts* on-disk bytes.  A truncated,
hand-edited or otherwise undecodable entry is detected on read, moved
into a ``quarantine/`` subdirectory (preserving the evidence), reported
with a :class:`RuntimeWarning`, and treated as a miss — the caller
recomputes and overwrites, so storage rot can cost time but never
correctness and never a crash.  An entry whose header still lists
``arrays`` was written by the earlier two-file layout, which kept the
arrays in a sidecar file next to the JSON; it takes the same path, and
the quarantine moves its sidecar along, so each such entry misses once.

Besides full :class:`~repro.runners.results.Result` objects, the store
also holds *raw* JSON payloads (:meth:`ResultCache.put_raw` /
:meth:`ResultCache.get_raw`): plain dicts of JSON scalars, used as
per-shard checkpoints by long campaigns so a killed run resumes from the
completed shards (floats round-trip exactly through JSON's repr-based
encoding, keeping resumed merges bit-identical).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runners.results import attach_metrics, jsonable, result_from_dict

#: bump to invalidate every existing cache entry on a format change
#: (2: the engine left the key components)
CACHE_FORMAT_VERSION = 2

#: ``kind`` tag of raw (non-Result) JSON payload entries
RAW_KIND = "_raw"

#: subdirectory corrupt entries are moved into (never auto-deleted)
QUARANTINE_DIR = "quarantine"

#: age (seconds) past which an abandoned ``*.tmp`` file from a killed
#: writer is swept at construction — generous enough that no live
#: writer (entries take seconds at most) can be holding it
STALE_TMP_SECONDS = 3600.0


def cache_key(**components: Any) -> str:
    """Content address of a result: blake2b over canonical JSON.

    Components may contain numpy arrays/scalars; they are canonicalised
    to JSON (sorted keys, no whitespace) before hashing, so logically
    equal keys hash equally regardless of construction order.
    """
    canon = json.dumps(
        jsonable(dict(components, _cache_format=CACHE_FORMAT_VERSION)),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(canon.encode(), digest_size=16).hexdigest()


class ResultCache:
    """One-file-per-entry JSON result store under one directory.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries (created on first use).
    """

    def __init__(self, cache_dir: os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Drop ``*.tmp`` droppings of writers killed before their rename.

        Only files older than :data:`STALE_TMP_SECONDS` go — a fresh
        tmp file may belong to a concurrent writer about to rename it.
        Best-effort: a racing sweep losing to another process is fine.
        """
        cutoff = time.time() - STALE_TMP_SECONDS
        try:
            candidates = list(self.cache_dir.glob("*.tmp"))
        except OSError:
            return
        for path in candidates:
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass

    # --------------------------------------------------------------- paths
    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _entry_files(self, key: str) -> List[Path]:
        """The entry's file plus any sidecar an earlier layout wrote."""
        return [p for p in self.cache_dir.glob(f"{key}.*") if p.stem == key]

    # ---------------------------------------------------------------- I/O
    def get(self, key: str) -> Optional[Any]:
        """Load the result stored under *key*, or None on miss.

        A present-but-unreadable entry (truncated or hand-edited JSON,
        unknown result kind, format-version mismatch, a header from the
        two-file layout) is *quarantined*: moved aside with a warning and
        reported as a miss, so the caller recomputes instead of crashing
        on rotten bytes.
        """
        return self._read(key, raw=False)

    def put(self, key: str, result: Any, key_components: Optional[Mapping] = None) -> None:
        """Store *result* (a :class:`~repro.runners.results.Result`) under *key*.

        An attached metrics snapshot (``result.metrics``, surfaced by
        ``to_dict()``) is stripped before storage: it describes the run
        that *computed* the entry, not the entry itself, and keeping it
        would make cached payloads depend on execution conditions.
        """
        current_tracer().event("cache.put", key=key)
        metrics().count("cache.puts")
        data = result.to_dict()
        data.pop("metrics", None)
        self._write(
            key,
            getattr(result, "kind", None),
            key_components=jsonable(dict(key_components or {})),
            result=data,
        )

    # ------------------------------------------------------ raw payloads
    def put_raw(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store a plain JSON payload (shard checkpoints, small partials).

        Raw entries hold exact values: ints are arbitrary precision and
        floats round-trip bit-exactly through JSON's repr encoding, so a
        merge over resumed checkpoints equals the uninterrupted merge.
        """
        self._write(key, RAW_KIND, payload=jsonable(dict(payload)))

    def get_raw(self, key: str) -> Optional[Dict[str, Any]]:
        """Load a raw payload stored by :meth:`put_raw`, or None on miss.

        Corrupt or type-mismatched entries quarantine exactly like
        :meth:`get`.
        """
        return self._read(key, raw=True)

    # ------------------------------------------------------------ plumbing
    def _read(self, key: str, raw: bool) -> Optional[Any]:
        """The one read path: a raw payload or a decoded Result, or None.

        An entry of the other type under *key* is a plain miss (a type
        clash, not rot); anything unreadable is quarantined.
        """
        try:
            meta = json.loads(self._path(key).read_text())
            if meta.get("format") != CACHE_FORMAT_VERSION:
                raise ValueError(
                    f"cache format {meta.get('format')!r} != "
                    f"{CACHE_FORMAT_VERSION}"
                )
            if (meta.get("kind") == RAW_KIND) != raw:
                self._miss(key)
                return None
            if raw:
                value = dict(meta["payload"])
            elif meta.get("arrays"):
                raise ValueError(
                    f"two-file entry: arrays {meta['arrays']} are stored "
                    "outside the JSON"
                )
            else:
                value = result_from_dict(meta["result"])
        except FileNotFoundError:
            self._miss(key)
            return None
        except Exception as exc:
            self._quarantine(key, exc)
            self._miss(key)
            return None
        self._hit(key)
        return value

    def _write(self, key: str, kind: Optional[str], **body: Any) -> None:
        """Commit one entry: the header plus *body*, as one JSON file.

        Keys keep their insertion order (no ``sort_keys``), so a decoded
        hit re-encodes to the fresh ``to_dict()`` bytes, nested dicts
        included.
        """
        meta = {"format": CACHE_FORMAT_VERSION, "kind": kind, **body}
        self._atomic_write(self._path(key), json.dumps(meta, indent=1))

    def _hit(self, key: str) -> None:
        self.hits += 1
        metrics().count("cache.hits")
        current_tracer().event("cache.hit", key=key)

    def _miss(self, key: str) -> None:
        self.misses += 1
        metrics().count("cache.misses")
        current_tracer().event("cache.miss", key=key)

    def _quarantine(self, key: str, exc: Exception) -> None:
        """Move a corrupt entry aside (evidence preserved) and warn."""
        self.corrupt += 1
        metrics().count("cache.quarantined")
        current_tracer().event(
            "cache.quarantine",
            key=key,
            error=f"{type(exc).__name__}: {exc}",
        )
        target_dir = self.cache_dir / QUARANTINE_DIR
        moved = []
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            for path in self._entry_files(key):
                os.replace(path, target_dir / path.name)
                moved.append(path.name)
        except OSError:
            # quarantine is best-effort: fall back to dropping the entry
            for path in self._entry_files(key):
                path.unlink(missing_ok=True)
        warnings.warn(
            f"corrupt result-cache entry {key} "
            f"({type(exc).__name__}: {exc}); "
            f"moved {moved or 'nothing'} to {QUARANTINE_DIR}/ and "
            "recomputing",
            RuntimeWarning,
            stacklevel=3,
        )

    def _atomic_write(self, path: Path, text: str) -> None:
        """Write-to-temp + fsync + rename: the entry appears all-or-nothing.

        The fsync before the rename closes the kill window in which the
        rename is durable but the data is not — without it a crash could
        surface a complete-looking name over truncated bytes, exactly
        the torn entry the quarantine path exists to catch.
        """
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -------------------------------------------------------------- admin
    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/corruption counters and entry count of this handle."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "entries": len(list(self.cache_dir.glob("*.json"))),
        }

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for path in self.cache_dir.glob("*.json"):
            for entry_file in self._entry_files(path.stem):
                entry_file.unlink(missing_ok=True)
            removed += 1
        return removed


def cache_for(config) -> Optional[ResultCache]:
    """The :class:`ResultCache` a :class:`RunConfig` asks for, or None."""
    if getattr(config, "cache_dir", None):
        return ResultCache(config.cache_dir)
    return None


def run_cached(
    config,
    runner,
    label: str,
    engine: Optional[str],
    key_components: Callable[[], Mapping[str, Any]],
    compute: Callable[[], Any],
) -> Any:
    """Serve one experiment result from the cache, or compute and store it.

    The cache policy of every sharded entry point, written once: with
    ``config.cache_dir`` set, look the result up under the digest of
    ``key_components()`` (called only then — gate-level keys assign
    every gate delay) and return a hit labelled ``"hit"`` with no
    engine; otherwise run ``compute()``, store its result, and label it
    ``"miss"`` (``"off"`` without a cache) with *engine*.  *label* names
    the run in its stats and in the ``samples_per_sec.<label>`` gauge.
    The result leaves with ``run_stats`` and the metrics snapshot
    attached.
    """
    cache = cache_for(config)
    if cache is not None:
        components = key_components()
        key = cache_key(**components)
        hit = cache.get(key)
        if hit is not None:
            hit.run_stats = runner.finalize_stats(label, cache="hit")
            return attach_metrics(hit)
    result = compute()
    if cache is not None:
        cache.put(key, result, components)
    result.run_stats = runner.finalize_stats(
        label, cache="miss" if cache is not None else "off", engine=engine
    )
    return attach_metrics(result)
