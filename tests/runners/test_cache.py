"""ResultCache: round-trips, key sensitivity, corruption tolerance."""

import json

import numpy as np
import pytest

from repro.faults import corrupt_cache_entry
from repro.runners import (
    QUARANTINE_DIR,
    ResultCache,
    RunConfig,
    cache_for,
    cache_key,
    result_from_dict,
)
from repro.sim.sweep import SweepResult
from tests.runners.test_results import sample_results


def make_sweep(scale: float = 1.0) -> SweepResult:
    return SweepResult(
        steps=np.arange(4, dtype=np.int64),
        mean_abs_error=np.array([0.5, 0.25, 0.125, 0.0]) * scale,
        violation_probability=np.array([1.0, 0.5, 0.25, 0.0]),
        rated_step=3,
        settle_step=3,
        error_free_step=3,
        num_samples=16,
    )


class TestCacheKey:
    def test_deterministic_and_order_free(self):
        assert cache_key(a=1, b="x") == cache_key(b="x", a=1)

    def test_sensitive_to_every_component(self):
        base = cache_key(experiment="sweep", seed=2014, num_samples=100)
        assert base != cache_key(experiment="sweep", seed=2015, num_samples=100)
        assert base != cache_key(experiment="sweep", seed=2014, num_samples=101)
        assert base != cache_key(experiment="mc", seed=2014, num_samples=100)

    def test_numpy_components_canonicalised(self):
        assert cache_key(depths=np.array([4, 5])) == cache_key(depths=[4, 5])


class TestPutGet:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = make_sweep()
        key = cache_key(experiment="sweep", seed=1)
        cache.put(key, result, {"experiment": "sweep", "seed": 1})
        back = cache.get(key)
        assert isinstance(back, SweepResult)
        for name in SweepResult._array_fields:
            assert np.array_equal(getattr(result, name), getattr(back, name))
        assert back.error_free_step == result.error_free_step

    def test_one_file_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        result = make_sweep()
        cache.put(key, result, {"x": 1})
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
        meta = json.loads((tmp_path / f"{key}.json").read_text())
        # arrays ride inline as the codec's JSON lists; no array index
        assert "arrays" not in meta
        assert meta["result"] == result.to_dict()
        assert meta["key_components"] == {"x": 1}

    def test_miss_and_hit_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        assert cache.get(key) is None
        cache.put(key, make_sweep(), {})
        assert cache.get(key) is not None
        assert cache.stats() == {
            "hits": 1, "misses": 1, "corrupt": 0, "entries": 1,
        }

    def test_different_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key(seed=1), make_sweep(), {})
        assert cache.get(cache_key(seed=2)) is None

    def test_contains_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        assert not cache.contains(key)
        cache.put(key, make_sweep(), {})
        assert cache.contains(key)
        assert cache.clear() == 1
        assert not cache.contains(key)
        assert [p for p in tmp_path.iterdir() if p.is_file()] == []


def stored(result):
    """The ``to_dict()`` bytes a cache entry of *result* must reproduce:
    the fresh payload minus the metrics snapshot ``put`` strips."""
    data = result.to_dict()
    data.pop("metrics", None)
    return json.dumps(data)


class TestOneFileFormat:
    """A hit decodes one JSON file into the fresh object, bit for bit."""

    @pytest.mark.parametrize(
        "result", sample_results(), ids=lambda r: type(r).kind
    )
    def test_every_kind_round_trips_bytes_dtypes_and_shapes(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path)
        key = cache_key(kind=result.kind)
        cache.put(key, result, {"kind": result.kind})
        back = cache.get(key)
        assert type(back) is type(result)
        assert json.dumps(back.to_dict()) == stored(result)
        for name, dtype in type(result)._array_fields.items():
            original = np.asarray(getattr(result, name), dtype=dtype)
            restored = getattr(back, name)
            assert restored.dtype == original.dtype
            assert restored.shape == original.shape
            assert np.array_equal(original, restored)
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]

    def test_nonfinite_signed_zero_and_subnormal_floats_exact(self, tmp_path):
        # JSON spells NaN without sign or payload, so the NaN here is
        # the canonical quiet one; every other value keeps its bits
        special = np.array(
            [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0]
        )
        assert special[4] == np.nextafter(0.0, 1.0)  # smallest subnormal
        result = SweepResult(
            steps=np.arange(6, dtype=np.int64),
            mean_abs_error=special,
            violation_probability=np.array(
                [-1.0 / 3.0, -5e-324, 0.0, -np.inf, np.inf, np.nan]
            ),
            rated_step=3,
            settle_step=3,
            error_free_step=3,
            num_samples=16,
        )
        cache = ResultCache(tmp_path)
        cache.put("special", result)
        back = cache.get("special")
        for name in ("mean_abs_error", "violation_probability"):
            restored = getattr(back, name)
            assert restored.dtype == np.float64
            # bit patterns, so NaN, the sign of zero and denormals count
            assert np.array_equal(
                restored.view(np.uint64),
                getattr(result, name).view(np.uint64),
            )
        assert json.dumps(back.to_dict()) == stored(result)

    def test_two_file_entry_misses_once_and_is_rewritten_as_one_file(
        self, tmp_path
    ):
        # the earlier layout: arrays in a compressed npz sidecar, the
        # JSON header listing their names
        result = make_sweep()
        key = cache_key(legacy=1)
        data = result.to_dict()
        arrays = {
            name: np.asarray(data.pop(name), dtype=dtype)
            for name, dtype in SweepResult._array_fields.items()
        }
        np.savez_compressed(tmp_path / f"{key}.npz", **arrays)
        (tmp_path / f"{key}.json").write_text(json.dumps({
            "format": 2,
            "kind": result.kind,
            "arrays": sorted(arrays),
            "key_components": {"legacy": 1},
            "result": data,
        }, sort_keys=True, indent=1))
        cache = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="two-file entry"):
            assert cache.get(key) is None
        assert cache.stats()["corrupt"] == 1
        assert sorted(
            p.name for p in (tmp_path / QUARANTINE_DIR).iterdir()
        ) == [f"{key}.json", f"{key}.npz"]
        # the caller's recompute writes one file and hits from then on
        cache.put(key, result, {"legacy": 1})
        assert json.dumps(cache.get(key).to_dict()) == stored(result)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{key}.json", QUARANTINE_DIR,
        ]

    def test_new_entries_read_as_the_two_file_reader_read_them(
        self, tmp_path
    ):
        # the two-file reader took a missing ``arrays`` as none, so an
        # entry written now decodes there as well
        cache = ResultCache(tmp_path)
        key = cache_key(forward=1)
        result = make_sweep()
        cache.put(key, result)
        meta = json.loads((tmp_path / f"{key}.json").read_text())
        assert meta["format"] == 2 and meta.get("arrays", []) == []
        back = result_from_dict(dict(meta["result"]))
        assert json.dumps(back.to_dict()) == stored(result)


class TestCorruption:
    def test_truncated_json_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        cache.put(key, make_sweep(), {})
        (tmp_path / f"{key}.json").write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt result-cache"):
            assert cache.get(key) is None

    def test_hand_edited_array_is_quarantined(self, tmp_path):
        # the codec decode on read is what catches a bad inline array
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        cache.put(key, make_sweep(), {})
        path = tmp_path / f"{key}.json"
        meta = json.loads(path.read_text())
        meta["result"]["steps"] = ["zero", "one"]
        path.write_text(json.dumps(meta))
        with pytest.warns(RuntimeWarning, match="corrupt result-cache"):
            assert cache.get(key) is None
        assert cache.stats()["corrupt"] == 1

    def test_unknown_kind_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        cache.put(key, make_sweep(), {})
        path = tmp_path / f"{key}.json"
        meta = json.loads(path.read_text())
        meta["result"]["kind"] = "hologram"
        path.write_text(json.dumps(meta))
        with pytest.warns(RuntimeWarning):
            assert cache.get(key) is None

    @pytest.mark.parametrize("mode", ["garbage", "truncate"])
    def test_rotten_bytes_quarantined_and_recomputed(self, tmp_path, mode):
        """The satellite scenario: garbage bytes = miss, never a crash."""
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        cache.put(key, make_sweep(), {})
        corrupt_cache_entry(tmp_path, key, mode=mode)
        with pytest.warns(RuntimeWarning, match="quarantined|recomputing"):
            assert cache.get(key) is None
        assert cache.stats()["corrupt"] == 1
        # the evidence moved aside instead of being destroyed
        assert list((tmp_path / QUARANTINE_DIR).iterdir())
        # the caller's recompute overwrites cleanly and hits afterwards
        cache.put(key, make_sweep(), {})
        assert isinstance(cache.get(key), SweepResult)

    def test_format_version_mismatch_is_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        cache.put(key, make_sweep(), {})
        path = tmp_path / f"{key}.json"
        meta = json.loads(path.read_text())
        meta["format"] = 999
        path.write_text(json.dumps(meta))
        with pytest.warns(RuntimeWarning):
            assert cache.get(key) is None


class TestRawPayloads:
    def test_round_trip_exact_floats(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"sum": 0.1 + 0.2, "n": 7, "design": "online"}
        cache.put_raw("ckpt", payload)
        assert cache.get_raw("ckpt") == payload

    def test_missing_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_raw("nope") is None
        assert cache.stats()["corrupt"] == 0

    def test_kind_clash_is_plain_miss_both_ways(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(x=1)
        cache.put(key, make_sweep(), {})
        cache.put_raw("raw", {"a": 1})
        assert cache.get_raw(key) is None  # Result under a raw read
        assert cache.get("raw") is None  # raw under a Result read
        assert cache.stats()["corrupt"] == 0

    def test_corrupt_raw_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_raw("raw", {"a": 1})
        (tmp_path / "raw.json").write_text("{broken")
        with pytest.warns(RuntimeWarning):
            assert cache.get_raw("raw") is None
        assert cache.stats()["corrupt"] == 1


class TestCacheFor:
    def test_none_without_cache_dir(self):
        assert cache_for(RunConfig(cache_dir=None)) is None

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        cache = cache_for(RunConfig(cache_dir=str(target)))
        assert isinstance(cache, ResultCache)
        assert target.is_dir()


class TestCrashSafety:
    """SIGKILL mid-put must never leave an entry that reads as torn.

    The commit protocol: each entry is one file, written to a temp
    name and fsynced before its rename.  So after a kill at *any*
    instant, a key whose JSON is visible must load cleanly — and stray ``*.tmp`` droppings from the killed writer are
    swept by the next cache open once they are unambiguously stale.
    """

    CHILD = """
import sys
import numpy as np
from repro.runners import ResultCache
from repro.sim.sweep import SweepResult

cache = ResultCache(sys.argv[1])
rng = np.random.default_rng(int(sys.argv[2]))
n = 20000  # large arrays widen the mid-write kill window
i = 0
print("ready", flush=True)
while True:
    result = SweepResult(
        steps=np.arange(n, dtype=np.int64),
        mean_abs_error=rng.random(n),
        violation_probability=rng.random(n),
        rated_step=3,
        settle_step=3,
        error_free_step=3,
        num_samples=16,
    )
    cache.put(f"round{sys.argv[2]}-entry{i:05d}", result)
    i += 1
"""

    def test_sigkill_mid_put_leaves_no_torn_entries(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time
        import warnings

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env.pop("REPRO_CACHE_DIR", None)
        for round_no in range(3):
            proc = subprocess.Popen(
                [sys.executable, "-c", self.CHILD,
                 str(tmp_path), str(round_no)],
                env=env, stdout=subprocess.PIPE,
            )
            proc.stdout.readline()  # wait until the child started writing
            time.sleep(0.25)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        cache = ResultCache(tmp_path)
        keys = sorted(p.stem for p in tmp_path.glob("*.json"))
        assert keys, "the children never committed a single entry"
        with warnings.catch_warnings():
            # a quarantine warning here IS the torn entry we must not see
            warnings.simplefilter("error", RuntimeWarning)
            for key in keys:
                result = cache.get(key)
                assert result is not None, f"committed entry {key} unreadable"
                assert result.num_samples == 16
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_one_fsync_per_put(self, tmp_path, monkeypatch):
        # one file per entry: one fsync, and the rename commits it whole
        import os

        synced = []
        fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        cache = ResultCache(tmp_path)
        key = cache_key(ordering="check")
        cache.put(key, make_sweep())
        assert len(synced) == 1
        cache.put_raw("raw", {"a": 1})
        assert len(synced) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{key}.json", "raw.json",
        ]


class TestStaleTmpSweep:
    def test_old_droppings_swept_on_open(self, tmp_path):
        import os
        import time

        from repro.runners.cache import STALE_TMP_SECONDS

        stale = tmp_path / "deadbeefabc123.tmp"
        stale.write_bytes(b"half-written entry bytes")
        old = time.time() - STALE_TMP_SECONDS - 120
        os.utime(stale, (old, old))
        fresh = tmp_path / "cafef00d456789.tmp"
        fresh.write_bytes(b"a writer may still own this")
        ResultCache(tmp_path)
        assert not stale.exists()  # unambiguously dead: swept
        assert fresh.exists()  # possibly live writer: untouched

    def test_sweep_tolerates_concurrent_unlink(self, tmp_path):
        # racing caches must both open fine even if one sweeps first
        import os
        import time

        from repro.runners.cache import STALE_TMP_SECONDS

        stale = tmp_path / "feedface000000.tmp"
        stale.write_bytes(b"x")
        old = time.time() - STALE_TMP_SECONDS - 120
        os.utime(stale, (old, old))
        a = ResultCache(tmp_path)
        b = ResultCache(tmp_path)
        assert not stale.exists()
        key = cache_key(race=1)
        a.put(key, make_sweep())
        assert b.get(key) is not None
