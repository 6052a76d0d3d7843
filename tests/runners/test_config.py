"""RunConfig: defaults, environment fallbacks, validation, describe()."""

import pytest

from repro.runners import DEFAULT_SHARD_SIZE, RunConfig


class TestDefaults:
    def test_field_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        config = RunConfig()
        assert config.ndigits == 8
        assert config.delta == 3
        assert config.backend is None  # each workload's engine by rule
        assert config.seed == 2014
        assert config.jobs == 1
        assert config.cache_dir is None
        assert config.shard_size == DEFAULT_SHARD_SIZE

    def test_env_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert RunConfig().jobs == 3

    def test_env_jobs_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert RunConfig().jobs == 1

    def test_env_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert RunConfig().cache_dir == str(tmp_path)

    def test_explicit_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = RunConfig(jobs=5, cache_dir=None)
        assert config.jobs == 5
        assert config.cache_dir is None


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ndigits": 0},
            {"ndigits": -3},
            {"delta": 0},
            {"jobs": 0},
            {"jobs": -1},
            {"shard_size": 0},
            {"shard_timeout": 0},
            {"shard_timeout": -2.5},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"seed": "7"},
            {"seed": True},
            {"ndigits": True},
            {"delta": True},
        ],
    )
    def test_rejects_a_bool_or_non_integer_seed_and_geometry(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            RunConfig(**kwargs)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            RunConfig(backend="quantum")

    def test_messages_name_the_offending_value(self):
        with pytest.raises(ValueError, match=r"ndigits.*-3"):
            RunConfig(ndigits=-3)
        with pytest.raises(ValueError, match=r"jobs.*0"):
            RunConfig(jobs=0)
        with pytest.raises(ValueError, match="quantum"):
            RunConfig(backend="quantum")

    def test_uncreatable_cache_dir_fails_eagerly(self, tmp_path):
        # a *file* where a parent directory must go: mkdir cannot succeed
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(ValueError, match="cache_dir"):
            RunConfig(cache_dir=str(blocker / "cache"))

    def test_valid_cache_dir_is_created_eagerly(self, tmp_path):
        target = tmp_path / "fresh" / "cache"
        RunConfig(cache_dir=str(target))
        assert target.is_dir()

    def test_shard_timeout_accepts_positive_and_none(self):
        assert RunConfig(shard_timeout=None).shard_timeout is None
        assert RunConfig(shard_timeout=1.5).shard_timeout == 1.5


class TestWith:
    def test_with_replaces(self):
        config = RunConfig(ndigits=6)
        other = config.with_(jobs=4, seed=7)
        assert (other.ndigits, other.jobs, other.seed) == (6, 4, 7)
        # frozen: the original is untouched
        assert (config.jobs, config.seed) == (config.jobs, 2014)

    def test_with_validates(self):
        with pytest.raises(ValueError):
            RunConfig().with_(jobs=-1)


class TestDescribe:
    def test_excludes_execution_details(self, tmp_path):
        described = RunConfig(
            jobs=8, cache_dir=str(tmp_path), backend="wave"
        ).describe()
        assert "jobs" not in described
        assert "cache_dir" not in described
        assert "backend" not in described

    def test_execution_details_share_a_description(self, tmp_path):
        a = RunConfig(jobs=1, cache_dir=None)
        b = RunConfig(jobs=8, cache_dir=str(tmp_path), shard_timeout=5.0)
        assert a.describe() == b.describe()
        for engine in ("packed", "wave", "vector"):
            assert RunConfig(backend=engine).describe() == a.describe()

    def test_statistical_identity_differs(self):
        assert RunConfig().describe() != RunConfig(shard_size=100).describe()
        assert RunConfig().describe() != RunConfig(seed=1).describe()
