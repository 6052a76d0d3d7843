"""Tests for result-table rendering helpers."""

import math

import pytest

from repro.runners import RunConfig, RunStats
from repro.sim.montecarlo import run_montecarlo
from repro.sim.reporting import (
    format_run_stats,
    format_table,
    geomean,
    percent,
)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "v"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        text = format_table(["x"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000123], [1234.5], [0.5], [0.0]])
        assert "1.230e-04" in text
        assert "1.234e+03" in text  # large values in scientific form
        assert "0.5" in text


class TestGeomean:
    def test_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_skips_none(self):
        assert geomean([2.0, None, 8.0]) == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([None])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_log_identity(self):
        vals = [0.3, 1.7, 2.5, 9.1]
        expect = math.exp(sum(math.log(v) for v in vals) / len(vals))
        assert geomean(vals) == pytest.approx(expect)


class TestPercent:
    def test_format(self):
        assert percent(0.123) == "12.30%"


class TestRunStatsLine:
    def test_engine_field(self):
        line = format_run_stats(
            RunStats(experiment="montecarlo", cache="off", engine="vector")
        )
        assert line.startswith("[runner] ")
        assert "engine=vector" in line.split()

    def test_no_engine_on_a_cache_hit(self):
        line = format_run_stats(RunStats(experiment="x", cache="hit"))
        assert "cache=hit" in line.split()
        assert "engine=" not in line

    def test_entry_point_reports_the_resolved_engine(self, tmp_path):
        config = RunConfig(ndigits=4, cache_dir=str(tmp_path))
        fresh = run_montecarlo(config, num_samples=300)
        assert fresh.run_stats.engine == "vector"  # the OM-wave rule
        assert "engine=vector" in format_run_stats(fresh.run_stats)
        hit = run_montecarlo(config.with_(backend="packed"), num_samples=300)
        assert hit.run_stats.cache == "hit"
        assert hit.run_stats.engine is None
        packed = run_montecarlo(
            config.with_(backend="packed", cache_dir=None), num_samples=300
        )
        assert "engine=packed" in format_run_stats(packed.run_stats)
