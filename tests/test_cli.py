"""Tests for the repro-overclock command-line interface."""

from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["model"])
        assert args.ndigits == 8
        assert args.samples == 20000

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


HELP_SNAPSHOTS = Path(__file__).resolve().parent / "data" / "help"


@pytest.mark.parametrize("command", ["model", "sweep", "synth"])
def test_generated_help_matches_the_snapshot(monkeypatch, capsys, command):
    """The subparsers generated from the request-kind declarations print
    the ``--help`` the hand-written ones did (at 80 columns), apart from
    ``synth``'s either/or target group."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # Python < 3.10 titles the option list "optional arguments"
    out = capsys.readouterr().out.replace("optional arguments:", "options:")
    assert out == (HELP_SNAPSHOTS / f"{command}.txt").read_text(
        encoding="utf-8"
    )


class TestCommands:
    def test_chains(self, capsys):
        assert main(["chains", "--ndigits", "6"]) == 0
        out = capsys.readouterr().out
        assert "chain delay" in out
        assert "P_d" in out

    def test_model_small(self, capsys):
        assert main(["model", "--ndigits", "6", "--samples", "500"]) == 0
        out = capsys.readouterr().out
        assert "model vs Monte-Carlo" in out

    def test_model_calibrated(self, capsys):
        assert main(
            ["model", "--ndigits", "6", "--samples", "500", "--calibrate"]
        ) == 0
        assert "calibrated kappa" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area", "--ndigits", "6"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out

    def test_multiplier_small(self, capsys):
        assert main(
            ["multiplier", "--ndigits", "4", "--samples", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "error-free period" in out

    @pytest.mark.parametrize(
        "flags",
        [["--target-mre", "-1"], ["--target-mre", "nan"],
         ["--target-snr", "inf"]],
    )
    def test_synth_rejects_an_invalid_target(self, capsys, flags):
        assert main(["synth", *flags]) == 2
        captured = capsys.readouterr()
        assert "error: target" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chains", "--ndigits", "0"],
            ["model", "--samples", "0"],
            ["probe", "--samples", "0"],
            ["faults", "--samples", "0"],
            ["multiplier", "--ndigits", "0"],
            ["sweep", "--periods", "0"],
            ["sweep", "--periods", "0.5", "inf"],
            ["filter", "--size", "0"],
            ["filter", "--size", "1"],
            ["filter", "--size", "2"],
            ["faults", "--rates", "2"],
            ["faults", "--rates", "0.1", "-0.5"],
            ["faults", "--rates", "nan"],
            ["synth", "--wordlengths", "-3"],
            ["synth", "--wordlengths", "40"],
            ["synth", "--ndigits", "30"],
            ["model", "--jobs", "0"],
            ["model", "--seed", "-1"],
            ["multiplier", "--seed", "-1"],
            ["sweep", "--seed", "-1"],
            ["synth", "--seed", "-1"],
            ["faults", "--seed", "-1"],
            ["probe", "--seed", "-1"],
            ["serve", "--seed", "-1"],
            ["model", "--seed", "1.5"],
            ["faults", "--overclock", "0"],
            ["faults", "--overclock", "nan"],
            ["faults", "--shard-timeout", "0"],
            ["serve", "--concurrency", "0"],
            ["serve", "--deadline", "0"],
            ["serve", "--drain-timeout", "0"],
            ["top", "--interval", "0"],
            ["top", "--timeout", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_invalid_size_is_a_usage_error(self, capsys, monkeypatch, argv):
        # a bad value let through would start a daemon or a refresh
        # loop that never returns: fail instead of hanging
        for command in ("_cmd_serve", "_cmd_top"):
            monkeypatch.setattr(
                cli, command,
                lambda args: pytest.fail(f"{argv} was accepted"),
            )
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        flag = next(a for a in argv if a.startswith("--"))
        last = captured.err.rstrip("\n").splitlines()[-1]
        assert last.startswith(f"repro-overclock {argv[0]}: error: "
                               f"argument {flag}")

    def test_synth_targets_are_either_or(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--target-mre", "5", "--target-snr", "20"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_size_flags_still_reject_non_numbers(self, capsys):
        with pytest.raises(SystemExit):
            main(["chains", "--ndigits", "x"])
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_filter_tiny(self, capsys):
        assert main(["filter", "--image", "lena", "--size", "12"]) == 0
        out = capsys.readouterr().out
        assert "online SNR" in out

    def test_verilog_stdout(self, capsys):
        assert main(["verilog", "--what", "rca", "--ndigits", "4"]) == 0
        out = capsys.readouterr().out
        assert "module rca4" in out
        assert "endmodule" in out

    def test_verilog_file(self, tmp_path, capsys):
        target = tmp_path / "om.v"
        assert main(
            ["verilog", "--what", "online-mult", "--ndigits", "4",
             "--module", "om4", "-o", str(target)]
        ) == 0
        text = target.read_text()
        assert "module om4" in text
        assert "localparam" in text


class TestObservability:
    """The --trace flag plus the probe / stats / trace subcommands."""

    def _traced_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        sink = tmp_path / "run.jsonl"
        rc = main(
            ["montecarlo", "--ndigits", "4", "--samples", "300",
             "--no-cache", "--trace", str(sink)]
        )
        assert rc == 0
        return sink

    def test_montecarlo_is_an_alias_for_model(self, capsys):
        assert main(
            ["montecarlo", "--ndigits", "4", "--samples", "200"]
        ) == 0
        assert "model vs Monte-Carlo" in capsys.readouterr().out

    def test_trace_flag_writes_span_tree(self, tmp_path, monkeypatch, capsys):
        import json

        sink = self._traced_run(tmp_path, monkeypatch)
        capsys.readouterr()
        records = [
            json.loads(line) for line in sink.read_text().splitlines()
        ]
        names = [r["name"] for r in records if r["type"] == "span"]
        assert "run.montecarlo" in names
        assert "shard" in names
        assert "mc.simulate" in names
        assert any(r["type"] == "metrics" for r in records)

    def test_trace_subcommand_renders_last_run(
        self, tmp_path, monkeypatch, capsys
    ):
        self._traced_run(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["trace", "--last"]) == 0
        out = capsys.readouterr().out
        assert "run.montecarlo" in out
        assert "mc.simulate" in out

    def test_trace_subcommand_with_explicit_path(
        self, tmp_path, monkeypatch, capsys
    ):
        sink = self._traced_run(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["trace", str(sink)]) == 0
        assert "run.montecarlo" in capsys.readouterr().out

    def test_trace_no_events_hides_point_events(self, tmp_path, capsys):
        import json

        sink = tmp_path / "events.jsonl"
        sink.write_text("\n".join(json.dumps(r) for r in (
            {"type": "span", "id": "t1", "parent": None, "name": "run.x",
             "start": 0.0, "end": 1.0, "dur": 1.0, "attrs": {}},
            {"type": "event", "span": "t1", "name": "cache.hit", "t": 0.5,
             "attrs": {}},
        )) + "\n")
        assert main(["trace", str(sink)]) == 0
        assert "* cache.hit" in capsys.readouterr().out
        assert main(["trace", str(sink), "--no-events"]) == 0
        out = capsys.readouterr().out
        assert "run.x" in out
        assert "cache.hit" not in out

    def test_stats_subcommand_renders_metrics(
        self, tmp_path, monkeypatch, capsys
    ):
        self._traced_run(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "gauges:" in out
        assert "samples_per_sec.montecarlo" in out

    def test_trace_without_any_run_fails_cleanly(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "empty"))
        assert main(["trace", "--last"]) == 1
        assert "no trace recorded" in capsys.readouterr().err

    def test_retrace_overwrites_previous_file(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        self._traced_run(tmp_path, monkeypatch)
        sink = self._traced_run(tmp_path, monkeypatch)
        capsys.readouterr()
        records = [
            json.loads(line) for line in sink.read_text().splitlines()
        ]
        roots = [
            r for r in records
            if r["type"] == "span" and r["name"] == "run.montecarlo"
        ]
        assert len(roots) == 1  # two invocations must not merge trees

    def test_probe_subcommand(self, capsys):
        assert main(
            ["probe", "--ndigits", "4", "--samples", "300", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "Algorithm-2" in out
        assert "mean propagation-chain depth" in out
