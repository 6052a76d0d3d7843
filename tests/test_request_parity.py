"""One declaration per request kind (:mod:`repro.experiments`): the CLI
and the wire read it alike.

For each kind, a table of argument sets.  Each set is spelled twice: as
a ``repro-overclock`` argv, and as a wire message to a daemon at its
defaults (``repro serve``: ``--ndigits 8 --seed 2014``).  The wire
message also states the CLI's own defaults where the two surfaces
declare different ones.  Both spellings must give the same
``EvalRequest.key``, or the same rejection: exit 2 on the CLI and
``bad_request`` on the wire.
"""

import math
import re
from pathlib import Path

import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.experiments import BASE, EXPERIMENTS, WIRE_ONLY
from repro.runners.cache import cache_key
from repro.service.requests import RequestError, parse_request

#: the CLI subcommand of each kind
COMMANDS = {"montecarlo": "model", "sweep": "sweep", "synthesis": "synth"}

#: CLI defaults that differ from the daemon's, spelled out on the wire
CLI_DEFAULTS = {
    "montecarlo": {"samples": 20000},
    "sweep": {"samples": 20000},
    "synthesis": {"ndigits": 6},
}

REJECTED = "rejected"

#: kind -> [(argument set, accepted?)]
TABLE = {
    "montecarlo": [
        ({}, True),
        ({"ndigits": 4, "samples": 300, "seed": 7}, True),
        ({"ndigits": 1, "samples": 1, "seed": 0}, True),
        ({"ndigits": 0}, False),
        ({"samples": 0}, False),
        ({"seed": -1}, False),
        ({"seed": 1.5}, False),
        ({"seed": "abc"}, False),
    ],
    "sweep": [
        ({}, True),
        ({"ndigits": 5, "samples": 500, "periods": [0.5, 1.0, 1.5]}, True),
        # duplicates and periods beyond settling normalize away
        ({"ndigits": 4, "periods": [0.25, 0.25, 3.0]}, True),
        ({"periods": [0.0]}, False),
        ({"periods": [0.5, math.inf]}, False),
        ({"ndigits": 0}, False),
        ({"samples": 0}, False),
        ({"seed": -1}, False),
    ],
    "synthesis": [
        ({}, True),
        ({"datapath": "mac", "target_snr": 20.0, "wordlengths": [4, 6],
          "periods": [0.5, 1.0], "samples": 800, "seed": 3}, True),
        ({"target_mre": 2.5}, True),
        ({"target_mre": 0.0}, True),
        ({"target_snr": -30.0}, True),
        ({"target_mre": -1.0}, False),
        ({"target_mre": math.nan}, False),
        ({"target_snr": math.inf}, False),
        ({"target_mre": 5.0, "target_snr": 20.0}, False),
        ({"datapath": "fft"}, False),
        ({"wordlengths": [1, 24]}, True),
        ({"wordlengths": [25]}, False),
        ({"wordlengths": [0, 6]}, False),
        ({"ndigits": 24}, True),
        ({"ndigits": 25}, False),
        ({"ndigits": 30, "wordlengths": [6]}, True),
        ({"periods": [0.0]}, False),
        ({"samples": 0}, False),
        ({"seed": -1}, False),
    ],
}

CASES = [
    (kind, values, accepted)
    for kind, rows in TABLE.items()
    for values, accepted in rows
]


def _argv(kind, values):
    argv = [COMMANDS[kind]]
    for name, value in values.items():
        argv.append("--" + name.replace("_", "-"))
        argv.extend(str(v) for v in (value if isinstance(value, list)
                                     else [value]))
    return argv + ["--no-cache"]


class _Ran(Exception):
    pass


def cli_outcome(monkeypatch, kind, values):
    """The key the CLI would run *values* under, or ``REJECTED``."""
    seen = {}

    def run(config, params, runner=None):
        seen["key"] = cache_key(**EXPERIMENTS[kind].components(config, params))
        raise _Ran

    monkeypatch.setitem(EXPERIMENTS, kind, EXPERIMENTS[kind]._replace(run=run))
    try:
        code = main(_argv(kind, values))
    except SystemExit as exc:
        code = exc.code
    except _Ran:
        return seen["key"]
    assert code == 2, code
    return REJECTED


def wire_outcome(kind, values):
    """The key of *values* as a wire request, or ``REJECTED``."""
    serve = build_parser().parse_args(["serve", "--no-cache"])
    message = {"kind": kind, "params": {**CLI_DEFAULTS[kind], **values}}
    try:
        return parse_request(message, base_config=_config_from_args(serve)).key
    except RequestError:
        return REJECTED


@pytest.mark.parametrize(
    "kind, values, accepted", CASES,
    ids=[" ".join(_argv(kind, values)[:-1]) for kind, values, _ in CASES],
)
def test_cli_and_wire_agree(monkeypatch, capsys, kind, values, accepted):
    cli = cli_outcome(monkeypatch, kind, values)
    assert cli == wire_outcome(kind, values)
    assert (cli != REJECTED) == accepted
    if not accepted:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"repro-overclock {COMMANDS[kind]}: error: " in err


def test_every_cli_flag_of_a_kind_is_covered():
    """The table exercises every parameter the CLI and wire share."""
    for kind, rows in TABLE.items():
        shared = {
            p.name for p in EXPERIMENTS[kind].params if p.cli is not WIRE_ONLY
        }
        covered = {name for values, _ in rows for name in values}
        assert shared <= covered, (kind, shared - covered)


# ------------------------------------------------- the documented table

API_DOC = Path(__file__).resolve().parents[1] / "docs" / "API.md"


def _show(value):
    """How docs/API.md spells a declared default."""
    if value is WIRE_ONLY:
        return "—"
    if value is BASE:
        return "daemon"
    if value is None:
        return "none"
    return f"`{value}`"


def _documented(kind):
    text = API_DOC.read_text(encoding="utf-8")
    section = text.split(f"#### `{kind}`", 1)[1].split("####", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if re.match(r"\|\s*`", line)
    ]
    return [(row[0], row[3], row[4]) for row in rows]


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
def test_api_doc_lists_the_declared_parameters_and_defaults(kind):
    declared = [
        (f"`{p.name}`", _show(p.cli), _show(p.serve))
        for p in EXPERIMENTS[kind].params
    ]
    assert _documented(kind) == declared
