"""The CLI pays only for the subcommand it runs (DESIGN.md, "Import
discipline").

Each check runs in a fresh interpreter whose only environment is
``PYTHONPATH=src``: the pytest process itself already holds numpy.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(repro.__file__).resolve().parents[1]

#: modules the model-only and trace-rendering commands must not load
HEAVY = ("numpy", "asyncio", "repro.service")

_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = None
from repro.cli import main
if argv is not None:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def _fresh(script, *args, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={"PYTHONPATH": str(SRC)},
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def traced_dir(tmp_path, monkeypatch):
    """A working directory whose last-trace pointer names a real trace."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_STATE_DIR", raising=False)
    assert main(
        ["model", "--ndigits", "4", "--samples", "200", "--no-cache",
         "--trace", str(tmp_path / "run.jsonl")]
    ) == 0
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [None, ["chains"], ["stats"], ["trace", "--last"], ["--help"]],
    ids=["import", "chains", "stats", "trace", "help"],
)
def test_command_loads_no_heavy_module(argv, traced_dir):
    out = _fresh(_PROBE, json.dumps(argv), *HEAVY, cwd=traced_dir)
    report = json.loads(out.splitlines()[-1])
    assert report["loaded"] == []
    assert report["code"] in (None, 0)


@pytest.mark.parametrize("command", ["multiplier", "faults"])
def test_default_jobs_load_no_process_pool(command, tmp_path):
    """At the default ``jobs=1`` no pool is made, so the process-pool
    stack (``concurrent.futures.process``, ``multiprocessing``) stays
    unloaded."""
    argv = [command, "--samples", "64"]
    out = _fresh(
        _PROBE, json.dumps(argv),
        "concurrent.futures.process", "multiprocessing",
        cwd=tmp_path,
    )
    report = json.loads(out.splitlines()[-1])
    assert report["code"] in (None, 0)
    assert report["loaded"] == []


def test_parser_loads_no_fault_machinery(tmp_path):
    """``--model``/``--rates`` choices come from the lazy ``repro.faults``
    root, not from the module that defines ``FaultConfig``."""
    out = _fresh(
        "import json, sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "print(json.dumps([m for m in ('dataclasses', 'repro.faults.models')"
        " if m in sys.modules]))\n",
        cwd=tmp_path,
    )
    assert json.loads(out.splitlines()[-1]) == []


def test_readme_quick_start(tmp_path):
    out = _fresh(
        "from repro import Datapath\n"
        "dp = Datapath(ndigits=8)\n"
        "x, y = dp.input('x'), dp.input('y')\n"
        "dp.output('prod', x * y)\n"
        "online = dp.synthesize('online')\n"
        "trad = dp.synthesize('traditional')\n"
        "print(type(online).__name__, type(trad).__name__)\n",
        cwd=tmp_path,
    )
    assert out.split() == ["SynthesizedDatapath", "SynthesizedDatapath"]
