"""``repro serve --port 0``: the banner names the port actually bound.

Spawns the real CLI daemon on an ephemeral port, reads the port back
from its banner, checks it answers ``readyz`` there, and that SIGTERM
drains it to exit status 0.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

from repro.service.client import request_once

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

BANNER = re.compile(r"^repro service on 127\.0\.0\.1:(\d+) ")


def test_serve_port_zero_prints_bound_port():
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop("REPRO_CACHE_DIR", None)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--ndigits", "4", "--no-cache"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = daemon.stdout.readline()
        match = BANNER.match(line)
        assert match, f"unexpected banner {line!r}"
        port = int(match.group(1))
        assert port > 0
        ready = request_once("127.0.0.1", port, "readyz", timeout=30)
        assert ready["ok"] is True
        assert ready["status"] == "ready"
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
