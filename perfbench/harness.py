"""Processes, wire client and statistics shared by the workloads."""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

PERFBENCH = Path(__file__).resolve().parent

#: variables that would silently turn the workloads into cache hits,
#: multi-process runs or traced runs; scrubbed from every child
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_TRACE")

#: bound on one CLI op and on a daemon's start and drain
CHILD_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The harness could not run the workload (not a program failure)."""


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Tally:
    """Operations attempted and failed; *wrong* counts incorrect answers."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, what: str, reason: Optional[str] = None,
               wrong: bool = False) -> None:
        self.attempted += 1
        if reason is not None:
            self.fail(f"{what}: {reason}", wrong)

    def fail(self, reason: str, wrong: bool = False) -> None:
        """A failure outside any one operation (stray process, bad drain)."""
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.reasons) < 8:
            self.reasons.append(reason)


@dataclass
class CliRun:
    seconds: float
    returncode: int
    stdout: str


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    ready_s: float = math.nan
    admin_frames: int = 0  # readyz responses it wrote while starting


class Bench:
    """One benchmark run: checkout paths, child environment, children."""

    def __init__(self, root: Path, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tally = Tally()
        self.run_dir = root / ".perfbench" / f"run-{os.getpid()}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # daemon caches outlive the run: their entries are fsynced, and on
        # a discard-mounted disk unlinking one costs tens of milliseconds
        self.cache_root = root / ".perfbench" / "caches"
        # the in-process reference checks read RunConfig defaults from
        # this process's environment, so it is scrubbed here as well
        self.scrubbed = [k for k in SCRUBBED_ENV if os.environ.pop(k, None)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), self.env.get("PYTHONPATH")) if p
        )
        self.daemons: List[Daemon] = []

    def log(self, text: str) -> None:
        print(f"[perfbench] {text}", flush=True)

    def fresh_cache_dir(self) -> Path:
        self.cache_root.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(dir=self.cache_root))

    def compile_sources(self) -> None:
        """Byte-compile ``src`` once, so no timed start pays for it."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src"],
            cwd=self.root, env=self.env, check=True,
            stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
        )

    def _command(self, argv: Sequence[str],
                 stats: Optional[Path]) -> List[str]:
        if stats is None:
            return [sys.executable, "-m", "repro.cli", *argv]
        return [sys.executable, str(PERFBENCH / "traced_cli.py"),
                repr(time.time()), str(stats), *argv]

    # ----------------------------------------------------------------- CLI
    def cli(self, argv: Sequence[str], stats: Optional[Path] = None) -> CliRun:
        """One CLI op, timed from spawn to exit (the interpreter included)."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            self._command(argv, stats), cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return CliRun(time.perf_counter() - t0, proc.returncode, proc.stdout)

    # -------------------------------------------------------------- daemon
    def start_daemon(self, cache_dir: Path,
                     stats: Optional[Path] = None) -> Daemon:
        """Spawn ``repro serve`` on a free port; ready at the first ok readyz."""
        port = free_port()
        argv = ["serve", "--port", str(port), "--cache-dir", str(cache_dir)]
        log = self.run_dir / f"daemon-{port}.log"
        t0 = time.perf_counter()
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                self._command(argv, stats), cwd=self.root, env=self.env,
                stdout=out, stderr=subprocess.STDOUT,
            )
        daemon = Daemon(proc, port)
        self.daemons.append(daemon)
        while not self._ready(daemon):
            if proc.poll() is not None:
                raise BenchError(
                    f"daemon exited {proc.returncode} before ready: "
                    f"{log.read_text()[-2000:]}"
                )
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                raise BenchError(f"daemon on port {port} never became ready")
            time.sleep(0.005)
        daemon.ready_s = time.perf_counter() - t0
        return daemon

    @staticmethod
    def _ready(daemon: Daemon) -> bool:
        try:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=2
            ) as s:
                s.sendall(b'{"id": "ready", "kind": "readyz"}\n')
                line = s.makefile("rb").readline()
        except OSError:
            return False
        if not line:
            return False
        daemon.admin_frames += 1
        return json.loads(line).get("ok") is True

    def stop_daemon(self, daemon: Daemon) -> float:
        """SIGTERM drain, which must exit 0; returns the peak RSS in MB."""
        peak_mb = vm_hwm_mb(daemon.proc.pid)
        daemon.proc.send_signal(signal.SIGTERM)
        try:
            code = daemon.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            daemon.proc.kill()
            daemon.proc.wait()
            self.tally.fail(f"daemon on port {daemon.port} did not drain")
        else:
            if code != 0:
                self.tally.fail(f"daemon drain exited with status {code}")
        self.daemons.remove(daemon)
        return peak_mb

    def daemon_start_sample(self) -> float:
        """Start an idle daemon, drain it, return its time to ready."""
        daemon = self.start_daemon(self.fresh_cache_dir())
        self.stop_daemon(daemon)
        return daemon.ready_s

    def close(self) -> None:
        """Kill whatever is still running; each leftover is a failure."""
        for daemon in list(self.daemons):
            daemon.proc.kill()
            daemon.proc.wait()
            self.tally.fail(f"daemon on port {daemon.port} left running")
        self.daemons.clear()
        for pid in child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.tally.fail(f"stray child process {pid}")
        shutil.rmtree(self.run_dir, ignore_errors=True)


def free_port() -> int:
    """A port the kernel just handed out (``serve --port 0`` hides its port)."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def children_peak_rss_mb() -> float:
    """Largest peak resident set among the reaped child processes, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def child_pids() -> List[int]:
    """Live processes whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


# ------------------------------------------------------------ wire client

class Conn:
    """One JSON-lines connection; responses are matched by request id."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self._waiting: Dict[str, asyncio.Future] = {}
        self.progress_frames = 0
        self._task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = json.loads(line)
                if message.get("event") == "progress":
                    self.progress_frames += 1
                    continue
                future = self._waiting.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((time.perf_counter(), message))
        finally:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self._waiting.clear()

    def send(self, requests: Sequence[Any]) -> List[asyncio.Future]:
        """Write ``(kind, params)`` requests in one write; one future each.

        Each future resolves to ``(perf_counter at arrival, response)``.
        """
        loop = asyncio.get_running_loop()
        lines, futures = [], []
        for kind, params in requests:
            req_id = f"q{next(self._ids)}"
            future = loop.create_future()
            self._waiting[req_id] = future
            futures.append(future)
            lines.append(json.dumps(
                {"id": req_id, "kind": kind, "params": params}
            ).encode() + b"\n")
        self._writer.write(b"".join(lines))
        return futures

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)


async def arrival(future: asyncio.Future, timeout: float):
    """``(arrival time, response)``; response None on timeout or close."""
    try:
        return await asyncio.wait_for(future, timeout=max(timeout, 0.001))
    except (asyncio.TimeoutError, ConnectionError):
        return time.perf_counter(), None
