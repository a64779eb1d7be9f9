"""Launching, draining and auditing ``repro serve`` process trees."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import proctree
from spans import TRACE_DIR_ENV

SITE_DIR = Path(__file__).resolve().parent / "site"
SHM_DIR = Path("/dev/shm")


class BenchError(RuntimeError):
    """The run cannot produce trustworthy numbers."""


def shm_segments() -> set[str]:
    """Shared-memory segments of Python's ``SharedMemory`` (the arena's kind)."""
    try:
        return {entry.name for entry in SHM_DIR.iterdir() if entry.name.startswith("psm_")}
    except OSError:
        return set()


class Server:
    """One ``repro serve --async --backend vectorized`` process tree.

    Everything it writes -- store, port file, log, the fleet's temp
    directory (through ``TMPDIR``) and, when traced, span files -- lives
    under ``directory``.
    """

    def __init__(self, src: Path, directory: Path, workers: int, traced: bool) -> None:
        self.store = directory / "store"
        self.spans = directory / "spans"
        self._port_file = directory / "port"
        tmp = directory / "tmp"
        tmp.mkdir(parents=True)
        env = dict(os.environ)
        env["TMPDIR"] = str(tmp)
        env.pop(TRACE_DIR_ENV, None)
        path = [str(src)]
        if traced:
            self.spans.mkdir()
            env[TRACE_DIR_ENV] = str(self.spans)
            path.insert(0, str(SITE_DIR))
        env["PYTHONPATH"] = os.pathsep.join(path)
        command = [
            sys.executable, "-m", "repro", "serve", "--async",
            "--host", "127.0.0.1", "--port", "0",
            "--backend", "vectorized",
            "--store", str(self.store),
            "--port-file", str(self._port_file),
        ]
        if workers > 1:
            command += ["--workers", str(workers)]
        self.launched = time.monotonic()
        with (directory / "server.log").open("wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=directory
            )
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        #: Every pid seen in the tree; all must be gone after the drain.
        self.seen: set[int] = {self.process.pid}

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_address(self, timeout: float = 60.0) -> tuple[str, int]:
        """Poll the port file the server publishes once it listens."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._port_file.exists():
                text = self._port_file.read_text().strip()
                if text:
                    host, _, port = text.rpartition(":")
                    self.host, self.port = host, int(port)
                    return self.host, self.port
            if self.process.poll() is not None:
                raise BenchError(f"server exited with {self.process.returncode} before listening")
            time.sleep(0.01)
        raise BenchError(f"server did not publish a port within {timeout}s")

    def pids(self) -> list[int]:
        """The live tree (daemon, or router and workers); remembered for the audit."""
        pids = proctree.tree(self.pid)
        self.seen.update(pids)
        return pids

    def shutdown(self, timeout: float = 60.0) -> float:
        """Send ``shutdown`` and wait for the top process to exit; returns seconds."""
        self.pids()
        started = time.monotonic()
        with socket.create_connection((self.host, self.port), timeout=timeout) as conn:
            conn.sendall((json.dumps({"op": "shutdown"}) + "\n").encode())
            with conn.makefile("rb") as stream:
                answer = json.loads(stream.readline() or b"{}")
        if not answer.get("ok"):
            raise BenchError(f"shutdown refused: {answer}")
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"server did not exit within {timeout}s of shutdown") from error
        return time.monotonic() - started

    def survivors(self) -> list[int]:
        """Pids of this tree still running (a drained tree has none)."""
        deadline = time.monotonic() + 5.0
        while True:
            alive = sorted(pid for pid in self.seen if proctree.alive(pid))
            if not alive or time.monotonic() > deadline:
                return alive
            time.sleep(0.05)

    def kill(self) -> None:
        """Kill the whole tree, workers included (they outlive a killed router), and reap it."""
        for pid in sorted(self.seen | set(proctree.tree(self.pid)), reverse=True):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
