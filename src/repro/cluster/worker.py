"""Worker processes and their supervision.

Each shard worker is a **full** ``repro serve`` daemon in its own
process: its own :class:`~repro.service.service.SolverService`, its own
kernel state, its own store directory.  Nothing cluster-specific runs
inside a worker -- the router speaks the ordinary wire formats to it,
which is what keeps the fingerprint contract trivially intact: a
worker answers exactly what a standalone daemon would.

The :class:`ClusterSupervisor` owns the fleet lifecycle:

* **spawn** -- workers bind ephemeral ports and publish them through
  ``--port-file`` (no port races, no stdout parsing);
* **store seeding** -- when a primary store is configured, its records
  are exported once and imported into every worker store before the
  fleet starts, so a warm restart of the cluster replays from one
  store;
* **respawn** -- :meth:`ensure_alive` is the router's failure report:
  single-flight per worker (a generation counter collapses concurrent
  reports of the same death), never touching a process that is still
  running;
* **drain + merge** -- :meth:`stop` shuts each worker down gracefully
  (the ``shutdown`` verb, SIGTERM as fallback) so the workers flush
  their buffered segments, then merges every worker store back into
  the primary via :meth:`~repro.api.store.ResultStore.export` /
  :meth:`~repro.api.store.ResultStore.import_file`.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Union

from ..errors import ClusterError, InvalidParameterError

__all__ = ["WorkerHandle", "ClusterSupervisor"]

_WORKER_SUBDIR = "workers"


class WorkerHandle:
    """One supervised shard worker: process, address, store, counters."""

    def __init__(self, worker_id: int, store_dir: Optional[Path]) -> None:
        self.worker_id = worker_id
        self.store_dir = store_dir
        self.process: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        #: Bumped on every (re)spawn; failure reports quote the
        #: generation they observed so one death triggers one respawn.
        self.generation = 0
        self.restarts = 0
        #: Single-flight guard for spawn/respawn of this worker.
        self.lock = threading.Lock()

    @property
    def address(self) -> Optional[str]:
        if self.host is None or self.port is None:
            return None
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def describe(self) -> dict:
        """JSON-safe shard row for health/status documents."""
        return {
            "worker": self.worker_id,
            "address": self.address,
            "alive": self.alive,
            "restarts": self.restarts,
            "pid": self.process.pid if self.process is not None else None,
            "store": str(self.store_dir) if self.store_dir is not None else None,
        }


class ClusterSupervisor:
    """Spawn, watch, respawn and drain a fleet of shard workers.

    Args:
        workers: fleet size (>= 1).
        backend: default backend forwarded to every worker.
        store: the **primary** store directory; each worker gets its own
            sub-store under ``<store>/workers/worker-NN``, seeded from
            the primary and merged back on :meth:`stop`.  ``None`` runs
            the fleet storeless.
        max_inflight / queue_limit: per-worker admission control.
        host: bind address for the workers.
        spawn_timeout: seconds to wait for a worker to publish its port.
    """

    def __init__(
        self,
        workers: int,
        backend: str = "auto",
        store: Union[str, Path, None] = None,
        max_inflight: int = 8,
        queue_limit: int = 128,
        host: str = "127.0.0.1",
        spawn_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers!r}")
        self.backend = backend
        self.primary_store = Path(store) if store is not None else None
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.host = host
        self.spawn_timeout = spawn_timeout
        self._run_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
        self.handles = [
            WorkerHandle(worker_id, self._worker_store_dir(worker_id))
            for worker_id in range(workers)
        ]
        self._stopped = False
        self._stop_lock = threading.Lock()
        self._stop_done = threading.Event()

    def _worker_store_dir(self, worker_id: int) -> Optional[Path]:
        if self.primary_store is None:
            return None
        return self.primary_store / _WORKER_SUBDIR / f"worker-{worker_id:02d}"

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Seed worker stores from the primary, then spawn the fleet.

        All workers are launched first and awaited second, so fleet
        start costs one interpreter boot (the slowest worker), not the
        sum of them.  Nothing else can touch the handles yet -- the
        router is built after ``start`` returns -- so holding no locks
        between the two passes is safe.
        """
        self._seed_worker_stores()
        launched = []
        for handle in self.handles:
            with handle.lock:
                launched.append((handle, *self._launch(handle)))
        for handle, port_file, log_path in launched:
            with handle.lock:
                self._await_ready(handle, port_file, log_path)

    def _seed_worker_stores(self) -> None:
        if self.primary_store is None:
            return
        from ..api.store import ResultStore

        primary = ResultStore(self.primary_store)
        if len(primary) == 0:
            return
        seed_file = self._run_dir / "seed.jsonl"
        primary.export(seed_file)
        for handle in self.handles:
            assert handle.store_dir is not None
            ResultStore(handle.store_dir).import_file(seed_file)

    def _worker_command(self, handle: WorkerHandle, port_file: Path) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            "0",
            "--backend",
            self.backend,
            "--max-inflight",
            str(self.max_inflight),
            "--queue-limit",
            str(self.queue_limit),
            "--port-file",
            str(port_file),
        ]
        if handle.store_dir is not None:
            command += ["--store", str(handle.store_dir)]
        else:
            command += ["--no-store"]
        return command

    def _launch(self, handle: WorkerHandle) -> tuple[Path, Path]:
        """Start one worker process; returns its port file and log path.

        Caller holds ``handle.lock``.
        """
        if self._stopped:
            raise ClusterError("cluster supervisor is stopped")
        port_file = self._run_dir / f"worker-{handle.worker_id:02d}.port.{handle.generation + 1}"
        log_path = self._run_dir / f"worker-{handle.worker_id:02d}.log"
        # The worker re-imports the library from a fresh interpreter, so
        # make sure the package we are running from is importable there.
        package_root = str(Path(__file__).resolve().parents[2])
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with log_path.open("ab") as log:
            handle.process = subprocess.Popen(
                self._worker_command(handle, port_file),
                stdout=log,
                stderr=log,
                env=env,
                start_new_session=True,
            )
        return port_file, log_path

    def _await_ready(self, handle: WorkerHandle, port_file: Path, log_path: Path) -> None:
        """Wait for a launched worker to publish its port, then adopt it.

        Caller holds ``handle.lock``.
        """
        deadline = time.monotonic() + self.spawn_timeout
        while True:
            if port_file.exists():
                text = port_file.read_text(encoding="utf-8").strip()
                if text:
                    host, _, port = text.rpartition(":")
                    handle.host, handle.port = host, int(port)
                    break
            if handle.process.poll() is not None:
                raise ClusterError(
                    f"worker {handle.worker_id} exited with "
                    f"{handle.process.returncode} before binding "
                    f"(log: {log_path})"
                )
            if time.monotonic() > deadline:
                handle.process.kill()
                try:
                    handle.process.wait(timeout=5.0)  # reap: no zombie child
                except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
                    pass
                raise ClusterError(
                    f"worker {handle.worker_id} did not publish a port within "
                    f"{self.spawn_timeout}s (log: {log_path})"
                )
            time.sleep(0.02)
        handle.generation += 1

    def _spawn(self, handle: WorkerHandle) -> None:
        """(Re)start one worker and wait for it to publish its port.

        Caller holds ``handle.lock``.
        """
        self._await_ready(handle, *self._launch(handle))

    #: How long :meth:`ensure_alive` lets an observed failure settle
    #: before trusting ``alive``: the EOF a router sees can outrun the
    #: process exit itself (the kernel closes the sockets while the
    #: process is still being reaped), so an instant ``alive`` check
    #: would dismiss a real death as a connection blip.
    DEATH_GRACE = 2.0

    def ensure_alive(self, handle: WorkerHandle, observed_generation: int) -> None:
        """Respawn a worker the router observed failing (single-flight).

        ``observed_generation`` is the generation the caller talked to;
        if the handle has moved past it another report already respawned
        the worker.  A process that is still running after the death
        grace is left alone -- a connection blip is not a death.
        """
        deadline = time.monotonic() + self.DEATH_GRACE
        while (
            handle.alive
            and handle.generation == observed_generation
            and not self._stopped
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        with handle.lock:
            if self._stopped or handle.generation != observed_generation:
                return
            if handle.alive:
                return
            handle.restarts += 1
            self._spawn(handle)

    # -- drain -----------------------------------------------------------------
    def _shutdown_worker(self, handle: WorkerHandle, timeout: float) -> None:
        """Ask one worker to drain: shutdown verb, then SIGTERM, then kill."""
        process = handle.process
        if process is None or process.poll() is not None:
            return
        try:
            with socket.create_connection((handle.host, handle.port), timeout=5.0) as conn:
                conn.sendall((json.dumps({"op": "shutdown"}) + "\n").encode("utf-8"))
                with conn.makefile("rb") as stream:
                    stream.readline()
        except OSError:
            process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                process.kill()
                process.wait(timeout=5.0)

    def merge_stores(self) -> int:
        """Fold every worker store into the primary; returns records added.

        Worker segment directories are removed after a successful merge:
        the primary is now the single source of truth, and the next
        :meth:`start` re-seeds fresh worker stores from it.
        """
        if self.primary_store is None:
            return 0
        from ..api.store import ResultStore

        primary = ResultStore(self.primary_store)
        added = 0
        for handle in self.handles:
            worker_dir = handle.store_dir
            if worker_dir is None or not worker_dir.is_dir():
                continue
            worker_store = ResultStore(worker_dir)
            if len(worker_store) == 0:
                shutil.rmtree(worker_dir, ignore_errors=True)
                continue
            export_file = self._run_dir / f"merge-{handle.worker_id:02d}.jsonl"
            worker_store.export(export_file)
            added += primary.import_file(export_file)
            shutil.rmtree(worker_dir, ignore_errors=True)
        primary.flush()
        workers_root = self.primary_store / _WORKER_SUBDIR
        if workers_root.is_dir() and not any(workers_root.iterdir()):
            workers_root.rmdir()
        return added

    def stop(self, drain: bool = True, timeout: float = 30.0) -> int:
        """Drain the fleet and merge its stores; returns records merged.

        Idempotent *and* blocking: a second caller (e.g. the cleanup
        path racing a signal handler's stop) waits for the first stop to
        finish tearing the fleet down.  With ``drain=False`` the workers
        are terminated without the store merge (crash-style stop).
        """
        with self._stop_lock:
            first = not self._stopped
            self._stopped = True
        if not first:
            self._stop_done.wait(timeout=timeout)
            return 0
        try:
            for handle in self.handles:
                with handle.lock:
                    if drain:
                        self._shutdown_worker(handle, timeout)
                    elif handle.process is not None and handle.process.poll() is None:
                        handle.process.kill()
                        handle.process.wait(timeout=5.0)
            added = self.merge_stores() if drain else 0
            shutil.rmtree(self._run_dir, ignore_errors=True)
            return added
        finally:
            self._stop_done.set()

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
