"""Cross-process shared-memory arena for compiled trajectories.

The kernel's compiled-chunk cache (:mod:`repro.simulation.kernel`) is
per-process: an N-worker fleet compiles every trajectory N times.  Its
chunks hold an algorithm's local trajectory, which serves both robots
of a solve: the reference robot reads it as is and the other robot maps
it into its own frame, so an adopted chunk carries every column
``FLOAT_FIELDS`` lists, the map's end-point and sweep columns included.  A
:class:`TrajectoryArena` moves the :class:`~repro.motion.compiled.
CompiledTrajectory` structure-of-arrays into one
``multiprocessing.shared_memory`` segment with a content-keyed index, so
a chunk compiled once by *any* process is mapped by every other process
as zero-copy read-only numpy views.

Layout (all little-endian, offsets 8-byte aligned)::

    header   64 B   magic, version, slot_count, data_capacity,
                    data_used, published_count
    index    slot_count x 64 B
                    digest[16], chunk_index, data_offset, n_segments,
                    flags, final_x, final_y
    data     data_capacity B
                    per chunk: 13 float64 arrays (start_times,
                    durations, speeds, ax, ay, bx, by, radius, theta0,
                    omega, ex, ey, sweep -- ``FLOAT_FIELDS``) then int8
                    kinds, padded to 8 bytes

Concurrency model -- **single-writer append, lock-free readers**:

* Writers serialise on a cross-process ``flock`` file lock (an
  ``multiprocessing.Lock`` cannot reach cluster workers, which are
  spawned as detached subprocesses, so the lock rides on a file derived
  from the arena name).  Under the lock a writer re-checks for a raced
  duplicate, appends the chunk data, fills the next index slot, and
  bumps ``published_count`` **last** -- so a reader scanning up to
  ``published_count`` only ever sees fully written slots.
* Readers never take any lock: a lookup scans newly published slots
  into a per-process dict and maps the hit as read-only views.

Lifecycle -- **creator unlinks, attachers close**:

* :meth:`TrajectoryArena.create` builds a fresh segment (the creator
  records its pid; :meth:`destroy` in a forked child is a no-op so pool
  workers cannot unlink the segment under their parent).
* :meth:`TrajectoryArena.attach` maps an existing segment by name and
  deregisters it from the resource tracker, so an attaching process
  exiting neither warns nor unlinks a segment it does not own.
* ``REPRO_ARENA=<name>`` in the environment attaches lazily on first
  kernel cache use (:func:`active_arena`); any failure falls back to
  the plain in-process cache.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import struct
import tempfile
import threading
from typing import Any, Optional

import numpy as np

from ..errors import ReproError
from ..motion.compiled import FLOAT_FIELDS, CompiledTrajectory, packed_chunk_nbytes

__all__ = [
    "ARENA_ENV",
    "ARENA_SIZE_ENV",
    "ArenaError",
    "TrajectoryArena",
    "activate",
    "active_arena",
    "attach_from_env",
    "cache_digest",
    "deactivate",
    "ensure_process_arena",
]

#: Environment variable carrying the arena name for worker processes.
ARENA_ENV = "REPRO_ARENA"
#: Optional override of the data-region size (bytes) for created arenas.
ARENA_SIZE_ENV = "REPRO_ARENA_SIZE"

_MAGIC = 0x414E_4552_4154  # "TARENA" little-endian
_VERSION = 1

_HEADER_STRUCT = struct.Struct("<qqqqqq")  # magic, version, slots, capacity, used, published
_HEADER_SIZE = 64
_SLOT_STRUCT = struct.Struct("<16sqqqqdd")
_SLOT_SIZE = 64
assert _SLOT_STRUCT.size <= _SLOT_SIZE

_DEFAULT_SLOTS = 4096
_DEFAULT_DATA_BYTES = 32 * 1024 * 1024

#: Slot flags.
_FLAG_FINAL = 1  # the stream ends at this slot (a chunk or a bare terminator)
_FLAG_HAS_FINAL_POS = 2  # final_x / final_y are meaningful


class ArenaError(ReproError):
    """A shared-memory arena could not be created, attached or parsed."""


def cache_digest(key: Any) -> bytes:
    """16-byte content digest of a kernel cache key (stable across processes)."""
    return hashlib.sha256(repr(key).encode("utf-8")).digest()[:16]


class _FileLock:
    """Cross-process writer exclusion on a file derived from the arena name."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._fd: Optional[int] = None
        # flock is per-open-file, not per-thread: threads of one process
        # must also serialise or they would share the same lock grant.
        self._thread_lock = threading.Lock()

    def __enter__(self) -> "_FileLock":
        self._thread_lock.acquire()
        try:
            import fcntl

            self._fd = os.open(self._path, os.O_CREAT | os.O_RDWR, 0o600)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        except Exception:
            self._fd = None  # degrade to thread-local exclusion
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._fd is not None:
            try:
                import fcntl

                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None
        self._thread_lock.release()

    def remove(self) -> None:
        try:
            os.unlink(self._path)
        except OSError:
            pass


class TrajectoryArena:
    """One shared-memory segment of published compiled-trajectory chunks."""

    def __init__(self, shm: Any, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._owner_pid = os.getpid() if owner else -1
        self._closed = False
        self._lock_file = _FileLock(
            os.path.join(tempfile.gettempdir(), f"repro-arena-{shm.name.lstrip('/')}.lock")
        )
        buf = shm.buf
        self._header = np.frombuffer(buf, dtype=np.int64, count=6, offset=0)
        slots = int(self._header[2])
        self._slot_region = (_HEADER_SIZE, slots)
        self._data_start = _HEADER_SIZE + slots * _SLOT_SIZE
        # Per-process read cache over the index: slot position by key.
        self._index: dict[tuple[bytes, int], int] = {}
        self._scanned = 0
        self._index_lock = threading.Lock()
        # Per-process observability counters.
        self._stats_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._publishes = 0
        self._races = 0
        self._full_drops = 0

    # -- construction ----------------------------------------------------------
    @classmethod
    def create(
        cls,
        slots: int = _DEFAULT_SLOTS,
        data_bytes: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "TrajectoryArena":
        """Create a fresh arena; the caller owns (and must unlink) it."""
        from multiprocessing import shared_memory

        if data_bytes is None:
            try:
                data_bytes = int(os.environ.get(ARENA_SIZE_ENV, _DEFAULT_DATA_BYTES))
            except ValueError:
                data_bytes = _DEFAULT_DATA_BYTES
        total = _HEADER_SIZE + slots * _SLOT_SIZE + data_bytes
        try:
            shm = shared_memory.SharedMemory(create=True, name=name, size=total)
        except OSError as error:
            raise ArenaError(f"cannot create shared-memory arena: {error}") from error
        # The header must be in place *before* the object is built:
        # __init__ derives the data-region offset from the slot count it
        # reads back, so a late header write would leave the creator
        # believing the data region starts where the slot table lives.
        _HEADER_STRUCT.pack_into(shm.buf, 0, _MAGIC, _VERSION, slots, data_bytes, 0, 0)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "TrajectoryArena":
        """Map an existing arena by name (read/extend, never unlink)."""
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name)
        except OSError as error:
            raise ArenaError(f"cannot attach arena {name!r}: {error}") from error
        # The resource tracker registers *every* SharedMemory handle on
        # Python < 3.13 and unlinks it when this process exits -- an
        # attacher would tear the arena down under its creator.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        arena = cls(shm, owner=False)
        if int(arena._header[0]) != _MAGIC or int(arena._header[1]) != _VERSION:
            shm.close()
            raise ArenaError(f"arena {name!r} has an unknown layout")
        return arena

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def owner(self) -> bool:
        return self._owner

    # -- publishing ------------------------------------------------------------
    def publish_chunk(self, digest: bytes, chunk_index: int, chunk: CompiledTrajectory) -> bool:
        """Publish one compiled chunk; False when the arena is full.

        Idempotent under races: a chunk already published by another
        process is detected under the writer lock and skipped.
        """
        n = len(chunk)
        arrays = [np.ascontiguousarray(getattr(chunk, field)) for field in FLOAT_FIELDS]
        kinds = np.ascontiguousarray(chunk.kinds, dtype=np.int8)
        return self._publish(digest, chunk_index, n, arrays, kinds, flags=0, final_pos=None)

    def publish_final(
        self, digest: bytes, chunk_index: int, final_pos: Optional[tuple[float, float]]
    ) -> bool:
        """Publish a bare end-of-stream terminator slot (no chunk data)."""
        flags = _FLAG_FINAL
        if final_pos is not None:
            flags |= _FLAG_HAS_FINAL_POS
        return self._publish(digest, chunk_index, 0, [], None, flags=flags, final_pos=final_pos)

    def _publish(
        self,
        digest: bytes,
        chunk_index: int,
        n: int,
        arrays: list[np.ndarray],
        kinds: Optional[np.ndarray],
        flags: int,
        final_pos: Optional[tuple[float, float]],
    ) -> bool:
        if self._closed:
            return False
        size = packed_chunk_nbytes(n) if n else 0
        with self._lock_file:
            published = int(self._header[5])
            self._refresh_index(published)
            if (digest, chunk_index) in self._index:
                with self._stats_lock:
                    self._races += 1
                return True
            data_used = int(self._header[4])
            if published >= int(self._header[2]) or data_used + size > int(self._header[3]):
                with self._stats_lock:
                    self._full_drops += 1
                return False
            offset = self._data_start + data_used
            if n:
                buf = self._shm.buf
                cursor = offset
                for array in arrays:
                    view = np.frombuffer(buf, dtype=np.float64, count=n, offset=cursor)
                    view[:] = array
                    cursor += 8 * n
                kview = np.frombuffer(buf, dtype=np.int8, count=n, offset=cursor)
                kview[:] = kinds
            fx, fy = final_pos if final_pos is not None else (0.0, 0.0)
            slot_offset = _HEADER_SIZE + published * _SLOT_SIZE
            _SLOT_STRUCT.pack_into(
                self._shm.buf, slot_offset, digest, chunk_index, data_used, n, flags, fx, fy
            )
            self._header[4] = data_used + size
            # Publish order matters: data, slot, then the count readers
            # scan by -- a concurrent reader never sees a partial slot.
            self._header[5] = published + 1
        with self._stats_lock:
            self._publishes += 1
        return True

    # -- reading ---------------------------------------------------------------
    def _refresh_index(self, published: int) -> None:
        with self._index_lock:
            while self._scanned < published:
                slot_offset = _HEADER_SIZE + self._scanned * _SLOT_SIZE
                digest, chunk_index, *_ = _SLOT_STRUCT.unpack_from(self._shm.buf, slot_offset)
                self._index[(digest, int(chunk_index))] = self._scanned
                self._scanned += 1

    def get(
        self, digest: bytes, chunk_index: int
    ) -> Optional[tuple[Optional[CompiledTrajectory], bool, Optional[tuple[float, float]]]]:
        """Look one chunk up: ``(chunk or None, stream_final, final_pos)``.

        A bare terminator slot returns ``(None, True, pos)``.  Returns
        None when nothing under that key has been published; callers
        compile locally and publish (the arena never blocks a read).
        """
        if self._closed:
            return None
        key = (digest, chunk_index)
        slot = self._index.get(key)
        if slot is None:
            self._refresh_index(int(self._header[5]))
            slot = self._index.get(key)
        if slot is None:
            with self._stats_lock:
                self._misses += 1
            return None
        slot_offset = _HEADER_SIZE + slot * _SLOT_SIZE
        _, _, data_offset, n, flags, fx, fy = _SLOT_STRUCT.unpack_from(self._shm.buf, slot_offset)
        final = bool(flags & _FLAG_FINAL)
        final_pos = (fx, fy) if flags & _FLAG_HAS_FINAL_POS else None
        with self._stats_lock:
            self._hits += 1
        if n == 0:
            return None, final, final_pos
        buf = self._shm.buf
        cursor = self._data_start + int(data_offset)
        floats = {}
        for field in FLOAT_FIELDS:
            view = np.frombuffer(buf, dtype=np.float64, count=int(n), offset=cursor)
            view.flags.writeable = False
            floats[field] = view
            cursor += 8 * int(n)
        kinds = np.frombuffer(buf, dtype=np.int8, count=int(n), offset=cursor)
        kinds.flags.writeable = False
        chunk = CompiledTrajectory(kinds=kinds, **floats)
        return chunk, final, final_pos

    # -- observability ---------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """JSON-safe arena document: shared occupancy + this process's traffic."""
        published = int(self._header[5])
        self._refresh_index(published)
        with self._index_lock:
            digests = {digest for digest, _ in self._index}
            finals = 0
            chunks = 0
            for slot in range(self._scanned):
                _, _, _, n, flags, _, _ = _SLOT_STRUCT.unpack_from(
                    self._shm.buf, _HEADER_SIZE + slot * _SLOT_SIZE
                )
                if flags & _FLAG_FINAL:
                    finals += 1
                if n:
                    chunks += 1
        with self._stats_lock:
            process = {
                "hits": self._hits,
                "misses": self._misses,
                "publishes": self._publishes,
                "races": self._races,
                "full_drops": self._full_drops,
            }
        return {
            "name": self.name,
            "owner": self._owner,
            "slots": int(self._header[2]),
            "published_slots": published,
            "published_chunks": chunks,
            "published_finals": finals,
            "unique_trajectories": len(digests),
            "data_used": int(self._header[4]),
            "data_capacity": int(self._header[3]),
            "process": process,
        }

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the segment itself stays)."""
        if self._closed:
            return
        self._closed = True
        self._header = None  # type: ignore[assignment]
        self._index.clear()
        try:
            self._shm.close()
        except BufferError:
            # Cached CompiledTrajectory views still point into the
            # mapping; unmapping under them would turn reads into
            # segfaults.  Neutralise the handle instead -- the views
            # keep the mmap alive, the OS reclaims it when they die --
            # so SharedMemory.__del__ does not retry and raise at exit.
            self._shm._buf = None  # noqa: SLF001
            self._shm._mmap = None  # noqa: SLF001
            fd = getattr(self._shm, "_fd", -1)
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - fd already gone
                    pass
                self._shm._fd = -1  # noqa: SLF001

    def unlink(self) -> None:
        """Remove the segment; only the creating process may do this."""
        if not self._owner or os.getpid() != self._owner_pid:
            return
        try:
            # An attach() in this same process deregistered the name (so
            # attachers never unlink segments they do not own); re-register
            # before unlinking or the tracker logs a spurious KeyError for
            # the unregister that unlink() itself sends.
            from multiprocessing import resource_tracker

            resource_tracker.register(self._shm._name, "shared_memory")  # noqa: SLF001
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._lock_file.remove()

    def destroy(self) -> None:
        """Close and (for the owner) unlink; idempotent, fork-safe."""
        self.unlink()
        self.close()


# -- process-wide active arena -------------------------------------------------

_ACTIVE: Optional[TrajectoryArena] = None
_ENV_CHECKED = False
_PROCESS_ARENA: Optional[TrajectoryArena] = None
_MODULE_LOCK = threading.Lock()


def active_arena() -> Optional[TrajectoryArena]:
    """The arena this process reads/extends, if any (env-attach lazily)."""
    if _ACTIVE is None and not _ENV_CHECKED:
        attach_from_env()
    return _ACTIVE


def activate(arena: Optional[TrajectoryArena]) -> None:
    """Make ``arena`` the process-wide arena used by the kernel cache."""
    global _ACTIVE
    with _MODULE_LOCK:
        _ACTIVE = arena


def deactivate() -> None:
    """Detach the kernel cache from any arena (fallback to private cache)."""
    global _ACTIVE, _ENV_CHECKED
    with _MODULE_LOCK:
        _ACTIVE = None
        _ENV_CHECKED = True


def attach_from_env() -> Optional[TrajectoryArena]:
    """Attach to ``$REPRO_ARENA`` once; any failure means no arena."""
    global _ACTIVE, _ENV_CHECKED
    with _MODULE_LOCK:
        if _ENV_CHECKED or _ACTIVE is not None:
            return _ACTIVE
        _ENV_CHECKED = True
        name = os.environ.get(ARENA_ENV)
        if not name:
            return None
        try:
            _ACTIVE = TrajectoryArena.attach(name)
        except Exception:
            _ACTIVE = None
        return _ACTIVE


def reset_env_attach() -> None:
    """Forget a previous env attach decision (tests flip ``REPRO_ARENA``)."""
    global _ENV_CHECKED
    with _MODULE_LOCK:
        _ENV_CHECKED = False


def ensure_process_arena() -> Optional[TrajectoryArena]:
    """An arena for this process's pool workers, created once on demand.

    Reuses the active arena when one exists (a cluster worker's pool
    children then share the fleet arena).  Creation failure degrades to
    None -- callers run with private caches.  The created arena is
    unlinked at interpreter exit; ``destroy`` is a no-op in forked
    children, so pool workers cannot unlink it under the parent.
    """
    global _ACTIVE, _PROCESS_ARENA
    existing = active_arena()
    if existing is not None:
        return existing
    with _MODULE_LOCK:
        if _PROCESS_ARENA is None:
            try:
                arena = TrajectoryArena.create()
            except Exception:
                return None
            atexit.register(arena.destroy)
            _PROCESS_ARENA = arena
        _ACTIVE = _PROCESS_ARENA
        return _PROCESS_ARENA


def attach_in_worker(name: str) -> None:
    """Pool-worker initializer: attach (or adopt the forked mapping) by name."""
    current = _ACTIVE
    if current is not None and current.name == name:
        return
    try:
        activate(TrajectoryArena.attach(name))
    except Exception:
        activate(None)
