"""Persistent, content-addressed result store.

The in-memory LRU of :class:`~repro.api.batch.BatchRunner` evaporates
with the process; this module is the durable tier below it.  A
:class:`ResultStore` is an append-only log of :class:`SolveResult`
envelopes in their JSON wire form, content-addressed by

    ``(schema_version, requested backend name, canonical spec hash)``

-- the same key the LRU uses, so a stored envelope answers exactly the
requests the LRU would have answered.  Because the backends are
deterministic and envelopes fingerprint-identically across processes
(see :meth:`SolveResult.fingerprint`), a cached envelope is safe to
reuse across processes, machines and CI runs.

Layout and concurrency
----------------------

A store is a directory of JSONL *segment* files plus an in-memory index
mapping keys to ``(segment, byte offset, length)`` -- envelopes stay on
disk until asked for, so the index of a million-record store is small.
Writers buffer ``put`` calls and publish them as a brand-new segment via
write-to-temp + ``os.replace`` (atomic on POSIX): readers never observe
a half-written segment, and concurrent writer *processes* never share a
file (segment names embed the pid and a random token).  Reads are
tolerant anyway: a truncated or corrupt trailing record -- e.g. from a
writer killed mid-``flush`` on a filesystem that reordered the rename --
is skipped with a warning, never a crash.

Duplicate keys (two processes solving the same spec) are resolved
last-record-wins during indexing; the backends' determinism makes the
choice immaterial for honest duplicates, and for a damaged record it
lets a later re-solve supersede it (a malformed stored envelope is also
evicted from the index on first read, so the key heals instead of
staying poisoned).  ``gc()`` compacts all live records into a single
fresh segment and drops superseded ones; ``export``/``import_file``
ship a warm cache between machines as one JSONL file.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional, Union

from ..errors import InvalidParameterError
from .result import EncodedEnvelope, SolveResult
from .spec import SCHEMA_VERSION, ProblemSpec, canonical_dumps

__all__ = ["StoreKey", "StoreStats", "ResultStore"]

_SEGMENT_GLOB = "segment-*.jsonl"


class StoreKey(NamedTuple):
    """The content address of one stored envelope."""

    schema_version: int
    backend: str
    spec_hash: str


class _Location(NamedTuple):
    """Where a record's line lives on disk."""

    segment: Path
    offset: int
    length: int


@dataclass(frozen=True, slots=True)
class StoreStats:
    """A snapshot of one store's on-disk and indexed state."""

    path: str
    segments: int
    records: int
    unique: int
    duplicates: int
    skipped_lines: int
    pending: int
    total_bytes: int
    backends: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human readable summary."""
        per_backend = ", ".join(
            f"{name}: {count}" for name, count in sorted(self.backends.items())
        )
        return (
            f"{self.unique} unique results in {self.segments} segment(s) "
            f"({self.records} records, {self.duplicates} duplicates, "
            f"{self.skipped_lines} skipped lines, {self.pending} pending, "
            f"{self.total_bytes} bytes) [{per_backend or 'empty'}] at {self.path}"
        )


def _record_line(backend: str, spec_hash: str, text: str) -> str:
    """One JSONL record (without its newline) around an envelope's canonical text.

    The bytes of ``canonical_dumps`` of the record object, whose keys sort
    as written here; ``_parse_record`` reads it.
    """
    return (
        f'{{"backend":{canonical_dumps(backend)},"result":{text},'
        f'"schema_version":{SCHEMA_VERSION},"spec_hash":{canonical_dumps(spec_hash)}}}'
    )


def _parse_record(line: str) -> Optional[tuple[StoreKey, dict[str, Any]]]:
    """Decode one JSONL record; None when the line is corrupt or foreign."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(data, dict):
        return None
    backend = data.get("backend")
    spec_hash = data.get("spec_hash")
    envelope = data.get("result")
    if (
        data.get("schema_version") != SCHEMA_VERSION
        or not isinstance(backend, str)
        or not isinstance(spec_hash, str)
        or not isinstance(envelope, dict)
    ):
        return None
    return StoreKey(SCHEMA_VERSION, backend, spec_hash), envelope


class ResultStore:
    """Append-only, content-addressed store of solve-result envelopes.

    Args:
        path: store directory (created on demand).
        flush_every: pending ``put`` count that triggers an automatic
            segment flush (long runs publish progress as they go; an
            interrupted run loses at most the unflushed tail).

    A store is also a context manager: leaving the ``with`` block
    flushes pending records.
    """

    def __init__(self, path: Union[str, Path], flush_every: int = 256) -> None:
        if flush_every < 1:
            raise InvalidParameterError(f"flush_every must be >= 1, got {flush_every!r}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        self._index: dict[StoreKey, _Location] = {}
        self._seen_segments: set[str] = set()
        self._pending: list[tuple[StoreKey, str]] = []
        self._pending_keys: dict[StoreKey, int] = {}
        self._records = 0
        self._duplicates = 0
        self._skipped_lines = 0
        self._segment_seq = 0
        # Guards the put buffer and the index mutations of flush():
        # concurrent threads sharing one store handle (a thread-safe
        # BatchRunner, the serving tier) buffer and publish atomically.
        # Re-entrant because put_envelope triggers flush at the
        # flush_every watermark.
        self._write_lock = threading.RLock()
        self.refresh()

    # -- lifecycle -------------------------------------------------------------
    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.flush()

    def __len__(self) -> int:
        with self._write_lock:
            return len(self._index) + len(self._pending_keys)

    # -- reading ---------------------------------------------------------------
    def refresh(self) -> int:
        """Index segments that appeared since the last scan (other writers).

        Returns the number of newly indexed unique keys.
        """
        with self._write_lock:
            before = len(self._index)
            for segment in sorted(self.path.glob(_SEGMENT_GLOB)):
                if segment.name in self._seen_segments:
                    continue
                self._seen_segments.add(segment.name)
                self._load_segment(segment)
            return len(self._index) - before

    def _load_segment(self, segment: Path) -> None:
        try:
            raw = segment.read_bytes()
        except OSError as error:  # pragma: no cover - disk-level failure
            warnings.warn(f"result store: cannot read segment {segment}: {error}")
            return
        offset = 0
        bad_lines = 0
        with self._write_lock:  # reentrant: refresh()/gc() already hold it
            for chunk in raw.split(b"\n"):
                length = len(chunk)
                if chunk.strip():
                    parsed = None
                    try:
                        parsed = _parse_record(chunk.decode("utf-8"))
                    except UnicodeDecodeError:
                        parsed = None
                    if parsed is None:
                        bad_lines += 1
                        self._skipped_lines += 1
                    else:
                        key, _ = parsed
                        self._records += 1
                        if key in self._index:
                            self._duplicates += 1
                        # Last record wins: honest duplicates are identical
                        # (deterministic backends), and a later re-solve
                        # supersedes a damaged earlier record.
                        self._index[key] = _Location(segment, offset, length)
                offset += length + 1
        if bad_lines:
            warnings.warn(
                f"result store: skipped {bad_lines} corrupt/truncated line(s) "
                f"in segment {segment.name}"
            )

    def contains(self, backend: str, spec_hash: str) -> bool:
        """True when an envelope for this key is stored (or pending)."""
        key = StoreKey(SCHEMA_VERSION, backend, spec_hash)
        with self._write_lock:
            return key in self._index or key in self._pending_keys

    def get_envelope(self, backend: str, spec_hash: str) -> Optional[dict[str, Any]]:
        """The stored wire-format envelope for a key, or None."""
        key = StoreKey(SCHEMA_VERSION, backend, spec_hash)
        # Snapshot under the lock: a concurrent watermark flush() clears
        # the pending buffer while publishing it as a segment, so a
        # pending index read outside the lock could dereference the
        # wrong (or a vanished) buffer slot.  Published segments are
        # immutable, so the disk read itself needs no lock.
        with self._write_lock:
            pending = self._pending_keys.get(key)
            line_text = self._pending[pending][1] if pending is not None else None
            location = self._index.get(key)
        if line_text is not None:
            parsed = _parse_record(line_text)
            return parsed[1] if parsed else None
        if location is None:
            return None
        try:
            with location.segment.open("rb") as handle:
                handle.seek(location.offset)
                line = handle.read(location.length)
        except OSError:
            return None
        parsed = _parse_record(line.decode("utf-8", errors="replace"))
        return parsed[1] if parsed else None

    def _result_from_envelope(
        self, key: StoreKey, envelope: dict[str, Any]
    ) -> Optional[SolveResult]:
        """Materialise a stored envelope, marking and healing as needed."""
        try:
            result = SolveResult.from_dict(envelope)
        except (InvalidParameterError, TypeError, KeyError) as error:
            warnings.warn(
                f"result store: ignoring malformed stored envelope for "
                f"{key.backend}:{key.spec_hash[:12]}: {error}"
            )
            # Evict the damaged record so a fresh solve can re-put the
            # key; with last-record-wins indexing the replacement also
            # survives reopen instead of the key staying poisoned.
            with self._write_lock:
                self._index.pop(key, None)
            return None
        return replace(result, provenance=replace(result.provenance, from_store=True))

    def get_by_hash(self, backend: str, spec_hash: str) -> Optional[SolveResult]:
        """The stored result for a key, provenance-marked ``from_store``."""
        return self.get_many(backend, (spec_hash,)).get(spec_hash)

    def get_many(
        self, backend: str, spec_hashes: Iterable[str]
    ) -> dict[str, SolveResult]:
        """Stored results for many keys, reading each segment file once.

        The hot path of a warm batch replay: misses grouped per segment
        and read in offset order cost one ``open`` per segment instead of
        one per record.  Keys that are absent or malformed (the latter
        evicted, see :meth:`get_by_hash`) are missing from the mapping.
        """
        results: dict[str, SolveResult] = {}
        by_segment: dict[Path, list[tuple[StoreKey, _Location]]] = {}
        pending_lines: list[tuple[StoreKey, str]] = []
        # Snapshot pending lines and index locations under the lock (a
        # concurrent watermark flush republishes the pending buffer);
        # segment files are immutable once published, so the bulk disk
        # reads stay outside it.
        with self._write_lock:
            for spec_hash in spec_hashes:
                key = StoreKey(SCHEMA_VERSION, backend, spec_hash)
                pending = self._pending_keys.get(key)
                if pending is not None:
                    pending_lines.append((key, self._pending[pending][1]))
                    continue
                location = self._index.get(key)
                if location is not None:
                    by_segment.setdefault(location.segment, []).append((key, location))
        for key, line_text in pending_lines:
            parsed = _parse_record(line_text)
            if parsed is not None:
                result = self._result_from_envelope(key, parsed[1])
                if result is not None:
                    results[key.spec_hash] = result
        for segment in sorted(by_segment):
            records = sorted(by_segment[segment], key=lambda item: item[1].offset)
            try:
                handle = segment.open("rb")
            except OSError:  # pragma: no cover - segment vanished mid-read
                continue
            with handle:
                for key, location in records:
                    handle.seek(location.offset)
                    line = handle.read(location.length)
                    parsed = _parse_record(line.decode("utf-8", errors="replace"))
                    if parsed is None:
                        continue
                    result = self._result_from_envelope(key, parsed[1])
                    if result is not None:
                        results[key.spec_hash] = result
        return results

    def get(self, backend: str, spec: ProblemSpec) -> Optional[SolveResult]:
        """The stored result for a spec under a requested backend, or None."""
        return self.get_by_hash(backend, spec.canonical_hash())

    def scan(
        self, backend: Optional[str] = None
    ) -> Iterator[tuple[StoreKey, dict[str, Any]]]:
        """Stream every live ``(key, envelope)`` pair, one at a time.

        Envelopes are re-read from disk record by record, so folding a
        large store (see :func:`repro.analysis.fold_envelopes`) never
        holds more than one envelope live; each segment file is opened
        once and read in offset order, not once per record.
        """
        with self._write_lock:
            index_snapshot = list(self._index.items())
            pending_snapshot = list(self._pending)
        indexed_keys = {key for key, _ in index_snapshot}
        by_segment: dict[Path, list[tuple[StoreKey, _Location]]] = {}
        for key, location in index_snapshot:
            if backend is not None and key.backend != backend:
                continue
            by_segment.setdefault(location.segment, []).append((key, location))
        for segment in sorted(by_segment):
            records = sorted(by_segment[segment], key=lambda item: item[1].offset)
            try:
                handle = segment.open("rb")
            except OSError:  # pragma: no cover - segment vanished mid-scan
                continue
            with handle:
                for key, location in records:
                    handle.seek(location.offset)
                    line = handle.read(location.length)
                    parsed = _parse_record(line.decode("utf-8", errors="replace"))
                    if parsed is not None:
                        yield key, parsed[1]
        for key, line in pending_snapshot:
            if key in indexed_keys:
                continue
            if backend is not None and key.backend != backend:
                continue
            parsed = _parse_record(line)
            if parsed is not None:
                yield key, parsed[1]

    # -- writing ---------------------------------------------------------------
    def put(self, backend: str, result: Union[SolveResult, EncodedEnvelope]) -> bool:
        """Record one solved envelope; False when the key is already stored.

        The envelope is stored with its run-specific ``from_store``
        provenance cleared, so what lands on disk is exactly the
        cold-solve wire form.  Given as an :class:`EncodedEnvelope`, the
        result is encoded here, once, and the caller can send the same
        encoding on.
        """
        encoded = result if isinstance(result, EncodedEnvelope) else EncodedEnvelope(result)
        provenance = encoded.envelope["provenance"]

        def text() -> str:
            if provenance["from_store"]:
                return encoded.splice({**provenance, "from_store": False})
            return encoded.text

        return self._put_text(StoreKey(SCHEMA_VERSION, backend, provenance["spec_hash"]), text)

    def put_envelope(self, backend: str, envelope: dict[str, Any]) -> bool:
        """Record one wire-format envelope under a requested backend name."""
        provenance = envelope.get("provenance")
        if not isinstance(provenance, dict) or "spec_hash" not in provenance:
            raise InvalidParameterError("envelope has no provenance.spec_hash")
        key = StoreKey(SCHEMA_VERSION, backend, provenance["spec_hash"])
        return self._put_text(key, lambda: canonical_dumps(envelope))

    def _put_text(self, key: StoreKey, text: Callable[[], str]) -> bool:
        """Buffer the record of one envelope's canonical text, unless stored.

        ``text`` is called only for a new key, so a duplicate (every
        seeded record when a fleet merges its workers' stores) is never
        encoded.
        """
        with self._write_lock:
            if key in self._index or key in self._pending_keys:
                return False
            self._pending_keys[key] = len(self._pending)
            self._pending.append((key, _record_line(key.backend, key.spec_hash, text())))
            if len(self._pending) >= self.flush_every:
                self.flush()
            return True

    @staticmethod
    def _segment_sequence(name: str) -> int:
        """The leading sequence number of a segment file name (-1 if none)."""
        parts = name.split("-")
        try:
            return int(parts[1])
        except (IndexError, ValueError):
            return -1

    def _next_segment_path(self) -> Path:
        # Segments sort (and therefore load) in publication order: the
        # leading sequence number advances past every segment already in
        # the directory, so a record written after another one is also
        # indexed after it -- the invariant behind last-record-wins.
        # Concurrent writer processes may race to the same number; their
        # honest duplicates are identical, so the tie is immaterial.
        on_disk = max(
            (self._segment_sequence(p.name) for p in self.path.glob(_SEGMENT_GLOB)),
            default=-1,
        )
        self._segment_seq = max(self._segment_seq, on_disk) + 1
        # Segment file names are never hashed; the token only keeps
        # concurrent writer processes from colliding on one path.
        token = uuid.uuid4().hex[:8]  # repro-lint: disable=R001
        name = f"segment-{self._segment_seq:08d}-{os.getpid():08d}-{token}.jsonl"
        return self.path / name

    def _publish_segment(self, lines: list[str]) -> Path:
        """Write lines as a new segment: temp file, fsync, atomic rename."""
        segment = self._next_segment_path()
        temp = segment.with_name(f".{segment.name}.tmp")
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        with temp.open("wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, segment)
        return segment

    def flush(self) -> Optional[Path]:
        """Publish pending records as one new segment (None when idle)."""
        with self._write_lock:
            if not self._pending:
                return None
            lines = [line for _, line in self._pending]
            segment = self._publish_segment(lines)
            self._seen_segments.add(segment.name)
            offset = 0
            for key, line in self._pending:
                length = len(line.encode("utf-8"))
                self._records += 1
                if key in self._index:  # pragma: no cover - guarded at put time
                    self._duplicates += 1
                self._index[key] = _Location(segment, offset, length)
                offset += length + 1
            self._pending.clear()
            self._pending_keys.clear()
            return segment

    # -- maintenance -----------------------------------------------------------
    def stats(self) -> StoreStats:
        """Snapshot of segment, record and per-backend counts."""
        segments = sorted(self.path.glob(_SEGMENT_GLOB))
        total_bytes = sum(segment.stat().st_size for segment in segments)
        with self._write_lock:
            backends: dict[str, int] = {}
            for key in self._index:
                backends[key.backend] = backends.get(key.backend, 0) + 1
            for key in self._pending_keys:
                if key not in self._index:
                    backends[key.backend] = backends.get(key.backend, 0) + 1
            return StoreStats(
                path=str(self.path),
                segments=len(segments),
                records=self._records,
                unique=len(self._index) + len(self._pending_keys),
                duplicates=self._duplicates,
                skipped_lines=self._skipped_lines,
                pending=len(self._pending),
                total_bytes=total_bytes,
                backends=backends,
            )

    def gc(self) -> tuple[int, int]:
        """Compact every live record into one fresh segment.

        Returns ``(kept_records, removed_segments)``.  Duplicates and
        corrupt lines do not survive the rewrite.  The compacted segment
        is published atomically before the superseded ones are removed,
        so a reader racing the gc sees at worst harmless duplicates.
        """
        self.flush()
        # Only segments visible *now* are compacted and removed; refresh
        # indexes all of them first (anything unindexed would be
        # destroyed rather than compacted), and segments another writer
        # publishes after this point survive the unlink loop untouched.
        old_segments = sorted(self.path.glob(_SEGMENT_GLOB))
        self.refresh()
        lines = []
        for key in list(self._index):
            envelope = self.get_envelope(key.backend, key.spec_hash)
            if envelope is None:
                continue
            lines.append(_record_line(key.backend, key.spec_hash, canonical_dumps(envelope)))
        compacted = self._publish_segment(lines) if lines else None
        removed = 0
        for segment in old_segments:
            try:
                segment.unlink()
                removed += 1
            except OSError:  # pragma: no cover - already gone
                pass
        # Rebuild the index from the compacted segment, then pick up any
        # segment another writer published while we were compacting.
        with self._write_lock:
            self._index.clear()
            self._seen_segments.clear()
            self._records = 0
            self._duplicates = 0
            self._skipped_lines = 0
            if compacted is not None:
                self._seen_segments.add(compacted.name)
                self._load_segment(compacted)
            self.refresh()
        return len(lines), removed

    # -- shipping --------------------------------------------------------------
    def export(self, destination: Union[str, Path]) -> int:
        """Write every live record to one JSONL file; returns the count."""
        self.flush()
        self.refresh()  # include segments other writers published meanwhile
        destination = Path(destination)
        destination.parent.mkdir(parents=True, exist_ok=True)
        temp = destination.with_name(f".{destination.name}.tmp")
        count = 0
        with temp.open("w", encoding="utf-8") as handle:
            for key, envelope in self.scan():
                handle.write(_record_line(key.backend, key.spec_hash, canonical_dumps(envelope)))
                handle.write("\n")
                count += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, destination)
        return count

    def import_file(self, source: Union[str, Path]) -> int:
        """Merge records from an exported JSONL file; returns new keys added.

        Lines that are corrupt, foreign-schema or already stored are
        skipped (the former two with a warning), so warm caches shipped
        from another machine merge idempotently.
        """
        source = Path(source)
        try:
            text = source.read_text(encoding="utf-8")
        except OSError as error:
            raise InvalidParameterError(f"cannot read store export {source}: {error}")
        added = 0
        bad_lines = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            parsed = _parse_record(line)
            if parsed is None:
                bad_lines += 1
                continue
            key, envelope = parsed
            try:
                if self.put_envelope(key.backend, envelope):
                    added += 1
            except InvalidParameterError:
                # A record that parses but holds an unusable envelope
                # (e.g. no provenance) is corrupt for our purposes too.
                bad_lines += 1
        if bad_lines:
            warnings.warn(
                f"result store: skipped {bad_lines} corrupt/foreign line(s) "
                f"while importing {source}"
            )
        self.flush()
        return added
