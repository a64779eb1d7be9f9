"""Run manifests: what each experiment solved, and how to resume it.

A :class:`RunManifest` is a small JSON file living next to a persistent
:class:`~repro.api.store.ResultStore`.  For every experiment it records
the ``(backend, canonical spec hash)`` pairs the experiment solved plus
an order-independent *fingerprint digest* of the results.  Together with
the store this makes ``repro experiments --all`` incremental:

* before re-running an experiment, the manifest says exactly which of
  its specs are already in the store (an interrupted run resumes where
  it stopped -- the store flushes progress segment by segment);
* after re-running, the digest must match the recorded one -- a cheap,
  end-to-end determinism check across processes and machines.

The :class:`ExperimentRecorder` is the bridge: installed by the run-all
driver around each experiment, it observes every
:func:`~repro.experiments.base.solve_specs` call the experiment makes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

from .._version import __version__
from ..api.result import SolveResult, envelope_blob
from ..api.spec import ProblemSpec
from ..api.store import ResultStore

__all__ = [
    "blob_hash",
    "digest_blobs",
    "envelope_blob",
    "fingerprint_digest",
    "fingerprint_blob_hash",
    "digest_blob_hashes",
    "fold_digest",
    "ExperimentRecorder",
    "RunManifest",
    "MANIFEST_NAME",
]

#: File name of the manifest inside a store directory.
MANIFEST_NAME = "manifest.json"


def _fingerprint_blob(result: SolveResult) -> str:
    """The fingerprint blob of one result object."""
    return envelope_blob(result.to_dict())


def digest_blobs(blobs: Iterable[str]) -> str:
    """SHA-256 over the sorted, deduplicated fingerprint blobs."""
    digest = hashlib.sha256()
    for blob in sorted(set(blobs)):
        digest.update(blob.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def blob_hash(blob: str) -> str:
    """SHA-256 hex of one fingerprint blob."""
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_digest(results: Iterable[SolveResult]) -> str:
    """Order-independent SHA-256 digest over result fingerprints.

    Equal result sets digest equally no matter how the solves were
    ordered, batched, pooled, duplicated or replayed from a store
    (fingerprints neutralise wall time and store provenance; duplicate
    envelopes collapse before hashing).
    """
    return digest_blobs(_fingerprint_blob(result) for result in results)


def fingerprint_blob_hash(result: SolveResult) -> str:
    """SHA-256 hex of one result's fingerprint blob.

    A 64-character stand-in for the full envelope: fold-mode sweeps ship
    these instead of results, an order-of-magnitude byte saving while
    still letting the coordinator prove set equality end to end.
    """
    return blob_hash(_fingerprint_blob(result))


def digest_blob_hashes(hashes: Iterable[str]) -> str:
    """Order-independent SHA-256 over per-result blob hashes.

    Same sort/dedup/newline construction as :func:`fingerprint_digest`,
    but over :func:`fingerprint_blob_hash` values instead of the blobs
    themselves -- so shards can contribute hashes without shipping
    envelopes, and any grouping of the same result set digests equally.
    """
    digest = hashlib.sha256()
    for item in sorted(set(hashes)):
        digest.update(item.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def fold_digest(results: Iterable[SolveResult]) -> str:
    """The fold-mode counterpart of :func:`fingerprint_digest`.

    Distinct from ``fingerprint_digest`` (it hashes blob *hashes*, not
    blobs), but shares its guarantees: order-independent, duplicate-safe,
    and computable either locally or as the merge of per-shard hash sets.
    """
    return digest_blob_hashes(fingerprint_blob_hash(result) for result in results)


@dataclass
class ExperimentRecorder:
    """Accumulates what one experiment solved through the shared runner."""

    #: ``(backend, spec_hash)`` pairs in solve order (duplicates collapsed).
    pairs: list[tuple[str, str]] = field(default_factory=list)
    total: int = 0
    #: Unique keys per solve call, summed -- the unit the hit counters
    #: are measured in, so ``cache_hits + store_hits + fresh_solves ==
    #: unique`` always holds (``total`` additionally counts duplicates).
    unique: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    fresh_solves: int = 0
    _blobs: list[str] = field(default_factory=list)

    def record(
        self,
        backend: str,
        specs: Sequence[ProblemSpec],
        results: Sequence[SolveResult],
        stats: Any,
    ) -> None:
        """Observe one ``solve_specs`` call (invoked by the base helper)."""
        seen = set(self.pairs)
        for spec in specs:
            pair = (backend, spec.canonical_hash())
            if pair not in seen:
                seen.add(pair)
                self.pairs.append(pair)
        self.total += stats.total
        self.unique += stats.unique
        self.cache_hits += stats.cache_hits
        self.store_hits += stats.solved_from_store
        self.fresh_solves += stats.solved_fresh
        self._blobs.extend(_fingerprint_blob(result) for result in results)

    @property
    def digest(self) -> Optional[str]:
        """Order-independent digest of every observed result (None when idle)."""
        if not self._blobs:
            return None
        return digest_blobs(self._blobs)


class RunManifest:
    """Per-experiment solve bookkeeping persisted as JSON.

    Entries are keyed by ``experiment_id`` and scoped by the ``quick``
    flag (quick sweeps solve different specs, so the two modes never
    answer for each other).
    """

    def __init__(self, path: Union[str, Path], entries: Optional[dict] = None) -> None:
        self.path = Path(path)
        self.entries: dict[str, dict[str, Any]] = entries if entries is not None else {}

    @staticmethod
    def _entry_key(experiment_id: str, quick: bool) -> str:
        return f"{experiment_id.upper()}:{'quick' if quick else 'full'}"

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read a manifest, tolerating a missing or corrupt file."""
        path = Path(path)
        entries: dict[str, dict[str, Any]] = {}
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(data, dict) and isinstance(data.get("experiments"), dict):
                entries = data["experiments"]
        except (OSError, json.JSONDecodeError):
            pass
        return cls(path, entries)

    def save(self) -> None:
        """Atomically persist the manifest (temp file + rename)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "manifest_version": 1,
            "library_version": __version__,
            "experiments": self.entries,
        }
        temp = self.path.with_name(f".{self.path.name}.tmp")
        with temp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)

    def entry(self, experiment_id: str, quick: bool) -> Optional[dict[str, Any]]:
        """The recorded entry for an experiment/mode, or None."""
        return self.entries.get(self._entry_key(experiment_id, quick))

    def record(
        self,
        experiment_id: str,
        *,
        quick: bool,
        pairs: Sequence[tuple[str, str]],
        fingerprint: Optional[str],
    ) -> None:
        """Record (or replace) an experiment's solved specs and digest."""
        self.entries[self._entry_key(experiment_id, quick)] = {
            "experiment_id": experiment_id.upper(),
            "quick": quick,
            "spec_hashes": [list(pair) for pair in pairs],
            "fingerprint_digest": fingerprint,
            "library_version": __version__,
        }

    def missing_pairs(
        self, experiment_id: str, quick: bool, store: ResultStore
    ) -> Optional[list[tuple[str, str]]]:
        """The recorded specs not yet present in ``store``.

        None when the experiment was never recorded in this mode (so
        nothing is known about what it will solve).
        """
        entry = self.entry(experiment_id, quick)
        if entry is None:
            return None
        missing = []
        for item in entry.get("spec_hashes", []):
            backend, spec_hash = item
            if not store.contains(backend, spec_hash):
                missing.append((backend, spec_hash))
        return missing
