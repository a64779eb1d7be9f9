"""Planning: turn ``(specs, backend)`` into a declarative execution plan.

The :class:`Planner` performs every *decision* the old monolithic
``BatchRunner.run`` made inline -- deduplication, the LRU tier, the
persistent-store tier, the kernel-batchable group, pool eligibility --
and records the outcome as an :class:`ExecutionPlan`: five disjoint
tiers plus the reassembly key sequence.  Planning resolves the cheap
tiers (LRU, store) eagerly, so a plan already *contains* those results;
the remaining tiers name work an :mod:`~repro.exec.executors` strategy
still has to perform.

Planning is synchronous and touches shared runner state only through
``cache_get`` (the LRU order), so a runner shared across threads makes
that lookup thread-safe, and promotes store hits into its LRU itself
(``BatchRunner.plan`` takes its lock for exactly those two).  The store
read between them needs no runner lock; execution of the resulting plan
is free of shared mutable state and can proceed concurrently.

This module must stay importable before ``repro.api`` finishes its own
import (``api.batch`` is rebuilt on top of it), so runtime imports from
``repro.api`` are deferred into the functions that need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids the import cycle
    from ..api.result import EncodedEnvelope, SolveResult
    from ..api.spec import ProblemSpec

#: The cache/store key of one unique request: ``(backend name, spec hash)``.
Key = tuple[str, str]


@dataclass(frozen=True, slots=True)
class PlannedSpec:
    """One unique spec an executor still has to solve."""

    key: Key
    spec: "ProblemSpec"

    @property
    def spec_hash(self) -> str:
        return self.key[1]


@dataclass(frozen=True, slots=True)
class ResolvedSpec:
    """One unique spec the planner already answered (LRU or store tier)."""

    key: Key
    result: "SolveResult"


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    """A declarative recipe for solving one batch.

    The five tiers partition the batch's *unique* keys exactly:

    * ``cached`` -- answered by the runner's in-memory LRU;
    * ``stored`` -- answered by the persistent result store;
    * ``batch``  -- the kernel-batchable group (one array-at-a-time
      backend call solves all of them);
    * ``pooled`` -- misses eligible for multiprocessing fan-out
      (non-empty only when ``use_pool``);
    * ``serial`` -- the leftovers, solved one spec at a time.

    ``keys`` holds the per-input-spec key sequence (duplicates included),
    which is all a caller needs to reassemble completion-ordered results
    into input order -- see ``BatchRunner.run``.
    """

    backend: str
    keys: tuple[Key, ...]
    cached: tuple[ResolvedSpec, ...]
    stored: tuple[ResolvedSpec, ...]
    batch: tuple[PlannedSpec, ...]
    pooled: tuple[PlannedSpec, ...]
    serial: tuple[PlannedSpec, ...]
    processes: int = 1
    chunksize: int = 1
    use_pool: bool = False

    @property
    def total(self) -> int:
        """Number of input specs (duplicates included)."""
        return len(self.keys)

    @property
    def unique(self) -> int:
        """Number of unique keys (the tiers partition exactly this many)."""
        return (
            len(self.cached)
            + len(self.stored)
            + len(self.batch)
            + len(self.pooled)
            + len(self.serial)
        )

    @property
    def pending(self) -> int:
        """Unique keys an executor still has to solve."""
        return len(self.batch) + len(self.pooled) + len(self.serial)

    def describe(self) -> str:
        """One-line tier summary for logs and debugging."""
        pool_text = (
            f"pool[{len(self.pooled)}]x{self.processes}/cs{self.chunksize}"
            if self.use_pool
            else "no pool"
        )
        return (
            f"plan[{self.backend}]: {self.total} specs, {self.unique} unique = "
            f"{len(self.cached)} cached + {len(self.stored)} stored + "
            f"{len(self.batch)} batch + {len(self.pooled)} pooled + "
            f"{len(self.serial)} serial ({pool_text})"
        )


@dataclass(slots=True)
class Planner:
    """Builds :class:`ExecutionPlan` objects from spec iterables.

    Args:
        cache_get: LRU lookup, ``key -> SolveResult | None`` (None
            disables the cache tier).  Looked-up hits count as the
            ``cached`` tier.
        store: persistent tier with a ``get_many(backend, hashes)``
            method (None disables the store tier).
        processes: requested pool size (``None``/1 plans no pool tier).
        chunksize: requested pool chunk size (None derives the default).
        pool_safe: predicate deciding whether a backend name resolves
            identically in a fresh worker process; a backend that does
            not is never planned onto the pool tier.
    """

    cache_get: Optional[Callable[[Key], Optional["SolveResult"]]] = None
    store: Optional[Any] = None
    processes: Optional[int] = None
    chunksize: Optional[int] = None
    pool_safe: Optional[Callable[[str], bool]] = None

    def plan(
        self,
        specs: Sequence["ProblemSpec"],
        backend: str,
        backend_obj: Optional[Any] = None,
    ) -> ExecutionPlan:
        """Plan one batch: dedupe, resolve cheap tiers, tier the misses.

        ``backend_obj`` is the instantiated backend (created when omitted);
        passing it lets the caller reuse one instance for planning *and*
        execution.
        """
        if backend_obj is None:
            from ..api.backends import create_backend

            backend_obj = create_backend(backend)

        keys: list[Key] = []
        seen: set[Key] = set()
        cached: list[ResolvedSpec] = []
        lru_misses: list[PlannedSpec] = []
        for spec in specs:
            key = (backend, spec.canonical_hash())
            keys.append(key)
            if key in seen:
                continue
            seen.add(key)
            hit = self.cache_get(key) if self.cache_get is not None else None
            if hit is not None:
                cached.append(ResolvedSpec(key, hit))
            else:
                lru_misses.append(PlannedSpec(key, spec))

        # The store tier answers LRU misses in one batched read (one file
        # open per segment) before anything is solved.
        stored: list[ResolvedSpec] = []
        misses = lru_misses
        if self.store is not None and lru_misses:
            stored_map = self.store.get_many(
                backend, [planned.spec_hash for planned in lru_misses]
            )
            misses = []
            for planned in lru_misses:
                hit = stored_map.get(planned.spec_hash)
                if hit is not None:
                    stored.append(ResolvedSpec(planned.key, hit))
                else:
                    misses.append(planned)

        # A backend exposing ``solve_specs`` solves homogeneous groups
        # array-at-a-time (vectorized kernel, auto routing).  Only the
        # group the backend reports as batchable skips the pool; the
        # remaining misses still fan out when a pool was requested, so a
        # mixed workload gets the kernel *and* the requested parallelism.
        batch: list[PlannedSpec] = []
        rest = misses
        if hasattr(backend_obj, "solve_specs") and len(misses) > 1:
            if hasattr(backend_obj, "batchable_indices"):
                indices = set(
                    backend_obj.batchable_indices([planned.spec for planned in misses])
                )
            else:
                # A custom batch backend with no batchability report
                # takes the whole miss list.
                indices = set(range(len(misses)))
            if len(indices) >= 2:
                batch = [planned for i, planned in enumerate(misses) if i in indices]
                rest = [planned for i, planned in enumerate(misses) if i not in indices]

        processes = self.processes or 1
        safe = self.pool_safe(backend) if self.pool_safe is not None else False
        use_pool = processes > 1 and len(rest) > 1 and safe
        chunksize = self.chunksize or max(1, len(rest) // (4 * processes) or 1)

        return ExecutionPlan(
            backend=backend,
            keys=tuple(keys),
            cached=tuple(cached),
            stored=tuple(stored),
            batch=tuple(batch),
            pooled=tuple(rest) if use_pool else (),
            serial=() if use_pool else tuple(rest),
            processes=processes if use_pool else 1,
            chunksize=chunksize if use_pool else 1,
            use_pool=use_pool,
        )


@dataclass(frozen=True, slots=True)
class PlanPartition:
    """One shard's slice of a partitioned sweep.

    ``specs``, ``hashes`` and ``positions`` are parallel: ``hashes[i]``
    is the canonical hash of ``specs[i]`` and ``positions[i]`` its index
    in the partitioned input (so a relay can ship the spec as its client
    wrote it).  Partitions of one sweep are disjoint by spec hash (the
    coordinator dedupes before assigning), so per-shard results union
    without cross-shard dedup.
    """

    node: Any
    specs: tuple["ProblemSpec", ...]
    hashes: tuple[str, ...]
    positions: tuple[int, ...]


def partition_specs(
    specs: Sequence["ProblemSpec"],
    backend: str,
    assign: Callable[[str], Any],
) -> tuple[list[PlanPartition], int, int]:
    """Dedupe a suite by ``(backend, spec hash)`` and group it by shard.

    ``assign`` maps a canonical spec hash to a shard identity (for the
    cluster: ``ring.lookup(shard_key(backend, spec_hash))``), so a
    distributed sweep lands each spec on the same worker a routed
    ``solve`` would pick -- warm LRU/store tiers stay warm.

    Returns ``(partitions, total, unique)`` with partitions ordered by
    shard identity; ``total`` counts input specs (duplicates included),
    ``unique`` is the number of deduplicated specs across all partitions.
    """
    total = 0
    seen: set[Key] = set()
    buckets: dict[Any, tuple[list["ProblemSpec"], list[str], list[int]]] = {}
    for position, spec in enumerate(specs):
        total += 1
        spec_hash = spec.canonical_hash()
        key = (backend, spec_hash)
        if key in seen:
            continue
        seen.add(key)
        bucket = buckets.setdefault(assign(spec_hash), ([], [], []))
        bucket[0].append(spec)
        bucket[1].append(spec_hash)
        bucket[2].append(position)
    partitions = [
        PlanPartition(node, tuple(group), tuple(hashes), tuple(positions))
        for node, (group, hashes, positions) in sorted(
            buckets.items(), key=lambda item: str(item[0])
        )
    ]
    return partitions, total, len(seen)


@dataclass(frozen=True, slots=True)
class SpecFailure:
    """One spec that failed to solve, identified by its hash.

    ``exception`` carries the original exception object when the spec
    failed in this process (serial / batch / threaded tiers); a pool
    worker ships only the type name and message across the process
    boundary, so there it stays None.
    """

    key: Key
    spec_hash: str
    error_type: str
    message: str
    exception: Optional[BaseException] = field(default=None, compare=False)

    def describe(self) -> str:
        return f"{self.key[0]}:{self.spec_hash[:12]}: {self.error_type}: {self.message}"


@dataclass(frozen=True, slots=True)
class Completion:
    """One unique key finishing, emitted in completion order.

    Exactly one of ``result`` / ``failure`` is set.  ``latency`` is the
    time from execution start to this completion's emission (serving
    latency, not backend wall time -- the latter lives in the result's
    provenance); planner-resolved tiers (``cache`` / ``store``) report
    ~0.  ``encoded`` is the result's envelope as the runner encoded it
    to file a fresh result with its store, so a stream sends that text
    on instead of encoding the result again.
    """

    key: Key
    source: str  # "cache" | "store" | "batch" | "pool" | "serial"
    result: Optional["SolveResult"] = None
    failure: Optional[SpecFailure] = None
    latency: float = 0.0
    encoded: Optional["EncodedEnvelope"] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.failure is None
