"""Tests for the cross-process compiled-trajectory arena.

Three layers, matching how production uses the arena:

* the raw segment -- publish/get roundtrips, terminator slots, capacity
  behaviour, race idempotence;
* the kernel integration -- a process whose chunk cache adopts arena
  chunks must produce bit-identical fingerprints with zero local
  compiles;
* the cross-process lifecycle -- a real child process publishing into
  (or attaching to) the segment, attacher exit not unlinking it, and
  ``destroy`` leaving no ``/dev/shm`` litter behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import UniversalSearch
from repro.api import RendezvousProblem, SearchProblem, solve
from repro.motion.compiled import FLOAT_FIELDS, SegmentStreamCompiler
from repro.simulation import arena as arena_mod
from repro.simulation.arena import ArenaError, TrajectoryArena, cache_digest
from repro.simulation.kernel import clear_compiled_cache, kernel_cache_stats

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Small enough to compile in one chunk, so the cross-process tests are fast.
SPEC = SearchProblem(distance=2.0, visibility=0.5)

#: Rendezvous whose other robot's chunks are mapped from the cached
#: arrays: mirrored with speed != 1, and tau != 1.  Both run the other
#: robot past a 256-segment cache cap (one 512-segment chunk); the
#: mirrored one runs the reference robot past it too.
MIRRORED = RendezvousProblem(
    distance=2.5, visibility=0.2, speed=0.7, orientation=1.0, chirality=-1
)
CLOCK = RendezvousProblem(distance=3.0, visibility=0.15, time_unit=0.5)
KERNEL_SPECS = [
    pytest.param(SPEC, id="search"),
    pytest.param(MIRRORED, id="mirrored"),
    pytest.param(CLOCK, id="clock"),
]


@pytest.fixture(autouse=True)
def _pristine_arena_state(monkeypatch):
    """No inherited arena, no inherited compiled cache, before and after."""
    monkeypatch.delenv(arena_mod.ARENA_ENV, raising=False)
    arena_mod.deactivate()
    arena_mod.reset_env_attach()
    clear_compiled_cache()
    yield
    arena_mod.deactivate()
    arena_mod.reset_env_attach()
    clear_compiled_cache()


def _compile_chunk(max_segments: int = 64):
    compiler = SegmentStreamCompiler(UniversalSearch().segments())
    chunk = compiler.next_chunk(max_segments=max_segments)
    assert chunk is not None
    return chunk


class TestArenaSegment:
    def test_publish_get_roundtrip_is_bit_identical_and_read_only(self):
        arena = TrajectoryArena.create(slots=16, data_bytes=1 << 20)
        try:
            chunk = _compile_chunk()
            digest = cache_digest(("roundtrip",))
            assert arena.publish_chunk(digest, 0, chunk)
            found = arena.get(digest, 0)
            assert found is not None
            got, final, final_pos = found
            assert not final and final_pos is None
            assert len(got) == len(chunk)
            for field in FLOAT_FIELDS:
                mine = np.asarray(getattr(chunk, field))
                theirs = getattr(got, field)
                np.testing.assert_array_equal(mine, theirs)
                assert not theirs.flags.writeable
                with pytest.raises(ValueError):
                    theirs[0] = 0.0
            np.testing.assert_array_equal(got.kinds, np.asarray(chunk.kinds))
            assert not got.kinds.flags.writeable
        finally:
            arena.destroy()

    def test_terminator_slot_carries_the_final_position(self):
        arena = TrajectoryArena.create(slots=16, data_bytes=1 << 16)
        try:
            digest = cache_digest(("terminator",))
            assert arena.publish_final(digest, 3, (1.5, -2.25))
            assert arena.get(digest, 3) == (None, True, (1.5, -2.25))
            assert arena.publish_final(digest, 4, None)
            assert arena.get(digest, 4) == (None, True, None)
        finally:
            arena.destroy()

    def test_unpublished_key_is_a_miss_not_an_error(self):
        arena = TrajectoryArena.create(slots=4, data_bytes=1 << 16)
        try:
            assert arena.get(cache_digest(("nothing",)), 0) is None
            assert arena.stats()["process"]["misses"] == 1
        finally:
            arena.destroy()

    def test_full_data_region_drops_instead_of_corrupting(self):
        arena = TrajectoryArena.create(slots=4, data_bytes=64)
        try:
            chunk = _compile_chunk()
            assert not arena.publish_chunk(cache_digest(("full",)), 0, chunk)
            stats = arena.stats()
            assert stats["process"]["full_drops"] == 1
            assert stats["published_slots"] == 0
            # Terminators carry no data, so they still fit.
            assert arena.publish_final(cache_digest(("full",)), 0, None)
        finally:
            arena.destroy()

    def test_full_slot_table_drops(self):
        arena = TrajectoryArena.create(slots=1, data_bytes=1 << 16)
        try:
            assert arena.publish_final(cache_digest(("a",)), 0, None)
            assert not arena.publish_final(cache_digest(("b",)), 0, None)
            assert arena.stats()["process"]["full_drops"] == 1
        finally:
            arena.destroy()

    def test_duplicate_publish_is_idempotent(self):
        arena = TrajectoryArena.create(slots=8, data_bytes=1 << 20)
        try:
            chunk = _compile_chunk()
            digest = cache_digest(("dup",))
            assert arena.publish_chunk(digest, 0, chunk)
            # The raced duplicate reports success without a second slot.
            assert arena.publish_chunk(digest, 0, chunk)
            stats = arena.stats()
            assert stats["published_slots"] == 1
            assert stats["process"]["races"] == 1
        finally:
            arena.destroy()

    def test_stats_document_is_json_safe(self):
        arena = TrajectoryArena.create(slots=8, data_bytes=1 << 20)
        try:
            arena.publish_chunk(cache_digest(("stats",)), 0, _compile_chunk())
            arena.publish_final(cache_digest(("stats",)), 1, (0.0, 1.0))
            stats = json.loads(json.dumps(arena.stats()))
            assert stats["published_slots"] == 2
            assert stats["published_chunks"] == 1
            assert stats["published_finals"] == 1
            assert stats["unique_trajectories"] == 1
            assert 0 < stats["data_used"] <= stats["data_capacity"]
        finally:
            arena.destroy()


class TestKernelIntegration:
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_kernel_publishes_then_adopts_with_zero_local_compiles(self, spec):
        baseline = solve(spec, backend="vectorized")  # private cache
        clear_compiled_cache()
        arena = TrajectoryArena.create()
        arena_mod.activate(arena)
        try:
            first = solve(spec, backend="vectorized")
            stats = kernel_cache_stats()
            assert stats["arena_attached"]
            assert stats["local_compiles"] > 0
            assert stats["arena_publishes"] > 0
            published = arena.stats()["published_slots"]
            assert published > 0

            # Drop the private cache; the arena alone must rebuild the
            # prefix -- zero recompiles, bit-identical answer (a mapped
            # robot reads the adopted chunks' end-point and sweep columns).
            clear_compiled_cache()
            second = solve(spec, backend="vectorized")
            stats = kernel_cache_stats()
            assert stats["arena_hits"] > 0
            assert stats["local_compiles"] == 0
            assert arena.stats()["published_slots"] == published

            assert first.fingerprint() == baseline.fingerprint()
            assert second.fingerprint() == baseline.fingerprint()
        finally:
            arena_mod.deactivate()
            arena.destroy()

    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_arena_failure_degrades_to_the_private_cache(self, spec):
        baseline = solve(spec, backend="vectorized")
        clear_compiled_cache()
        arena = TrajectoryArena.create(slots=1, data_bytes=8)  # everything drops
        arena_mod.activate(arena)
        try:
            degraded = solve(spec, backend="vectorized")
            stats = kernel_cache_stats()
            assert stats["arena_drops"] > 0
            assert degraded.fingerprint() == baseline.fingerprint()
        finally:
            arena_mod.deactivate()
            arena.destroy()


class TestCacheSegmentCap:
    @pytest.mark.parametrize(
        "spec, continued_mapped",
        [
            # > one 512-segment chunk: the searcher runs past the cap.
            pytest.param(SearchProblem(distance=5.0, visibility=0.2), {False}, id="search"),
            pytest.param(MIRRORED, {True, False}, id="mirrored"),
            pytest.param(CLOCK, {True}, id="clock"),
        ],
    )
    def test_capped_stream_still_solves_bit_identically(self, monkeypatch, spec, continued_mapped):
        from repro.simulation import kernel

        baseline = solve(spec, backend="vectorized")
        assert kernel_cache_stats()["cache_capped"] == 0

        continued = []
        resume = kernel._ChunkSource._continue_uncached

        def recording(source):
            continued.append(source._mapped)
            resume(source)

        clear_compiled_cache()
        monkeypatch.setattr(kernel, "_CACHE_SEGMENT_CAP", 256)
        monkeypatch.setattr(kernel._ChunkSource, "_continue_uncached", recording)
        capped = solve(spec, backend="vectorized")
        stats = kernel_cache_stats()
        assert stats["cache_capped"] > 0
        # The robots whose streams run past the cap continue uncached
        # (True for a mapped robot, False for the reference frame).
        assert set(continued) == continued_mapped
        # The capped prefix stops extending; the continuation path must
        # still produce the exact same answer.
        assert capped.fingerprint() == baseline.fingerprint()


def _run_child(code: str, **env_overrides: str) -> dict:
    env = dict(os.environ)
    env.pop(arena_mod.ARENA_ENV, None)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_overrides)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


_CHILD_SOLVE = """
import json
from repro.api import SearchProblem, solve
from repro.simulation.kernel import kernel_cache_stats

result = solve(SearchProblem(distance=2.0, visibility=0.5), backend="vectorized")
stats = kernel_cache_stats()
print(json.dumps({
    "fingerprint": result.fingerprint(),
    "arena_attached": stats["arena_attached"],
    "local_compiles": stats["local_compiles"],
    "arena_publishes": stats["arena_publishes"],
}))
"""

_CHILD_ATTACH_PUBLISH = """
import json, os
from repro.simulation.arena import TrajectoryArena, cache_digest

arena = TrajectoryArena.attach(os.environ["ARENA_NAME"])
published = arena.publish_final(cache_digest("two-proc"), 0, (0.25, 0.5))
arena.close()
print(json.dumps({"published": published}))
"""


class TestCrossProcess:
    def test_child_compiles_parent_adopts_fingerprints_match(self):
        baseline = solve(SPEC, backend="vectorized")  # private cache reference
        clear_compiled_cache()
        arena = TrajectoryArena.create()
        try:
            child = _run_child(_CHILD_SOLVE, **{arena_mod.ARENA_ENV: arena.name})
            assert child["arena_attached"]
            assert child["local_compiles"] > 0
            assert child["arena_publishes"] > 0
            assert child["fingerprint"] == baseline.fingerprint()

            # This process adopts the child's chunks: compiled once
            # fleet-wide, and the answer is bit-identical.
            arena_mod.activate(arena)
            adopted = solve(SPEC, backend="vectorized")
            stats = kernel_cache_stats()
            assert stats["arena_hits"] > 0
            assert stats["local_compiles"] == 0
            assert adopted.fingerprint() == baseline.fingerprint()
        finally:
            arena_mod.deactivate()
            arena.destroy()

    def test_attacher_exit_does_not_unlink_the_segment(self):
        arena = TrajectoryArena.create(slots=8, data_bytes=1 << 16)
        try:
            child = _run_child(_CHILD_ATTACH_PUBLISH, ARENA_NAME=arena.name)
            assert child["published"]
            # The child exited; its resource tracker must not have torn
            # the segment down under us, and its publish must be visible.
            assert arena.get(cache_digest("two-proc"), 0) == (None, True, (0.25, 0.5))
            reattached = TrajectoryArena.attach(arena.name)
            reattached.close()
        finally:
            arena.destroy()

    def test_env_attach_failure_falls_back_to_private_cache(self, monkeypatch):
        monkeypatch.setenv(arena_mod.ARENA_ENV, "repro-arena-does-not-exist")
        arena_mod.reset_env_attach()
        assert arena_mod.active_arena() is None
        result = solve(SPEC, backend="vectorized")
        stats = kernel_cache_stats()
        assert not stats["arena_attached"]
        assert result.fingerprint() == solve(SPEC, backend="vectorized").fingerprint()


class TestLifecycle:
    def test_destroy_unlinks_and_attach_afterwards_fails(self):
        arena = TrajectoryArena.create(slots=4, data_bytes=1 << 16)
        name = arena.name
        arena.destroy()
        with pytest.raises(ArenaError):
            TrajectoryArena.attach(name)
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))

    def test_destroy_is_idempotent(self):
        arena = TrajectoryArena.create(slots=4, data_bytes=1 << 16)
        arena.destroy()
        arena.destroy()

    def test_non_owner_destroy_never_unlinks(self):
        arena = TrajectoryArena.create(slots=4, data_bytes=1 << 16)
        try:
            attached = TrajectoryArena.attach(arena.name)
            attached.destroy()  # close() only: not the owner
            # The creator's mapping still works end to end.
            assert arena.publish_final(cache_digest(("owner",)), 0, None)
            reattached = TrajectoryArena.attach(arena.name)
            reattached.close()
        finally:
            arena.destroy()

    def test_ensure_process_arena_reuses_the_active_arena(self):
        arena = TrajectoryArena.create(slots=4, data_bytes=1 << 16)
        arena_mod.activate(arena)
        try:
            assert arena_mod.ensure_process_arena() is arena
        finally:
            arena_mod.deactivate()
            arena.destroy()
