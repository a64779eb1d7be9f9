"""Spans around calls into each layer, and their self-time arithmetic.

A traced server process installs :class:`SpanRecorder` wrappers around
the public functions listed in :data:`TARGETS` (see
``site/sitecustomize.py``).  Every wrapped call appends one span --
name, start, end, thread, parent span, request id and a work count --
to an in-memory list, and the list is written to
``<PERFBENCH_TRACE_DIR>/spans-<pid>.json`` when the process exits.
Timestamps come from ``time.monotonic_ns`` (``CLOCK_MONOTONIC``), so
spans of different processes on one host share a time axis.

A module-level function is replaced at every binding: ``from x import
f`` copies ``f`` into the importing module, so patching only the
defining module would miss calls made through the copy (for example
``api/vectorized.py`` calling ``simulate_search_batch``).
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Iterable, Optional

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# Span record layout (a list, so the wrapper can fill in the end time).
NAME, START, END, THREAD, PARENT, RID, COUNT = range(7)


def _sized(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _request_id(data: Any) -> Any:
    return data.get("id") if isinstance(data, dict) else None


#: ``(module, attribute path, span name, request id of (args),
#: count of (args, result))``.  The attribute path names a function of
#: the module, or ``Class.method``.  Args exclude ``self`` for methods.
TARGETS: list[tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("repro.api.spec", "ProblemSpec.canonical_hash", "spec.hash", None, None),
    ("repro.api.spec", "spec_from_dict", "spec.decode", None, None),
    ("repro.exec.plan", "Planner.plan", "plan.plan", None, lambda a, r: _sized(a[0])),
    (
        "repro.service.aio",
        "AsyncReproServer.answer_fast",
        "tier.answer_fast",
        lambda a: _request_id(a[0]),
        lambda a, r: int(r is not None),
    ),
    (
        "repro.motion.compiled",
        "SegmentStreamCompiler.next_chunk",
        "compile.next_chunk",
        None,
        lambda a, r: len(r) if r is not None else 0,
    ),
    (
        "repro.simulation.kernel",
        "simulate_search_batch",
        "kernel.search_batch",
        None,
        lambda a, r: _sized(a[1]),
    ),
    ("repro.simulation.kernel", "simulate_robot_pair_kernel", "kernel.pair", None, None),
    ("repro.api.result", "SolveResult.to_dict", "envelope.to_dict", None, None),
    (
        "repro.experiments.manifest",
        "fingerprint_digest",
        "envelope.digest",
        None,
        lambda a, r: _sized(a[0]),
    ),
    ("repro.api.store", "ResultStore.put", "store.put", None, None),
    ("repro.api.store", "ResultStore.flush", "store.flush", None, lambda a, r: int(r is not None)),
    ("repro.api.store", "ResultStore.get_many", "store.get_many", None, lambda a, r: _sized(a[1])),
    ("repro.service.protocol", "encode_response", "codec.encode", None, None),
    ("repro.service.frames", "encode_payload", "codec.encode", None, None),
    ("repro.service.protocol", "decode_request", "codec.decode", None, None),
    ("repro.service.frames", "decode_payload", "codec.decode", None, None),
    (
        "repro.service.protocol",
        "handle_request",
        "transport.handle_request",
        lambda a: _request_id(a[1]),
        None,
    ),
    (
        "repro.exec.plan",
        "partition_specs",
        "router.partition",
        None,
        lambda a, r: _sized(a[0]),
    ),
    ("repro.cluster.worker", "ClusterSupervisor.start", "fleet.start", None, None),
    ("repro.cluster.worker", "ClusterSupervisor.merge_stores", "fleet.merge", None, None),
    (
        "repro.service.aio",
        "AsyncReproServer.subscribe_pump",
        "worker.subscribe_pump",
        lambda a: a[0][4],
        None,
    ),
]


class SpanRecorder:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[Any]] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        func: Callable,
        is_method: bool,
        rid_of: Optional[Callable] = None,
        count_of: Optional[Callable] = None,
    ) -> Callable:
        """``func`` recording one span per call."""
        name_id = self._name_id(name)
        spans = self.spans
        local = self._local
        clock = time.monotonic_ns
        get_ident = threading.get_ident
        skip = 1 if is_method else 0

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rid = rid_of(args[skip:]) if rid_of is not None else None
            span = [name_id, 0, 0, get_ident(), stack[-1] if stack else None, rid, 0]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count_of is not None:
                span[COUNT] = count_of(args[skip:], result)
            return result

        return traced

    def install(self, targets: Iterable[tuple] = TARGETS) -> None:
        """Wrap every target at every binding in the loaded ``repro`` modules."""
        for module_name, path, name, rid_of, count_of in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                wrapper = self.wrap(name, original, True, rid_of, count_of)
                self._replace(owner, attribute, original, wrapper)
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original, False, rid_of, count_of)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "repro" and not loaded_name.startswith("repro."):
                    continue
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, attribute, original, wrapper)

    def _replace(self, owner: Any, attribute: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attribute, wrapper)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original back (used by the tests)."""
        while self._restore:
            self._restore.pop()()

    def dump(self) -> dict[str, Any]:
        """The spans as a JSON-safe document, parents as list indices."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = []
        for span in list(self.spans):
            row = list(span)
            row[PARENT] = index.get(id(span[PARENT]), -1)
            rows.append(row)
        return {"pid": os.getpid(), "argv": sys.argv, "names": self.names, "spans": rows}

    def write_at_exit(self, directory: str) -> None:
        def write() -> None:
            path = os.path.join(directory, f"spans-{os.getpid()}.json")
            with open(path + ".tmp", "w") as handle:
                json.dump(self.dump(), handle, separators=(",", ":"))
            os.replace(path + ".tmp", path)

        atexit.register(write)


# -- analysis ------------------------------------------------------------------


class SpanTable:
    """Spans of one process, with each span's self time."""

    def __init__(self, document: dict[str, Any]) -> None:
        self.names = document["names"]
        self.spans = document["spans"]
        self.self_ns = self_times(self.spans)

    def named(self, name: str) -> list[int]:
        if name not in self.names:
            return []
        name_id = self.names.index(name)
        return [i for i, span in enumerate(self.spans) if span[NAME] == name_id]


def self_times(spans: list[list[Any]]) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    A child is a span whose parent index points at the span and which ran
    on the same thread; children on one thread never overlap, so their
    durations add up to the covered part.  A span of another thread that
    merely overlaps in time is not subtracted.
    """
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0 and spans[parent][THREAD] == span[THREAD]:
            result[parent] -= span[END] - span[START]
    return result


def load_tables(directory: str) -> list[SpanTable]:
    tables = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                tables.append(SpanTable(json.load(handle)))
    return tables


class LayerTotals:
    """Per-name call counts, work counts and self times of spans in a window."""

    def __init__(self, tables: list[SpanTable], start_ns: int, end_ns: int) -> None:
        self.calls: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        for table in tables:
            for i, span in enumerate(table.spans):
                if not start_ns <= span[START] <= end_ns:
                    continue
                name = table.names[span[NAME]]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.work[name] = self.work.get(name, 0) + span[COUNT]
                self.self_ns[name] = self.self_ns.get(name, 0) + table.self_ns[i]

    def per_call_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns.get(name, 0) / calls / 1e3 if calls else 0.0
