"""The router relays worker sweep records instead of rebuilding them.

Three contracts:

* **bytes** -- a relayed line is byte-identical to the line the router
  wrote when it decoded each worker record, restamped ``seq`` / ``id``
  / ``shard`` and re-encoded the whole record, for every record shape
  it forwards (ok and failed records, every ``id`` type, ``sweep``
  records with a ``shard`` stamp and ``subscribe`` records without);
* **validation** -- a worker record whose envelope is malformed never
  reaches the client as an ok record: it becomes a typed ``ok: false``
  record for its spec, counted in ``errors``, so the summary's
  ``records`` equals the completion lines delivered.  Driven by an
  in-process worker daemon that corrupts its first completion;
* **labels** -- a pump that dies answers with the request's own verb.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SearchProblem, SolveResult, solve
from repro.api.batch import BatchRunner
from repro.api.result import EncodedEnvelope
from repro.api.spec import canonical_dumps
from repro.cluster import AsyncShardRouter, ClusterSupervisor
from repro.cluster.router import _SweepState
from repro.exec.plan import Completion, SpecFailure
from repro.experiments.manifest import fingerprint_digest
from repro.faults import FaultModel
from repro.service import AsyncReproServer, ServiceClient, request_lines
from repro.service.protocol import (
    SUBSCRIBE_OP,
    SWEEP_OP,
    Fragment,
    completion_record,
    decode_completion,
    encode_response,
)

BACKEND = "analytic"


def _specs(count: int) -> list[SearchProblem]:
    return [SearchProblem(distance=1.0 + 0.05 * i, visibility=0.3) for i in range(count)]


# -- relayed bytes -------------------------------------------------------------


class _Bridge:
    def __init__(self) -> None:
        self.records: list[dict] = []

    def put(self, record: dict) -> bool:
        self.records.append(record)
        return True


class _Router:
    def _record_sweep(self, *args: object, **kwargs: object) -> None:
        pass


def _rebuilt_line(line: bytes, seq: int, request_id: object, shard: object) -> str:
    """The record as the router built it by decoding and re-encoding it."""
    record = dict(json.loads(line))
    record["seq"] = seq
    if shard is not None:
        record["shard"] = shard
    record.pop("id", None)
    if request_id is not None:
        record["id"] = request_id
    return encode_response(record)


def _worker_lines() -> list[tuple[str, bytes]]:
    """Worker completion lines of every shape: ok envelopes and a failure."""
    search = solve(SearchProblem(distance=1.5, visibility=0.3, bearing=0.8))
    faulted = solve(
        SearchProblem(
            distance=1.5,
            visibility=0.3,
            fault_model=FaultModel(
                kind="crash-recovery", robot="reference", crash_time=2.0, recovery_delay=4.0
            ),
        )
    )
    lines = []
    for result in (search, faulted):
        key = ("auto", result.provenance.spec_hash)
        completion = Completion(key, "batch", result=result, latency=0.001234)
        record = completion_record(completion, None, 3, EncodedEnvelope(result))
        lines.append((key[1], encode_response(record)))
    key = ("auto", "f" * 64)
    failure = SpecFailure(key, key[1], "InvalidParameterError", 'no "id" here, "seq":1')
    completion = Completion(key, "serial", failure=failure, latency=0.5)
    # A worker line that carries an id of its own: the relay drops it.
    lines.append((key[1], encode_response(completion_record(completion, "worker-id", 9, None))))
    return [(spec_hash, line.encode("utf-8")) for spec_hash, line in lines]


@pytest.mark.parametrize("op", [SWEEP_OP, SUBSCRIBE_OP])
@pytest.mark.parametrize("request_id", [7, "req-7", None, {"trace": [1, "a"], "n": None}])
def test_relayed_lines_match_the_rebuilt_record_byte_for_byte(op, request_id):
    bridge = _Bridge()
    state = _SweepState(_Router(), bridge, request_id, op)
    lines = _worker_lines()
    for spec_hash, line in lines:
        state.on_completion(1, decode_completion(line), spec_hash)
    assert len(bridge.records) == len(lines)
    shard = 1 if op == SWEEP_OP else None
    for seq, ((_, line), record) in enumerate(zip(lines, bridge.records)):
        relayed = encode_response(record)
        assert relayed == _rebuilt_line(line, seq, request_id, shard)
        if record["ok"]:
            # The envelope is the worker's own bytes, spliced verbatim.
            assert type(record["result"]) is Fragment
            assert record["result"].text.encode("utf-8") in line
    assert state.errors == 1 and len(state.blobs) == 2


def test_failed_records_sort_error_keys_before_the_id():
    """``error``/``error_type`` sort before ``id``: a relay that prepends
    the id instead of encoding in key order would reorder them."""
    bridge = _Bridge()
    state = _SweepState(_Router(), bridge, "req", SWEEP_OP)
    spec_hash, line = _worker_lines()[-1]
    state.on_completion(0, decode_completion(line), spec_hash)
    relayed = encode_response(bridge.records[0])
    assert relayed.index('"error"') < relayed.index('"error_type"') < relayed.index('"id"')
    assert relayed == _rebuilt_line(line, 0, "req", 0)


def test_a_line_that_does_not_split_still_relays_exactly():
    """A record whose keys are not in encoder order decodes as plain
    JSON; the relay then re-encodes it canonically."""
    result = solve(SearchProblem(distance=1.5, visibility=0.3))
    record = {
        "seq": 0,
        "result": result.to_dict(),
        "ok": True,
        "op": "completion",
        "key": {"backend": "auto", "spec_hash": result.provenance.spec_hash},
        "served_by": "batch",
        "latency_ms": 0.5,
    }
    line = json.dumps(record).encode("utf-8")  # unsorted, with spaces
    decoded = decode_completion(line)
    assert type(decoded["result"]) is dict
    bridge = _Bridge()
    state = _SweepState(_Router(), bridge, 3, SWEEP_OP)
    state.on_completion(0, decoded, result.provenance.spec_hash)
    assert encode_response(bridge.records[0]) == _rebuilt_line(line, 0, 3, 0)


# -- malformed worker records ----------------------------------------------------


class _CorruptingWorker(AsyncReproServer):
    """A worker daemon that corrupts the envelope of its first ok record.

    The record's ``result`` is a :class:`Fragment` of the envelope's
    encoding, so the corrupted value is re-encoded into the fragment:
    the corruption reaches the bytes the worker sends.
    """

    def __init__(self, corrupt, **kwargs) -> None:
        self._corrupt = corrupt
        super().__init__(**kwargs)

    def subscribe_pump(self, job, bridge) -> None:
        corrupt = self._corrupt
        pending = [True]

        class _Tap:
            def put(self, record):
                if pending and record.get("op") == "completion" and record.get("ok"):
                    pending.clear()
                    envelope = record["result"].value
                    corrupt(envelope)
                    record["result"] = Fragment(canonical_dumps(envelope), envelope)
                return bridge.put(record)

        super().subscribe_pump(job, _Tap())


def _other_spec(envelope: dict) -> None:
    envelope["spec"] = SearchProblem(distance=9.5, visibility=0.3).to_dict()


MALFORMATIONS = {
    "bad-schema-version": lambda envelope: envelope.__setitem__("schema_version", 99),
    "missing-key": lambda envelope: envelope.pop("spec"),
    "unknown-provenance-key": lambda envelope: envelope["provenance"].__setitem__(
        "colour", "red"
    ),
    "spec-not-the-routed-one": _other_spec,
}


@pytest.fixture
def corrupted_fleet(request):
    """A one-worker fleet whose worker corrupts its first completion."""
    worker = _CorruptingWorker(MALFORMATIONS[request.param], backend=BACKEND)
    worker.serve_background()
    supervisor = ClusterSupervisor(workers=1, backend=BACKEND)
    handle = supervisor.handles[0]
    handle.host, handle.port = worker.host, worker.port
    handle.generation = 1
    reported: list = []
    supervisor.ensure_alive = lambda handle, generation: reported.append(generation)
    router = AsyncShardRouter(supervisor, backend=BACKEND, route_timeout=10.0)
    router.serve_background()
    try:
        yield router, reported
    finally:
        router.stop()
        worker.stop()


@pytest.mark.parametrize("corrupted_fleet", sorted(MALFORMATIONS), indirect=True)
@pytest.mark.parametrize("verb", [SWEEP_OP, SUBSCRIBE_OP])
def test_a_malformed_envelope_becomes_a_typed_per_spec_error(corrupted_fleet, verb):
    router, reported = corrupted_fleet
    specs = _specs(12)
    expected, _ = BatchRunner(backend=BACKEND).run(specs)
    by_hash = {result.provenance.spec_hash: result for result in expected}
    with ServiceClient(router.host, router.port) as client:
        if verb == SWEEP_OP:
            stream = client.sweep(specs, backend=BACKEND, request_id="m")
        else:
            stream = client.subscribe(specs, backend=BACKEND, request_id="m")
        records = list(stream)
    summary = stream.summary
    # One line per spec, and the summary counts exactly those lines.
    assert len(records) == len(specs) == summary["records"]
    assert [record["seq"] for record in records] == list(range(len(specs)))
    assert {record["key"]["spec_hash"] for record in records} == set(by_hash)
    failed = [record for record in records if not record["ok"]]
    assert len(failed) == 1 and summary["errors"] == 1
    (bad,) = failed
    assert bad["error_type"] == "ClusterError"
    assert "worker 0 streamed a malformed record" in bad["error"]
    assert "result" not in bad
    # Every ok record carries the correct envelope.
    for record in records:
        if record["ok"]:
            result = SolveResult.from_dict(record["result"])
            assert result.fingerprint() == by_hash[record["key"]["spec_hash"]].fingerprint()
    good = [r for h, r in by_hash.items() if h != bad["key"]["spec_hash"]]
    assert summary["fingerprint_digest"] == fingerprint_digest(good)
    # The stream stayed in sync: no shard failure, nothing re-partitioned.
    assert reported == []
    if verb == SWEEP_OP:
        assert summary["repartitioned"] == 0


# -- pump error labels -----------------------------------------------------------


class _FailingPump(AsyncReproServer):
    def subscribe_pump(self, job, bridge) -> None:
        raise RuntimeError("pump exploded")


@pytest.mark.parametrize("verb", [SWEEP_OP, SUBSCRIBE_OP])
def test_a_failing_pump_answers_with_the_request_verb(verb):
    with _FailingPump(backend=BACKEND) as server:
        server.serve_background()
        request = {"op": verb, "specs": [spec.to_dict() for spec in _specs(2)], "id": 5}
        ack, error = (
            json.loads(line)
            for line in request_lines(server.host, server.port, [json.dumps(request)])
        )
    assert ack["ok"] and ack["op"] == verb
    assert error == {
        "ok": False,
        "op": verb,
        "error": "pump exploded",
        "error_type": "RuntimeError",
        "id": 5,
    }
