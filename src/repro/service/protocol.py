"""The JSON-Lines request/response protocol of the serving tier.

One request per line, one response per line.  The same functions back
the TCP daemon (:mod:`repro.service.aio`), the cluster front
(:mod:`repro.cluster.router`) and the CLI's in-process ``repro solve
--stdin-jsonl``, so the wire format is defined exactly once.

Requests (one JSON object per line)::

    {"op": "solve", "spec": {...}, "backend": "auto", "id": 7}
    {...bare spec object with a "kind" field...}      # shorthand solve
    {"op": "health"}
    {"op": "metrics"}
    {"op": "hello", "format": "binary"}                # upgrade offer
    {"op": "shutdown"}                                 # daemon only

Responses always carry ``ok`` and echo any request ``id``::

    {"ok": true,  "op": "solve", "result": {envelope},
     "served_by": "solve|cache|store|coalesced", "latency_ms": 1.93}
    {"ok": true,  "op": "health",  "health": {...}}
    {"ok": true,  "op": "metrics", "metrics": {...}}
    {"ok": false, "op": "...", "error": "...", "error_type": "..."}

A malformed line never kills a connection: it answers ``ok: false``
and the stream continues.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..api.result import EncodedEnvelope, SolveResult
from ..api.spec import canonical_dumps
from ..errors import ReproError
from .service import SolverService

__all__ = [
    "Fragment",
    "check_completion",
    "completion_record",
    "decode_completion",
    "decode_relayed",
    "decode_request",
    "encode_response",
    "error_response",
    "rejected_completion",
    "result_fragment",
    "restamp_completion",
    "solve_response",
    "handle_request",
    "handle_line",
    "hello_response",
    "normalize_request",
    "parse_subscribe",
    "parse_sweep",
    "subscribe_ack",
    "subscribe_summary",
    "sweep_ack",
    "sweep_partial",
    "sweep_summary",
    "CLUSTER_STATUS_OP",
    "COMPLETION_OP",
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "FORMATS",
    "HELLO_OP",
    "PARTIAL_OP",
    "SHUTDOWN_OP",
    "SUBSCRIBE_OP",
    "SUMMARY_OP",
    "SWEEP_OP",
    "SWEEP_MODES",
]

#: The daemon-level verb; :func:`handle_request` answers it but leaves
#: actually stopping the server to the transport layer.
SHUTDOWN_OP = "shutdown"

#: The wire-format negotiation verb and the formats it can answer: a
#: confirmed ``binary`` switches the rest of the connection to the
#: length-prefixed frames of :mod:`repro.service.frames`.
HELLO_OP = "hello"
FORMAT_JSON = "json"
FORMAT_BINARY = "binary"
FORMATS = (FORMAT_JSON, FORMAT_BINARY)

#: Router-only verb: one document with the shard table, health and
#: restart counters (the ``repro cluster status`` CLI reads it).  Only
#: the cluster front answers it; a bare worker daemon rejects it like
#: any unknown verb.
CLUSTER_STATUS_OP = "cluster-status"

#: The streamed-sweep verb: one request carrying a whole spec suite,
#: answered with an ack, then one ``completion`` record per unique key
#: in completion order, then one ``summary`` record.  Served by the
#: daemon and the cluster front over one connection; the in-process
#: ``--stdin-jsonl`` path (one response per request) refuses it.
SUBSCRIBE_OP = "subscribe"

#: The partitioned-sweep verb: like ``subscribe``, one request carrying
#: a whole spec suite -- but executed as **one** local batch plan (all
#: five tiers active, kernel batch included) instead of per-spec routing.
#: Against a worker the suite *is* the shard's partition; against the
#: cluster front the router partitions the suite across shards by
#: routing key and ships one sweep per worker.  ``mode`` selects the
#: reply shape: ``stream`` (per-spec completion records, then a summary
#: with the true ``fingerprint_digest``) or ``fold`` (one ``partial``
#: record carrying merged per-``(kind, backend)`` aggregates plus
#: per-result blob hashes, then a summary with the ``fold_digest``).
SWEEP_OP = "sweep"

#: Reply modes a sweep request may ask for.
SWEEP_MODES = ("stream", "fold")

#: ``op`` of each streamed per-spec record of a subscription.
COMPLETION_OP = "completion"

#: ``op`` of a fold-mode aggregate record (one per worker sweep; the
#: cluster front merges them and forwards exactly one to the client).
PARTIAL_OP = "partial"

#: ``op`` of the terminating record of a subscription.
SUMMARY_OP = "summary"


def error_response(
    op: str, error: BaseException, request_id: Any = None
) -> dict[str, Any]:
    """The wire shape of a failed request -- defined exactly once."""
    response: dict[str, Any] = {
        "ok": False,
        "op": op,
        "error": str(error),
        "error_type": type(error).__name__,
    }
    if request_id is not None:
        response["id"] = request_id
    return response


# Backwards-compatible alias for the pre-cluster private name.
_error_response = error_response


def solve_response(
    result: Any, served_by: str, latency: float, request_id: Any = None
) -> dict[str, Any]:
    """The wire shape of an answered solve -- defined exactly once.

    ``result`` is the envelope, as a :class:`Fragment` (see
    :func:`result_fragment`) or a dict, ``latency`` seconds from arrival
    to answer.
    """
    response: dict[str, Any] = {
        "ok": True,
        "op": "solve",
        "result": result,
        "served_by": served_by,
        "latency_ms": round(latency * 1e3, 3),
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def decode_request(line: str) -> tuple[Optional[dict[str, Any]], Optional[dict[str, Any]]]:
    """Decode one request line into an object: ``(data, error_response)``.

    Exactly one of the two is non-None; every transport (the daemon,
    the shard router, ``--stdin-jsonl``) shares this decoding so
    malformed-line behavior cannot drift between them.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as error:
        return None, error_response("?", ReproError(f"invalid request JSON: {error}"))
    if not isinstance(data, dict):
        return None, error_response(
            "?", ReproError(f"request must be a JSON object, got {type(data).__name__}")
        )
    return data, None


def normalize_request(data: dict[str, Any]) -> tuple[Any, dict[str, Any], Any]:
    """Resolve ``(op, data, request_id)``, applying the bare-spec shorthand.

    A bare spec may carry an ``id`` like any other request; it belongs
    to the envelope, not the spec, so it is lifted out before the spec
    is validated (a spec with an ``id`` field would be rejected as an
    unknown field).
    """
    request_id = data.get("id")
    op = data.get("op")
    if op is None and "kind" in data:
        op = "solve"
        spec = {key: value for key, value in data.items() if key != "id"}
        data = {"spec": spec, "id": request_id}
    return op, data, request_id


def hello_response(data: dict[str, Any], request_id: Any) -> dict[str, Any]:
    """Answer a wire-format negotiation; raises for an unknown format.

    The response confirms the format the **rest of this connection**
    will speak; the transport layer watches for a confirmed ``binary``
    and switches both directions after writing the (JSON) answer.
    """
    requested = data.get("format", FORMAT_JSON)
    if requested not in FORMATS:
        raise ReproError(
            f"unknown wire format {requested!r}; supported: {', '.join(FORMATS)}"
        )
    response: dict[str, Any] = {
        "ok": True,
        "op": HELLO_OP,
        "format": requested,
        "formats": list(FORMATS),
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def handle_request(
    service: SolverService, data: Any, parsed: Optional[tuple[Any, str]] = None
) -> dict[str, Any]:
    """Answer one decoded request object; never raises.

    ``parsed`` is a solve request's spec and canonical hash when the
    caller already decoded and hashed them (the daemon's event loop
    does), so neither happens twice.  A solve answer's ``result`` is a
    :class:`Fragment`: :func:`encode_response` splices its text, and
    its ``value`` is the envelope dict.
    """
    if not isinstance(data, dict):
        return _error_response(
            "?", ReproError(f"request must be a JSON object, got {type(data).__name__}")
        )
    op, data, request_id = normalize_request(data)
    try:
        if op == "solve":
            return _solve_response(service, data, request_id, parsed)
        if op == "health":
            return {"ok": True, "op": "health", "health": service.health()}
        if op == "metrics":
            return {"ok": True, "op": "metrics", "metrics": service.metrics_snapshot()}
        if op == HELLO_OP:
            return hello_response(data, request_id)
        if op == SHUTDOWN_OP:
            return {"ok": True, "op": SHUTDOWN_OP, "stopping": True}
        if op in (SUBSCRIBE_OP, SWEEP_OP):
            raise ReproError(
                f"{op} streams results over one connection; send it to a "
                "`repro serve` daemon"
            )
        raise ReproError(
            f"unknown op {op!r}; expected solve, health, metrics, "
            f"{HELLO_OP} or {SHUTDOWN_OP}"
        )
    except ReproError as error:
        return _error_response(str(op), error, request_id)
    except Exception as error:  # noqa: BLE001 - a request must never kill the stream
        return _error_response(str(op), error, request_id)


def _solve_response(
    service: SolverService,
    data: dict[str, Any],
    request_id: Any,
    parsed: Optional[tuple[Any, str]] = None,
) -> dict[str, Any]:
    from ..api.spec import spec_from_dict

    spec_data = data.get("spec")
    if not isinstance(spec_data, dict):
        raise ReproError('solve request needs a "spec" object')
    backend = data.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ReproError('"backend" must be a string backend name')
    spec, spec_hash = parsed if parsed is not None else (spec_from_dict(spec_data), None)
    served = service.request(spec, backend=backend, spec_hash=spec_hash)
    return solve_response(
        result_fragment(served.result, served.encoded),
        served.source,
        served.latency,
        request_id,
    )


def handle_line(service: SolverService, line: str) -> dict[str, Any]:
    """Decode one request line and answer it; never raises."""
    data, decode_error = decode_request(line)
    if decode_error is not None:
        return decode_error
    return handle_request(service, data)


class Fragment:
    """A pre-encoded JSON value that :func:`encode_response` splices verbatim.

    ``text`` is the value as :func:`encode_response` encoded it (sorted
    keys, compact separators), so a line spliced from it is
    byte-identical to encoding ``value``, its decoded form, afresh.
    Binary frames carry the same line, so one fragment serves both
    transports.
    """

    __slots__ = ("text", "value")

    def __init__(self, text: str, value: Any) -> None:
        self.text = text
        self.value = value


def result_fragment(
    result: SolveResult, encoded: Optional[EncodedEnvelope] = None
) -> Fragment:
    """A solve answer's ``result`` member: the envelope, encoded once.

    ``encoded`` is the encoding the run made when it filed a fresh
    result with the store; without one the envelope is built and
    encoded here.
    """
    if encoded is None:
        envelope = result.to_dict()
        return Fragment(canonical_dumps(envelope), envelope)
    return Fragment(encoded.text, encoded.envelope)


def encode_response(response: dict[str, Any]) -> str:
    """One response as its wire line (no trailing newline).

    Top-level :class:`Fragment` values are spliced as their text between
    the encoded runs of the other members, in sorted key order, so the
    line is the same as encoding their decoded values.
    """
    if Fragment not in map(type, response.values()):
        return canonical_dumps(response)
    members: list[str] = []
    run: dict[str, Any] = {}
    for key in sorted(response):
        value = response[key]
        if type(value) is Fragment:
            if run:
                members.append(canonical_dumps(run)[1:-1])
                run = {}
            members.append(f"{canonical_dumps(key)}:{value.text}")
        else:
            run[key] = value
    if run:
        members.append(canonical_dumps(run)[1:-1])
    return "{" + ",".join(members) + "}"


# -- the subscribe stream ------------------------------------------------------
#
# Every record shape of a subscription is built here, so the daemon,
# the cluster front and the client all agree on the wire format (JSON
# lines and binary frames carry the same lines).


def _parse_spec_suite(data: dict[str, Any], verb: str) -> tuple[list[Any], Optional[str]]:
    """Shared suite validation for subscribe and sweep requests."""
    from ..api.spec import spec_from_dict

    specs_data = data.get("specs")
    if not isinstance(specs_data, list) or not specs_data:
        raise ReproError(f'{verb} request needs a non-empty "specs" list')
    backend = data.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ReproError('"backend" must be a string backend name')
    specs = []
    for index, item in enumerate(specs_data):
        if not isinstance(item, dict):
            raise ReproError(
                f"specs[{index}] must be a spec object, got {type(item).__name__}"
            )
        try:
            specs.append(spec_from_dict(item))
        except ReproError as error:
            raise ReproError(f"specs[{index}]: {error}") from error
    return specs, backend


def parse_subscribe(data: dict[str, Any]) -> tuple[list[Any], Optional[str]]:
    """Validate a subscribe request: ``(specs, backend_override)``.

    Raises :class:`~repro.errors.ReproError` naming the offending entry,
    so an invalid suite is refused with a single ``ok: false`` response
    before any stream starts.
    """
    return _parse_spec_suite(data, "subscribe")


def parse_sweep(data: dict[str, Any]) -> tuple[list[Any], Optional[str], str]:
    """Validate a sweep request: ``(specs, backend_override, mode)``."""
    specs, backend = _parse_spec_suite(data, "sweep")
    mode = data.get("mode", "stream")
    if mode not in SWEEP_MODES:
        raise ReproError(
            f"unknown sweep mode {mode!r}; expected one of: {', '.join(SWEEP_MODES)}"
        )
    return specs, backend, mode


def subscribe_ack(
    request_id: Any,
    total: int,
    unique: int,
    backend: str,
    *,
    fanout: Optional[int] = None,
) -> dict[str, Any]:
    """The first response of an accepted subscription.

    ``fanout`` reports the number of concurrent partition streams (1 on
    a single daemon; on the cluster front, the shards that got specs).
    """
    ack: dict[str, Any] = {
        "ok": True,
        "op": SUBSCRIBE_OP,
        "total": total,
        "unique": unique,
        "backend": backend,
    }
    if fanout is not None:
        ack["fanout"] = fanout
    if request_id is not None:
        ack["id"] = request_id
    return ack


def sweep_ack(
    request_id: Any,
    total: int,
    unique: int,
    backend: str,
    mode: str,
    fanout: int,
    partitions: Optional[list[dict[str, Any]]] = None,
) -> dict[str, Any]:
    """The first response of an accepted sweep.

    ``fanout`` is the number of concurrent partition streams; when the
    cluster front answers, ``partitions`` lists each shard's slice
    (``{"worker": id, "specs": n}``) so skew is visible before a single
    result arrives.
    """
    ack: dict[str, Any] = {
        "ok": True,
        "op": SWEEP_OP,
        "total": total,
        "unique": unique,
        "backend": backend,
        "mode": mode,
        "fanout": fanout,
    }
    if partitions is not None:
        ack["partitions"] = partitions
    if request_id is not None:
        ack["id"] = request_id
    return ack


def completion_record(
    completion: Any, request_id: Any, seq: int, encoded: Optional[EncodedEnvelope]
) -> dict[str, Any]:
    """One streamed per-spec record, tagged with key, source tier and seq.

    ``encoded`` is the result's envelope encoding (None for a failed
    spec); the ``result`` member is a :class:`Fragment` of its text.
    """
    backend, spec_hash = completion.key
    record: dict[str, Any] = {
        "ok": completion.ok,
        "op": COMPLETION_OP,
        "seq": seq,
        "key": {"backend": backend, "spec_hash": spec_hash},
        "served_by": completion.source,
        "latency_ms": round(completion.latency * 1e3, 3),
    }
    if encoded is not None:
        record["result"] = Fragment(encoded.text, encoded.envelope)
    if completion.failure is not None:
        record["error"] = completion.failure.message
        record["error_type"] = completion.failure.error_type
    if request_id is not None:
        record["id"] = request_id
    return record


# -- relaying a worker's records -----------------------------------------------
#
# The cluster front forwards each worker record with only ``seq``, ``id``
# and ``shard`` rewritten, and a routed solve answer with only its ``id``.
# The ``result`` envelope travels as the worker's own bytes:
# :func:`encode_response` sorts ``result`` directly before ``seq`` in a
# completion record and directly before ``served_by`` in a solve answer.

_RESULT_MEMBER = b'"result":'
_SEQ_MEMBER = b',"seq":'
_SERVED_BY_MEMBER = b',"served_by":'


def decode_relayed(line: bytes, next_member: bytes = _SERVED_BY_MEMBER) -> Any:
    """Decode one worker line, keeping ``result`` pre-encoded.

    ``next_member`` is the member that follows ``result`` in the line
    (a solve answer's ``served_by`` by default).  The ``result`` span
    becomes a :class:`Fragment` (decoded once, for validation); the rest
    of the line is decoded around it.  A line that does not split that
    way decodes as plain JSON, and the relay then re-encodes its result.
    Raises ``ValueError`` for a line that is not JSON.
    """
    start = line.find(_RESULT_MEMBER)
    end = line.rfind(next_member)
    if 0 < start < end:
        try:
            text = line[start + len(_RESULT_MEMBER) : end].decode("utf-8")
            value = json.loads(text)
            head = json.loads(line[:start] + _RESULT_MEMBER + b"0" + line[end:])
        except ValueError:
            pass
        else:
            if isinstance(head, dict):
                head["result"] = Fragment(text, value)
                return head
    return json.loads(line)


def decode_completion(line: bytes) -> Any:
    """:func:`decode_relayed` for one streamed completion record."""
    return decode_relayed(line, _SEQ_MEMBER)


def check_completion(record: dict[str, Any], spec_hash: str) -> Optional[dict[str, Any]]:
    """Validate one worker completion record of ``spec_hash``.

    Returns the record's envelope (a dict; None for a failed record)
    and raises :class:`~repro.errors.ReproError` for a malformed record:
    ``ok`` not a bool, ``served_by`` not a string, a failed record
    without an ``error`` string, or an ok record whose ``result`` fails
    :func:`~repro.api.result.check_envelope`.
    """
    from ..api.result import check_envelope

    ok = record.get("ok")
    if type(ok) is not bool:
        raise ReproError(f"completion ok flag must be a bool, got {ok!r}")
    if not isinstance(record.get("served_by"), str):
        raise ReproError("completion served_by must be a string")
    if not ok:
        if not isinstance(record.get("error"), str):
            raise ReproError("a failed completion must carry an error string")
        return None
    envelope = record.get("result")
    if type(envelope) is Fragment:
        envelope = envelope.value
    check_envelope(envelope, spec_hash)
    return envelope


def rejected_completion(record: dict[str, Any], error: BaseException) -> dict[str, Any]:
    """The failed record that replaces a worker record failing validation."""
    served_by = record.get("served_by")
    latency = record.get("latency_ms")
    return {
        "ok": False,
        "op": COMPLETION_OP,
        "key": record.get("key"),
        "served_by": served_by if isinstance(served_by, str) else "?",
        "latency_ms": latency if type(latency) in (int, float) else 0.0,
        "error": str(error),
        "error_type": type(error).__name__,
    }


def restamp_completion(
    record: dict[str, Any], seq: int, request_id: Any, shard: Any = None
) -> None:
    """Rewrite a relayed record's ``seq``, ``id`` and ``shard`` in place.

    ``shard`` None leaves the record without one (the single-daemon
    shape ``subscribe`` keeps).
    """
    record["seq"] = seq
    record.pop("id", None)
    if request_id is not None:
        record["id"] = request_id
    if shard is not None:
        record["shard"] = shard


def subscribe_summary(
    request_id: Any,
    records: int,
    errors: int,
    total: int,
    unique: int,
    fingerprint_digest: str,
    sources: dict[str, int],
    wall_time_ms: float,
) -> dict[str, Any]:
    """The terminating record: counts plus the order-independent digest."""
    summary: dict[str, Any] = {
        "ok": True,
        "op": SUMMARY_OP,
        "records": records,
        "errors": errors,
        "total": total,
        "unique": unique,
        "fingerprint_digest": fingerprint_digest,
        "sources": dict(sorted(sources.items())),
        "wall_time_ms": round(wall_time_ms, 3),
    }
    if request_id is not None:
        summary["id"] = request_id
    return summary


def sweep_partial(
    request_id: Any,
    fold: dict[str, Any],
    blob_hashes: Optional[list[str]],
    sources: dict[str, int],
    records: int,
    errors: int,
    failures: Optional[list[dict[str, Any]]] = None,
) -> dict[str, Any]:
    """One fold-mode aggregate record.

    ``fold`` is an ``EnvelopeAggregate.to_wire()`` document;
    ``blob_hashes`` carries one 64-hex-char fingerprint-blob hash per
    fresh result (~10× smaller than the envelopes they stand in for) so
    the coordinator can compute the set-equality ``fold_digest`` without
    ever seeing an envelope.  The cluster front passes ``None`` for the
    record it forwards to the client -- the key is omitted there, and
    the digest in the summary is the client-facing proof.
    """
    record: dict[str, Any] = {
        "ok": True,
        "op": PARTIAL_OP,
        "records": records,
        "errors": errors,
        "sources": dict(sorted(sources.items())),
        "fold": fold,
    }
    if blob_hashes is not None:
        record["blob_hashes"] = list(blob_hashes)
    if failures:
        record["failures"] = list(failures)
    if request_id is not None:
        record["id"] = request_id
    return record


def sweep_summary(
    request_id: Any,
    records: int,
    errors: int,
    total: int,
    unique: int,
    mode: str,
    tiers: dict[str, int],
    wall_time_ms: float,
    fingerprint_digest: Optional[str] = None,
    fold_digest: Optional[str] = None,
    partitions: Optional[list[dict[str, Any]]] = None,
    repartitioned: Optional[int] = None,
) -> dict[str, Any]:
    """The terminating record of a sweep.

    ``tiers`` counts completions per execution tier (``cache`` /
    ``store`` / ``batch`` / ``pool`` / ``serial``); when the cluster
    front answers, they are fleet-wide sums, so the batch-tier claim is
    observable on the wire.  Exactly one of ``fingerprint_digest``
    (stream mode -- bit-identical to a local ``BatchRunner.run``) and
    ``fold_digest`` (fold mode) is set.  ``partitions`` reports final
    per-shard accounting and ``repartitioned`` the number of specs moved
    to surviving workers after a mid-sweep death.
    """
    tiers = dict(sorted(tiers.items()))
    summary: dict[str, Any] = {
        "ok": True,
        "op": SUMMARY_OP,
        "records": records,
        "errors": errors,
        "total": total,
        "unique": unique,
        "mode": mode,
        "tiers": tiers,
        "sources": tiers,
        "wall_time_ms": round(wall_time_ms, 3),
    }
    if fingerprint_digest is not None:
        summary["fingerprint_digest"] = fingerprint_digest
    if fold_digest is not None:
        summary["fold_digest"] = fold_digest
    if partitions is not None:
        summary["partitions"] = partitions
    if repartitioned is not None:
        summary["repartitioned"] = repartitioned
    if request_id is not None:
        summary["id"] = request_id
    return summary
