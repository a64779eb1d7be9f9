"""The fingerprint blob has one builder, shared by the object and dict paths.

:func:`repro.experiments.manifest.envelope_blob` builds the blob from an
envelope dict; the object path (``fingerprint_digest``,
``fingerprint_blob_hash``, ``fold_digest``) goes through it as well.
Pinned here against the definition -- ``json.dumps(result.fingerprint(),
sort_keys=True, separators=(",", ":"), allow_nan=False)`` -- for every
envelope kind, live and store-replayed, straight from ``to_dict()`` and
after a JSON round trip (the router builds blobs from decoded records).

A worker takes its blobs from :class:`repro.api.result.EncodedEnvelope`,
which splices the same bytes from the envelope's one encoding and also
gives the wire text and, around that text, the store line (a worker
encodes each fresh result once for all three); all three are pinned
against their definitions too.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    GatheringMember,
    GatheringProblem,
    RendezvousProblem,
    ResultStore,
    SearchProblem,
    solve,
)
from repro.api.batch import BatchRunner
from repro.api.result import EncodedEnvelope, check_envelope
from repro.api.store import _record_line
from repro.experiments.manifest import (
    blob_hash,
    digest_blob_hashes,
    digest_blobs,
    envelope_blob,
    fingerprint_blob_hash,
    fingerprint_digest,
    fold_digest,
)
from repro.faults import FaultModel
from repro.workloads import spec_suite


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reference_blob(result) -> str:
    return _canonical(result.fingerprint())


def _reference_line(backend: str, envelope: dict) -> str:
    """A store record line by its definition: the canonical record object."""
    spec_hash = envelope["provenance"]["spec_hash"]
    record = {"schema_version": 1, "backend": backend, "spec_hash": spec_hash, "result": envelope}
    return _canonical(record)


def _explicit_results() -> dict[str, list]:
    """One or more results of every envelope kind, named."""
    search = SearchProblem(distance=1.5, visibility=0.3, bearing=0.8)
    feasible = RendezvousProblem(distance=1.4, visibility=0.35, speed=0.6)
    infeasible = RendezvousProblem(distance=1.5, visibility=0.3)
    gathering = GatheringProblem(
        members=(GatheringMember(0.0, 0.0), GatheringMember(1.0, 0.5, speed=0.8)),
        visibility=0.4,
    )
    crash_stop = RendezvousProblem(
        distance=1.6,
        visibility=0.35,
        speed=0.7,
        fault_model=FaultModel(kind="crash-stop", robot="other", crash_time=1.0),
    )
    crash_recovery = SearchProblem(
        distance=1.5,
        visibility=0.3,
        bearing=0.8,
        fault_model=FaultModel(
            kind="crash-recovery", robot="reference", crash_time=2.0, recovery_delay=4.0
        ),
    )
    byzantine = RendezvousProblem(
        distance=1.6,
        visibility=0.35,
        bearing=0.9,
        speed=0.7,
        fault_model=FaultModel(kind="byzantine", robot="other", crash_time=2.0),
    )
    carlo = SearchProblem(
        distance=1.5,
        visibility=0.3,
        bearing=0.8,
        fault_model=FaultModel(
            kind="crash-recovery",
            robot="reference",
            crash_time=2.0,
            recovery_delay=4.0,
            trials=5,
            jitter=0.25,
        ),
    )
    results = {
        "search": [solve(search)],
        "rendezvous-feasible": [solve(feasible)],
        "rendezvous-infeasible": [solve(infeasible)],
        "gathering": [solve(gathering)],
        "analytic": [solve(search, backend="analytic"), solve(feasible, backend="analytic")],
        "crash-stop": [solve(crash_stop)],
        "crash-recovery": [solve(crash_recovery)],
        "byzantine": [solve(byzantine)],
        "montecarlo": [solve(carlo, backend="montecarlo"), solve(byzantine, backend="montecarlo")],
    }
    assert results["rendezvous-feasible"][0].feasible is True
    assert results["rendezvous-infeasible"][0].feasible is False
    assert results["analytic"][0].solved is None  # bound only
    return results


#: Small named suites: every kind the workloads ship (the large and xl
#: variants repeat these shapes).
_SUITES = (
    "asymmetric-clock",
    "baseline-comparison",
    "fault-byzantine",
    "fault-crash-sweep",
    "mirrored",
    "search-random",
    "search-sweep",
    "symmetric-clock",
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> list:
    """Live results of every kind, plus their store replays (from_store)."""
    live = [result for results in _explicit_results().values() for result in results]
    runner = BatchRunner(backend="auto")
    for name in _SUITES:
        results, _ = runner.run(spec_suite(name))
        live.extend(results)
    live.extend(BatchRunner(backend="analytic").run(spec_suite("search-sweep"))[0])
    store = ResultStore(tmp_path_factory.mktemp("blob-store"))
    for result in live:
        store.put(result.provenance.backend, result)
    store.flush()
    replayed = [
        store.get_by_hash(result.provenance.backend, result.provenance.spec_hash)
        for result in live
    ]
    assert all(result is not None and result.provenance.from_store for result in replayed)
    assert not any(result.provenance.from_store for result in live)
    return live + replayed


def test_corpus_covers_every_kind(corpus):
    kinds = {result.kind for result in corpus}
    assert {"search", "rendezvous", "gathering"} <= kinds
    faults = {
        result.spec.fault_model.kind
        for result in corpus
        if getattr(result.spec, "fault_model", None) is not None
    }
    assert {"crash-stop", "crash-recovery", "byzantine"} <= faults
    backends = {result.provenance.backend for result in corpus}
    assert {"analytic", "montecarlo"} <= backends


def test_dict_path_blob_equals_the_fingerprint_definition(corpus):
    mismatched = []
    for result in corpus:
        expected = _reference_blob(result)
        envelope = result.to_dict()
        decoded = json.loads(json.dumps(envelope))
        if envelope_blob(envelope) != expected or envelope_blob(decoded) != expected:
            mismatched.append(result.provenance.spec_hash)
        # The relay's validation accepts every genuine envelope.
        check_envelope(decoded, result.provenance.spec_hash)
    assert mismatched == []


def test_blob_builder_leaves_the_envelope_alone(corpus):
    envelope = corpus[0].to_dict()
    before = json.dumps(envelope, sort_keys=True)
    envelope_blob(envelope)
    assert json.dumps(envelope, sort_keys=True) == before


def test_object_path_digests_go_through_the_same_builder(corpus):
    blobs = [envelope_blob(json.loads(json.dumps(result.to_dict()))) for result in corpus]
    assert fingerprint_digest(corpus) == digest_blobs(blobs)
    assert [fingerprint_blob_hash(result) for result in corpus] == [
        blob_hash(blob) for blob in blobs
    ]
    assert fold_digest(corpus) == digest_blob_hashes(blob_hash(blob) for blob in blobs)


def test_the_encoder_gives_the_text_the_blob_and_the_store_line(corpus):
    mismatched = []
    for result in corpus:
        envelope = result.to_dict()
        backend = result.provenance.backend
        encoded = EncodedEnvelope(result)
        text = encoded.text
        blob = encoded.blob  # spliced around the runs the text encoded
        line = _record_line(backend, result.provenance.spec_hash, text)
        if (
            text != _canonical(envelope)
            or blob != _reference_blob(result)
            or line != _reference_line(backend, envelope)
        ):
            mismatched.append(result.provenance.spec_hash)
    assert mismatched == []


def test_a_replayed_result_is_stored_as_its_cold_envelope(corpus, tmp_path):
    """``from_store`` is spliced back to false: the store line of a
    replayed result is the one its cold solve wrote."""
    store = ResultStore(tmp_path, flush_every=10**6)
    replayed = [result for result in corpus if result.provenance.from_store]
    live = [result for result in corpus if not result.provenance.from_store]
    assert len(replayed) == len(live)
    for result in replayed:
        store.put(result.provenance.backend, EncodedEnvelope(result))
    segment = store.flush()
    expected = {
        _reference_line(result.provenance.backend, result.to_dict()) for result in live
    }
    assert set(segment.read_text(encoding="utf-8").splitlines()) == expected
