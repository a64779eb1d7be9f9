"""Worker-side ``sweep`` verb on a single daemon.

The cluster router drives exactly this wire contract against each
worker, so the single-daemon behaviour -- stream mode, fold mode and
the request validation -- is pinned here without booting a fleet.
"""

from __future__ import annotations

import pytest

from repro.analysis.streaming import fold_envelopes
from repro.api import SearchProblem
from repro.api.batch import BatchRunner
from repro.errors import ReproError
from repro.experiments.manifest import fingerprint_digest, fold_digest
from repro.service import AsyncReproServer, ServiceClient

BACKEND = "analytic"


def _specs(count: int) -> list[SearchProblem]:
    return [SearchProblem(distance=1.0 + 0.07 * i, visibility=0.3) for i in range(count)]


@pytest.fixture
def server():
    with AsyncReproServer(backend=BACKEND, max_inflight=16) as srv:
        srv.serve_background()
        yield srv
    assert srv.leaked_tasks == []


class TestSweepStream:
    def test_stream_mode_matches_batch_runner(self, server):
        specs = _specs(12)
        expected_results, _ = BatchRunner(backend=BACKEND).run(specs)
        with ServiceClient(server.host, server.port) as client:
            stream = client.sweep(specs, backend=BACKEND)
            records = list(stream)
        assert stream.ack["op"] == "sweep"
        assert stream.ack["mode"] == "stream"
        assert stream.ack["fanout"] == 1  # a lone daemon is its own partition
        assert stream.ack["unique"] == len(specs)
        assert [record["seq"] for record in records] == list(range(len(specs)))
        assert all(record["op"] == "completion" and record["ok"] for record in records)
        summary = stream.summary
        assert summary["mode"] == "stream"
        assert summary["errors"] == 0
        assert summary["fingerprint_digest"] == fingerprint_digest(expected_results)
        # The summary reports the execution tiers the worker actually used.
        assert sum(summary["tiers"].values()) == len(specs)

    def test_duplicate_specs_dedupe_like_the_planner(self, server):
        specs = _specs(5)
        with ServiceClient(server.host, server.port) as client:
            stream = client.sweep(specs + specs, backend=BACKEND)
            records = list(stream)
        assert stream.ack["total"] == 10
        assert stream.ack["unique"] == 5
        assert len(records) == 5


class TestSweepFold:
    def test_fold_mode_ships_tables_not_envelopes(self, server):
        specs = _specs(10)
        expected_results, _ = BatchRunner(backend=BACKEND).run(specs)
        with ServiceClient(server.host, server.port) as client:
            stream = client.sweep(specs, backend=BACKEND, mode="fold")
            records = list(stream)
        partials = [record for record in records if record["op"] == "partial"]
        completions = [record for record in records if record["op"] == "completion"]
        assert len(partials) == 1 and not completions
        partial = partials[0]
        local = fold_envelopes(result.to_dict() for result in expected_results)
        assert partial["fold"] == local.to_wire()
        assert partial["records"] == len(specs)
        assert partial["errors"] == 0
        assert len(partial["blob_hashes"]) == len(specs)
        summary = stream.summary
        assert summary["mode"] == "fold"
        assert summary["fold_digest"] == fold_digest(expected_results)
        assert "fingerprint_digest" not in summary


class TestSweepRefusals:
    def test_invalid_mode_is_refused_and_connection_survives(self, server):
        specs = _specs(2)
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(ReproError, match="mode"):
                client.sweep(specs, backend=BACKEND, mode="telepathy")
            # The refusal is a single ack; the connection stays usable.
            stream = client.sweep(specs, backend=BACKEND)
            assert len(list(stream)) == 2

    def test_empty_suite_is_refused(self, server):
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(ReproError, match="specs"):
                client.sweep([], backend=BACKEND)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"schema_version": 1, "kind": []}, "unknown spec kind"),
            ({"schema_version": 1, "kind": "search"}, "missing required field"),
            (
                {"schema_version": 1, "kind": "gathering", "visibility": 0.3,
                 "members": ["ab", "cd"]},
                "must be an object",
            ),
        ],
        ids=["kind-list", "missing-field", "string-members"],
    )
    def test_a_malformed_spec_is_a_typed_indexed_error(self, server, bad, message):
        good = _specs(1)[0].to_dict()
        with ServiceClient(server.host, server.port) as client:
            ack = client.request({"op": "sweep", "specs": [good, bad]})
            assert not ack["ok"]
            assert ack["error_type"] == "ReproError"
            assert ack["error"].startswith("specs[1]: ") and message in ack["error"]
            solved = client.request({"op": "solve", "spec": bad, "id": 4})
            assert not solved["ok"] and solved["id"] == 4
            assert solved["error_type"] == "InvalidParameterError"
            assert message in solved["error"]

