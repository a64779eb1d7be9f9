"""Tests for the facade's spec wire format: round-trips, hashing, validation."""

from __future__ import annotations

import json
import math
import re

import pytest

from repro.api import (
    SCHEMA_VERSION,
    GatheringMember,
    GatheringProblem,
    RendezvousProblem,
    SearchProblem,
    spec_from_dict,
    spec_from_json,
    spec_kinds,
)
from repro.errors import InvalidParameterError
from repro.gathering import GatheringInstance
from repro.simulation import RendezvousInstance, SearchInstance
from repro.workloads import search_sweep_suite, symmetric_clock_suite


def _example_specs():
    return [
        SearchProblem(distance=1.2, visibility=0.3, bearing=0.6),
        RendezvousProblem(distance=1.4, visibility=0.35, speed=0.6),
        RendezvousProblem(
            distance=1.1,
            visibility=0.45,
            bearing=2.5,
            time_unit=0.5,
            orientation=1.0,
            chirality=-1,
            horizon=500.0,
            allow_infeasible=True,
        ),
        GatheringProblem(
            members=(
                GatheringMember(x=0.0, y=0.0),
                GatheringMember(x=1.0, y=0.3, speed=0.6),
            ),
            visibility=0.4,
            horizon=5000.0,
        ),
    ]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("spec", _example_specs(), ids=lambda s: s.kind)
    def test_spec_to_json_from_json_equal_hash(self, spec):
        restored = spec_from_json(spec.to_json())
        assert restored == spec
        assert restored.canonical_hash() == spec.canonical_hash()
        assert restored.seed() == spec.seed()

    def test_envelope_carries_schema_version_and_kind(self):
        data = SearchProblem(distance=1.0, visibility=0.2).to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["kind"] == "search"

    def test_int_and_float_spellings_hash_equally(self):
        assert (
            SearchProblem(distance=2, visibility=1).canonical_hash()
            == SearchProblem(distance=2.0, visibility=1.0).canonical_hash()
        )

    def test_key_order_does_not_change_the_hash(self):
        spec = RendezvousProblem(distance=1.4, visibility=0.35, speed=0.6)
        shuffled = dict(reversed(list(spec.to_dict().items())))
        assert spec_from_dict(shuffled).canonical_hash() == spec.canonical_hash()

    def test_different_specs_hash_differently(self):
        a = SearchProblem(distance=1.0, visibility=0.2)
        b = SearchProblem(distance=1.0, visibility=0.25)
        assert a.canonical_hash() != b.canonical_hash()
        assert a.seed() != b.seed()

    def test_gathering_members_round_trip_as_nested_payloads(self):
        spec = _example_specs()[3]
        data = json.loads(spec.to_json())
        assert isinstance(data["members"], list)
        assert spec_from_dict(data) == spec


class TestParsing:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown spec kind"):
            spec_from_dict({"schema_version": SCHEMA_VERSION, "kind": "teleport"})

    def test_missing_schema_version_rejected(self):
        with pytest.raises(InvalidParameterError, match="schema_version"):
            spec_from_dict({"kind": "search", "distance": 1.0, "visibility": 0.2})

    def test_future_schema_version_rejected(self):
        with pytest.raises(InvalidParameterError, match="schema_version"):
            spec_from_dict(
                {"schema_version": 999, "kind": "search", "distance": 1.0, "visibility": 0.2}
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown field"):
            spec_from_dict(
                {
                    "schema_version": SCHEMA_VERSION,
                    "kind": "search",
                    "distance": 1.0,
                    "visibility": 0.2,
                    "warp": 9,
                }
            )

    def test_invalid_json_text_rejected(self):
        with pytest.raises(InvalidParameterError, match="invalid spec JSON"):
            spec_from_json("{not json")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"kind": []}, "unknown spec kind"),
            ({"kind": {"search": 1}}, "unknown spec kind"),
            ({"kind": "search"}, "missing required field(s) visibility"),
            ({"kind": "rendezvous", "distance": 1.0}, "missing required field(s) visibility"),
            ({"kind": "gathering", "visibility": 0.3}, "missing required field(s) members"),
            ({"kind": "search", "visibility": 0.3, 7: 1.0}, "named by strings"),
            (
                {"kind": "gathering", "visibility": 0.3, "members": ["ab", "cd"]},
                "must be an object, got str",
            ),
            (
                {"kind": "gathering", "visibility": 0.3,
                 "members": [[["x", 0.0], ["y", 0.0]], [[1, 2]]]},
                "must be an object, got list",
            ),
            (
                {"kind": "gathering", "visibility": 0.3,
                 "members": [{1: 0.0, "y": 0.0}, {"x": 1.0, "y": 0.0}]},
                "named by strings",
            ),
            ({"kind": "gathering", "visibility": 0.3, "members": 5}, "list of member"),
        ],
    )
    def test_malformed_input_is_an_invalid_parameter_error(self, data, message):
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            spec_from_dict({"schema_version": SCHEMA_VERSION, **data})

    def test_spec_kinds_lists_solvable_kinds(self):
        assert spec_kinds() == ["gathering", "rendezvous", "search"]


class TestValidation:
    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidParameterError):
            SearchProblem(distance=-1.0, visibility=0.2)

    def test_zero_visibility_rejected(self):
        with pytest.raises(InvalidParameterError):
            RendezvousProblem(distance=1.0, visibility=0.0)

    def test_bad_chirality_rejected(self):
        with pytest.raises(InvalidParameterError):
            RendezvousProblem(distance=1.0, visibility=0.2, chirality=0)

    def test_non_numeric_field_rejected(self):
        with pytest.raises(InvalidParameterError):
            SearchProblem(distance="fast", visibility=0.2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("distance", b"1.5"),
            ("visibility", bytearray(b"0.3")),
            ("fault_model", {"kind": "crash-stop", "robot": "reference", "crash_time": b"2"}),
            ("fault_model", {"jitter": b"0.1"}),
        ],
    )
    def test_a_bytes_number_is_rejected(self, field, value):
        # float() parses bytes, but a spec is JSON data, which has none
        # (a binary-frame request can carry them).
        data = {"schema_version": SCHEMA_VERSION, "kind": "search", "distance": 1.5}
        data["visibility"] = 0.3
        data[field] = value
        with pytest.raises(InvalidParameterError, match="must be a number"):
            spec_from_dict(data)

    def test_a_bytes_member_coordinate_is_rejected(self):
        members = [{"x": b"0", "y": 0.0}, {"x": 1.0, "y": 0.0}]
        with pytest.raises(InvalidParameterError, match="x must be a number"):
            GatheringProblem(members=members, visibility=0.3)

    def test_gathering_needs_two_members(self):
        with pytest.raises(InvalidParameterError):
            GatheringProblem(members=(GatheringMember(x=0.0, y=0.0),), visibility=0.3)


class TestInstanceBridge:
    def test_search_to_instance(self):
        spec = SearchProblem(distance=1.2, visibility=0.3, bearing=0.6)
        instance = spec.to_instance()
        assert isinstance(instance, SearchInstance)
        assert instance.distance == pytest.approx(1.2)

    def test_rendezvous_to_instance_carries_attributes(self):
        spec = RendezvousProblem(distance=1.4, visibility=0.35, speed=0.6, chirality=-1)
        instance = spec.to_instance()
        assert isinstance(instance, RendezvousInstance)
        assert instance.attributes.speed == pytest.approx(0.6)
        assert instance.attributes.chirality == -1

    def test_gathering_to_instance(self):
        instance = _example_specs()[3].to_instance()
        assert isinstance(instance, GatheringInstance)
        assert instance.size == 2

    def test_from_instance_round_trip_is_bit_exact(self):
        # Exact components matter: a polar round trip perturbs the distance
        # by an ulp and the round-ceiling bound formulas amplify that.
        for original in search_sweep_suite()[:6]:
            rebuilt = SearchProblem.from_instance(original).to_instance()
            assert rebuilt.target.x == original.target.x
            assert rebuilt.target.y == original.target.y
            assert rebuilt.distance == original.distance
        for original in symmetric_clock_suite()[:4]:
            rebuilt = RendezvousProblem.from_instance(original).to_instance()
            assert rebuilt.separation.x == original.separation.x
            assert rebuilt.separation.y == original.separation.y
            assert rebuilt.distance == original.distance
            assert rebuilt.attributes == original.attributes

    def test_exact_components_survive_json_round_trip(self):
        spec = RendezvousProblem.from_instance(symmetric_clock_suite()[0])
        restored = spec_from_json(spec.to_json())
        assert restored == spec
        assert restored.to_instance().separation == spec.to_instance().separation

    def test_lone_component_rejected(self):
        with pytest.raises(InvalidParameterError, match="together"):
            SearchProblem(visibility=0.3, target_x=1.0)

    def test_component_distance_conflict_rejected(self):
        with pytest.raises(InvalidParameterError, match="contradicts"):
            RendezvousProblem(
                visibility=0.3, distance=5.0, separation_x=1.0, separation_y=0.0
            )

    def test_component_bearing_conflict_rejected(self):
        with pytest.raises(InvalidParameterError, match="bearing.*contradicts"):
            SearchProblem(visibility=0.3, bearing=2.0, target_x=1.0, target_y=0.0)

    def test_consistent_redundant_polar_fields_accepted(self):
        spec = SearchProblem(
            visibility=0.3,
            distance=1.0,
            bearing=math.pi / 2,
            target_x=0.0,
            target_y=1.0,
        )
        assert spec.to_instance().target.y == 1.0

    def test_missing_distance_and_components_rejected(self):
        with pytest.raises(InvalidParameterError, match="required"):
            SearchProblem(visibility=0.3)

    def test_describe_mentions_the_numbers(self):
        text = SearchProblem(distance=1.2, visibility=0.3).describe()
        assert "1.2" in text and "0.3" in text
