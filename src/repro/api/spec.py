"""Serializable problem specifications: the facade's wire format.

A *spec* is a frozen, validated, JSON-round-trippable description of one
problem.  Where the :mod:`repro.simulation` instances are rich in-memory
objects (vectors, attribute records), specs are flat scalar records that

* survive ``to_json`` / ``from_json`` without loss (``spec ==
  spec_from_json(spec.to_json())``),
* hash canonically (:meth:`ProblemSpec.canonical_hash`), so equal problems
  map to equal cache keys regardless of field order or int/float spelling,
* carry a ``schema_version`` so stored specs stay readable as the schema
  evolves,
* materialise back into the simulation layer via ``to_instance()``.

Three problem kinds are defined, mirroring the three entry points of the
library: :class:`SearchProblem` (Theorem 1), :class:`RendezvousProblem`
(Theorems 2-4) and :class:`GatheringProblem` (the multi-robot extension).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, ClassVar, Mapping, Optional

from ..errors import InvalidParameterError
from ..faults.model import FaultModel
from ..geometry import Vec2
from ..robots import RobotAttributes
from ..simulation import RendezvousInstance, SearchInstance

__all__ = [
    "SCHEMA_VERSION",
    "canonical_dumps",
    "ProblemSpec",
    "SearchProblem",
    "RendezvousProblem",
    "GatheringMember",
    "GatheringProblem",
    "spec_dict_hash",
    "spec_from_dict",
    "spec_from_json",
    "spec_kinds",
]

#: Version of the spec wire format; bumped on incompatible field changes.
SCHEMA_VERSION = 1

_SPEC_KINDS: dict[str, type["ProblemSpec"]] = {}


def _coerce_float(name: str, value: Any, allow_none: bool = False) -> Any:
    if value is None and allow_none:
        return None
    # float() parses bytes too, but a spec is JSON data: a relay forwards
    # the spec dicts it parsed, so a bytes value must not parse.
    if isinstance(value, (bytes, bytearray)):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    try:
        result = float(value)
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(f"{name} must be a number, got {value!r}") from error
    if not math.isfinite(result):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return result


def _coerce_fault_model(value: Any, spec_kind: str) -> Optional[FaultModel]:
    """Validate a spec's optional fault model (accepts mappings off the wire)."""
    if value is None:
        return None
    if isinstance(value, Mapping):
        value = FaultModel.from_dict(value)
    if not isinstance(value, FaultModel):
        raise InvalidParameterError(
            f"fault_model must be a FaultModel or mapping, got {type(value).__name__}"
        )
    if spec_kind == "search" and value.is_fault:
        if value.robot != "reference":
            raise InvalidParameterError(
                "a search problem has a single robot; fault_model.robot must be 'reference'"
            )
        if value.kind == "byzantine":
            raise InvalidParameterError(
                "byzantine faults need a partner to deceive; they apply to "
                "rendezvous problems, not search"
            )
    return value


def _coerce_chirality(value: Any) -> int:
    if value not in (-1, 1, -1.0, 1.0):
        raise InvalidParameterError(f"chirality must be +1 or -1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProblemSpec:
    """Common behaviour of all problem specs (serialisation and hashing)."""

    kind: ClassVar[str] = ""

    #: Holds the canonical hash once :meth:`canonical_hash` computed it.
    #: A container made at construction, so the frozen spec itself never
    #: changes; not a wire field, not in :meth:`payload`, not compared.
    #: A dict of strings, because the garbage collector does not track
    #: one (a list would add a tracked object per spec).
    _hash_memo: dict[str, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            _SPEC_KINDS[cls.kind] = cls

    # -- wire format -----------------------------------------------------------
    def payload(self) -> dict[str, Any]:
        """The spec's own fields as a JSON-safe mapping (no envelope).

        ``fault_model`` is *omitted* when unset rather than serialised as
        null: every spec written before the fault axis existed keeps its
        exact canonical JSON, hash and fingerprint, so warm stores and
        caches from older runs stay valid byte for byte.
        """
        data: dict[str, Any] = {}
        for spec_field in fields(self):
            if not spec_field.init:
                continue
            value = getattr(self, spec_field.name)
            if spec_field.name == "fault_model":
                if value is None:
                    continue
                value = value.to_dict()
            data[spec_field.name] = value
        return data

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-safe envelope including ``schema_version`` and ``kind``."""
        return {"schema_version": SCHEMA_VERSION, "kind": self.kind, **self.payload()}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise to JSON (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent, allow_nan=False)

    def canonical_json(self) -> str:
        """Minimal-whitespace, key-sorted JSON: the hashing pre-image."""
        return canonical_dumps(self.to_dict())

    def canonical_hash(self) -> str:
        """SHA-256 hex digest of the canonical JSON form.

        Equal specs hash equally regardless of construction path (direct,
        ``from_dict``, int-vs-float spellings), which makes the hash usable
        as a result-cache key and as provenance.  Computed at most once
        per spec object: the planner, the backend and the provenance all
        ask for it.
        """
        memo = self._hash_memo
        if not memo:
            memo["hash"] = spec_dict_hash(self.to_dict())
        return memo["hash"]

    @staticmethod
    def seed_from_hash(canonical_hash: str) -> int:
        """The deterministic 63-bit seed belonging to a canonical hash.

        Exposed separately so batch paths that already computed the hash
        derive the seed without re-canonicalising the spec -- one
        derivation, used everywhere.
        """
        return int(canonical_hash[:16], 16) & (2**63 - 1)

    def seed(self) -> int:
        """Deterministic 63-bit seed derived from the canonical hash.

        Recorded in every result's provenance so that a future stochastic
        backend can draw per-spec randomness reproducibly.  The current
        backends are fully deterministic and do not consume it.
        """
        return self.seed_from_hash(self.canonical_hash())

    # -- materialisation -------------------------------------------------------
    def to_instance(self) -> Any:
        """Build the simulation-layer instance this spec describes."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner (delegates to the instance)."""
        text = self.to_instance().describe()
        fault = getattr(self, "fault_model", None)
        if fault is not None:
            text += f"  [{fault.describe()}]"
        return text

    # -- parsing ---------------------------------------------------------------
    @classmethod
    def _from_payload(cls, payload: Mapping[str, Any]) -> "ProblemSpec":
        if not all(isinstance(name, str) for name in payload):
            raise InvalidParameterError(
                f"spec fields of kind {cls.kind!r} must be named by strings"
            )
        allowed, required = _init_fields(cls)
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise InvalidParameterError(
                f"unknown field(s) {', '.join(unknown)} for spec kind {cls.kind!r}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        missing = [name for name in required if name not in payload]
        if missing:
            raise InvalidParameterError(
                f"missing required field(s) {', '.join(missing)} for spec kind {cls.kind!r}"
            )
        return cls(**payload)


@functools.cache
def _init_fields(cls: type) -> tuple[frozenset[str], tuple[str, ...]]:
    """A spec class's init field names, and those without a default."""
    init = [spec_field for spec_field in fields(cls) if spec_field.init]
    required = tuple(
        spec_field.name
        for spec_field in init
        if spec_field.default is MISSING and spec_field.default_factory is MISSING
    )
    return frozenset(spec_field.name for spec_field in init), required


def _resolve_components(
    distance: Optional[float],
    bearing: float,
    x: Optional[float],
    y: Optional[float],
    x_name: str,
) -> tuple[float, float, Optional[float], Optional[float]]:
    """Reconcile the polar view with optional exact cartesian components.

    Specs are usually written in polar form (``distance``/``bearing``),
    but a polar -> cartesian -> polar round trip perturbs the distance by
    an ulp, and the paper's round-ceiling bound formulas can amplify that
    into a visibly different bound.  ``from_instance`` therefore stores
    the exact components; when present they are authoritative and the
    polar fields are (re)derived from them so hashing stays canonical.
    """
    if (x is None) != (y is None):
        raise InvalidParameterError(
            f"{x_name}_x and {x_name}_y must be given together or not at all"
        )
    if x is None:
        if distance is None:
            raise InvalidParameterError(
                f"either distance or exact {x_name} components are required"
            )
        return (
            _coerce_float("distance", distance),
            _coerce_float("bearing", bearing),
            None,
            None,
        )
    x = _coerce_float(f"{x_name}_x", x)
    y = _coerce_float(f"{x_name}_y", y)
    derived_distance = math.hypot(x, y)
    derived_bearing = math.atan2(y, x)
    if distance is not None:
        distance = _coerce_float("distance", distance)
        if not math.isclose(distance, derived_distance, rel_tol=1e-6, abs_tol=1e-12):
            raise InvalidParameterError(
                f"distance {distance!r} contradicts the exact {x_name} components "
                f"(|({x:g}, {y:g})| = {derived_distance!r})"
            )
    # A non-default bearing must agree with the components too.  (A bearing
    # of exactly 0.0 is indistinguishable from the unset default and is
    # accepted silently -- the components stay authoritative either way.)
    bearing = _coerce_float("bearing", bearing)
    if bearing != 0.0:
        difference = math.fmod(bearing - derived_bearing, 2.0 * math.pi)
        if min(abs(difference), 2.0 * math.pi - abs(difference)) > 1e-6:
            raise InvalidParameterError(
                f"bearing {bearing!r} contradicts the exact {x_name} components "
                f"(atan2({y:g}, {x:g}) = {derived_bearing!r})"
            )
    return derived_distance, derived_bearing, x, y


@dataclass(frozen=True, slots=True)
class SearchProblem(ProblemSpec):
    """A single-robot search for a static target (Theorem 1).

    Attributes:
        visibility: visibility radius ``r > 0``.
        distance: initial distance ``d > 0`` to the target.
        bearing: target bearing in radians (default 0; only affects which
            round of the spiral finds the target, not the bound).
        target_x / target_y: optional exact target components; when given
            they are authoritative (``to_instance`` reproduces the target
            bit for bit) and distance/bearing are derived from them.
        fault_model: optional :class:`~repro.faults.model.FaultModel` for
            the searching robot (crash kinds only -- there is no partner
            for a byzantine robot to deceive).  Omitted specs hash
            exactly as they did before the fault axis existed.
    """

    kind: ClassVar[str] = "search"

    visibility: float
    distance: Optional[float] = None
    bearing: float = 0.0
    target_x: Optional[float] = None
    target_y: Optional[float] = None
    fault_model: Optional[FaultModel] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "visibility", _coerce_float("visibility", self.visibility))
        object.__setattr__(
            self, "fault_model", _coerce_fault_model(self.fault_model, self.kind)
        )
        distance, bearing, x, y = _resolve_components(
            self.distance, self.bearing, self.target_x, self.target_y, "target"
        )
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "bearing", bearing)
        object.__setattr__(self, "target_x", x)
        object.__setattr__(self, "target_y", y)
        if self.distance <= 0.0:
            raise InvalidParameterError(f"distance must be positive, got {self.distance!r}")
        if self.visibility <= 0.0:
            raise InvalidParameterError(f"visibility must be positive, got {self.visibility!r}")

    @property
    def difficulty(self) -> float:
        """The paper's difficulty measure ``d^2 / r``."""
        return self.distance**2 / self.visibility

    def to_instance(self) -> SearchInstance:
        if self.target_x is not None and self.target_y is not None:
            target = Vec2(self.target_x, self.target_y)
        else:
            target = Vec2.polar(self.distance, self.bearing)
        return SearchInstance(target=target, visibility=self.visibility)

    @classmethod
    def from_instance(cls, instance: SearchInstance) -> "SearchProblem":
        """The spec describing an existing :class:`SearchInstance` exactly."""
        return cls(
            visibility=instance.visibility,
            target_x=instance.target.x,
            target_y=instance.target.y,
        )


@dataclass(frozen=True, slots=True)
class RendezvousProblem(ProblemSpec):
    """A two-robot rendezvous problem in the paper's canonical form.

    Robot R sits at the origin with the reference attributes; robot R'
    starts ``distance`` away at ``bearing`` and carries the attribute
    vector ``(speed, time_unit, orientation, chirality)``.

    ``horizon`` and ``allow_infeasible`` mirror the knobs of
    :func:`repro.core.solve_rendezvous`: an explicit horizon is required to
    simulate a provably infeasible instance.

    ``separation_x`` / ``separation_y`` are optional exact components of
    the separation vector; when given they are authoritative (bit-exact
    ``to_instance``) and distance/bearing are derived from them.

    ``fault_model`` optionally makes one of the two robots faulty
    (crash-stop / crash-recovery / byzantine, see
    :class:`~repro.faults.model.FaultModel`); specs without it hash
    exactly as they did before the fault axis existed.
    """

    kind: ClassVar[str] = "rendezvous"

    visibility: float
    distance: Optional[float] = None
    bearing: float = 0.0
    speed: float = 1.0
    time_unit: float = 1.0
    orientation: float = 0.0
    chirality: int = 1
    horizon: Optional[float] = None
    allow_infeasible: bool = False
    separation_x: Optional[float] = None
    separation_y: Optional[float] = None
    fault_model: Optional[FaultModel] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "visibility", _coerce_float("visibility", self.visibility))
        object.__setattr__(
            self, "fault_model", _coerce_fault_model(self.fault_model, self.kind)
        )
        distance, bearing, x, y = _resolve_components(
            self.distance, self.bearing, self.separation_x, self.separation_y, "separation"
        )
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "bearing", bearing)
        object.__setattr__(self, "separation_x", x)
        object.__setattr__(self, "separation_y", y)
        object.__setattr__(self, "speed", _coerce_float("speed", self.speed))
        object.__setattr__(self, "time_unit", _coerce_float("time_unit", self.time_unit))
        object.__setattr__(self, "orientation", _coerce_float("orientation", self.orientation))
        object.__setattr__(self, "chirality", _coerce_chirality(self.chirality))
        object.__setattr__(
            self, "horizon", _coerce_float("horizon", self.horizon, allow_none=True)
        )
        object.__setattr__(self, "allow_infeasible", bool(self.allow_infeasible))
        if not (self.distance > 0.0):
            raise InvalidParameterError(f"distance must be positive, got {self.distance!r}")
        if self.visibility <= 0.0:
            raise InvalidParameterError(f"visibility must be positive, got {self.visibility!r}")
        if self.speed <= 0.0:
            raise InvalidParameterError(f"speed must be positive, got {self.speed!r}")
        if self.time_unit <= 0.0:
            raise InvalidParameterError(f"time_unit must be positive, got {self.time_unit!r}")
        if self.horizon is not None and self.horizon <= 0.0:
            raise InvalidParameterError(f"horizon must be positive, got {self.horizon!r}")

    @property
    def attributes(self) -> RobotAttributes:
        """The hidden attribute vector of robot R'."""
        return RobotAttributes(
            speed=self.speed,
            time_unit=self.time_unit,
            orientation=self.orientation,
            chirality=self.chirality,
        )

    @property
    def difficulty(self) -> float:
        """The paper's difficulty measure ``d^2 / r``."""
        return self.distance**2 / self.visibility

    def to_instance(self) -> RendezvousInstance:
        if self.separation_x is not None and self.separation_y is not None:
            separation = Vec2(self.separation_x, self.separation_y)
        else:
            separation = Vec2.polar(self.distance, self.bearing)
        return RendezvousInstance(
            separation=separation,
            visibility=self.visibility,
            attributes=self.attributes,
        )

    @classmethod
    def from_instance(
        cls,
        instance: RendezvousInstance,
        horizon: Optional[float] = None,
        allow_infeasible: bool = False,
    ) -> "RendezvousProblem":
        """The spec describing an existing :class:`RendezvousInstance` exactly."""
        attributes = instance.attributes
        return cls(
            visibility=instance.visibility,
            separation_x=instance.separation.x,
            separation_y=instance.separation.y,
            speed=attributes.speed,
            time_unit=attributes.time_unit,
            orientation=attributes.orientation,
            chirality=attributes.chirality,
            horizon=horizon,
            allow_infeasible=allow_infeasible,
        )


@dataclass(frozen=True, slots=True)
class GatheringMember(ProblemSpec):
    """One swarm member: start position plus attribute vector.

    (Registered as a spec kind of its own so members round-trip through
    the same machinery, but it is not solvable on its own.)
    """

    kind: ClassVar[str] = "gathering-member"

    x: float
    y: float
    speed: float = 1.0
    time_unit: float = 1.0
    orientation: float = 0.0
    chirality: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _coerce_float("x", self.x))
        object.__setattr__(self, "y", _coerce_float("y", self.y))
        object.__setattr__(self, "speed", _coerce_float("speed", self.speed))
        object.__setattr__(self, "time_unit", _coerce_float("time_unit", self.time_unit))
        object.__setattr__(self, "orientation", _coerce_float("orientation", self.orientation))
        object.__setattr__(self, "chirality", _coerce_chirality(self.chirality))
        if self.speed <= 0.0:
            raise InvalidParameterError(f"speed must be positive, got {self.speed!r}")
        if self.time_unit <= 0.0:
            raise InvalidParameterError(f"time_unit must be positive, got {self.time_unit!r}")

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)

    @property
    def attributes(self) -> RobotAttributes:
        return RobotAttributes(
            speed=self.speed,
            time_unit=self.time_unit,
            orientation=self.orientation,
            chirality=self.chirality,
        )

    def to_instance(self) -> Any:
        raise InvalidParameterError("a gathering member is not solvable on its own")


@dataclass(frozen=True, slots=True)
class GatheringProblem(ProblemSpec):
    """A multi-robot gathering problem (pairwise rendezvous extension)."""

    kind: ClassVar[str] = "gathering"

    members: tuple[GatheringMember, ...]
    visibility: float
    horizon: float = 20000.0

    def __post_init__(self) -> None:
        if not isinstance(self.members, (list, tuple)):
            raise InvalidParameterError(
                f"members must be a list of member objects, got {type(self.members).__name__}"
            )
        members = []
        for member in self.members:
            if not isinstance(member, (GatheringMember, Mapping)):
                raise InvalidParameterError(
                    f"a gathering member must be an object, got {type(member).__name__}"
                )
            if not isinstance(member, GatheringMember):
                member = GatheringMember._from_payload(member)
            members.append(member)
        object.__setattr__(self, "members", tuple(members))
        object.__setattr__(self, "visibility", _coerce_float("visibility", self.visibility))
        object.__setattr__(self, "horizon", _coerce_float("horizon", self.horizon))
        if len(self.members) < 2:
            raise InvalidParameterError("a gathering problem needs at least two members")
        if self.visibility <= 0.0:
            raise InvalidParameterError(f"visibility must be positive, got {self.visibility!r}")
        if self.horizon <= 0.0:
            raise InvalidParameterError(f"horizon must be positive, got {self.horizon!r}")

    def payload(self) -> dict[str, Any]:
        return {
            "members": [member.payload() for member in self.members],
            "visibility": self.visibility,
            "horizon": self.horizon,
        }

    def to_instance(self) -> Any:
        from ..gathering import GatheringInstance

        return GatheringInstance.create(
            positions=[member.position for member in self.members],
            attributes=[member.attributes for member in self.members],
            visibility=self.visibility,
        )


def spec_kinds() -> list[str]:
    """Sorted list of registered, directly solvable spec kinds."""
    return sorted(kind for kind in _SPEC_KINDS if kind != "gathering-member")


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"),
#: allow_nan=False)`` -- the canonical encoding of spec hashes,
#: fingerprint blobs and wire lines -- without building an encoder per
#: call.
canonical_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def spec_dict_hash(data: Mapping[str, Any]) -> str:
    """:meth:`ProblemSpec.canonical_hash` of a spec's wire dict, without parsing it.

    Equal to the spec's own hash exactly when ``data`` is that spec's
    :meth:`~ProblemSpec.to_dict` (after any JSON round trip), so a
    relay can check an envelope's spec against the hash it routed.
    """
    return hashlib.sha256(canonical_dumps(data).encode("utf-8")).hexdigest()


def spec_from_dict(data: Mapping[str, Any]) -> ProblemSpec:
    """Parse a spec envelope produced by :meth:`ProblemSpec.to_dict`.

    Raises:
        InvalidParameterError: missing/unsupported ``schema_version``,
            unknown ``kind``, unknown fields or out-of-domain values.
    """
    if not isinstance(data, Mapping):
        raise InvalidParameterError(f"a spec must be a JSON object, got {type(data).__name__}")
    payload = dict(data)
    version = payload.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise InvalidParameterError(
            f"unsupported spec schema_version {version!r} (this library speaks {SCHEMA_VERSION})"
        )
    kind = payload.pop("kind", None)
    cls = _SPEC_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidParameterError(
            f"unknown spec kind {kind!r}; available: {', '.join(spec_kinds())}"
        )
    return cls._from_payload(payload)


def spec_from_json(text: str) -> ProblemSpec:
    """Parse one spec from its JSON serialisation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise InvalidParameterError(f"invalid spec JSON: {error}") from error
    return spec_from_dict(data)
