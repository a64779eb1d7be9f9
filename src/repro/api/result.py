"""The uniform result envelope returned by every solver backend.

A :class:`SolveResult` carries the answer (feasibility, measured time,
analytic bound), the provenance needed to reproduce or audit it (backend,
spec hash, seed, library version, wall time) and backend-specific details
in a JSON-safe mapping.  Like specs, results round-trip through JSON, so a
batch of results can be written to disk by one process and re-read by
another without loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional

from .._version import __version__
from ..errors import InvalidParameterError
from .spec import SCHEMA_VERSION, ProblemSpec, canonical_dumps, spec_dict_hash, spec_from_dict

__all__ = ["EncodedEnvelope", "Provenance", "SolveResult", "check_envelope", "envelope_blob"]


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where a result came from and what it cost to produce.

    Attributes:
        backend: name of the backend that actually solved the spec.
        fidelity: ``"bound"`` (closed form only) or ``"measured"``
            (continuous-time simulation).
        spec_hash: canonical hash of the solved spec (the cache key).
        seed: the deterministic per-spec seed.
        schema_version: spec wire-format version at solve time.
        library_version: ``repro.__version__`` at solve time.
        wall_time: seconds spent inside the backend.
        from_store: True when this envelope was reused from a persistent
            :class:`~repro.api.store.ResultStore` instead of being solved
            in this process.  Like ``wall_time`` it describes the *run*
            rather than the *answer*, so :meth:`SolveResult.fingerprint`
            neutralises it: warm replays stay bit-identical to cold runs
            while the live envelope stays honest about reuse.
    """

    backend: str
    fidelity: str
    spec_hash: str
    seed: int
    schema_version: int = SCHEMA_VERSION
    library_version: str = __version__
    wall_time: float = 0.0
    from_store: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "fidelity": self.fidelity,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "schema_version": self.schema_version,
            "library_version": self.library_version,
            "wall_time": self.wall_time,
            "from_store": self.from_store,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Provenance":
        return cls(**dict(data))


#: The keys of :meth:`Provenance.to_dict`.
_PROVENANCE_KEYS = frozenset(field.name for field in fields(Provenance))


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Uniform answer envelope for every problem kind and backend.

    Attributes:
        spec: the problem that was solved.
        feasible: Theorem 4 verdict (None for plain search, which is
            always solvable).
        solved: whether the simulated event fired before the horizon
            (None when no simulation ran, i.e. analytic fidelity).
        measured_time: simulated solve time (None without simulation or
            when unsolved).
        bound: the paper's closed-form time bound (None when no finite
            bound applies, e.g. infeasible rendezvous).
        algorithm: mobility algorithm that was simulated (None for
            analytic results).
        details: JSON-safe backend-specific extras (verdict text,
            guaranteed round, effort counters, gathering breakdowns...).
        provenance: reproducibility record, see :class:`Provenance`.
    """

    spec: ProblemSpec
    feasible: Optional[bool]
    solved: Optional[bool]
    measured_time: Optional[float]
    bound: Optional[float]
    algorithm: Optional[str]
    details: Mapping[str, Any]
    provenance: Provenance

    # -- derived ---------------------------------------------------------------
    @property
    def kind(self) -> str:
        """The solved problem's kind."""
        return self.spec.kind

    @property
    def backend(self) -> str:
        """Name of the backend that produced this result."""
        return self.provenance.backend

    @property
    def bound_ratio(self) -> Optional[float]:
        """Measured time over the analytic bound (None when either is missing)."""
        if self.measured_time is None or self.bound is None or self.bound == 0.0:
            return None
        return self.measured_time / self.bound

    # -- wire format -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Full JSON-safe envelope (round-trips via :meth:`from_dict`)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "feasible": self.feasible,
            "solved": self.solved,
            "measured_time": self.measured_time,
            "bound": self.bound,
            "bound_ratio": self.bound_ratio,
            "algorithm": self.algorithm,
            "details": dict(self.details),
            "provenance": self.provenance.to_dict(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent, allow_nan=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveResult":
        payload = dict(data)
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise InvalidParameterError(
                f"unsupported result schema_version {version!r} "
                f"(this library speaks {SCHEMA_VERSION})"
            )
        payload.pop("bound_ratio", None)  # derived, recomputed from fields
        spec = spec_from_dict(payload.pop("spec"))
        provenance = Provenance.from_dict(payload.pop("provenance"))
        return cls(spec=spec, provenance=provenance, **payload)

    @classmethod
    def from_json(cls, text: str) -> "SolveResult":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> dict[str, Any]:
        """The envelope minus run-specific provenance: equal for identical reruns.

        Two runs of the same spec on the same backend -- serial, pooled,
        in different processes, or replayed from a persistent store --
        produce equal fingerprints; only the ``wall_time`` and
        ``from_store`` provenance fields may differ.
        """
        data = self.to_dict()
        data["provenance"] = replace(
            self.provenance, wall_time=0.0, from_store=False
        ).to_dict()
        return data

    # -- presentation ----------------------------------------------------------
    def summary(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        lines = [self.spec.describe()]
        verdict = self.details.get("verdict")
        if verdict:
            lines.append(str(verdict))
        if self.algorithm:
            lines.append(f"algorithm: {self.algorithm}")
        bound_label = "Theorem 1 bound" if self.kind == "search" else "bound"
        if self.solved:
            bound_text = f"{self.bound:.6g}" if self.bound is not None else "n/a"
            ratio = self.bound_ratio
            ratio_text = f"{ratio:.3f}" if ratio is not None else "n/a"
            lines.append(
                f"measured time: {self.measured_time:.6g}  |  {bound_label}: {bound_text}  "
                f"(ratio {ratio_text})"
            )
        elif self.solved is False:
            horizon = self.details.get("horizon")
            horizon_text = f" {horizon:.6g}" if isinstance(horizon, (int, float)) else ""
            lines.append(f"not solved within horizon{horizon_text}")
        elif self.bound is not None:
            lines.append(f"analytic {bound_label}: {self.bound:.6g} (no simulation requested)")
        lines.append(f"[{self.backend} backend, {self.provenance.wall_time * 1e3:.2f} ms]")
        return "\n".join(lines)


class EncodedEnvelope:
    """One result's wire envelope, built and encoded at most once.

    :meth:`SolveResult.to_dict` is called on first use, and every member
    but ``provenance`` is encoded once, as the runs that sort before and
    after it; :attr:`text` and :attr:`blob` splice a provenance between
    them, so the wire text, the store record and the fingerprint blob
    cost one encoding together.  Nothing is kept on the result, so an
    LRU entry never holds an encoding.  :func:`envelope_blob` builds the
    same blob from an envelope dict alone (a relayed record, the
    ``repro.experiments.manifest`` digests).
    """

    __slots__ = ("_result", "_envelope", "_runs", "_text")

    def __init__(self, result: SolveResult) -> None:
        self._result = result
        self._envelope: Optional[dict[str, Any]] = None
        self._runs: Optional[tuple[str, str]] = None
        self._text: Optional[str] = None

    @property
    def envelope(self) -> dict[str, Any]:
        """The envelope dict (:meth:`SolveResult.to_dict`, called once)."""
        if self._envelope is None:
            self._envelope = self._result.to_dict()
        return self._envelope

    @property
    def text(self) -> str:
        """The envelope's canonical JSON: ``canonical_dumps(envelope)``."""
        if self._text is None:
            self._text = self.splice(self.envelope["provenance"])
        return self._text

    @property
    def blob(self) -> str:
        """The fingerprint blob: the text with ``provenance.wall_time`` 0.0
        and ``provenance.from_store`` false, as :meth:`SolveResult.fingerprint`
        neutralises them.
        """
        return self.splice(_fingerprint_provenance(self.envelope["provenance"]))

    def splice(self, provenance: Mapping[str, Any]) -> str:
        """The envelope's canonical JSON with ``provenance`` as its provenance."""
        if self._runs is None:
            before: dict[str, Any] = {}
            after: dict[str, Any] = {}
            for key, value in self.envelope.items():
                if key < "provenance":
                    before[key] = value
                elif key > "provenance":
                    after[key] = value
            self._runs = (canonical_dumps(before)[1:-1], canonical_dumps(after)[1:-1])
        before_run, after_run = self._runs
        member = '"provenance":' + canonical_dumps(provenance)
        return "{" + ",".join(run for run in (before_run, member, after_run) if run) + "}"


def envelope_blob(envelope: Mapping[str, Any]) -> str:
    """The fingerprint blob of one wire envelope (:meth:`SolveResult.to_dict`).

    The bytes of :attr:`EncodedEnvelope.blob`, for an envelope whose
    text is not wanted, such as a record a relay decoded.
    ``provenance.wall_time`` and ``provenance.from_store`` are
    neutralised exactly as :meth:`SolveResult.fingerprint` does; the
    caller's dict is not modified.
    """
    data = dict(envelope)
    data["provenance"] = _fingerprint_provenance(envelope["provenance"])
    return canonical_dumps(data)


def _fingerprint_provenance(provenance: Mapping[str, Any]) -> dict[str, Any]:
    neutral = dict(provenance)
    neutral["wall_time"] = 0.0
    neutral["from_store"] = False
    return neutral


#: The keys of :meth:`SolveResult.to_dict`.
_ENVELOPE_KEYS = frozenset(
    (
        "schema_version",
        "spec",
        "feasible",
        "solved",
        "measured_time",
        "bound",
        "bound_ratio",
        "algorithm",
        "details",
        "provenance",
    )
)


def check_envelope(data: Any, spec_hash: str) -> None:
    """Check a wire envelope without building a :class:`SolveResult`.

    Raises :class:`~repro.errors.InvalidParameterError` unless ``data``
    has exactly the :meth:`SolveResult.to_dict` and provenance key sets,
    this library's ``schema_version``, a ``bound_ratio`` consistent with
    ``measured_time`` and ``bound``, and is the envelope of the spec
    hashing to ``spec_hash``: its ``provenance.spec_hash`` names it and
    its ``spec`` hashes to it (:func:`~repro.api.spec.spec_dict_hash`),
    so the spec is that valid spec's own :meth:`~ProblemSpec.to_dict`.
    Every envelope :meth:`SolveResult.from_dict` rejects fails here too,
    and one that passes rebuilds to an object whose ``to_dict`` equals
    ``data``.
    """
    if not isinstance(data, dict):
        raise InvalidParameterError(f"an envelope must be an object, got {type(data).__name__}")
    if data.keys() != _ENVELOPE_KEYS:
        raise InvalidParameterError(_key_mismatch("envelope", data, _ENVELOPE_KEYS))
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InvalidParameterError(
            f"unsupported result schema_version {version!r} "
            f"(this library speaks {SCHEMA_VERSION})"
        )
    provenance = data["provenance"]
    if not isinstance(provenance, dict) or provenance.keys() != _PROVENANCE_KEYS:
        raise InvalidParameterError(_key_mismatch("provenance", provenance, _PROVENANCE_KEYS))
    if provenance["spec_hash"] != spec_hash:
        raise InvalidParameterError(
            f"provenance names spec {str(provenance['spec_hash'])[:12]!r}, "
            f"not {spec_hash[:12]!r}"
        )
    spec = data["spec"]
    try:
        matches = isinstance(spec, dict) and spec_dict_hash(spec) == spec_hash
    except ValueError:  # NaN or infinity: no spec's canonical form
        matches = False
    if not matches:
        raise InvalidParameterError(f"the envelope's spec does not hash to {spec_hash[:12]!r}")
    measured, bound = data["measured_time"], data["bound"]
    try:
        ratio = None if measured is None or bound is None or bound == 0.0 else measured / bound
    except TypeError as error:
        raise InvalidParameterError(f"non-numeric measured_time or bound: {error}") from error
    if data["bound_ratio"] != ratio:
        raise InvalidParameterError(
            f"bound_ratio {data['bound_ratio']!r} is not measured_time / bound ({ratio!r})"
        )


def _key_mismatch(what: str, data: Any, expected: frozenset) -> str:
    if not isinstance(data, dict):
        return f"{what} must be an object, got {type(data).__name__}"
    missing = sorted(expected - data.keys())
    unknown = sorted(str(key) for key in data.keys() - expected)
    return f"{what} keys differ: missing {missing}, unknown {unknown}"
