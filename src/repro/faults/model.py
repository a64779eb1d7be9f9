"""The fault-model taxonomy: what can go wrong with a robot, declaratively.

A :class:`FaultModel` is a frozen, JSON-round-trippable description of one
faulty robot attached to a problem spec (``SearchProblem.fault_model`` /
``RendezvousProblem.fault_model``).  It follows the classic distributed-
computing fault taxonomy:

* ``crash-stop`` -- the robot halts at ``crash_time`` and never moves
  again (it keeps existing physically: a live robot that comes within
  visibility of the wreck still completes the rendezvous/search);
* ``crash-recovery`` -- the robot halts at ``crash_time`` and resumes its
  algorithm, exactly where it left off, after ``recovery_delay`` time
  units;
* ``byzantine`` -- from ``crash_time`` on the robot abandons the protocol
  and follows an adversarial seeded random walk; its own detection
  signals are untrusted (only the correct robot's sensing counts, which
  in this geometric model is the same distance-within-``r`` condition);
* ``none`` -- no fault; the carrier for Monte-Carlo configuration
  (``trials`` / ``mc_seed`` / ``jitter``) on an otherwise healthy spec.

The model also owns the randomized-trial configuration consumed by the
``montecarlo`` backend: ``trials`` independent realizations, each seeded
deterministically from ``(spec_hash, mc_seed, trial_index)``, with
``jitter`` controlling how far the per-trial crash/recovery times may
deviate from their nominal values.  Because the model is part of the
spec's canonical payload, every knob participates in the canonical hash:
two specs differing only in ``trials`` are different cache/store keys,
which is what keeps the LRU/store/coalescing tiers exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional

from ..errors import InvalidParameterError

__all__ = ["FAULT_KINDS", "FAULT_ROBOTS", "FaultModel"]

#: The supported fault kinds, in taxonomy order.
FAULT_KINDS = ("none", "crash-stop", "crash-recovery", "byzantine")

#: Which robot of a pair carries the fault ("reference" is R at the
#: origin; "other" is R').  Search problems only have a reference robot.
FAULT_ROBOTS = ("reference", "other")

#: Upper bound on trials per spec -- a seatbelt against accidentally
#: requesting a million scalar simulations through one envelope.
MAX_TRIALS = 10_000


def _coerce_positive_float(name: str, value: Any, allow_zero: bool = False) -> float:
    if isinstance(value, (bytes, bytearray)):  # float() parses bytes; JSON has none
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    try:
        result = float(value)
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(f"{name} must be a number, got {value!r}") from error
    if not math.isfinite(result):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    if result < 0.0 or (result == 0.0 and not allow_zero):
        bound = "non-negative" if allow_zero else "positive"
        raise InvalidParameterError(f"{name} must be {bound}, got {value!r}")
    return result


def _coerce_int(name: str, value: Any, minimum: int, maximum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise InvalidParameterError(f"{name} must be <= {maximum}, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class FaultModel:
    """One faulty robot plus the Monte-Carlo trial configuration.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        robot: which robot is faulty (:data:`FAULT_ROBOTS`); irrelevant
            for ``kind="none"`` and constrained to ``"reference"`` for
            search problems (there is only one robot).
        crash_time: nominal global time of the fault onset.  Required
            (and positive) for the crash kinds; optional for
            ``byzantine`` (defaults to 0: adversarial from the start);
            must be omitted for ``none``.
        recovery_delay: nominal downtime of a ``crash-recovery`` fault
            (required there, forbidden elsewhere).
        trials: Monte-Carlo trials the ``montecarlo`` backend runs for
            this spec (deterministic backends ignore it).
        mc_seed: base seed folded with the spec hash and trial index
            into every per-trial seed.
        jitter: relative half-width of the per-trial perturbation of
            ``crash_time`` / ``recovery_delay``: trial values are drawn
            uniformly from ``value * [1 - jitter, 1 + jitter]``.  0 makes
            every trial use the nominal times.
    """

    kind: str = "none"
    robot: str = "other"
    crash_time: Optional[float] = None
    recovery_delay: Optional[float] = None
    trials: int = 1
    mc_seed: int = 0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; available: {', '.join(FAULT_KINDS)}"
            )
        if self.robot not in FAULT_ROBOTS:
            raise InvalidParameterError(
                f"unknown fault robot {self.robot!r}; available: {', '.join(FAULT_ROBOTS)}"
            )
        if self.kind in ("crash-stop", "crash-recovery"):
            if self.crash_time is None:
                raise InvalidParameterError(f"fault kind {self.kind!r} needs crash_time")
            object.__setattr__(
                self, "crash_time", _coerce_positive_float("crash_time", self.crash_time)
            )
        elif self.kind == "byzantine":
            onset = 0.0 if self.crash_time is None else self.crash_time
            object.__setattr__(
                self,
                "crash_time",
                _coerce_positive_float("crash_time", onset, allow_zero=True),
            )
        elif self.crash_time is not None:
            raise InvalidParameterError("fault kind 'none' must not set crash_time")
        if self.kind == "crash-recovery":
            if self.recovery_delay is None:
                raise InvalidParameterError("fault kind 'crash-recovery' needs recovery_delay")
            object.__setattr__(
                self,
                "recovery_delay",
                _coerce_positive_float("recovery_delay", self.recovery_delay),
            )
        elif self.recovery_delay is not None:
            raise InvalidParameterError(
                f"recovery_delay only applies to 'crash-recovery', not {self.kind!r}"
            )
        object.__setattr__(self, "trials", _coerce_int("trials", self.trials, 1, MAX_TRIALS))
        object.__setattr__(self, "mc_seed", _coerce_int("mc_seed", self.mc_seed, 0))
        jitter = self.jitter
        if isinstance(jitter, (bytes, bytearray)):  # float() parses bytes; JSON has none
            raise InvalidParameterError(f"jitter must be a number, got {jitter!r}")
        try:
            jitter = float(jitter)
        except (TypeError, ValueError) as error:
            raise InvalidParameterError(f"jitter must be a number, got {jitter!r}") from error
        if not (0.0 <= jitter < 1.0) or not math.isfinite(jitter):
            raise InvalidParameterError(f"jitter must lie in [0, 1), got {self.jitter!r}")
        object.__setattr__(self, "jitter", jitter)

    # -- wire format -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping (every field, stable shape)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultModel":
        """Parse a mapping produced by :meth:`to_dict` (strict fields)."""
        if not isinstance(data, Mapping):
            raise InvalidParameterError(
                f"fault_model must be a JSON object, got {type(data).__name__}"
            )
        allowed = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise InvalidParameterError(
                f"unknown fault_model field(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        return cls(**dict(data))

    # -- behaviour flags -------------------------------------------------------
    @property
    def is_fault(self) -> bool:
        """True when a robot actually misbehaves (kind is not 'none')."""
        return self.kind != "none"

    @property
    def randomized(self) -> bool:
        """True when trial realizations can differ from one another."""
        return self.is_fault and (self.jitter > 0.0 or self.kind == "byzantine")

    def describe(self) -> str:
        """Compact human-readable rendering."""
        if not self.is_fault:
            return f"no fault (trials={self.trials}, mc_seed={self.mc_seed})"
        parts = [f"{self.kind} of {self.robot} at t={self.crash_time:g}"]
        if self.recovery_delay is not None:
            parts.append(f"recovery after {self.recovery_delay:g}")
        if self.jitter:
            parts.append(f"jitter {self.jitter:g}")
        parts.append(f"trials={self.trials}")
        return ", ".join(parts)
