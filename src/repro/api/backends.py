"""Pluggable solver backends behind the facade.

Every backend answers the same question -- "solve this spec" -- at a
different fidelity:

* :class:`AnalyticBackend` evaluates the paper's closed forms only
  (Theorem 1/2/3 bounds, the Theorem 4 feasibility test).  Microseconds
  per spec; no measured time.
* :class:`SimulationBackend` runs the continuous-time engine through the
  existing ``solve_search`` / ``solve_rendezvous`` / ``simulate_gathering``
  entry points and reports measured time next to the bound.
* :class:`AutoBackend` picks per spec: simulation whenever a run can
  terminate (feasible, or an explicit horizon is given), the analytic
  closed forms otherwise.

Backends are looked up by name through a registry
(:func:`register_backend` / :func:`create_backend`), so new fidelities --
sharded, remote, learned surrogates -- plug in without touching callers.
:func:`solve` is the facade's single-spec entry point.
"""

from __future__ import annotations

import abc
import time
from typing import Any, Callable, ClassVar, Dict, Union

from ..core import (
    classify_feasibility,
    guaranteed_discovery_round,
    rendezvous_time_bound,
    solve_rendezvous,
    solve_search,
    theorem1_search_bound,
)
from ..errors import InvalidParameterError
from .result import Provenance, SolveResult
from .spec import (
    SCHEMA_VERSION,
    GatheringProblem,
    ProblemSpec,
    RendezvousProblem,
    SearchProblem,
)

__all__ = [
    "SolverBackend",
    "AnalyticBackend",
    "SimulationBackend",
    "AutoBackend",
    "backend_names",
    "register_backend",
    "create_backend",
    "batchable_search_group",
    "route_search_batch",
    "search_report_fields",
    "rendezvous_report_fields",
    "solve",
]


class SolverBackend(abc.ABC):
    """A named solver producing :class:`SolveResult` envelopes.

    Subclasses implement :meth:`_solve` returning the envelope fields;
    the base class stamps timing and provenance.
    """

    name: ClassVar[str] = ""
    fidelity: ClassVar[str] = ""

    def solve(self, spec: ProblemSpec) -> SolveResult:
        """Solve one spec, timing the run and stamping provenance."""
        # wall_time is provenance-only and neutralised by fingerprints.
        start = time.perf_counter()  # repro-lint: disable=R001
        fields = self._solve(spec)
        wall_time = time.perf_counter() - start  # repro-lint: disable=R001
        spec_hash = spec.canonical_hash()
        provenance = Provenance(
            backend=self.name,
            fidelity=self.fidelity,
            spec_hash=spec_hash,
            seed=ProblemSpec.seed_from_hash(spec_hash),
            schema_version=SCHEMA_VERSION,
            wall_time=wall_time,
        )
        return SolveResult(spec=spec, provenance=provenance, **fields)

    @abc.abstractmethod
    def _solve(self, spec: ProblemSpec) -> dict[str, Any]:
        """Return the envelope fields (everything but spec and provenance)."""


def _unsupported(backend: SolverBackend, spec: ProblemSpec) -> InvalidParameterError:
    return InvalidParameterError(
        f"backend {backend.name!r} cannot solve spec kind {spec.kind!r}"
    )


def batchable_search_group(specs: Any) -> list[int]:
    """Indices of the specs the batch kernel can solve together.

    Search specs are homogeneous by construction (the searcher always
    carries the reference attributes); a group of at least two is worth a
    kernel call.  Shared by every batch-capable backend and by
    :class:`~repro.api.batch.BatchRunner` when deciding whether the batch
    path beats the worker pool.  Faulted specs are excluded: the kernel
    shares one healthy compiled trajectory across the batch, which a
    crash/recovery injection would invalidate per spec.
    """
    indices = [
        index
        for index, spec in enumerate(specs)
        if isinstance(spec, SearchProblem) and spec.fault_model is None
    ]
    return indices if len(indices) >= 2 else []


def route_search_batch(
    spec_list: list,
    solve_group: Callable[[list], Any],
    solve_one: Callable[[ProblemSpec], SolveResult],
) -> list[SolveResult]:
    """Common batch scaffold: kernel for search groups, per-spec otherwise.

    ``solve_group`` receives the batchable search specs and returns their
    results in order (or None to decline); every remaining spec goes
    through ``solve_one``.  Results come back in input order.
    """
    results: dict[int, SolveResult] = {}
    search_indices = batchable_search_group(spec_list)
    if search_indices:
        group = solve_group([spec_list[i] for i in search_indices])
        if group is not None:
            results.update(zip(search_indices, group))
    for index, spec in enumerate(spec_list):
        if index not in results:
            results[index] = solve_one(spec)
    return [results[index] for index in range(len(spec_list))]


class AnalyticBackend(SolverBackend):
    """Closed-form bounds and feasibility only -- no simulation."""

    name: ClassVar[str] = "analytic"
    fidelity: ClassVar[str] = "bound"

    def _solve(self, spec: ProblemSpec) -> dict[str, Any]:
        fields = self._solve_nominal(spec)
        fault = getattr(spec, "fault_model", None)
        if fault is not None and fault.is_fault:
            # The closed forms describe the fault-free protocol; the
            # envelope says so instead of silently pretending otherwise.
            details = dict(fields.get("details") or {})
            details["fault"] = {"modeled": False, **fault.to_dict()}
            fields["details"] = details
        return fields

    def _solve_nominal(self, spec: ProblemSpec) -> dict[str, Any]:
        if isinstance(spec, SearchProblem):
            return {
                "feasible": True,
                "solved": None,
                "measured_time": None,
                "bound": theorem1_search_bound(spec.distance, spec.visibility),
                "algorithm": None,
                "details": {
                    "guaranteed_round": guaranteed_discovery_round(
                        spec.distance, spec.visibility
                    ),
                    "difficulty": spec.difficulty,
                },
            }
        if isinstance(spec, RendezvousProblem):
            verdict = classify_feasibility(spec.attributes)
            bound = rendezvous_time_bound(spec.to_instance())
            return {
                "feasible": verdict.feasible,
                "solved": None,
                "measured_time": None,
                "bound": bound,
                "algorithm": None,
                "details": {
                    "verdict": verdict.describe(),
                    "reasons": list(verdict.reasons),
                    "difficulty": spec.difficulty,
                },
            }
        if isinstance(spec, GatheringProblem):
            from ..gathering import swarm_feasibility

            feasibility = swarm_feasibility(spec.to_instance())
            return {
                "feasible": feasibility.pairwise_gathering_feasible,
                "solved": None,
                "measured_time": None,
                "bound": None,
                "algorithm": None,
                "details": {
                    "verdict": feasibility.describe().splitlines()[0],
                    "pairwise_feasible": feasibility.pairwise_gathering_feasible,
                    "connectivity_feasible": feasibility.connectivity_gathering_feasible,
                    "infeasible_pairs": [list(pair) for pair in feasibility.infeasible_pairs()],
                },
            }
        raise _unsupported(self, spec)


def search_report_fields(spec: "SearchProblem", report: Any) -> dict[str, Any]:
    """Envelope fields for a :class:`~repro.core.search.SearchReport`.

    Shared by every measuring backend (simulation and vectorized), so the
    two produce identical envelopes for identical outcomes.
    """
    return {
        "feasible": True,
        "solved": report.outcome.solved,
        "measured_time": report.time,
        "bound": report.bound,
        "algorithm": report.algorithm_name,
        "details": {
            "guaranteed_round": report.guaranteed_round,
            "difficulty": spec.difficulty,
            "segments_processed": report.outcome.segments_processed,
            "gap_evaluations": report.outcome.gap_evaluations,
            "horizon": report.outcome.horizon,
        },
    }


def rendezvous_report_fields(spec: "RendezvousProblem", report: Any) -> dict[str, Any]:
    """Envelope fields for a :class:`~repro.core.rendezvous.RendezvousReport`."""
    return {
        "feasible": report.verdict.feasible,
        "solved": report.solved,
        "measured_time": report.time if report.solved else None,
        "bound": report.bound,
        "algorithm": report.algorithm_name,
        "details": {
            "verdict": report.verdict.describe(),
            "difficulty": spec.difficulty,
            "segments_processed": report.outcome.segments_processed,
            "gap_evaluations": report.outcome.gap_evaluations,
            "horizon": report.outcome.horizon,
        },
    }


class SimulationBackend(SolverBackend):
    """The continuous-time engine: measured times next to the bounds."""

    name: ClassVar[str] = "simulation"
    fidelity: ClassVar[str] = "measured"

    def _solve(self, spec: ProblemSpec) -> dict[str, Any]:
        fault = getattr(spec, "fault_model", None)
        if fault is not None and fault.is_fault:
            # One representative trial at the nominal fault times; the
            # montecarlo backend owns the jittered ensembles.
            from ..faults.solver import nominal_realization, solve_spec_with_fault

            return solve_spec_with_fault(
                spec, nominal_realization(fault, spec.canonical_hash())
            )
        if isinstance(spec, SearchProblem):
            return search_report_fields(spec, solve_search(spec.to_instance()))
        if isinstance(spec, RendezvousProblem):
            report = solve_rendezvous(
                spec.to_instance(),
                horizon=spec.horizon,
                allow_infeasible=spec.allow_infeasible,
            )
            return rendezvous_report_fields(spec, report)
        if isinstance(spec, GatheringProblem):
            from ..gathering import simulate_gathering, swarm_feasibility

            instance = spec.to_instance()
            feasibility = swarm_feasibility(instance)
            outcome = simulate_gathering(instance, horizon=spec.horizon)
            pairwise_time = outcome.pairwise_gathering_time
            connectivity_time = outcome.connectivity_gathering_time
            return {
                "feasible": feasibility.pairwise_gathering_feasible,
                "solved": outcome.all_pairs_met,
                "measured_time": pairwise_time,
                "bound": None,
                "algorithm": "wait-and-search (pairwise)",
                "details": {
                    "verdict": feasibility.describe().splitlines()[0],
                    "connectivity_time": connectivity_time,
                    "pairs_met": sum(result.met for result in outcome.pairwise),
                    "pairs_total": len(outcome.pairwise),
                    "horizon": outcome.horizon,
                },
            }
        raise _unsupported(self, spec)


class AutoBackend(SolverBackend):
    """Per-spec fidelity choice: measure when a run can terminate.

    Measured answers are preferred whenever the simulation can run to
    completion: a feasible instance (the bound derives a horizon) or an
    explicitly permitted infeasible run (both ``horizon`` and
    ``allow_infeasible`` set).  Every other provably infeasible
    rendezvous spec falls back to the analytic verdict instead of
    raising, which makes ``auto`` total over all valid specs.

    Search specs always go through the vectorized kernel backend --
    singly or, for *batches* (:meth:`solve_specs`, used by
    :class:`~repro.api.batch.BatchRunner`), as one array-at-a-time
    group.  Routing singles and batches identically keeps the
    determinism contract: the same spec under ``auto`` produces the same
    result fingerprint whether it is solved alone, in a batch, or in a
    pool worker.
    """

    name: ClassVar[str] = "auto"
    fidelity: ClassVar[str] = "measured"

    def __init__(self) -> None:
        self._analytic = AnalyticBackend()
        self._simulation = SimulationBackend()
        self._vectorized: SolverBackend | None = None

    def solve(self, spec: ProblemSpec) -> SolveResult:
        return self._pick(spec).solve(spec)

    def solve_specs(self, specs: Any) -> list[SolveResult]:
        """Batch entry point: kernel for search groups, per-spec otherwise."""

        def solve_group(group: list) -> Any:
            try:
                vectorized = create_backend("vectorized")
            except InvalidParameterError:  # pragma: no cover - registered on import
                return None
            if not hasattr(vectorized, "solve_specs"):
                return None
            return vectorized.solve_specs(group)

        return route_search_batch(list(specs), solve_group, self.solve)

    def batchable_indices(self, specs: Any) -> list[int]:
        """Indices :meth:`solve_specs` would solve in one kernel call.

        :class:`~repro.api.batch.BatchRunner` uses this to batch only the
        vectorizable group and keep fanning the remainder out over its
        worker pool.
        """
        return batchable_search_group(list(specs))

    def _pick(self, spec: ProblemSpec) -> SolverBackend:
        fault = getattr(spec, "fault_model", None)
        if fault is not None and fault.is_fault:
            # The fault path is total (typed results, no exceptions) and
            # scalar-only; it also covers provably infeasible instances,
            # which a crash can make solvable.
            return self._simulation
        if isinstance(spec, SearchProblem):
            if self._vectorized is None:
                try:
                    self._vectorized = create_backend("vectorized")
                except InvalidParameterError:  # pragma: no cover - registered on import
                    self._vectorized = self._simulation
            return self._vectorized
        if isinstance(spec, RendezvousProblem):
            simulable = spec.horizon is not None and spec.allow_infeasible
            if not simulable and not classify_feasibility(spec.attributes).feasible:
                return self._analytic
        return self._simulation

    def _solve(self, spec: ProblemSpec) -> dict[str, Any]:  # pragma: no cover
        raise NotImplementedError("AutoBackend delegates whole solves")


BackendFactory = Callable[[], SolverBackend]

_REGISTRY: Dict[str, BackendFactory] = {
    AnalyticBackend.name: AnalyticBackend,
    SimulationBackend.name: SimulationBackend,
    AutoBackend.name: AutoBackend,
}


def backend_names() -> list[str]:
    """Sorted list of registered backend names."""
    return sorted(_REGISTRY)


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or replace) a backend factory under ``name``."""
    if not name:
        raise InvalidParameterError("backend name must be non-empty")
    _REGISTRY[name] = factory


def create_backend(name: str) -> SolverBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError as error:
        raise InvalidParameterError(
            f"unknown backend {name!r}; available: {', '.join(backend_names())}"
        ) from error
    return factory()


def solve(spec: ProblemSpec, backend: Union[str, SolverBackend] = "auto") -> SolveResult:
    """Solve one spec through the facade.

    Args:
        spec: the problem to solve.
        backend: a backend name (``"analytic"``, ``"simulation"``,
            ``"auto"`` or anything registered) or a backend instance.
    """
    resolved = create_backend(backend) if isinstance(backend, str) else backend
    return resolved.solve(spec)
