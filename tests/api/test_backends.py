"""Tests for the backend registry and the SolveResult envelope."""

from __future__ import annotations

import math

import pytest

from repro.api import (
    AnalyticBackend,
    GatheringMember,
    GatheringProblem,
    ProblemSpec,
    RendezvousProblem,
    SearchProblem,
    SimulationBackend,
    SolveResult,
    SolverBackend,
    backend_names,
    create_backend,
    register_backend,
    solve,
)
from repro.api.backends import _REGISTRY
from repro.core import rendezvous_time_bound, solve_search, theorem1_search_bound
from repro.errors import InfeasibleConfigurationError, InvalidParameterError


SEARCH = SearchProblem(distance=1.2, visibility=0.3, bearing=0.6)
FEASIBLE_RV = RendezvousProblem(distance=1.4, visibility=0.35, speed=0.6)
INFEASIBLE_RV = RendezvousProblem(distance=1.4, visibility=0.35)


class TestAnalyticBackend:
    def test_search_bound_matches_theorem1(self):
        result = solve(SEARCH, backend="analytic")
        assert result.bound == pytest.approx(theorem1_search_bound(1.2, 0.3))
        assert result.solved is None and result.measured_time is None
        assert result.feasible is True
        assert result.details["guaranteed_round"] >= 1
        assert result.provenance.backend == "analytic"
        assert result.provenance.fidelity == "bound"

    def test_rendezvous_bound_matches_engine(self):
        result = solve(FEASIBLE_RV, backend="analytic")
        assert result.bound == pytest.approx(rendezvous_time_bound(FEASIBLE_RV.to_instance()))
        assert result.feasible is True

    def test_infeasible_rendezvous_reports_without_raising(self):
        result = solve(INFEASIBLE_RV, backend="analytic")
        assert result.feasible is False
        assert result.bound is None
        assert "infeasible" in result.details["verdict"]

    def test_gathering_feasibility(self):
        spec = GatheringProblem(
            members=(GatheringMember(x=0.0, y=0.0), GatheringMember(x=1.0, y=0.3, speed=0.6)),
            visibility=0.4,
        )
        result = solve(spec, backend="analytic")
        assert result.feasible is True
        assert result.details["infeasible_pairs"] == []


class TestSimulationBackend:
    def test_search_matches_engine_entry_point(self):
        result = solve(SEARCH, backend="simulation")
        report = solve_search(SEARCH.to_instance())
        assert result.solved is True
        assert result.measured_time == pytest.approx(report.time)
        assert result.bound == pytest.approx(report.bound)
        assert result.bound_ratio is not None and result.bound_ratio < 1.0
        assert result.algorithm == report.algorithm_name

    def test_from_instance_specs_match_the_engine_exactly(self):
        # Regression guard: the facade must reproduce the engine's numbers
        # bit for bit for specs converted from instances (E01/E04 parity).
        from repro.core import solve_rendezvous
        from repro.workloads import symmetric_clock_suite

        instance = symmetric_clock_suite()[0]
        result = solve(RendezvousProblem.from_instance(instance), backend="simulation")
        report = solve_rendezvous(instance)
        assert result.bound == report.bound
        assert result.measured_time == report.time

    def test_rendezvous_measures_below_bound(self):
        result = solve(FEASIBLE_RV, backend="simulation")
        assert result.solved is True
        assert result.bound_ratio < 1.0
        assert result.details["segments_processed"] > 0

    def test_infeasible_without_horizon_raises_like_the_engine(self):
        with pytest.raises(InfeasibleConfigurationError):
            solve(INFEASIBLE_RV, backend="simulation")

    def test_infeasible_with_horizon_runs_to_horizon(self):
        spec = RendezvousProblem(
            distance=1.4, visibility=0.35, horizon=200.0, allow_infeasible=True
        )
        result = solve(spec, backend="simulation")
        assert result.solved is False
        assert result.measured_time is None
        assert "not solved" in result.summary()

    def test_gathering_simulation(self):
        spec = GatheringProblem(
            members=(GatheringMember(x=0.0, y=0.0), GatheringMember(x=1.0, y=0.3, speed=0.6)),
            visibility=0.4,
            horizon=5000.0,
        )
        result = solve(spec, backend="simulation")
        assert result.solved is True
        assert result.measured_time is not None and result.measured_time > 0.0
        assert result.details["pairs_met"] == 1


class TestAutoBackend:
    def test_feasible_spec_gets_simulated(self):
        result = solve(FEASIBLE_RV, backend="auto")
        assert result.provenance.backend == "simulation"
        assert result.solved is True

    def test_infeasible_spec_falls_back_to_analytic(self):
        result = solve(INFEASIBLE_RV, backend="auto")
        assert result.provenance.backend == "analytic"
        assert result.feasible is False

    def test_infeasible_with_permitted_horizon_still_simulates(self):
        spec = RendezvousProblem(
            distance=1.4, visibility=0.35, horizon=200.0, allow_infeasible=True
        )
        result = solve(spec, backend="auto")
        assert result.provenance.backend == "simulation"
        assert result.solved is False

    def test_infeasible_with_horizon_but_not_allowed_falls_back(self):
        # horizon alone is not permission: the simulation backend would
        # raise, so auto must stay total and answer analytically.
        spec = RendezvousProblem(distance=1.4, visibility=0.35, horizon=100.0)
        result = solve(spec, backend="auto")
        assert result.provenance.backend == "analytic"
        assert result.feasible is False


class TestRegistry:
    def test_builtin_names_registered(self):
        assert {"analytic", "simulation", "auto"} <= set(backend_names())

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            create_backend("quantum")

    def test_backend_instance_accepted_directly(self):
        result = solve(SEARCH, backend=AnalyticBackend())
        assert result.provenance.backend == "analytic"

    def test_custom_backend_dispatches_by_name(self):
        class EchoBackend(SolverBackend):
            name = "echo"
            fidelity = "bound"

            def _solve(self, spec):
                return {
                    "feasible": None,
                    "solved": None,
                    "measured_time": None,
                    "bound": 42.0,
                    "algorithm": None,
                    "details": {},
                }

        register_backend("echo", EchoBackend)
        try:
            result = solve(SEARCH, backend="echo")
            assert result.bound == 42.0
            assert result.provenance.backend == "echo"
        finally:
            _REGISTRY.pop("echo", None)

    def test_unsolvable_spec_kind_rejected_with_clear_error(self):
        member = GatheringMember(x=0.0, y=0.0)  # a spec kind no backend solves alone
        with pytest.raises(InvalidParameterError, match="cannot solve"):
            AnalyticBackend()._solve(member)
        with pytest.raises(InvalidParameterError, match="cannot solve"):
            SimulationBackend()._solve(member)


class TestResultEnvelope:
    def test_json_round_trip_preserves_fingerprint(self):
        result = solve(FEASIBLE_RV, backend="simulation")
        restored = SolveResult.from_dict(result.to_dict())
        assert restored.fingerprint() == result.fingerprint()
        assert restored.spec == result.spec
        assert restored.bound_ratio == pytest.approx(result.bound_ratio)

    def test_provenance_records_spec_hash_and_seed(self):
        result = solve(SEARCH, backend="analytic")
        assert result.provenance.spec_hash == SEARCH.canonical_hash()
        assert result.provenance.seed == SEARCH.seed()
        assert result.provenance.wall_time >= 0.0

    @pytest.mark.parametrize("backend_cls", [AnalyticBackend, SimulationBackend])
    def test_provenance_hashes_the_spec_once(self, backend_cls, monkeypatch):
        """The seed comes from the hash already computed, not a second one."""
        calls = []
        original = ProblemSpec.canonical_hash

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(ProblemSpec, "canonical_hash", counting)
        result = backend_cls().solve(SEARCH)
        assert len(calls) == 1
        assert result.provenance.seed == ProblemSpec.seed_from_hash(
            result.provenance.spec_hash
        )

    def test_summary_mentions_backend_and_bound(self):
        text = solve(SEARCH, backend="simulation").summary()
        assert "Theorem 1 bound" in text
        assert "simulation backend" in text

    def test_fingerprints_stable_across_reruns(self):
        first = solve(SEARCH, backend="simulation")
        second = solve(SEARCH, backend="simulation")
        assert first.fingerprint() == second.fingerprint()
