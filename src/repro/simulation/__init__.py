"""Continuous-time simulation of search and rendezvous."""

from .closest_approach import CrossingSearchResult, find_first_crossing, interval_minimum_lower_bound
from .engine import (
    simulate_rendezvous,
    simulate_robot_pair,
    simulate_search,
    simulate_search_trajectory,
    simulate_trajectory_pair,
)
from .events import DetectionEvent, SimulationOutcome
from .gap import (
    first_time_within_linear_relative,
    first_time_within_pair,
    first_time_within_static,
    static_min_distance,
)
from .horizon import HorizonPolicy, bound_multiple_horizon, fixed_horizon
from .instance import RendezvousInstance, SearchInstance
from .kernel import (
    clear_compiled_cache,
    kernel_cache_stats,
    kernel_simulate_rendezvous,
    kernel_simulate_search,
    simulate_robot_pair_kernel,
    simulate_search_batch,
)
from .trace import Trace, record_trace

__all__ = [
    "CrossingSearchResult",
    "find_first_crossing",
    "interval_minimum_lower_bound",
    "simulate_rendezvous",
    "simulate_robot_pair",
    "simulate_search",
    "simulate_search_trajectory",
    "simulate_trajectory_pair",
    "DetectionEvent",
    "SimulationOutcome",
    "first_time_within_linear_relative",
    "first_time_within_pair",
    "first_time_within_static",
    "static_min_distance",
    "HorizonPolicy",
    "bound_multiple_horizon",
    "fixed_horizon",
    "RendezvousInstance",
    "SearchInstance",
    "clear_compiled_cache",
    "kernel_cache_stats",
    "kernel_simulate_rendezvous",
    "kernel_simulate_search",
    "simulate_robot_pair_kernel",
    "simulate_search_batch",
    "Trace",
    "record_trace",
]
