"""Motion substrate: segments, trajectories, builders and frame transforms."""

from .arc import ArcMotion
from .builder import TrajectoryBuilder
from .compiled import (
    KIND_ARC,
    KIND_LINEAR,
    KIND_WAIT,
    CompiledTrajectory,
    SegmentStreamCompiler,
    compile_segments,
)
from .lazy import LazyTrajectory
from .linear import LinearMotion
from .relative import EquivalentSearchTrajectory, RelativeMotion
from .sampling import (
    numeric_max_speed,
    numeric_path_length,
    positions_array,
    sample_positions,
    sample_times,
)
from .segment import MotionSegment
from .trajectory import Trajectory
from .transform import (
    is_identity_frame,
    lazy_world_trajectory,
    transform_compiled,
    transform_segment,
    transform_segments,
    transform_trajectory,
)
from .wait import WaitMotion

__all__ = [
    "ArcMotion",
    "TrajectoryBuilder",
    "KIND_ARC",
    "KIND_LINEAR",
    "KIND_WAIT",
    "CompiledTrajectory",
    "SegmentStreamCompiler",
    "compile_segments",
    "LazyTrajectory",
    "LinearMotion",
    "EquivalentSearchTrajectory",
    "RelativeMotion",
    "numeric_max_speed",
    "numeric_path_length",
    "positions_array",
    "sample_positions",
    "sample_times",
    "MotionSegment",
    "Trajectory",
    "is_identity_frame",
    "lazy_world_trajectory",
    "transform_compiled",
    "transform_segment",
    "transform_segments",
    "transform_trajectory",
    "WaitMotion",
]
