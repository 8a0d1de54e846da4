"""Demonstration decomposition, skill chaining and desk-scale benchmark suite."""

from .chaining import ChainingResult, chain_skills, chaining_poses, rrt_path
from .costmap import Bounds, CostMap, build_cost_map
from .config import ExperimentConfig
from .decompose import (DecompositionConfig, DecompositionMode,
                        build_atomic_dataset, discover_keyframes,
                        segment_interactions)
from .executor import (ExecutorConfig, EpisodeResult, MonitorVerdict,
                       build_library, monitor, run_episode, run_suite,
                       scene_summary, write_suite_csv)
from .geometry import Pose, is_goal_reached, pose_distance, quat_slerp
from .planning import (ItemLocation, Plan, PlanSource, SceneSummary, plan_mock,
                       repair_preconditions)
from .registry import TaskRegistry, TaskSpec, load_registry
from .trajectory import (AtomicTask, Demonstration, GripperState,
                         InstructionLibrary, InteractionSegment, SegmentKind,
                         TimeStep, load_atomic_tasks, load_demos,
                         save_atomic_tasks, save_demos)
from .vlm import EndpointConfig, parse_plan_response, plan_vlm

__version__ = "0.1.0"
