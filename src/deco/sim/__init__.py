from .scene import (Action, GripperCommand, Scene, SimObject, WORKSPACE,
                    point_cloud, step)
from .oracle import ATOMIC_SKILLS, OraclePolicy, oracle_policy, record_demo
from .tasks import (INITIALIZERS, PREDICATES, drawer_front_obstacle_task, reset,
                    success)

__all__ = ["Action", "GripperCommand", "Scene", "SimObject", "WORKSPACE",
           "point_cloud", "step", "ATOMIC_SKILLS", "OraclePolicy", "oracle_policy",
           "record_demo", "INITIALIZERS", "PREDICATES", "drawer_front_obstacle_task",
           "reset", "success"]
