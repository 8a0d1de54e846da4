"""Benchmark scene initializers and success predicates.

The drawer thresholds live in ``deco.registry``: the drawer counts as open at
fraction >= 0.8 and closed below 0.2.  A sweep succeeds once at least 80% of
the rubbish sits in the dustpan (``RUBBISH_FRACTION_THRESHOLD``, fixed here).
"""

from __future__ import annotations

import zlib

import numpy as np

from ..errors import UnknownTask
from ..registry import (DRAWER_CLOSED_THRESHOLD, DRAWER_OPEN_THRESHOLD, TaskSpec,
                        load_registry)
from .scene import CUPBOARD_INTERIOR, Scene, SimObject

RUBBISH_FRACTION_THRESHOLD = 0.8

# nominal placements (meters); initializers jitter these per seed
ITEM_TABLE = np.array([0.42, 0.05, 0.02])
ITEM2_TABLE = np.array([0.44, 0.09, 0.02])
ITEM_IN_CLOSED_DRAWER = np.array([0.62, -0.28, 0.05])
ITEM2_IN_CLOSED_DRAWER = np.array([0.66, -0.22, 0.05])
ITEM_IN_OPEN_DRAWER = ITEM_IN_CLOSED_DRAWER - np.array([0.15, 0.0, 0.0])
BOX_TABLE = np.array([0.42, 0.06, 0.025])
BOX_IN_CLOSED_DRAWER = np.array([0.62, -0.25, 0.055])
BOX_IN_OPEN_DRAWER = BOX_IN_CLOSED_DRAWER - np.array([0.15, 0.0, 0.0])
BOX_IN_CUPBOARD = np.array([0.64, 0.22, 0.185])
BROOM_IN_CUPBOARD = np.array([0.64, 0.30, 0.20])
BROOM_TABLE = np.array([0.28, 0.14, 0.02])
RUBBISH_CLUSTER = np.array([0.35, 0.10, 0.01])
RUBBISH_OUTLIER = np.array([0.48, 0.33, 0.01])
SINGLE_RUBBISH = np.array([0.45, 0.30, 0.01])

_CLUSTER_OFFSETS = np.array([(0.012, 0.0, 0.0), (-0.012, 0.008, 0.0),
                             (0.0, -0.012, 0.0), (-0.006, -0.004, 0.0)])


def _rng(task_id: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(task_id.encode())])


def _jitter(rng, base, scale=0.01):
    return np.asarray(base, dtype=float) + np.array(
        [rng.uniform(-scale, scale), rng.uniform(-scale, scale), 0.0])


def _add_cluster(scene: Scene, rng):
    for i, offset in enumerate(_CLUSTER_OFFSETS):
        scene.objects[f"rubbish_{i}"] = SimObject(
            "rubbish", _jitter(rng, RUBBISH_CLUSTER + offset, 0.006))


def _init_drawer_closed(scene, rng):
    scene.drawer_present = True
    scene.open_fraction = 0.0


def _init_drawer_open(scene, rng):
    scene.drawer_present = True
    scene.open_fraction = 1.0


def _init_item_on_table_drawer_open(scene, rng):
    _init_drawer_open(scene, rng)
    scene.objects["item"] = SimObject("block", _jitter(rng, ITEM_TABLE))


def _init_item_on_table_drawer_closed(scene, rng):
    _init_drawer_closed(scene, rng)
    scene.objects["item"] = SimObject("block", _jitter(rng, ITEM_TABLE))


def _init_item_in_open_drawer(scene, rng):
    _init_drawer_open(scene, rng)
    scene.objects["item"] = SimObject("block", _jitter(rng, ITEM_IN_OPEN_DRAWER, 0.008))


def _init_item_in_closed_drawer(scene, rng):
    _init_drawer_closed(scene, rng)
    scene.objects["item"] = SimObject("block", _jitter(rng, ITEM_IN_CLOSED_DRAWER, 0.008))


def _init_box_in_open_drawer(scene, rng):
    _init_drawer_open(scene, rng)
    scene.objects["box"] = SimObject("box", _jitter(rng, BOX_IN_OPEN_DRAWER, 0.008))


def _init_box_in_closed_drawer(scene, rng):
    _init_drawer_closed(scene, rng)
    scene.cupboard_present = True
    scene.objects["box"] = SimObject("box", _jitter(rng, BOX_IN_CLOSED_DRAWER, 0.008))


def _init_box_on_table(scene, rng):
    scene.cupboard_present = True
    scene.objects["box"] = SimObject("box", _jitter(rng, BOX_TABLE))


def _init_box_in_cupboard(scene, rng):
    scene.cupboard_present = True
    scene.objects["box"] = SimObject("box", _jitter(rng, BOX_IN_CUPBOARD, 0.008))


def _init_broom_in_cupboard(scene, rng):
    scene.cupboard_present = True
    scene.objects["broom"] = SimObject("broom", _jitter(rng, BROOM_IN_CUPBOARD, 0.008))


def _init_cleanup_scene(scene, rng):
    scene.dustpan_present = True
    scene.objects["broom"] = SimObject("broom", _jitter(rng, BROOM_TABLE, 0.008))
    _add_cluster(scene, rng)
    scene.objects["rubbish_4"] = SimObject("rubbish", _jitter(rng, RUBBISH_OUTLIER, 0.008))


def _init_single_rubbish(scene, rng):
    scene.dustpan_present = True
    scene.objects["rubbish_0"] = SimObject("rubbish", _jitter(rng, SINGLE_RUBBISH, 0.008))


def _init_exchange_boxes(scene, rng):
    scene.cupboard_present = True
    scene.objects["box_a"] = SimObject("box", _jitter(rng, BOX_IN_CUPBOARD, 0.008))
    scene.objects["box_b"] = SimObject("box", _jitter(rng, BOX_TABLE))


def _init_retrieve_scene(scene, rng):
    scene.cupboard_present = True
    scene.dustpan_present = True
    scene.objects["broom"] = SimObject("broom", _jitter(rng, BROOM_IN_CUPBOARD, 0.008))
    _add_cluster(scene, rng)


def _init_two_items_on_table_drawer_closed(scene, rng):
    _init_drawer_closed(scene, rng)
    scene.objects["item"] = SimObject("block", _jitter(rng, ITEM_TABLE, 0.008))
    scene.objects["item2"] = SimObject("block", _jitter(rng, ITEM2_TABLE, 0.008))


def _init_two_items_in_closed_drawer(scene, rng):
    _init_drawer_closed(scene, rng)
    scene.objects["item"] = SimObject("block", _jitter(rng, ITEM_IN_CLOSED_DRAWER, 0.006))
    scene.objects["item2"] = SimObject("block", _jitter(rng, ITEM2_IN_CLOSED_DRAWER, 0.006))


# obstacle fixture: the item sits so the straight handle-to-item transition
# scrapes the open drawer's protruding front corner
def _init_drawer_front_obstacle(scene, rng):
    _init_drawer_closed(scene, rng)
    scene.objects["item"] = SimObject("block", _jitter(rng, np.array([0.60, 0.10, 0.02]), 0.004))


INITIALIZERS = {
    "drawer_closed": _init_drawer_closed,
    "drawer_open": _init_drawer_open,
    "item_on_table_drawer_open": _init_item_on_table_drawer_open,
    "item_on_table_drawer_closed": _init_item_on_table_drawer_closed,
    "item_in_open_drawer": _init_item_in_open_drawer,
    "item_in_closed_drawer": _init_item_in_closed_drawer,
    "box_in_open_drawer": _init_box_in_open_drawer,
    "box_in_closed_drawer": _init_box_in_closed_drawer,
    "box_on_table": _init_box_on_table,
    "box_in_cupboard": _init_box_in_cupboard,
    "broom_in_cupboard": _init_broom_in_cupboard,
    "cleanup_scene": _init_cleanup_scene,
    "single_rubbish": _init_single_rubbish,
    "exchange_boxes": _init_exchange_boxes,
    "retrieve_scene": _init_retrieve_scene,
    "two_items_on_table_drawer_closed": _init_two_items_on_table_drawer_closed,
    "two_items_in_closed_drawer": _init_two_items_in_closed_drawer,
    "drawer_front_obstacle": _init_drawer_front_obstacle,
}


def reset(task: TaskSpec, seed: int) -> Scene:
    if task.initializer not in INITIALIZERS:
        raise UnknownTask(f"task {task.id!r} has unknown initializer {task.initializer!r}")
    scene = Scene()
    INITIALIZERS[task.initializer](scene, _rng(task.id, seed))
    return scene


# --- success predicates ---

def _empty(scene: Scene) -> bool:
    return scene.held_object is None


def _in_drawer(scene: Scene, name: str) -> bool:
    return scene.drawer_interior().contains(scene.objects[name].position)


def _in_cupboard(scene: Scene, name: str) -> bool:
    return CUPBOARD_INTERIOR.contains(scene.objects[name].position)


PREDICATES = {
    "drawer_open": lambda s: s.open_fraction >= DRAWER_OPEN_THRESHOLD and _empty(s),
    "drawer_closed": lambda s: s.open_fraction < DRAWER_CLOSED_THRESHOLD and _empty(s),
    "item_in_drawer": lambda s: _in_drawer(s, "item") and _empty(s),
    "item_out_of_drawer": lambda s: not _in_drawer(s, "item") and _empty(s),
    "box_out_of_drawer": lambda s: not _in_drawer(s, "box") and _empty(s),
    "box_in_cupboard": lambda s: _in_cupboard(s, "box") and _empty(s),
    "box_out_of_cupboard": lambda s: not _in_cupboard(s, "box") and _empty(s),
    "broom_out_of_cupboard": lambda s: not _in_cupboard(s, "broom") and _empty(s),
    "most_rubbish_in_dustpan":
        lambda s: s.rubbish_in_dustpan_fraction() >= RUBBISH_FRACTION_THRESHOLD,
    "all_rubbish_in_dustpan":
        lambda s: s.rubbish_in_dustpan_fraction() >= 0.999 and _empty(s),
    "item_in_drawer_open":
        lambda s: _in_drawer(s, "item") and s.open_fraction >= DRAWER_OPEN_THRESHOLD and _empty(s),
    "item_in_drawer_closed":
        lambda s: _in_drawer(s, "item") and s.open_fraction < DRAWER_CLOSED_THRESHOLD and _empty(s),
    "item_out_drawer_open":
        lambda s: not _in_drawer(s, "item") and s.open_fraction >= DRAWER_OPEN_THRESHOLD and _empty(s),
    "item_out_drawer_closed":
        lambda s: not _in_drawer(s, "item") and s.open_fraction < DRAWER_CLOSED_THRESHOLD and _empty(s),
    "both_items_in_drawer":
        lambda s: _in_drawer(s, "item") and _in_drawer(s, "item2") and _empty(s),
    "both_items_out_of_drawer":
        lambda s: not _in_drawer(s, "item") and not _in_drawer(s, "item2") and _empty(s),
    "boxes_exchanged":
        lambda s: not _in_cupboard(s, "box_a") and _in_cupboard(s, "box_b") and _empty(s),
    "broom_out_and_swept":
        lambda s: not _in_cupboard(s, "broom")
        and s.rubbish_in_dustpan_fraction() >= RUBBISH_FRACTION_THRESHOLD and _empty(s),
}


def success(task: TaskSpec, scene: Scene) -> bool:
    if task.predicate not in PREDICATES:
        raise UnknownTask(f"task {task.id!r} has unknown predicate {task.predicate!r}")
    try:
        return bool(PREDICATES[task.predicate](scene))
    except KeyError:
        return False


def drawer_front_obstacle_task() -> TaskSpec:
    """Fixture: put-in-and-close with the item placed behind the open drawer front."""
    base = load_registry().get("put_in_and_close")
    return TaskSpec(id="put_in_and_close_obstacle", instruction=base.instruction,
                    domain="drawer", kind="compositional", cycle_count=base.cycle_count,
                    predicate=base.predicate, initializer="drawer_front_obstacle",
                    plan=base.plan, aliases=())
