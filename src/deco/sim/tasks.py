"""Benchmark scene layouts and success predicates.

Every initial scene is one row of ``INITIALIZERS``, a ``Layout``: the drawer's
open fraction (``None`` for no drawer), whether the cupboard and the dustpan
are present, and the object placements, each an object name, whose prefix
says what the object is, a nominal position and a jitter half-width.
``reset`` builds the scene from the row, then jitters each placement's
nominal position in x and y, in row order, by up to its half-width from
``named_rng(seed, task.id)``.

The drawer thresholds live in ``deco.registry``: the drawer counts as open at
fraction >= 0.8 and closed below 0.2.  A sweep succeeds once at least 80% of
the rubbish sits in the dustpan (``RUBBISH_FRACTION_THRESHOLD``, fixed here).
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ..config import check_count
from ..errors import UnknownTask
from ..registry import (DRAWER_CLOSED_THRESHOLD, DRAWER_OPEN_THRESHOLD, TaskSpec,
                        load_registry)
from .scene import CUPBOARD_INTERIOR, Scene

RUBBISH_FRACTION_THRESHOLD = 0.8

# nominal placements (meters); reset jitters these per seed
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


class Layout(NamedTuple):
    drawer: float | None       # the drawer's open fraction; None: no drawer
    cupboard: bool
    dustpan: bool
    placements: tuple          # (name, nominal position, jitter half-width)


_CLUSTER = tuple((f"rubbish_{i}", RUBBISH_CLUSTER + offset, 0.006)
                 for i, offset in enumerate(_CLUSTER_OFFSETS))

INITIALIZERS = {
    "drawer_closed": Layout(0.0, False, False, ()),
    "drawer_open": Layout(1.0, False, False, ()),
    "item_on_table_drawer_open": Layout(1.0, False, False, (
        ("item", ITEM_TABLE, 0.01),)),
    "item_on_table_drawer_closed": Layout(0.0, False, False, (
        ("item", ITEM_TABLE, 0.01),)),
    "item_in_open_drawer": Layout(1.0, False, False, (
        ("item", ITEM_IN_OPEN_DRAWER, 0.008),)),
    "item_in_closed_drawer": Layout(0.0, False, False, (
        ("item", ITEM_IN_CLOSED_DRAWER, 0.008),)),
    "box_in_open_drawer": Layout(1.0, False, False, (
        ("box", BOX_IN_OPEN_DRAWER, 0.008),)),
    "box_in_closed_drawer": Layout(0.0, True, False, (
        ("box", BOX_IN_CLOSED_DRAWER, 0.008),)),
    "box_on_table": Layout(None, True, False, (
        ("box", BOX_TABLE, 0.01),)),
    "box_in_cupboard": Layout(None, True, False, (
        ("box", BOX_IN_CUPBOARD, 0.008),)),
    "broom_in_cupboard": Layout(None, True, False, (
        ("broom", BROOM_IN_CUPBOARD, 0.008),)),
    "cleanup_scene": Layout(None, False, True, (
        ("broom", BROOM_TABLE, 0.008),
        *_CLUSTER,
        ("rubbish_4", RUBBISH_OUTLIER, 0.008))),
    "single_rubbish": Layout(None, False, True, (
        ("rubbish_0", SINGLE_RUBBISH, 0.008),)),
    "exchange_boxes": Layout(None, True, False, (
        ("box_a", BOX_IN_CUPBOARD, 0.008),
        ("box_b", BOX_TABLE, 0.01))),
    "retrieve_scene": Layout(None, True, True, (
        ("broom", BROOM_IN_CUPBOARD, 0.008),
        *_CLUSTER)),
    "two_items_on_table_drawer_closed": Layout(0.0, False, False, (
        ("item", ITEM_TABLE, 0.008),
        ("item2", ITEM2_TABLE, 0.008))),
    "two_items_in_closed_drawer": Layout(0.0, False, False, (
        ("item", ITEM_IN_CLOSED_DRAWER, 0.006),
        ("item2", ITEM2_IN_CLOSED_DRAWER, 0.006))),
    # obstacle fixture: the item sits so the straight handle-to-item transition
    # scrapes the open drawer's protruding front corner
    "drawer_front_obstacle": Layout(0.0, False, False, (
        ("item", np.array([0.60, 0.10, 0.02]), 0.004),)),
}


def named_rng(seed: int, name: str) -> np.random.Generator:
    """The generator of every seeded draw (reset, policy noise, monitor retries):
    ``name`` is a task id or an instruction; a bad seed is a ConfigError."""
    check_count(seed, "seed")
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _jitter(rng, base, scale):
    return np.asarray(base, dtype=float) + np.array(
        [rng.uniform(-scale, scale), rng.uniform(-scale, scale), 0.0])


def reset(task: TaskSpec, seed: int) -> Scene:
    if task.initializer not in INITIALIZERS:
        raise UnknownTask(f"task {task.id!r} has unknown initializer {task.initializer!r}")
    layout = INITIALIZERS[task.initializer]
    rng = named_rng(seed, task.id)
    return Scene(drawer_present=layout.drawer is not None,
                 open_fraction=0.0 if layout.drawer is None else layout.drawer,
                 cupboard_present=layout.cupboard, dustpan_present=layout.dustpan,
                 objects={name: _jitter(rng, base, scale)
                          for name, base, scale in layout.placements})


# --- success predicates ---

def _empty(scene: Scene) -> bool:
    return scene.held_object is None


def _in_drawer(scene: Scene, name: str) -> bool:
    return scene.drawer_interior().contains(scene.objects[name])


def _in_cupboard(scene: Scene, name: str) -> bool:
    return CUPBOARD_INTERIOR.contains(scene.objects[name])


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
    except KeyError as exc:
        # predicates read the scene only through scene.objects
        raise UnknownTask(f"task {task.id!r} predicate {task.predicate!r} names object "
                          f"{exc.args[0]!r}, which the scene lacks") from exc


def drawer_front_obstacle_task() -> TaskSpec:
    """Fixture: put-in-and-close with the item placed behind the open drawer front."""
    return replace(load_registry().get("put_in_and_close"), id="put_in_and_close_obstacle",
                   initializer="drawer_front_obstacle", aliases=())
