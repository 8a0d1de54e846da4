"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
verdicts; the compositional benchmark sweep (criterion 5) takes a few minutes.
"""

import re
import time

import numpy as np

from deco.chaining import rrt_path
from deco.costmap import CostMap, cost_from_distance, distance_grid
from deco.decompose import DecompositionConfig, discover_keyframes, segment_interactions
from deco.errors import HallucinatedStep, ParseError, PlanningFailure
from deco.executor import ExecutorConfig, run_suite, run_task_episode
from deco.geometry import Pose
from deco.planning import SceneSummary, plan_mock, repair_preconditions
from deco.sim.oracle import record_demo
from deco.sim.tasks import drawer_front_obstacle_task
from deco.trajectory import Demonstration, GripperState, TimeStep
from deco.vlm import parse_plan_response


def report(number, ok, text):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {verdict}: {text}")
    assert ok, f"acceptance criterion {number} failed: {text}"


def demo_from_states(states, demo_id="d", speeds=None):
    steps = []
    for i, ch in enumerate(states):
        g = GripperState.OPEN if ch == "o" else GripperState.CLOSED
        speed = 1.0 if speeds is None else speeds[i]
        steps.append(TimeStep(i, Pose([0.3, 0.0, 0.2]), g, speed))
    return Demonstration(id=demo_id, instruction="t", steps=tuple(steps))


def test_criterion_1_decomposition_oracle_equivalence():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    trials = 0
    for trial in range(520):
        k = int(rng.integers(1, 9))
        states = "o" * int(rng.integers(1, 4))
        # at least two opens between cycles so each partition cell is o+c+o+
        for cycle in range(k):
            tail = int(rng.integers(1, 4)) if cycle == k - 1 else int(rng.integers(2, 5))
            states += "c" * int(rng.integers(1, 4)) + "o" * tail
        demo = demo_from_states(states, f"g{trial}")
        # brute-force transition-counting oracle
        oracle_k = sum(1 for a, b in zip(states, states[1:]) if a + b == "oc")
        assert oracle_k == sum(1 for a, b in zip(states, states[1:]) if a + b == "co")
        assert oracle_k == k

        full = segment_interactions(demo, DecompositionConfig())
        assert len(full) == k
        assert full[0].start == 0 and full[-1].end == len(states) - 1
        for prev, nxt in zip(full, full[1:]):
            assert nxt.start == prev.end + 1
        for seg in full:
            assert re.fullmatch("o+c+o+", states[seg.start:seg.end + 1])

        half = segment_interactions(demo, DecompositionConfig(mode="half"))
        assert len(half) == 2 * k
        for a, b in zip(half[::2], half[1::2]):
            assert a.end == b.start  # halves share the first closed step
        trials += 1
    elapsed = time.monotonic() - start
    report(1, trials == 520 and elapsed < 5.0,
           f"segmentation matched the transition-counting oracle on {trials} "
           f"sequences in {elapsed:.2f}s")


def keyframe_oracle(demo, epsilon, gap):
    out, last = [], 0
    for i in range(1, len(demo.steps)):
        transition = demo.steps[i].gripper != demo.steps[i - 1].gripper
        dwell = demo.steps[i].joint_speed < epsilon and (i - last) >= gap
        if transition or dwell:
            out.append(i)
            last = i
    final = len(demo.steps) - 1
    if not out or out[-1] != final:
        out.append(final)
    return out


def test_criterion_2_keyframe_oracle_equivalence():
    rng = np.random.default_rng(12)
    agree = 0
    for trial in range(520):
        n = int(rng.integers(2, 40))
        states = "o" + "".join(rng.choice(list("oc"), n - 1))
        speeds = rng.uniform(0.0, 0.03, n).tolist()
        demo = demo_from_states(states, f"k{trial}", speeds)
        gap = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.002, 0.02))
        cfg = DecompositionConfig(velocity_epsilon=eps, min_keyframe_gap=gap)
        if discover_keyframes(demo, cfg) == keyframe_oracle(demo, eps, gap):
            agree += 1
    report(2, agree == 520, f"keyframe discovery agreed with the independent "
                            f"rule oracle on {agree}/520 demos")


def test_criterion_3_round_trip_cycle_accounting(registry):
    mismatches = []
    for task in registry:
        demo = record_demo(task, 0)
        segments = segment_interactions(demo, DecompositionConfig())
        if len(segments) != task.cycle_count // 2:
            mismatches.append((task.id, len(segments), task.cycle_count // 2))
    report(3, not mismatches,
           f"all {len(registry)} recorded demos decomposed into cycle_count/2 "
           f"full segments (mismatches: {mismatches})")


def test_criterion_4_atomic_task_completion(registry, library):
    rows = run_suite(registry.atomic_tasks(), [0, 1, 2], ExecutorConfig(),
                     library, registry, episodes=20)
    per_task = {}
    for row in rows:
        per_task.setdefault(row.task_id, []).append(row.rate)
    worst = min(float(np.mean(v)) for v in per_task.values())
    report(4, len(per_task) == 10 and worst >= 0.95,
           f"10 atomic tasks, 20 episodes x 3 seeds, worst per-task rate {worst:.3f}")


def test_criterion_5_compositional_zero_shot(registry, library):
    start = time.monotonic()
    rows = run_suite(registry.compositional_tasks(), [0, 1, 2], ExecutorConfig(),
                     library, registry, episodes=20)
    elapsed = time.monotonic() - start
    mean_rate = float(np.mean([r.rate for r in rows]))
    report(5, mean_rate >= 0.95 and elapsed < 600.0,
           f"12 compositional tasks, 20 episodes x 3 seeds, mean rate "
           f"{mean_rate:.3f} in {elapsed:.1f}s")


def test_criterion_6_chaining_ablation(registry, library):
    fixture = drawer_front_obstacle_task()
    seeds = [0, 1, 2]
    rates, collisions = {}, {}
    for m in (0, 2, 4, 6, 8):
        results = [run_task_episode(fixture, seed + 7919 * e,
                                    ExecutorConfig(chaining_m=m), library, registry)
                   for seed in seeds for e in range(3)]
        rates[m] = float(np.mean([r.success for r in results]))
        collisions[m] = sum(r.collisions for r in results)
    spread = max(rates[m] for m in (2, 4, 6, 8)) - min(rates[m] for m in (2, 4, 6, 8))
    ok = collisions[0] > 0 and rates[0] < rates[6] and spread <= 0.05
    report(6, ok, f"fixture rates by M: { {m: round(r, 2) for m, r in rates.items()} }, "
                  f"M=0 collisions {collisions[0]}, M>=2 spread {spread:.2f}")


def brute_force_distance(occ, voxel):
    dims = occ.shape
    occupied = np.argwhere(occ)
    if len(occupied) == 0:
        return np.full(dims, np.inf)
    idx = np.indices(dims).reshape(3, -1).T
    diffs = idx[:, None, :].astype(float) - occupied[None, :, :]
    d = np.sqrt((diffs**2).sum(axis=2)).min(axis=1) * voxel
    return d.reshape(dims)


def test_criterion_7_cost_map_exactness():
    rng = np.random.default_rng(13)
    grids = 0
    for trial in range(110):
        if trial < 100:
            dims = tuple(int(v) for v in rng.integers(2, 13, size=3))
            occ = rng.random(dims) < 0.12
        else:
            # a few large sparse grids at the 32^3 size limit
            dims = (32, 32, 32)
            occ = np.zeros(dims, dtype=bool)
            pts = rng.integers(0, 32, size=(20, 3))
            occ[pts[:, 0], pts[:, 1], pts[:, 2]] = True
        voxel = float(rng.uniform(0.01, 0.05))
        dist = distance_grid(occ, voxel)
        ref = brute_force_distance(occ, voxel)
        if occ.any():
            assert np.allclose(dist, ref, rtol=0, atol=1e-9)
        else:
            assert np.all(np.isinf(dist))
        inflation = float(rng.uniform(0.02, 0.1))
        cost = cost_from_distance(dist, inflation)
        sigma = inflation / 2.0
        expect = np.where(np.isinf(ref), 0.0, np.exp(-ref**2 / (2 * sigma**2)))
        expect[ref <= 0] = 1.0
        assert np.allclose(cost, expect, rtol=1e-6, atol=1e-12)
        grids += 1
    report(7, grids == 110,
           f"distance transform matched the all-pairs oracle on {grids} grids")


def test_criterion_8_planner_correctness(registry, library):
    # canonical decomposition of every compositional task
    for task in registry.compositional_tasks():
        inventory = ["item", "item2", "box", "box_a", "box_b", "broom",
                     "rubbish_0"]
        needs_drawer = any("drawer" in s for s in task.plan)
        scene = SceneSummary(inventory=tuple(inventory),
                             drawer_open_fraction=0.0 if needs_drawer else None,
                             cupboard_present=True, dustpan_present=True)
        plan = plan_mock(task.instruction, scene, library, registry)
        assert plan == tuple(repair_preconditions(list(task.plan), scene)), task.id

    # precondition repair on the motivating example
    closed = SceneSummary(inventory=("item",), drawer_open_fraction=0.0)
    plan = plan_mock("put item in drawer and close", closed, library, registry)
    assert plan == ("open drawer", "put item in drawer", "close drawer")
    opened = SceneSummary(inventory=("item",), drawer_open_fraction=1.0)
    plan = plan_mock("put item in drawer and close", opened, library, registry)
    assert plan == ("put item in drawer", "close drawer")

    bad_responses = [
        ("[]", ParseError),
        ("no json here", ParseError),
        ('[1, 2]', ParseError),
        ('["grow wings"]', HallucinatedStep),
        ('["open drawer", "teleport"]', HallucinatedStep),
        ('{"only": "object"}', ParseError),
        ('[["nested"]]', ParseError),
        ('["open drawer", 7]', ParseError),
    ]
    rejected = 0
    for body, err in bad_responses:
        try:
            parse_plan_response(body, library)
        except err:
            rejected += 1
    report(8, rejected == len(bad_responses),
           f"12/12 canonical plans reproduced, repair verified, "
           f"{rejected}/{len(bad_responses)} bad responses rejected")


def test_criterion_9_determinism(tmp_path, registry):
    from click.testing import CliRunner
    from deco.cli import main
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [put_in_and_close, transfer_box]\n"
                   "episodes: 2\nseeds: [0, 1]\n")
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        result = CliRunner().invoke(main, ["--out-dir", str(out), "eval",
                                           "--config", str(cfg)],
                                    catch_exceptions=False)
        assert result.exit_code == 0
        outputs.append((out / "results.csv").read_bytes())
    report(9, outputs[0] == outputs[1],
           "repeated eval runs produced byte-identical CSVs")


def voxel_center(cmap, index) -> np.ndarray:
    return cmap.origin + (np.asarray(index, dtype=float) + 0.5) * cmap.voxel_size


def test_criterion_10_rrt_soundness():
    rng = np.random.default_rng(14)
    n_scenes, found, verified = 100, 0, 0
    dims, voxel = (20, 20, 20), 0.02
    for trial in range(n_scenes):
        cost = np.zeros(dims)
        for _ in range(int(rng.integers(6, 14))):  # random box clutter
            lo = rng.integers(0, 16, size=3)
            size = rng.integers(2, 6, size=3)
            hi = np.minimum(lo + size, dims)
            cost[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1.0
        # guaranteed free corridor, 3 voxels wide: along x, then along y
        y0, z0 = int(rng.integers(0, 17)), int(rng.integers(0, 17))
        x1 = int(rng.integers(10, 17))
        y1 = int(rng.integers(0, 17))
        cost[:, y0:y0 + 3, z0:z0 + 3] = 0.0
        cost[x1:x1 + 3, min(y0, y1):max(y0, y1) + 3, z0:z0 + 3] = 0.0
        cmap = CostMap([0.0, 0.0, 0.0], voxel, cost, 0.05)
        a = voxel_center(cmap, (1, y0 + 1, z0 + 1))
        b = voxel_center(cmap, (x1 + 1, y1 + 1, z0 + 1))
        try:
            path = rrt_path(a, b, cmap, trial)
        except PlanningFailure:
            continue
        found += 1
        # independent verification at voxel_size / 2 resolution
        ok = True
        for p, q in zip(path, path[1:]):
            length = float(np.linalg.norm(np.asarray(q) - np.asarray(p)))
            n = max(1, int(np.ceil(length / (voxel / 2))))
            for t in np.linspace(0, 1, n + 1):
                point = np.asarray(p) + t * (np.asarray(q) - np.asarray(p))
                if cmap.cost_at(point) >= cmap.collision_threshold:
                    ok = False
        verified += ok
    report(10, found >= 95 and verified == found,
           f"RRT connected {found}/100 corridor scenes, all {verified} paths "
           f"verified collision-free")
