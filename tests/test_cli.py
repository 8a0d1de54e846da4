import json

import pytest
from click.testing import CliRunner

from deco.cli import main
from deco.trajectory import load_demos


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_record_demos_and_decompose(runner, tmp_path):
    out = tmp_path / "demos"
    result = invoke(runner, ["--out-dir", str(out), "--seed-list", "0",
                             "record-demos", "--tasks",
                             "put_in_wo_close,broom_out_cupboard"])
    assert result.exit_code == 0
    demos = load_demos(out / "demos.jsonl")
    assert len(demos) == 2

    ds = tmp_path / "dataset"
    result = invoke(runner, ["--out-dir", str(ds), "decompose",
                             str(out / "demos.jsonl"),
                             "--annotations", str(out / "annotations.json")])
    assert result.exit_code == 0
    assert "segments: 3" in result.output
    assert (ds / "atomic_tasks.jsonl").exists()
    assert (ds / "library.json").exists()


def test_decompose_half_mode_doubles_segments(runner, tmp_path):
    out = tmp_path / "demos"
    invoke(runner, ["--out-dir", str(out), "--seed-list", "0", "record-demos",
                    "--tasks", "put_in_wo_close"])
    annotations = json.loads((out / "annotations.json").read_text())
    half = {k: [s for s in v for _ in range(2)] for k, v in annotations.items()}
    (out / "half.json").write_text(json.dumps(half))
    ds = tmp_path / "half"
    result = invoke(runner, ["--out-dir", str(ds), "decompose",
                             str(out / "demos.jsonl"),
                             "--annotations", str(out / "half.json"),
                             "--mode", "half"])
    assert result.exit_code == 0
    assert "segments: 4" in result.output


def test_decompose_malformed_demo_names_it(runner, tmp_path):
    demo = {"id": "broken_demo", "instruction": "x",
            "steps": [{"t": 0, "pos": [0.3, 0, 0.2], "quat": [1, 0, 0, 0],
                       "gripper": "closed", "joint_speed": 1.0},
                      {"t": 1, "pos": [0.3, 0, 0.2], "quat": [1, 0, 0, 0],
                       "gripper": "open", "joint_speed": 1.0}]}
    demos = tmp_path / "demos.jsonl"
    demos.write_text(json.dumps(demo) + "\n")
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps({"broken_demo": ["x"]}))
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "decompose",
                                       str(demos), "--annotations", str(ann)])
    assert result.exit_code != 0
    assert "broken_demo" in result.output


def test_record_demos_unknown_task(runner, tmp_path):
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path),
                                       "record-demos", "--tasks", "nope"])
    assert result.exit_code != 0
    assert "nope" in result.output


def test_plan_command(runner):
    result = invoke(runner, ["plan", "put item in drawer and close"])
    assert result.exit_code == 0
    assert json.loads(result.output.strip()) == \
        ["open drawer", "put item in drawer", "close drawer"]


def test_plan_unmatched_instruction(runner):
    result = CliRunner().invoke(main, ["plan", "assemble the spaceship"])
    assert result.exit_code != 0


def test_eval_print_defaults(runner):
    result = invoke(runner, ["eval", "--print-defaults"])
    assert result.exit_code == 0
    assert "chaining_m: 6" in result.output
    assert "seeds:" in result.output


def test_eval_invalid_config_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [ghost_task]\n")
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "eval",
                                       "--config", str(cfg)])
    assert result.exit_code == 2
    assert "ghost_task" in result.output


def test_eval_small_run_and_determinism(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [open_drawer, close_drawer]\n"
                   "episodes: 2\nseeds: [0, 1]\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = invoke(runner, ["--out-dir", str(out), "eval",
                                 "--config", str(cfg)])
        assert result.exit_code == 0
        assert "mean success rate" in result.output
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]
    assert (tmp_path / "a" / "summary.txt").exists()


def test_ablate_empty_values(runner, tmp_path):
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "ablate",
                                       "--axis", "chaining-m", "--values", ","])
    assert result.exit_code != 0
    assert "empty value list" in result.output


def test_ablate_chaining_sweep(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [open_drawer]\nepisodes: 1\nseeds: [0]\n")
    result = invoke(runner, ["--out-dir", str(tmp_path), "ablate",
                             "--axis", "chaining-m", "--values", "0,6",
                             "--config", str(cfg)])
    assert result.exit_code == 0
    assert (tmp_path / "results_chaining-m_0.csv").exists()
    assert (tmp_path / "results_chaining-m_6.csv").exists()
    comparison = (tmp_path / "comparison.csv").read_text().splitlines()
    assert comparison[0] == "chaining-m,mean_rate,collisions"
    assert len(comparison) == 3


def test_ablate_honours_seed_list(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [open_drawer]\nepisodes: 1\nseeds: [0]\n")
    result = invoke(runner, ["--out-dir", str(tmp_path), "--seed-list", "7", "ablate",
                             "--axis", "chaining-m", "--values", "0",
                             "--config", str(cfg)])
    assert result.exit_code == 0
    rows = (tmp_path / "results_chaining-m_0.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["open_drawer", "7"]]


def test_removed_flags_are_rejected(runner):
    assert CliRunner().invoke(main, ["--workers", "2", "eval"]).exit_code == 2
    assert CliRunner().invoke(main, ["eval", "--planner", "vlm"]).exit_code == 2


def test_export_costmap(runner, tmp_path):
    result = invoke(runner, ["--out-dir", str(tmp_path), "export-costmap",
                             "--task", "put_in_and_close"])
    assert result.exit_code == 0
    header = json.loads((tmp_path / "costmap.json").read_text())
    dims = header["dims"]
    grid = (tmp_path / "costmap.f32").read_bytes()
    assert len(grid) == 4 * dims[0] * dims[1] * dims[2]
    # the executor's map: build_cost_map's defaults
    assert header["voxel_size"] == 0.02
    assert header["inflation_radius"] == 0.05
    assert header["collision_threshold"] == 0.5


@pytest.mark.parametrize("text, named", [
    ("planner: vlm\n", "planner"),
    ("- tasks: [open_drawer]\n", "mapping"),
    ("episodes: ten\n", "episodes"),
    ("tasks\n", "mapping"),
])
@pytest.mark.parametrize("command", [["eval"], ["ablate", "--axis", "noise", "--values", "0"]])
def test_bad_config_exits_2_with_config_errors(runner, tmp_path, text, named, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path)] + command
                                + ["--config", str(cfg)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("config error:")]
    assert errors and any(named in line for line in errors)


@pytest.mark.parametrize("seed_list, seeds", [(["--seed-list", "0,0"], "[0, 1]"),
                                              ([], "[0, 0]")])
@pytest.mark.parametrize("command", [["eval"], ["ablate", "--axis", "noise", "--values", "0"]])
def test_repeated_seeds_exit_2_with_a_config_error(runner, tmp_path, seed_list, seeds, command):
    # run_suite would pool both seeds' episodes into one cell and write it twice
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"tasks: [open_drawer]\nepisodes: 2\nseeds: {seeds}\n")
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path)] + seed_list + command
                                + ["--config", str(cfg)])
    assert result.exit_code == 2
    assert "config error: seeds must not repeat, got seed 0 more than once" in result.output
    assert not list(tmp_path.glob("*.csv"))


def test_record_demos_mixes_selectors_and_ids(runner, tmp_path):
    result = invoke(runner, ["--out-dir", str(tmp_path), "--seed-list", "0", "record-demos",
                             "--tasks", "open_drawer,atomic,open_drawer"])
    assert result.exit_code == 0
    assert "recorded 10 demos (10 tasks x 1 seeds)" in result.output


@pytest.mark.parametrize("flag", ["--density", "--voxel-size"])
def test_export_costmap_has_no_map_settings(runner, tmp_path, flag):
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "export-costmap",
                                       "--task", "put_in_and_close", flag, "0.05"])
    assert result.exit_code == 2
    assert "No such option" in result.output
