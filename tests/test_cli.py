import hashlib
import json
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from deco import cli
from deco.cli import main
from deco.config import ExperimentConfig
from deco.costmap import build_cost_map
from deco.registry import load_registry
from deco.sim.scene import WORKSPACE, point_cloud
from deco.sim.tasks import reset
from deco.trajectory import InstructionLibrary, load_demos


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


@pytest.fixture()
def recorded(runner, tmp_path):
    out = tmp_path / "demos"
    invoke(runner, ["--out-dir", str(out), "--seed-list", "0", "record-demos",
                    "--tasks", "put_in_wo_close"])
    return out / "demos.jsonl", out / "annotations.json"


def _decompose(tmp_path, demos, annotations):
    return CliRunner().invoke(main, ["--out-dir", str(tmp_path / "ds"), "decompose",
                                     str(demos), "--annotations", str(annotations)])


@pytest.mark.parametrize("content", [[["open drawer"]], {"put_in_wo_close-s0": "open drawer"},
                                     {"put_in_wo_close-s0": [1]}])
def test_decompose_rejects_annotations_that_are_not_an_object(tmp_path, recorded, content):
    demos, annotations = recorded
    annotations.write_text(json.dumps(content))
    result = _decompose(tmp_path, demos, annotations)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ")
    assert str(annotations) in result.output and "JSON object" in result.output
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("line, cause", [
    ('{"id": "d", "steps": []}', "KeyError: 'instruction'"),
    ("not json", "JSONDecodeError"),
])
def test_decompose_names_the_demo_line_that_fails(tmp_path, recorded, line, cause):
    demos, annotations = recorded
    demos.write_text(demos.read_text() + line + "\n")
    result = _decompose(tmp_path, demos, annotations)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ")
    assert f"{demos} line 2: {cause}" in result.output
    assert not (tmp_path / "ds").exists()


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


@pytest.mark.parametrize("values, repeated", [("0,0", "0"), ("0,6,00", "0")])
def test_ablate_repeated_values_exit_2_before_any_run(runner, tmp_path, values, repeated):
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "ablate",
                                       "--axis", "chaining-m", "--values", values])
    assert result.exit_code == 2
    assert (f"config error: values must not repeat, got chaining-m value {repeated} "
            "more than once") in result.output
    assert not list(tmp_path.iterdir())


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
    assert comparison[0] == ("chaining-m,mean_rate,collisions,transition_waypoints,"
                             "chaining_failures")
    assert len(comparison) == 3


def test_ablate_shows_what_chaining_does(runner, tmp_path):
    """The chaining arms differ in their files by the transitions they ran,
    where success and collisions alone read the same."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [put_in_and_close, sweep_and_drop, open_drawer]\n"
                   "noise_sigma: 0.01\nepisodes: 2\nseeds: [0, 1, 2]\n")
    result = invoke(runner, ["--out-dir", str(tmp_path), "ablate",
                             "--axis", "chaining-m", "--values", "0,6",
                             "--config", str(cfg)])
    assert result.exit_code == 0
    arms = [(tmp_path / f"results_chaining-m_{m}.csv").read_text() for m in (0, 6)]
    assert arms[0] != arms[1]
    rows = [line.split(",") for line in
            (tmp_path / "comparison.csv").read_text().splitlines()[1:]]
    assert [row[1:3] for row in rows] == [["0.888889", "13"]] * 2
    assert rows[0][3:] == ["0", "0"] and int(rows[1][3]) > 0


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
    ablate = CliRunner().invoke(main, ["ablate", "--axis", "interaction-mode",
                                       "--values", "full,half"])
    assert ablate.exit_code == 2
    assert "Invalid value for '--axis'" in ablate.output


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


def test_exported_grid_is_the_map_of_the_whole_cloud(runner, tmp_path):
    # the executor's map has its fixed part cached; the export must not differ
    invoke(runner, ["--out-dir", str(tmp_path), "--seed-list", "4", "export-costmap",
                    "--task", "put_in_and_close"])
    scene = reset(load_registry().get("put_in_and_close"), 4)
    uncached = build_cost_map(point_cloud(scene), WORKSPACE)
    uncached.export(tmp_path / "uncached.json", tmp_path / "uncached.f32")
    for suffix in ("json", "f32"):
        exported = (tmp_path / f"costmap.{suffix}").read_bytes()
        assert exported == (tmp_path / f"uncached.{suffix}").read_bytes()


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_an_out_dir_blocked_by_a_file_is_a_usage_error(tmp_path, out_dir):
    (tmp_path / "afile").touch()
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path / out_dir), "--seed-list", "0",
                                       "export-costmap", "--task", "open_drawer"])
    assert result.exit_code == 2
    assert "Invalid value for '--out-dir'" in result.output
    assert "cannot create directory" in result.output
    assert result.exc_info[0] is SystemExit


@pytest.mark.parametrize("seed_list", [",,", "", " , "])
@pytest.mark.parametrize("command", [["export-costmap", "--task", "put_in_wo_close"],
                                     ["plan", "put the item in the drawer"],
                                     ["record-demos", "--tasks", "open_drawer"]])
def test_an_empty_seed_list_is_a_usage_error(tmp_path, seed_list, command):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--out-dir", str(out), "--seed-list", seed_list]
                                + command)
    assert result.exit_code == 2
    assert "Invalid value for '--seed-list'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ("planner: vlm\n", "planner"),
    ("mode: half\n", "unknown config keys: mode"),
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


@pytest.mark.parametrize("command, yaml_sigma", [
    (["eval"], "noise_sigma: .inf\n"),
    (["eval", "--noise-sigma", "inf"], ""),
    (["ablate", "--axis", "noise", "--values", "inf"], ""),
    (["ablate", "--axis", "noise", "--values", "0,inf"], ""),
])
def test_an_infinite_noise_sigma_exits_2_before_any_run(runner, tmp_path, command, yaml_sigma):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [open_drawer]\nepisodes: 1\nseeds: [0]\n" + yaml_sigma)
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path)] + command
                                + ["--config", str(cfg)])
    assert result.exit_code == 2
    assert ("config error: noise_sigma must be a finite non-negative number, got inf"
            in result.output)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("content, cause", [
    ("not json", "JSONDecodeError"),
    ('{"open drawer": {"instruction": "open drawer"}}',
     "entry 'open drawer' must map to an atomic-task count of at least 1, got {"),
    ('{"open drawer": 0}', "entry 'open drawer' must map to an atomic-task count"),
    ("[]", "a library is a JSON object, got list"),
    ('"open drawer"', "a library is a JSON object, got str"),
])
def test_plan_names_a_malformed_library(tmp_path, content, cause):
    library = tmp_path / "bad.json"
    library.write_text(content)
    result = CliRunner().invoke(main, ["plan", "open drawer", "--library", str(library)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ")
    assert f"{library}: " in result.output and cause in result.output


@pytest.mark.parametrize("seed_list, seeds", [(["--seed-list", "0,0"], "[0, 1]"),
                                              ([], "[0, 0]")])
@pytest.mark.parametrize("command", [["eval"], ["ablate", "--axis", "noise", "--values", "0"]])
def test_repeated_seeds_exit_2_with_a_config_error(runner, tmp_path, seed_list, seeds, command):
    # a repeated seed would repeat its rows; run_suite rejects it too
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"tasks: [open_drawer]\nepisodes: 2\nseeds: {seeds}\n")
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path)] + seed_list + command
                                + ["--config", str(cfg)])
    assert result.exit_code == 2
    assert "config error: seeds must not repeat, got seed 0 more than once" in result.output
    assert not list(tmp_path.glob("*.csv"))


def test_record_demos_rejects_a_repeated_seed(tmp_path):
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "--seed-list", "0,1,0",
                                       "record-demos", "--tasks", "open_drawer"])
    assert result.exit_code == 2
    assert "config error: seeds must not repeat, got seed 0 more than once" in result.output
    assert not (tmp_path / "demos.jsonl").exists()


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


def test_decompose_writes_a_library_that_plan_accepts(runner, tmp_path, recorded):
    demos, annotations = recorded
    invoke(runner, ["--out-dir", str(tmp_path / "ds"), "decompose", str(demos),
                    "--annotations", str(annotations)])
    library = tmp_path / "ds" / "library.json"
    assert json.loads(library.read_text()) == {"open drawer": 1, "put item in drawer": 1}
    result = invoke(runner, ["plan", "put item in drawer without close",
                             "--library", str(library)])
    assert result.exit_code == 0
    assert json.loads(result.output) == ["open drawer", "put item in drawer"]


@pytest.mark.parametrize("command", [["eval", "--episodes", "1"],
                                     ["ablate", "--axis", "noise", "--values", "0"],
                                     ["export-costmap", "--task", "put_in_wo_close"],
                                     ["plan", "put the item in the drawer"],
                                     ["record-demos", "--tasks", "open_drawer"]])
@pytest.mark.parametrize("seed_list", ["-1", "0,-2"])
def test_a_negative_seed_is_a_usage_error(tmp_path, seed_list, command):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--out-dir", str(out), f"--seed-list={seed_list}"]
                                + command)
    assert result.exit_code == 2
    assert "Invalid value for '--seed-list'" in result.output
    assert "seeds must be non-negative" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", [["eval"], ["ablate", "--axis", "noise", "--values", "0"]])
def test_a_negative_seed_in_the_config_exits_2(tmp_path, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [open_drawer]\nepisodes: 1\nseeds: [-1]\n")
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path)] + command
                                + ["--config", str(cfg)])
    assert result.exit_code == 2
    assert ("config error: seeds must be a non-empty list of non-negative integers, "
            "got [-1]") in result.output
    assert not list(tmp_path.glob("*.csv"))


def test_decompose_names_the_demo_line_that_is_not_utf8(tmp_path, recorded):
    demos, annotations = recorded
    demos.write_bytes(demos.read_bytes() + b'{"id": "d\xff"}\n')
    result = _decompose(tmp_path, demos, annotations)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ")
    assert f"{demos} line 2: UnicodeDecodeError" in result.output
    assert not (tmp_path / "ds").exists()


def test_eval_names_a_config_that_is_not_utf8(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(b"tasks: [open_drawer]\nepisodes: \xff\n")
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "eval",
                                       "--config", str(cfg)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"config error: {cfg} is not valid YAML: 'utf-8' codec" in result.output
    assert not list(tmp_path.glob("*.csv"))


def test_decompose_names_annotations_nested_too_deep(tmp_path, recorded):
    demos, annotations = recorded
    annotations.write_text("[" * 100_000)
    result = _decompose(tmp_path, demos, annotations)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and len(result.output.splitlines()) == 1
    assert f"{annotations}: RecursionError" in result.output
    assert not (tmp_path / "ds").exists()


def test_eval_names_a_config_nested_too_deep(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("[" * 100_000)
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "eval",
                                       "--config", str(cfg)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert len(result.output.splitlines()) == 1
    assert f"config error: {cfg} is not valid YAML: maximum recursion depth" in result.output
    assert not list(tmp_path.glob("*.csv"))


def test_every_config_field_changes_what_eval_runs(monkeypatch, tmp_path):
    # a field that changes neither the library build nor the suite run changes
    # no outcome, and would be a knob that does nothing
    library, calls = InstructionLibrary(), []

    def record(result):
        return lambda *args, **kwargs: calls.append((args, kwargs)) or result

    monkeypatch.setattr(cli, "build_library", record(([], [], library)))
    monkeypatch.setattr(cli, "run_suite", record([]))

    def arguments(config):
        calls.clear()
        cli._run_eval(SimpleNamespace(obj={"out_dir": tmp_path}), config, "results.csv")
        return list(calls)

    changed = {"tasks": ["atomic"], "chaining_m": 0, "noise_sigma": 0.01,
               "episodes": 3, "seeds": [4]}
    assert set(changed) == {f.name for f in fields(ExperimentConfig)}
    default = arguments(ExperimentConfig())
    assert len(default) == 2 and arguments(ExperimentConfig()) == default
    for name, value in changed.items():
        assert arguments(replace(ExperimentConfig(), **{name: value})) != default, name


# sha256 prefixes over the name and bytes of each file the command writes, in
# name order: results.csv and summary.txt for eval; comparison.csv and one
# result CSV per arm for ablate
CLI_OUTPUT_DIGESTS = {"eval": "5d8238f4bc9d4064", "ablate": "b4cc84acac73e38a"}


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_eval_and_ablate_files_are_pinned(tmp_path, command):
    """Three tasks, seeds 0-2, two noisy episodes each: sweep_and_drop and, at
    M=6, take_two_out_of_diff fail some episodes, so rate_std is nonzero."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tasks: [sweep_and_drop, take_two_out_of_diff, open_drawer]\n"
                   "noise_sigma: 0.01\nepisodes: 2\nseeds: [0, 1, 2]\n")
    out = tmp_path / "out"
    args = {"eval": ["eval"], "ablate": ["ablate", "--axis", "chaining-m", "--values", "0,6"]}
    invoke(CliRunner(), ["--out-dir", str(out)] + args[command] + ["--config", str(cfg)])
    assert "0.235702" in (out / ("results.csv" if command == "eval"
                                 else "results_chaining-m_6.csv")).read_text()
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest()[:16] == CLI_OUTPUT_DIGESTS[command]
