import pytest

from deco.config import ExperimentConfig, print_defaults
from deco.errors import ConfigError


def test_defaults(registry):
    cfg = ExperimentConfig()
    assert cfg.seeds == [0, 1, 2]
    assert cfg.chaining_m == 6
    assert cfg.validate(registry) == []


def test_print_defaults_is_yaml_round_trippable(tmp_path):
    text = print_defaults()
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg == ExperimentConfig()


def test_from_yaml_partial_override(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("chaining_m: 2\nseeds: [5]\n")
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.chaining_m == 2
    assert cfg.seeds == [5]
    assert cfg.noise_sigma == 0.0


def test_from_yaml_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("chainnig_m: 2\n")
    with pytest.raises(ValueError, match="chainnig_m"):
        ExperimentConfig.from_yaml(path)


@pytest.mark.parametrize("key", ["planner: vlm", "out_dir: results", "workers: 2", "mode: full"])
def test_from_yaml_rejects_removed_keys(tmp_path, key):
    # eval always plans with the mock planner, writes to the global --out-dir,
    # and builds one library whatever the segmentation mode
    path = tmp_path / "cfg.yaml"
    path.write_text(key + "\n")
    with pytest.raises(ValueError, match="unknown config keys: " + key.split(":")[0]):
        ExperimentConfig.from_yaml(path)


def test_validation_lists_all_errors(registry):
    cfg = ExperimentConfig(tasks=["no_such_task", "also_missing"], chaining_m=-1,
                           episodes=0, seeds=[])
    errors = cfg.validate(registry)
    assert any("no_such_task" in e for e in errors)
    assert any("also_missing" in e for e in errors)
    assert any("chaining_m" in e for e in errors)
    assert any("episodes" in e for e in errors)
    assert any("seeds" in e for e in errors)


def test_validation_names_each_repeated_seed(registry):
    errors = ExperimentConfig(seeds=[3, 0, 3, 1, 0, 3]).validate(registry)
    assert errors == ["seeds must not repeat, got seed 0 more than once",
                      "seeds must not repeat, got seed 3 more than once"]


def test_resolve_selectors(registry):
    assert len(ExperimentConfig(tasks=["atomic"]).resolve_tasks(registry)) == 10
    assert len(ExperimentConfig(tasks=["compositional"]).resolve_tasks(registry)) == 12
    assert len(ExperimentConfig(tasks=["all"]).resolve_tasks(registry)) == 22
    both = ExperimentConfig(tasks=["all", "open_drawer"]).resolve_tasks(registry)
    assert len(both) == 22  # no duplicates


def test_resolve_explicit_ids(registry):
    cfg = ExperimentConfig(tasks=["open_drawer", "sweep_and_drop"])
    assert [t.id for t in cfg.resolve_tasks(registry)] == ["open_drawer", "sweep_and_drop"]


@pytest.mark.parametrize("text", ["- chaining_m: 2\n", "tasks\n", "7\n", "chaining_m: [\n"])
def test_from_yaml_rejects_a_document_that_is_not_a_mapping(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="cfg.yaml"):
        ExperimentConfig.from_yaml(path)


def test_validation_rejects_wrong_types(registry):
    for noise_sigma in ("low", float("inf")):
        cfg = ExperimentConfig(tasks="compositional", chaining_m=2.5,
                               noise_sigma=noise_sigma, episodes="ten", seeds=[0, True])
        errors = cfg.validate(registry)
        for name in ("tasks", "chaining_m", "noise_sigma", "episodes", "seeds"):
            assert sum(e.startswith(name) for e in errors) == 1, (name, errors)


@pytest.mark.parametrize("seeds", [[-1], [0, -3]])
def test_validation_rejects_a_negative_seed(registry, seeds):
    assert ExperimentConfig(seeds=seeds).validate(registry) == [
        f"seeds must be a non-empty list of non-negative integers, got {seeds!r}"]
