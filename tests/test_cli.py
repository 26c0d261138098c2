import json

import pytest

from slatelab.cli import main
from slatelab.harness import read_records
from slatelab.logged import read_dataset
from slatelab.stats import read_report_csv

CFG_TEMPLATE = """\
# tiny pipeline configuration
sim.num_items = 15
sim.slate_size = 3
sim.episode_length = 8
sim.num_topics = 3
sim.topic_dim = 2
gems.latent_dim = 4
gems.item_embed_dim = 4
gems.hidden = 16
gems.epochs = 2
mf.embed_dim = 4
mf.epochs = 2
belief_dim = 8
hidden = 16,16
batch_size = 16
update_every = 4
training_steps = 4
validation_every = 2
validation_trajectories = 3
test_trajectories = 4
logged_trajectories = 20
seeds = 3
gems_ckpt = {root}/gems.slk
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config plus the data/mf/gems artifacts the train stages need."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "exp.cfg"
    cfg.write_text(CFG_TEMPLATE.format(root=root))
    data = root / "data.npz"
    assert main(["generate-data", "--config", str(cfg), "--seed", "11",
                 "--out", str(data)]) == 0
    assert main(["train-mf", "--config", str(cfg), "--data", str(data),
                 "--out", str(root / "mf.npz")]) == 0
    assert main(["pretrain-gems", "--config", str(cfg), "--data", str(data),
                 "--out", str(root / "gems.slk")]) == 0
    return {"root": root, "cfg": cfg, "data": data}


def test_stage_outputs_exist(workspace):
    root = workspace["root"]
    for name in ("data.npz", "mf.npz", "gems.slk"):
        assert (root / name).exists()


def test_generate_data_trajectory_override(workspace, tmp_path):
    out = tmp_path / "small.npz"
    assert main(["generate-data", "--config", str(workspace["cfg"]),
                 "--seed", "1", "--out", str(out), "--trajectories", "5"]) == 0
    assert read_dataset(out).num_trajectories == 5


@pytest.mark.parametrize("epsilon", ["nan", "-0.5", "1.7"])
def test_generate_data_rejects_a_bad_epsilon(workspace, tmp_path, epsilon):
    out = tmp_path / "bad.npz"
    with pytest.raises(ValueError, match="epsilon must lie in"):
        main(["generate-data", "--config", str(workspace["cfg"]), "--seed", "1",
              "--out", str(out), "--trajectories", "2", "--epsilon", epsilon])
    assert not out.exists()


def test_pretrain_gems_rejects_zero_epochs_before_writing(workspace, tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(workspace["cfg"].read_text() + "gems.epochs = 0\n")
    out = tmp_path / "gems.slk"
    with pytest.raises(ValueError, match="epochs must be positive"):
        main(["pretrain-gems", "--config", str(cfg), "--data", str(workspace["data"]),
              "--out", str(out)])
    assert not out.exists()


def test_train_rerun_is_identical(workspace, tmp_path):
    args = ["train", "--config", str(workspace["cfg"])]
    assert main(args + ["--workdir", str(tmp_path / "run1")]) == 0
    assert main(args + ["--workdir", str(tmp_path / "run2")]) == 0
    a = read_records(tmp_path / "run1" / "seed-3" / "record.json")
    b = read_records(tmp_path / "run2" / "seed-3" / "record.json")
    assert len(a) == 1
    assert a[0].canonical() == b[0].canonical()
    assert a[0].seed == 3


def test_train_seed_flag_overrides_config(workspace, tmp_path):
    assert main(["train", "--config", str(workspace["cfg"]),
                 "--workdir", str(tmp_path), "--seed", "7"]) == 0
    rec = read_records(tmp_path / "seed-7" / "record.json")[0]
    assert rec.seed == 7


def test_train_static_ranker(workspace, tmp_path):
    assert main(["train", "--config", str(workspace["cfg"]),
                 "--workdir", str(tmp_path), "--ranker", "random",
                 "--agent", "none"]) == 0
    rec = read_records(tmp_path / "seed-3" / "record.json")[0]
    assert rec.method == "random"


def test_evaluate_with_diagnostics(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(workspace["cfg"]),
                 "--workdir", str(run)]) == 0
    diag = tmp_path / "diag.csv"
    assert main(["evaluate", "--config", str(workspace["cfg"]),
                 "--ckpt", str(run / "seed-3" / "ckpt-0000.slk"),
                 "--n", "2", "--diagnostics", str(diag)]) == 0
    assert "mean return" in capsys.readouterr().out
    assert diag.read_text().startswith("trajectory,turn,slot,item")


def test_report_aggregates_runs(workspace, tmp_path, capsys):
    for ranker, agent, sub in (("gems", "sac", "a"), ("random", "none", "b")):
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--workdir", str(tmp_path / sub),
                     "--ranker", ranker, "--agent", agent]) == 0
    csv_path = tmp_path / "report.csv"
    text_path = tmp_path / "report.txt"
    capsys.readouterr()   # drop the train-stage prints
    assert main(["report", "--runs", str(tmp_path), "--csv", str(csv_path),
                 "--text", str(text_path)]) == 0
    out = capsys.readouterr().out
    assert "environment: TopDown-diffuse" in out
    rows = read_report_csv(csv_path.read_text())
    assert {r.method for r in rows} == {"sac+gems", "random"}
    assert text_path.read_text() == out.rstrip("\n") + "\n"


def test_report_without_records_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--runs", str(tmp_path)])


def test_dataset_config_hash_guard(workspace, tmp_path):
    other = tmp_path / "other.cfg"
    other.write_text(CFG_TEMPLATE.format(root=workspace["root"])
                     .replace("sim.num_items = 15", "sim.num_items = 14"))
    with pytest.raises(SystemExit, match="different simulator config"):
        main(["train-mf", "--config", str(other),
              "--data", str(workspace["data"]), "--out", str(tmp_path / "x.npz")])


def test_unknown_config_key_fails_loudly(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sim.num_item = 5\n")
    with pytest.raises(ValueError, match="unknown config key"):
        main(["generate-data", "--config", str(bad), "--out", str(tmp_path / "d")])


@pytest.mark.parametrize("command, flag", [("evaluate", "--n"),
                                           ("generate-data", "--trajectories")])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_count_below_one_is_a_usage_error_before_any_file_is_read(
        tmp_path, capsys, command, flag, value):
    # None of these paths exist: the count is rejected while parsing.
    missing = str(tmp_path / "missing")
    args = {"evaluate": ["--ckpt", missing], "generate-data": ["--out", missing]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", missing, *args, flag, value])
    assert exit_info.value.code == 2
    assert f"{flag}: must be at least 1, got {int(value)}" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
