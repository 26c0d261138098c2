import pytest

from slatelab.config import (
    ExperimentConfig,
    build_config,
    canonical_text,
    config_hash,
    load_config,
    parse_config_file,
)
from slatelab.sac import SacConfig


def test_defaults():
    cfg = build_config({})
    assert cfg == ExperimentConfig()
    assert cfg.ranker == "gems" and cfg.agent == "sac"
    assert cfg.sim.num_items == 1000
    assert cfg.env_label == "TopDown-diffuse"
    assert cfg.method_label == "sac+gems"


def test_coercion_covers_field_kinds():
    cfg = build_config({
        "sim.num_items": "50",            # int
        "sim.omega": "0.75",              # float
        "sim.click_model": "Mixed",       # str
        "sim.nu": "none",                 # optional, resolved per click model
        "hidden": "64,32",                # int tuple
        "seeds": "4",                     # single-element tuple
        "gamma": "0",                     # float given as int literal
    })
    assert cfg.sim.num_items == 50
    assert cfg.sim.omega == 0.75
    assert cfg.sim.click_model == "Mixed"
    assert cfg.sim.nu == 0.5   # "none" defers to the click model's default
    assert cfg.hidden == (64, 32)
    assert cfg.seeds == (4,)
    assert cfg.gamma == 0.0


def test_optional_float_parses_number():
    cfg = build_config({"sim.nu": "0.25"})
    assert cfg.sim.nu == 0.25


def test_unknown_keys_raise():
    with pytest.raises(ValueError, match="unknown config key"):
        build_config({"simm.num_items": "5"})
    with pytest.raises(ValueError, match="unknown config key"):
        build_config({"sim.numm_items": "5"})
    with pytest.raises(ValueError, match="unknown config key"):
        build_config({"learning_rate": "0.1"})


def test_invalid_choices_raise():
    for ranker in ("greedy", "slateq"):
        with pytest.raises(ValueError, match="unknown ranker"):
            build_config({"ranker": ranker})
    with pytest.raises(ValueError, match="unknown agent"):
        build_config({"agent": "dqn"})
    with pytest.raises(ValueError, match="wknn_source"):
        build_config({"wknn_source": "catalog"})
    for key in ("update_every", "validation_every"):
        for value in ("0", "-1"):
            with pytest.raises(ValueError, match=f"{key} must be at least 1"):
                build_config({key: value})
    with pytest.raises(ValueError, match="never update"):
        build_config({"buffer_capacity": "10", "batch_size": "16"})
    build_config({"agent": "reinforce", "buffer_capacity": "10", "batch_size": "16"})
    with pytest.raises(ValueError, match="seeds must name at least one seed"):
        build_config({"seeds": ""})
    for dtype in ("float16", "float", "int32", ""):
        with pytest.raises(ValueError, match="dtype must be float32 or float64"):
            SacConfig(action_dim=2, dtype=dtype)
    assert SacConfig(action_dim=2).dtype == "float32"
    assert SacConfig(action_dim=2, dtype="float64").dtype == "float64"


def test_method_label_variants():
    assert build_config({"agent": "none", "ranker": "random"}).method_label == "random"
    assert build_config({"label": "mine"}).method_label == "mine"
    assert build_config({"agent": "reinforce",
                         "ranker": "softmax"}).method_label == "reinforce+softmax"


def test_parse_file_comments_and_overrides(tmp_path):
    f = tmp_path / "a.cfg"
    f.write_text(
        "# header comment\n"
        "\n"
        "gamma = 0.5   # trailing comment\n"
        "gamma = 0.9\n"
        "sim.num_items = 25\n")
    values = parse_config_file(f)
    assert values == {"gamma": "0.9", "sim.num_items": "25"}


def test_parse_file_include_relative(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "base.cfg").write_text("gamma = 0.1\ntau = 0.5\n")
    top = tmp_path / "top.cfg"
    top.write_text("tau = 0.9\ninclude sub/base.cfg\ngamma = 0.7\n")
    values = parse_config_file(top)
    # include splices at its position: it overrides earlier keys and is
    # overridden by later ones
    assert values == {"gamma": "0.7", "tau": "0.5"}


def test_parse_file_include_cycle_raises(tmp_path):
    f = tmp_path / "loop.cfg"
    f.write_text("include loop.cfg\n")
    with pytest.raises(ValueError, match="depth"):
        parse_config_file(f)


def test_parse_file_malformed_line(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("gamma = 0.5\njust some words\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        parse_config_file(f)


def test_load_config_overrides(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("gamma = 0.5\nranker = random\nagent = none\n")
    cfg = load_config(f, {"gamma": "0.25"})
    assert cfg.gamma == 0.25
    assert cfg.ranker == "random"


def test_canonical_text_round_trips_through_parser(tmp_path):
    cfg = build_config({"sim.num_items": "42", "hidden": "8,4", "seeds": "1,2",
                        "agent": "none", "ranker": "oracle", "sim.nu": "0.3"})
    f = tmp_path / "dump.cfg"
    f.write_text(canonical_text(cfg))
    again = load_config(f)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_hash_sensitivity_and_stability():
    a = build_config({"gamma": "0.8"})
    b = build_config({"gamma": "0.0"})
    assert config_hash(a) != config_hash(b)
    # insertion order of the value dict must not matter
    c = build_config({"tau": "0.01", "gamma": "0.8"})
    d = build_config({"gamma": "0.8", "tau": "0.01"})
    assert config_hash(c) == config_hash(d)
    assert len(config_hash(a)) == 12
