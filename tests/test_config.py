"""Config dataclasses, the flat file format, and override handling."""

import ast
import dataclasses
import pathlib

import pytest

import m3ad
from m3ad.config import (FUSION_TYPES, DataConfig, ModelConfig, RunConfig, TrainConfig,
                         apply_assignment, apply_overrides, config_as_dict,
                         load_config, model_config_from_dict,
                         parse_config_text)
from m3ad.errors import ConfigError


def test_parse_basic_assignments():
    cfg = parse_config_text("""
        # architecture
        embed_dim = 32
        depths = 2,2,4,2   # trailing comment
        fusion_type = concat

        lr = 0.001
        fractions = 0.8,0.1,0.1
    """)
    assert cfg.model.embed_dim == 32
    assert cfg.model.depths == (2, 2, 4, 2)
    assert cfg.model.fusion_type == "concat"
    assert cfg.train.lr == 0.001
    assert cfg.data.fractions == (0.8, 0.1, 0.1)
    # untouched keys keep their defaults
    assert cfg.model.window == ModelConfig().window


def test_parse_reports_source_and_line():
    with pytest.raises(ConfigError, match=r"my\.cfg:3.*unknown config key 'embde_dim'"):
        parse_config_text("\n\nembde_dim = 32\n", source="my.cfg")
    with pytest.raises(ConfigError, match=r"<config>:1.*expected 'key = value'"):
        parse_config_text("embed_dim 32")
    with pytest.raises(ConfigError, match=r":2.*bad value for epochs"):
        parse_config_text("lr = 0.1\nepochs = many")


def test_parse_bad_tuple_and_bool():
    with pytest.raises(ConfigError, match="comma-separated integers"):
        parse_config_text("depths = 2,two,2,2")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("embed_dim = 16\nseed = 9\n")
    cfg = load_config(path)
    assert cfg.model.embed_dim == 16
    assert cfg.train.seed == 9
    with pytest.raises(ConfigError, match=str(path.name)):
        path.write_text("bogus = 1\n")
        load_config(path)


def test_overrides_last_one_wins():
    cfg = apply_overrides(RunConfig(), ["epochs=5", "epochs=7", "lr = 0.5"])
    assert cfg.train.epochs == 7
    assert cfg.train.lr == 0.5
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(RunConfig(), ["epochs"])
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(RunConfig(), ["epoch=5"])


def test_file_then_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batch_size = 4\nwindow = 4\n")
    cfg = load_config(path)
    apply_overrides(cfg, ["batch_size=2"])
    assert cfg.train.batch_size == 2
    assert cfg.model.window == 4


def test_known_keys_cover_all_dataclass_fields():
    """apply_assignment knows every field of every section by its name:
    each one takes its own default written as config text back."""
    cfg = RunConfig()
    for section in (cfg.model, cfg.train, cfg.data):
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            apply_assignment(cfg, f.name, text)
            assert getattr(section, f.name) == value
    apply_assignment(cfg, "gate_temp", "2.5")
    assert cfg.model.gate_temp == 2.5


def test_every_config_field_is_read():
    """A settable value that no module reads does nothing; every config
    field must be read as an attribute outside config.py."""
    read = set()
    for path in pathlib.Path(m3ad.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{klass.__name__}.{f.name}"
              for klass in (ModelConfig, TrainConfig, DataConfig)
              for f in dataclasses.fields(klass) if f.name not in read]
    assert unread == []


@pytest.mark.parametrize("patch", [
    dict(depths=(2, 2, 2)),
    dict(depths=(2, 0, 2, 2)),
    dict(num_heads=(3, 6, 12, 24), embed_dim=32),  # 32 % 3 != 0
    dict(window=7),
    dict(window=0),
    dict(num_experts=8, num_shared_experts=8),
    dict(num_experts=7, num_shared_experts=2),  # 5 class experts, 3 classes
    dict(shared_expert_weight=1.0),
    dict(gate_temp=0.0),
    dict(fusion_stage=4),
    dict(fusion_type="gated"),
    dict(num_change_classes=5),
    dict(mask_ratio=1.0),
    dict(dtype="float16"),
    dict(embed_dim=-8, num_heads=(1, 1, 1, 1)),
    dict(embed_dim=0),
    dict(expert_hidden_ratio=0),
])
def test_model_validation_rejects(patch):
    with pytest.raises(ConfigError):
        dataclasses.replace(ModelConfig(), **patch).validate()


def test_mask_unit_must_be_a_multiple_of_patch_size():
    with pytest.raises(ConfigError, match="mask_unit must be a positive multiple of "
                                          "patch_size 4, got 2"):
        ModelConfig(mask_unit=2).validate()
    ModelConfig(patch_size=2, mask_unit=2).validate()


def test_model_validation_accepts_default():
    ModelConfig().validate()
    RunConfig().validate()


@pytest.mark.parametrize("patch", [
    dict(lr=0.0),
    dict(weight_decay=-0.1),
    dict(clip_norm=0.0),
    dict(epochs=0),
    dict(patience=0),
    dict(min_lr_ratio=1.5),
    dict(lambda_expert=-1.0),
])
def test_train_validation_rejects(patch):
    with pytest.raises(ConfigError):
        dataclasses.replace(TrainConfig(), **patch).validate()


def test_data_validation_rejects():
    cfg = RunConfig()
    cfg.data.size = 48
    with pytest.raises(ConfigError, match="multiple of 32"):
        cfg.validate()
    cfg.data.size = 64
    cfg.data.fractions = (0.5, 0.4, 0.2)
    with pytest.raises(ConfigError, match="sum to 1"):
        cfg.validate()


def test_stage_dim_doubling():
    cfg = ModelConfig(embed_dim=96)
    assert [cfg.stage_dim(s) for s in range(4)] == [96, 192, 384, 768]


def test_model_config_dict_round_trip():
    cfg = ModelConfig(embed_dim=8, depths=(1, 1, 1, 1), num_heads=(1, 2, 4, 8),
                      window=4, fusion_type="add")
    raw = config_as_dict(cfg)
    assert raw["depths"] == [1, 1, 1, 1]  # JSON-friendly lists
    back = model_config_from_dict(raw)
    assert back == cfg
    assert isinstance(back.depths, tuple)
    with pytest.raises(ConfigError, match="unknown model config keys"):
        model_config_from_dict({**raw, "n_layers": 4})
    # a missing key is no default: the checkpoint was saved with some value
    del raw["gate_temp"], raw["dtype"]
    with pytest.raises(ConfigError, match=r"missing from checkpoint: \['dtype', 'gate_temp'\]"):
        model_config_from_dict(raw)


def test_fusion_types_registry():
    assert FUSION_TYPES == ("adaptive", "concat", "add", "hadamard")
