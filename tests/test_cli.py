"""End-to-end CLI behavior at toy scale: artifacts, exit codes, streams."""

import csv
import os
import shutil
import struct
import warnings

import numpy as np
import pytest

from conftest import m3t_header, m3t_with_header
from m3ad import cli
from m3ad.cli import main
from m3ad.data import load_manifest, load_split
from m3ad.moe import TASKS, Routing
from m3ad.numerics import load_m3t, no_grad, save_m3t
from m3ad.priors import normalize_priors
from m3ad.train import load_checkpoint, model_from_checkpoint

_TINY_CFG = """\
# toy-scale network for CLI smoke tests
embed_dim = 8
depths = 1,1,1,1
num_heads = 1,2,4,8
window = 4
expert_hidden_ratio = 2

epochs = 2
batch_size = 8
lr = 0.001
patience = 5
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, tiny_data_dir):
    """gen-data artifacts come from the shared fixture; pretrain and
    finetune run once through the real CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(_TINY_CFG)
    out = root / "run"
    rc_pre = main(["pretrain", "--config", str(cfg), "--data", str(tiny_data_dir),
                   "--out", str(out), "--seed", "5"])
    rc_ft = main(["finetune", "--config", str(cfg), "--data", str(tiny_data_dir),
                  "--out", str(out), "--seed", "5",
                  "--init", str(out / "pretrain.m3ck")])
    return {"root": root, "cfg": cfg, "out": out, "manifest": tiny_data_dir,
            "rc_pre": rc_pre, "rc_ft": rc_ft}


def test_gen_data_writes_manifest_and_images(tmp_path):
    out = tmp_path / "data"
    rc = main(["gen-data", "--out", str(out), "--seed", "3",
               "--set", "n=6", "--set", "size=32", "--set", "fractions=1,0,0"])
    assert rc == 0
    records = load_manifest(out / "manifest.csv")
    assert len(records) == 6
    assert all(os.path.isfile(out / r.path) for r in records)


def test_gen_data_seed_changes_content(tmp_path):
    args = ["gen-data", "--set", "n=4", "--set", "size=32", "--set", "fractions=1,0,0"]
    assert main(args + ["--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--seed", "1"]) == 0
    assert main(args + ["--out", str(tmp_path / "c"), "--seed", "2"]) == 0
    a = (tmp_path / "a" / "manifest.csv").read_text()
    assert a == (tmp_path / "b" / "manifest.csv").read_text()
    assert a != (tmp_path / "c" / "manifest.csv").read_text()


def test_pretrain_artifacts(pipeline):
    assert pipeline["rc_pre"] == 0
    out = pipeline["out"]
    assert (out / "pretrain.m3ck").is_file()
    with open(out / "pretrain_log.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "lr", "train_total", "train_recon",
                       "train_expert", "val_masked_l1"]
    assert len(rows) == 3  # header + 2 epochs
    for row in rows[1:]:
        assert float(row[-1]) > 0.0  # values parse back


def test_finetune_artifacts(pipeline):
    assert pipeline["rc_ft"] == 0
    out = pipeline["out"]
    assert (out / "finetune.m3ck").is_file()
    with open(out / "finetune_log.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "lr", "train_loss", "val_diag_acc",
                       "val_change_acc", "val_mean_acc"]
    for row in rows[1:]:
        assert 0.0 <= float(row[3]) <= 1.0


@pytest.mark.filterwarnings("ignore:macro F1 excludes:RuntimeWarning")
def test_eval_writes_metric_csvs(pipeline, tmp_path):
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(pipeline["out"] / "finetune.m3ck"),
               "--data", str(pipeline["manifest"]), "--out", str(out),
               "--split", "val"])
    assert rc == 0
    for name in ("metrics_diagnosis.csv", "metrics_change.csv",
                 "confusion_diagnosis.csv", "confusion_change.csv"):
        assert (out / name).is_file()
    with open(out / "confusion_diagnosis.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["true", "NC", "MCI", "AD"]
    total = sum(int(v) for row in rows[1:] for v in row[1:])
    assert total == 4  # val split of the tiny fixture
    with open(out / "metrics_change.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "class", "value"]
    classes = {row[1] for row in rows[1:] if row[1]}
    assert classes == {"Stable", "Conversion", "Reversion"}
    # accuracy, then 4 metrics x 3 classes, then macro F1, under the header
    assert [row[0] for row in rows[1:]] == (["accuracy"] + ["precision"] * 3 + ["recall"] * 3
                                            + ["specificity"] * 3 + ["f1"] * 3 + ["macro_f1"])
    assert len(rows) == 1 + 2 + 4 * len(classes)
    for row in rows[1:]:
        assert row[2] == "undefined" or row[2] == repr(float(row[2]))


def test_eval_warns_once_per_task(pipeline, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--checkpoint", str(pipeline["out"] / "finetune.m3ck"),
                   "--data", str(pipeline["manifest"]), "--out", str(tmp_path),
                   "--split", "val"])
    assert rc == 0
    excluded = [w for w in caught if "macro F1 excludes" in str(w.message)]
    # one warning for each task whose metrics hold an undefined F1
    undefined = 0
    for task in TASKS:
        with open(tmp_path / f"metrics_{task}.csv", newline="") as fh:
            undefined += any(row[0] == "f1" and row[2] == "undefined" for row in csv.reader(fh))
    assert len(excluded) == undefined >= 1


@pytest.mark.parametrize("damage", ["version 1", "version 2", "CRC mismatch",
                                    "the header describes",
                                    "PriorStats field 'age_std' holds nan, not finite",
                                    "tensor 'patch_embed.proj.weight' holds non-finite values",
                                    "ModelConfig lacks field 'gate_temp'"])
def test_eval_exits_1_on_bad_checkpoint(pipeline, tmp_path, capsys, damage):
    good = pipeline["out"] / "finetune.m3ck"
    blob = good.read_bytes()
    bad = tmp_path / "bad.m3ck"
    if damage.startswith("version"):
        bad.write_bytes(blob[:4] + struct.pack("<I", int(damage[-1])) + blob[8:])
    elif damage == "CRC mismatch":
        bad.write_bytes(blob[:-100] + bytes([blob[-100] ^ 0x40]) + blob[-99:])
    elif damage == "the header describes":
        header = m3t_header(blob)
        header["tensors"][0]["shape"] = [3]
        bad.write_bytes(m3t_with_header(blob, header))
    elif damage.startswith("ModelConfig lacks"):
        header = m3t_header(blob)
        del header["model_config"]["gate_temp"], header["model_config"]["dtype"]
        bad.write_bytes(m3t_with_header(blob, header))
    else:  # a well-formed file whose values are not finite
        header, arrays = load_m3t(good)
        if damage.startswith("PriorStats"):
            header["prior_stats"]["age_std"] = float("nan")
        else:
            arrays["patch_embed.proj.weight"].reshape(-1)[0] = np.nan
        save_m3t(bad, arrays, header)
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(pipeline["manifest"]),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and damage in err


@pytest.mark.parametrize("key, value", [("embed_dim", "8"), ("depths", 5), ("window", None)])
def test_eval_exits_1_on_mistyped_model_config(pipeline, tmp_path, capsys, key, value):
    blob = (pipeline["out"] / "finetune.m3ck").read_bytes()
    header = m3t_header(blob)
    header["model_config"][key] = value
    bad = tmp_path / "bad.m3ck"
    bad.write_bytes(m3t_with_header(blob, header))
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(pipeline["manifest"]),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(bad) in err and repr(key) in err


def test_training_logs_hold_only_numbers(pipeline):
    """Every cell of both logs parses back with float(): numpy scalars
    are written as plain floats."""
    for name in ("pretrain_log.csv", "finetune_log.csv"):
        with open(pipeline["out"] / name, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for row in rows:
            for cell in row:
                float(cell)


def test_eval_rejects_pretrain_checkpoint(pipeline, tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(pipeline["out"] / "pretrain.m3ck"),
               "--data", str(pipeline["manifest"]), "--out", str(tmp_path)])
    assert rc == 1
    assert "prior statistics" in capsys.readouterr().err


def test_inspect_gates_csv(pipeline, tmp_path):
    out = tmp_path / "gates"
    rc = main(["inspect-gates", "--checkpoint", str(pipeline["out"] / "finetune.m3ck"),
               "--data", str(pipeline["manifest"]), "--out", str(out),
               "--split", "val"])
    assert rc == 0
    with open(out / "gates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["layer", "task"] + [f"expert{e}" for e in range(8)]
    assert len(rows) == 1 + 4 * 2  # 4 layers x 2 tasks
    for row in rows[1:]:
        weights = np.array([float(v) for v in row[2:]])
        assert weights.min() >= 0.0
        assert abs(weights.sum() - 1.0) < 1e-6
    assert {row[1] for row in rows[1:]} == {"diagnosis", "change"}


def test_inspect_gates_match_sink_loop(pipeline, tmp_path):
    """gates.csv holds the means of a loop over batches of 16 that reads
    each layer's gate weights through Routing.sink: the diagnosis half of
    the rows, then the change half."""
    rc = main(["inspect-gates", "--checkpoint", str(pipeline["out"] / "finetune.m3ck"),
               "--data", str(pipeline["manifest"]), "--out", str(tmp_path), "--split", "train"])
    assert rc == 0
    with open(tmp_path / "gates.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ckpt = load_checkpoint(pipeline["out"] / "finetune.m3ck")
    model = model_from_checkpoint(ckpt)
    ds = load_split(pipeline["manifest"], "train")
    sums = {task: np.zeros((len(model.blocks), 8)) for task in TASKS}
    with no_grad():
        for start in range(0, len(ds), 16):
            sl = slice(start, start + 16)
            priors = normalize_priors(ds.age[sl], ds.gender[sl], ds.etiv[sl],
                                      ckpt.prior_stats, dtype=model.np_dtype)
            routing = Routing(sink=[])
            model.encode(ds.images[sl], routing, priors=priors)
            for layer, w in enumerate(routing.sink):
                diagnosis, change = np.split(w, 2)
                sums["diagnosis"][layer] += diagnosis.sum(axis=0)
                sums["change"][layer] += change.sum(axis=0)
    assert len(rows) == 2 * len(model.blocks)
    for row in rows:
        want = sums[row[1]][int(row[0])] / len(ds)
        assert [float(v) for v in row[2:]] == want.tolist()


def test_exit_codes_for_bad_invocations(tmp_path, capsys):
    assert main([]) == 1  # no subcommand: help to stderr

    rc = main(["gen-data", "--out", str(tmp_path / "x"), "--set", "bogus=1"])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err

    rc = main(["pretrain", "--data", str(tmp_path / "none.csv")])
    assert rc == 1  # --out missing
    assert "--out" in capsys.readouterr().err

    rc = main(["pretrain", "--data", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 1  # manifest does not exist

    rc = main(["eval", "--checkpoint", str(tmp_path / "none.m3ck"),
               "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_usage_errors_exit_1_and_name_the_flag(pipeline, tmp_path, capsys):
    """eval, inspect-gates and gradcheck read no config, so they reject
    the config flags like any other unknown argument."""
    rc = main(["eval", "--checkpoint", str(pipeline["out"] / "finetune.m3ck"),
               "--data", str(pipeline["manifest"]), "--out", str(tmp_path),
               "--set", "bogus=1"])
    assert rc == 1
    assert "--set bogus=1" in capsys.readouterr().err

    assert main(["gradcheck", "--seed", "3"]) == 1
    assert "--seed 3" in capsys.readouterr().err

    assert main(["pretrain", "--seed", "x"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_bad_config_value_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lr = 0.001\nepochs = soon\n")
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err
    assert "epochs" in err


def test_config_file_of_invalid_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"epochs = 1\xff\n")
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text")


def test_manifest_of_invalid_utf8_exits_1(pipeline, tmp_path, capsys):
    manifest = _data_copy(pipeline["manifest"], tmp_path / "data")
    blob = manifest.read_bytes()
    manifest.write_bytes(blob[:-20] + b"\xff" + blob[-19:])
    rc = main(["pretrain", "--config", str(pipeline["cfg"]), "--data", str(manifest),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest}: not UTF-8 text")


@pytest.mark.parametrize("overrides, key", [
    (["mask_unit=2"], "mask_unit"),
    (["mask_ratio=0.01"], "mask_ratio"),
    (["mask_unit=32", "mask_ratio=0.4"], "mask_ratio"),
])
def test_mask_settings_that_cannot_mask_exit_1(pipeline, tmp_path, capsys, overrides, key):
    flags = [arg for item in overrides for arg in ("--set", item)]
    rc = main(["pretrain", "--config", str(pipeline["cfg"]), "--data", str(pipeline["manifest"]),
               "--out", str(tmp_path / "run"), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "run" / "pretrain.m3ck").exists()


@pytest.mark.parametrize("flags, key", [
    (["--seed", "-1"], "seed"),
    (["--set", "clip_norm=nan"], "clip_norm"),
    (["--set", "lr=nan"], "lr"),
    (["--set", "gate_temp=inf"], "gate_temp"),
    (["--set", "fractions=0.5,nan,0.5"], "fractions"),
    (["--config", "seed.cfg"], "seed"),
    (["--set", "embed_dim=-8", "--set", "num_heads=1,1,1,1"], "embed_dim must be positive"),
    (["--set", "expert_hidden_ratio=0"], "expert_hidden_ratio must be positive"),
])
def test_out_of_range_config_values_exit_1(tmp_path, capsys, flags, key):
    """A negative seed, a non-finite float, tuple elements included, or a
    width below 1 is a config error naming its key, not a crash or a
    silent run."""
    (tmp_path / "seed.cfg").write_text("seed = -1\n")
    flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
    rc = main(["gen-data", "--out", str(tmp_path / "d")] + flags)
    assert rc == 1
    err = capsys.readouterr().err.replace(str(tmp_path), "")
    assert err.startswith("error: ") and key in err


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    """A config too large for the host, e.g. a huge expert_hidden_ratio,
    is the user's error naming the command, not an internal crash."""
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "pretrain", exhausted)
    rc = main(["pretrain", "--data", str(tmp_path / "manifest.csv"), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: pretrain: out of memory")


def test_finetune_init_of_another_model_config_exits_1(pipeline, tmp_path, capsys):
    """A checkpoint pretrained at embed 8 does not seed an embed-16 model."""
    rc = main(["finetune", "--config", str(pipeline["cfg"]), "--data", str(pipeline["manifest"]),
               "--out", str(tmp_path), "--set", "embed_dim=16",
               "--init", str(pipeline["out"] / "pretrain.m3ck")])
    assert rc == 1
    assert "embed_dim (8 vs 16)" in capsys.readouterr().err
    assert not (tmp_path / "finetune.m3ck").exists()


def _data_copy(manifest, dest):
    shutil.copytree(os.path.dirname(manifest), dest)
    return dest / "manifest.csv"


@pytest.mark.parametrize("image", [np.zeros((64, 64)), np.zeros(32 * 32),
                                   np.full((32, 32), np.nan)], ids=["64x64", "1-D", "nan"])
def test_split_image_of_another_shape_exits_1(pipeline, tmp_path, capsys, image):
    manifest = _data_copy(pipeline["manifest"], tmp_path / "data")
    record = next(r for r in load_manifest(manifest) if r.split == "train")
    save_m3t(tmp_path / "data" / record.path, {"image": image.astype(np.float32)})
    rc = main(["pretrain", "--config", str(pipeline["cfg"]), "--data", str(manifest),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(manifest) in err and record.path in err


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_val_scans_of_another_shape_than_train_exit_1(pipeline, tmp_path, capsys, command):
    """Training at 32x32 does not validate at 64x64."""
    manifest = _data_copy(pipeline["manifest"], tmp_path / "data")
    for record in load_manifest(manifest):
        if record.split == "val":
            save_m3t(tmp_path / "data" / record.path, {"image": np.zeros((64, 64), np.float32)})
    rc = main([command, "--config", str(pipeline["cfg"]), "--data", str(manifest),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "validation scans are 64x64 but training scans are 32x32" in capsys.readouterr().err
    assert not (tmp_path / "run" / f"{command}.m3ck").exists()


@pytest.mark.parametrize("field, value", [("age", "nan"), ("etiv", "inf"), ("age", "-inf")])
def test_non_finite_manifest_value_exits_1(pipeline, tmp_path, capsys, field, value):
    manifest = _data_copy(pipeline["manifest"], tmp_path / "data")
    with open(manifest, newline="") as fh:
        rows = list(csv.reader(fh))
    line = next(i for i, row in enumerate(rows) if row[-1] == "test")
    rows[line][rows[0].index(field)] = value
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    rc = main(["eval", "--checkpoint", str(pipeline["out"] / "finetune.m3ck"),
               "--data", str(manifest), "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert f"manifest.csv:{line + 1}: {field}={float(value)} is not finite" in capsys.readouterr().err


def test_finetune_val_change_label_outside_the_head_exits_1(pipeline, tmp_path, capsys):
    """Change code 5 is valid in a manifest but has no class in a 3-class
    head; a validation row holding it stops fine-tuning before any step."""
    manifest = _data_copy(pipeline["manifest"], tmp_path / "data")
    with open(manifest, newline="") as fh:
        rows = list(csv.reader(fh))
    line = next(i for i, row in enumerate(rows) if row[-1] == "val")
    rows[line][rows[0].index("change")] = "5"
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    rc = main(["finetune", "--config", str(pipeline["cfg"]), "--data", str(manifest),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "validation change label 5 out of range for 3-class head" in capsys.readouterr().err
    assert not (tmp_path / "run" / "finetune.m3ck").exists()
