"""Command-line surface tests: the synth/train/eval/infer flow, the exit-code
contract, config validation, and report cross-checks against direct metric
calls."""

import argparse
import math
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from fundusvit import cli, kv
from fundusvit.checkpoint import load_checkpoint, save_checkpoint
from fundusvit.config import ConfigError, effective_lines, parse_config_text
from fundusvit.dataset import PreprocessOptions, read_manifest, write_manifest
from fundusvit.metrics import auc, normalized_hamming, roc_curve, tpr_at_specificity
from fundusvit.model import DualHeadViT, ModelConfig

from helpers import read_report


def run_cli(args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset plus a tiny training config, shared by the module."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert run_cli(["synth", "--n", 10, "--seed", 3, "--out", data,
                    "--size", 64]) == 0
    config = root / "run.cfg"
    config.write_text(f"""# tiny desk-scale run
model.height = 32
model.width = 32
model.patch = 16
model.dim = 16
model.depth = 1
model.heads = 2
model.agg_hidden = 8
model.mlp_hidden = 16
train.epochs = 2
train.batch_size = 4
train.seed = 5
train.lr0 = 0.001
train.task = glaucoma
paths.manifest = {data / 'manifest.tsv'}
paths.out = {root / 'run'}
""")
    return root, data, config


def write_config(path, config, settings):
    """``config``'s text with ``settings`` ({key: value}) in place of its
    lines for those keys, written to ``path``."""
    lines = [line for line in config.read_text().splitlines()
             if line.partition(" = ")[0] not in settings]
    lines += [f"{key} = {value}" for key, value in settings.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfig:
    def test_defaults_and_parsing(self):
        cfg = parse_config_text("model.dim = 32\ntrain.seed = 9\n")
        assert cfg.model.dim == 32
        assert cfg.train.seed == 9
        assert cfg.train.lr0 == 2e-4
        assert cfg.prep.od_crop is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("model.banana = 2\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("nonsense.dim = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("model.dim = 2\nmodel.dim = 3\n")

    def test_split_ratio_syntax(self):
        cfg = parse_config_text("train.split = 3:2\n")
        assert cfg.train.split == (3, 2)

    def test_every_value_is_echoed(self):
        cfg = parse_config_text("model.dim = 32\n")
        lines = effective_lines(cfg)
        assert "model.dim = 32" in lines
        assert "train.lr0 = 0.0002" in lines          # untouched default
        assert "prep.od_crop = true" in lines
        assert "augment.enabled = true" in lines
        assert any(l.startswith("train.split = 4:1") for l in lines)

    def test_bad_value_types(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.dim = soon\n")
        with pytest.raises(ConfigError):
            parse_config_text("prep.od_crop = maybe\n")


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run_cli(["train"]) == 1            # missing required --config
        assert run_cli(["no-such-verb"]) == 1

    def test_missing_manifest_is_two_and_names_path(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("paths.manifest = /nowhere/m.tsv\npaths.out = out\n")
        assert run_cli(["train", "--config", config]) == 2
        assert "/nowhere/m.tsv" in capsys.readouterr().err

    def test_missing_config_is_two(self, tmp_path):
        assert run_cli(["train", "--config", tmp_path / "none.cfg"]) == 2

    def test_bad_config_key_is_one(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("model.banana = 1\n")
        assert run_cli(["train", "--config", config]) == 1

    @pytest.mark.parametrize("unset", ["paths.manifest", "paths.out"])
    def test_unset_path_is_one_and_names_it(self, unset, workspace, tmp_path, capsys):
        root, data, config = workspace
        config_text = config.read_text()
        assert f"\n{unset} = " in config_text
        bad = tmp_path / "c.cfg"
        bad.write_text("".join(line for line in config_text.splitlines(keepends=True)
                               if not line.startswith(unset)))
        assert run_cli(["train", "--config", bad]) == 1
        assert f"config error: {unset} is not set" in capsys.readouterr().err

    def test_incompatible_bank_is_three(self, tmp_path, workspace, capsys):
        # a checkpoint of the old one-file-per-task format, and one whose
        # model lines name another architecture than its tensors
        from fundusvit.checkpoint import save_checkpoint
        from fundusvit.dataset import PreprocessOptions
        from fundusvit.model import DualHeadViT, ModelConfig

        root, data, config = workspace
        bank = tmp_path / "bank"
        bank.mkdir()
        model = DualHeadViT(ModelConfig(height=32, width=32, patch=16, dim=16,
                                        depth=1, heads=2, agg_hidden=8), 0, np.float32)
        save_checkpoint(bank / "model.ckpt", DualHeadViT.stack([model] * 2),
                        PreprocessOptions(), ["glaucoma", "feature1"])
        raw = (bank / "model.ckpt").read_bytes()
        for old, new in [(b"fundusvit-checkpoint v2\n", b"fundusvit-checkpoint v1\n"),
                         (b"\nmodel.dim = 16\n", b"\nmodel.dim = 32\n")]:
            (bank / "model.ckpt").write_bytes(raw.replace(old, new, 1))
            capsys.readouterr()
            assert run_cli(["eval", "--checkpoint", bank,
                            "--manifest", data / "manifest.tsv",
                            "--out", tmp_path / "r.txt"]) == 3
            assert f"{bank / 'model.ckpt'}: header line " in capsys.readouterr().err


def _tensor_line(lines, name):
    return next(l for l in lines if l.startswith(f"tensor {name} "))


def _replace_line(prefix, new):
    return lambda lines, body: ([new if l.startswith(prefix) else l
                                 for l in lines], body)


def _drop_last_tensor(lines, body):
    # the final tensor is final_fc.bias, 1x1x2 float32
    return lines[:-1], body[:-8]


def _shift_last_offset(lines, body):
    name, dims, at, off = lines[-1].split(" ")[1:]
    return lines[:-1] + [f"tensor {name} {dims} @ {int(off) - 4}"], body


def _negative_depth(lines, body):
    # what a model.depth = -1 run wrote before depth was checked: no blocks
    kept, chunks, offset = [], [], 0
    for line in lines:
        if line.startswith("tensor block"):
            continue
        if line.startswith("tensor "):
            name, dims, _, at = line.split(" ")[1:]
            size = 4 * math.prod(map(int, dims.split("x")))
            chunks.append(body[int(at):int(at) + size])
            line = f"tensor {name} {dims} @ {offset}"
            offset += size
        kept.append("model.depth = -1" if line.startswith("model.depth") else line)
    return kept, b"".join(chunks)


# header edits applied to a good checkpoint: (header lines, payload) -> same
MALFORMED_CHECKPOINTS = {
    # the cls_token line is overwritten, so cls_token would keep its init
    "duplicate-tensor": lambda lines, body: (
        [_tensor_line(lines, "patch_proj.bias") if l.startswith("tensor cls_token ")
         else l for l in lines], body),
    "missing-tensor": _drop_last_tensor,
    "shifted-offset": _shift_last_offset,
    "trailing-bytes": lambda lines, body: (lines, body + bytes(4)),
    "malformed-tensor-line": lambda lines, body: (
        lines[:-1] + [lines[-1] + " extra"], body),
    "non-ascii-header": _replace_line("model.mlp_hidden", "model.mlp_hidden = n\u00f6ne"),
    "non-numeric-height": _replace_line("model.height", "model.height = abc"),
    "negative-depth": _negative_depth,
    "unknown-field": lambda lines, body: (lines[:2] + ["model.foo = 1"] + lines[2:],
                                          body),
    "zero-patch": _replace_line("model.patch", "model.patch = 0"),
}


# od_crop is the setting whose line a header could miss and still load with
# the default (true); two blocks give each header edit 60 lines to act on
EDIT_MODEL = ModelConfig(height=32, width=32, patch=16, dim=16, depth=2, heads=2,
                         agg_hidden=8)
EDIT_PREP = PreprocessOptions(od_crop=False)
# magic, model.*, prep.*, tasks and one tensor line per parameter
EDIT_LINES = (1 + len(fields(ModelConfig)) + len(fields(PreprocessOptions)) + 1
              + len(DualHeadViT.parameter_shapes(EDIT_MODEL)))


def _respell(line, new):
    return lambda lines: ([new if l == line else l for l in lines], lines.index(line))


def _parent_header(lines):
    # the header written while the activation, the background threshold and
    # the detection floor were settings: their three lines where they stood
    at = lines.index("model.mlp_hidden = none")
    prep = lines.index("prep.bg_removal = true") + 1
    return (lines[:at] + ["model.activation = relu"] + lines[at:prep]
            + ["prep.bg_tau = 10", "prep.confidence_floor = 0.25"] + lines[prep:], at)


# header edits: lines -> (edited lines, index of the first line that differs)
HEADER_EDITS = {
    **{f"delete-{i}": (lambda lines, i=i: (lines[:i] + lines[i + 1:], i))
       for i in range(EDIT_LINES)},
    **{f"duplicate-{i}": (lambda lines, i=i: (lines[:i + 1] + lines[i:], i + 1))
       for i in range(EDIT_LINES)},
    **{f"drop-{line}": (lambda lines, line=line: (
        [l for l in lines if l != line], lines.index(line)))
       for line in ("prep.od_crop = false",)},
    "yes": _respell("prep.bg_removal = true", "prep.bg_removal = yes"),
    "leading-space": _respell("model.height = 32", "model.height =  32"),
    "underscore": _respell("model.height = 32", "model.height = 3_2"),
    "plus": _respell("model.dim = 16", "model.dim = +16"),
    "trailing-zero": _respell("model.patch = 16", "model.patch = 16.0"),
    "parent-header": _parent_header,
}


@pytest.fixture(scope="module")
def edit_checkpoint(workspace, tmp_path_factory):
    """A saved checkpoint's header lines and payload, and an image to score."""
    root, data, config = workspace
    path = tmp_path_factory.mktemp("edit") / "model.ckpt"
    save_checkpoint(path, DualHeadViT(EDIT_MODEL, 3), EDIT_PREP, ["glaucoma"])
    head, _, body = path.read_bytes().partition(b"\n---\n")
    lines = head.decode("ascii").split("\n")
    assert len(lines) == EDIT_LINES
    return lines, body, data / "images" / "img0000.ppm"


class TestHeaderEdits:
    """A header loads only as the exact bytes the writer gives its settings."""

    def test_intact_header_loads(self, edit_checkpoint, tmp_path):
        lines, body, image = edit_checkpoint
        path = tmp_path / "model.ckpt"
        path.write_bytes("\n".join(lines).encode("ascii") + b"\n---\n" + body)
        loaded = load_checkpoint(path)
        assert (loaded.config, loaded.prep, loaded.tasks) == (EDIT_MODEL, EDIT_PREP,
                                                              ("glaucoma",))
        assert run_cli(["infer", "--checkpoint", path, "--image", image]) == 0

    @pytest.mark.parametrize("case", list(HEADER_EDITS))
    def test_edited_header_is_three_and_names_the_line(self, case, edit_checkpoint,
                                                       tmp_path, capsys):
        lines, body, image = edit_checkpoint
        edited, first = HEADER_EDITS[case](lines)
        path = tmp_path / "model.ckpt"
        path.write_bytes("\n".join(edited).encode("ascii") + b"\n---\n" + body)
        capsys.readouterr()
        assert run_cli(["infer", "--checkpoint", path, "--image", image]) == 3
        err = capsys.readouterr().err
        assert "incompatible checkpoint" in err and f"header line {first + 1} " in err


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_infer_is_three(self, case, workspace, tmp_path,
                                                 capsys):
        from fundusvit.checkpoint import save_checkpoint
        from fundusvit.dataset import PreprocessOptions
        from fundusvit.model import DualHeadViT, ModelConfig

        root, data, config = workspace
        model = DualHeadViT(ModelConfig(height=32, width=32, patch=16, dim=16,
                                        depth=1, heads=2, agg_hidden=8), 7,
                            np.float32)
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, model, PreprocessOptions(), ["glaucoma"])
        image = data / "images" / "img0000.ppm"
        assert run_cli(["infer", "--checkpoint", good, "--image", image]) == 0

        head, sep, body = good.read_bytes().partition(b"\n---\n")
        lines, body = MALFORMED_CHECKPOINTS[case](head.decode("ascii").split("\n"),
                                                  body)
        bad = tmp_path / "model.ckpt"
        bad.write_bytes("\n".join(lines).encode("utf-8") + sep + body)
        capsys.readouterr()
        assert run_cli(["infer", "--checkpoint", bad, "--image", image]) == 3
        assert "incompatible checkpoint" in capsys.readouterr().err

    # each refusal is the validator's or parser's own message: a renamed or
    # removed key is refused as an unknown key, which names the field too
    @pytest.mark.parametrize("line, refusal", [
        pytest.param("train.split = 0:0", "split parts must be at least 1, got (0, 0)",
                     id="train.split = 0:0-split"),
        pytest.param("train.split = 4:0", "split parts must be at least 1, got (4, 0)",
                     id="train.split = 4:0-split"),
        pytest.param("train.split = 0:1", "split parts must be at least 1, got (0, 1)",
                     id="train.split = 0:1-split"),
        pytest.param("model.patch = 0", "patch must be positive, got 0",
                     id="model.patch = 0-patch"),
        pytest.param("train.lr0 = nan", "train.lr0: bad value 'nan'",
                     id="train.lr0 = nan-lr0"),
        pytest.param("train.lr_decay_every = 0", "lr_decay_every must be at least 1, got 0",
                     id="train.lr_decay_every = 0-lr_decay_every"),
        pytest.param("train.epochs = 0", "epochs must be at least 1, got 0",
                     id="train.epochs = 0-epochs"),
        ("prep.od_crop = 1", "prep.od_crop: bad value '1'"),
        ("augment.enabled = yes", "augment.enabled: bad value 'yes'"),
        pytest.param("model.depth = -1", "depth must be positive, got -1",
                     id="model.depth = -1-depth"),
        pytest.param("model.agg_hidden = 0", "agg_hidden must be positive, got 0",
                     id="model.agg_hidden = 0-agg_hidden"),
        pytest.param("model.mlp_hidden = 0", "mlp_hidden must be positive, got 0",
                     id="model.mlp_hidden = 0-mlp_hidden"),
        pytest.param("train.lr0 = -0.001", "lr0 must be positive and finite, got -0.001",
                     id="train.lr0 = -0.001-lr0"),
        pytest.param("train.lr0 = 0", "lr0 must be positive and finite, got 0.0",
                     id="train.lr0 = 0-lr0"),
        pytest.param("train.lr_decay = -1", "lr_decay must lie in (0, 1], got -1.0",
                     id="train.lr_decay = -1-lr_decay"),
        pytest.param("train.lr_decay = 0", "lr_decay must lie in (0, 1], got 0.0",
                     id="train.lr_decay = 0-lr_decay"),
        pytest.param("train.lr_decay = 1.5", "lr_decay must lie in (0, 1], got 1.5",
                     id="train.lr_decay = 1.5-lr_decay"),
        pytest.param("train.n_nrg = -1", "n_nrg must be nonnegative, got -1",
                     id="train.n_nrg = -1-n_nrg"),
        ("train.seed = -3", "seed must be nonnegative"),
        ("train.task = x", "unknown task 'x'")])
    def test_malformed_config_train_is_one(self, line, refusal, workspace, tmp_path,
                                           capsys, monkeypatch):
        from fundusvit import training

        root, data, config = workspace
        prepared = []
        monkeypatch.setattr(training, "prepare_input", lambda *a: prepared.append(a))
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"paths.manifest = {data / 'manifest.tsv'}\n"
                       f"paths.out = {tmp_path / 'out'}\n{line}\n")
        assert run_cli(["train", "--config", bad]) == 1
        assert refusal in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and prepared == []

    @pytest.mark.parametrize("command", ["synth", "preprocess", "train", "eval",
                                         "eval-into-directory", "eval-roc-into-directory",
                                         "eval-scores-into-directory"])
    def test_unwritable_output_is_one(self, command, workspace, tmp_path, capsys,
                                      monkeypatch):
        # an existing file where a directory goes, or a directory where an
        # output file goes; train and eval must fail before they prepare any
        # image (evaluate looks prepare_input up in dataset when it runs)
        from fundusvit import dataset, training
        from fundusvit.config import load_config

        root, data, config = workspace
        manifest = data / "manifest.tsv"
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, DualHeadViT(load_config(config).model, 0),
                        load_config(config).prep, ["glaucoma"])
        prepared = []
        monkeypatch.setattr(training, "prepare_input", lambda *a: prepared.append(a))
        monkeypatch.setattr(dataset, "prepare_input", lambda *a: prepared.append(a))
        report = ["eval", "--checkpoint", ckpt, "--manifest", manifest,
                  "--out", tmp_path / "r.txt"]
        args = {"synth": ["synth", "--n", 2, "--size", 32, "--out", afile],
                "preprocess": ["preprocess", "--manifest", manifest, "--out", afile],
                "train": ["train", "--config",
                          write_config(tmp_path / "afile.cfg", config, {"paths.out": afile})],
                "eval": ["eval", "--checkpoint", ckpt, "--manifest", manifest,
                         "--out", afile / "r.txt"],
                "eval-into-directory": ["eval", "--checkpoint", ckpt,
                                        "--manifest", manifest, "--out", tmp_path],
                "eval-roc-into-directory": [*report, "--roc-out", tmp_path],
                "eval-scores-into-directory": [*report, "--scores-out", tmp_path]}
        capsys.readouterr()
        assert run_cli(args[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fundusvit: error: ") and err.count("\n") == 1
        assert afile.read_text() == "not a directory\n" and prepared == []

    def test_removed_train_flags_are_one(self, workspace, tmp_path, capsys):
        # a run's settings come from its config file alone
        root, data, config = workspace
        run_config = write_config(tmp_path / "run.cfg", config,
                                  {"paths.out": tmp_path / "run"})
        for flag, value in [("--seed", "1"), ("--task", "bank"), ("--od-crop", "false"),
                            ("--bg-removal", "false"), ("--out", str(tmp_path / "out"))]:
            assert run_cli(["train", "--config", run_config, flag, value]) == 1
            err = capsys.readouterr().err
            assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")
        assert list(tmp_path.iterdir()) == [run_config]

    def test_manifest_extents_other_than_the_image_are_one(self, workspace, tmp_path,
                                                            capsys):
        # the detection is scaled by the manifest's extents, so 64-px images
        # listed as 128x128 would be cropped at twice their disc's position
        from fundusvit.checkpoint import save_checkpoint
        from fundusvit.config import load_config
        from fundusvit.dataset import read_manifest, write_manifest
        from fundusvit.model import DualHeadViT

        root, data, config = workspace
        bad = data / "bad.tsv"
        write_manifest(bad, [replace(r, width=128, height=128)
                             for r in read_manifest(data / "manifest.tsv")])
        bad_config = write_config(tmp_path / "bad.cfg", config,
                                  {"paths.manifest": bad, "paths.out": tmp_path / "run"})
        capsys.readouterr()
        assert run_cli(["train", "--config", bad_config]) == 1
        assert "image is 64x64, the manifest lists 128x128" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, DualHeadViT(load_config(config).model, 0),
                        load_config(config).prep, ["glaucoma"])
        assert run_cli(["eval", "--checkpoint", ckpt, "--manifest", bad,
                        "--out", tmp_path / "r.txt"]) == 1
        err = capsys.readouterr().err
        assert "img0000: image is 64x64, the manifest lists 128x128" in err
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("column, value", [("width", "abc"), ("height", "12.5"),
                                               ("width", "0"), ("height", "-64"),
                                               ("width", "\uff16\uff14"),
                                               ("height", "\u0666\u0664")])
    def test_bad_manifest_extent_names_the_row(self, column, value, workspace,
                                               tmp_path, capsys):
        root, data, config = workspace
        lines = (data / "manifest.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        row = lines[2].split("\t")
        row[header.index(column)] = value
        bad = data / f"bad-{column}.tsv"
        bad.write_text("\n".join([*lines[:2], "\t".join(row), *lines[3:]]) + "\n")
        bad_config = write_config(tmp_path / "bad.cfg", config,
                                  {"paths.manifest": bad, "paths.out": tmp_path / "run"})
        capsys.readouterr()
        assert run_cli(["train", "--config", bad_config]) == 1
        assert (f"{bad}:3: column {column} must be a positive integer, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_duplicate_image_id_names_the_row(self, workspace, tmp_path, capsys):
        root, data, config = workspace
        lines = (data / "manifest.tsv").read_text().splitlines()
        bad = data / "dup.tsv"
        bad.write_text("\n".join([*lines, lines[1]]) + "\n")
        bad_config = write_config(tmp_path / "bad.cfg", config,
                                  {"paths.manifest": bad, "paths.out": tmp_path / "run"})
        capsys.readouterr()
        assert run_cli(["train", "--config", bad_config]) == 1
        image_id = lines[1].split("\t")[0]
        assert (f"{bad}:{len(lines) + 1}: duplicate image id {image_id!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("image_id", ["../../escaped", "x y=z", ".hidden", "..",
                                          "", "a/b", "caf\u00e9"])
    def test_unsafe_image_id_is_one_and_writes_nothing(self, image_id, workspace,
                                                       tmp_path, capsys):
        # preprocess names its output out/images/<image_id>.ppm
        root, data, config = workspace
        lines = (data / "manifest.tsv").read_text().splitlines()
        row = lines[2].split("\t")
        row[0] = image_id
        bad = data / "unsafe-id.tsv"
        bad.write_text("\n".join([*lines[:2], "\t".join(row), *lines[3:]]) + "\n")
        capsys.readouterr()
        assert run_cli(["preprocess", "--manifest", bad, "--out",
                        tmp_path / "a" / "b" / "out"]) == 1
        assert (f"{bad}:3: column image_id must be ASCII letters, digits, '.', '_' or "
                f"'-', not empty or starting with '.', got {image_id!r}"
                in capsys.readouterr().err)
        assert list(tmp_path.rglob("*")) == []

    def test_calls_construct_no_parser(self, tmp_path, monkeypatch):
        # the parser is built once per process; each call only parses
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(2):
            assert run_cli(["infer", "--checkpoint", tmp_path / "none.ckpt",
                            "--image", tmp_path / "none.ppm"]) == 2
        assert built == []


class TestTrainEvalInfer:
    def test_train_writes_checkpoint_and_log(self, workspace):
        root, data, config = workspace
        assert run_cli(["train", "--config", config]) == 0
        assert (root / "run" / "model.ckpt").is_file()
        log = (root / "run" / "glaucoma.log").read_text()
        assert "train.seed = 5" in log            # config echoed for provenance
        assert "epoch=0" in log and "epoch=1" in log

    def test_relative_out_is_beside_the_config(self, workspace, tmp_path, monkeypatch):
        # paths.out, like paths.manifest, is read from the config's directory,
        # not the working directory; the log echoes it as written
        root, data, config = workspace
        (tmp_path / "exp").mkdir()
        (tmp_path / "cwd").mkdir()
        run_config = write_config(tmp_path / "exp" / "run.cfg", config,
                                  {"paths.out": "runs/demo"})
        monkeypatch.chdir(tmp_path / "cwd")
        assert run_cli(["train", "--config", run_config]) == 0
        assert (tmp_path / "exp" / "runs" / "demo" / "model.ckpt").is_file()
        log = (tmp_path / "exp" / "runs" / "demo" / "glaucoma.log").read_text()
        assert "# paths.out = runs/demo\n" in log
        assert list((tmp_path / "cwd").iterdir()) == []

    def test_bank_prints_its_trained_and_skipped_counts(self, workspace, tmp_path, capsys):
        # the skipped tasks are those bank.log names, out of all eleven
        root, data, config = workspace
        bank_config = write_config(tmp_path / "bank.cfg", config,
                                   {"train.task": "bank", "paths.out": tmp_path / "bank"})
        capsys.readouterr()
        assert run_cli(["train", "--config", bank_config]) == 0
        skipped = (tmp_path / "bank" / "bank.log").read_text().count("status=skipped")
        assert skipped > 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            f"trained {11 - skipped} tasks, skipped {skipped}"

    def test_rerun_identical_log_body(self, workspace):
        root, data, config = workspace
        assert run_cli(["train", "--config", config]) == 0
        first = (root / "run" / "glaucoma.log").read_bytes()
        assert run_cli(["train", "--config", config]) == 0
        assert (root / "run" / "glaucoma.log").read_bytes() == first

    def test_preprocessing_toggles_change_the_trained_parameters(self, workspace,
                                                                 tmp_path):
        root, data, config = workspace
        off = tmp_path / "off"
        on = tmp_path / "on"
        for out, toggle in [(off, "false"), (on, "true")]:
            arm = write_config(tmp_path / f"{out.name}.cfg", config,
                               {"prep.od_crop": toggle, "prep.bg_removal": toggle,
                                "paths.out": out})
            assert run_cli(["train", "--config", arm]) == 0

        def payload(path):
            raw = path.read_bytes()
            return raw[raw.find(b"\n---\n"):]

        assert payload(off / "model.ckpt") != payload(on / "model.ckpt")

    def test_eval_report_and_cross_check(self, workspace, tmp_path):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        report_path = tmp_path / "report.txt"
        scores_path = tmp_path / "scores.tsv"
        roc_path = tmp_path / "roc.tsv"
        assert run_cli(["eval", "--checkpoint", root / "run",
                        "--manifest", data / "manifest.tsv",
                        "--out", report_path, "--scores-out", scores_path,
                        "--roc-out", roc_path]) == 0
        report, _ = read_report(report_path)

        lines = scores_path.read_text().splitlines()[1:]
        ids, labels, scores, feats = [], [], [], []
        for line in lines:
            parts = line.split("\t")
            ids.append(parts[0])
            labels.append(int(parts[1]))
            scores.append(float(parts[2]))
            feats.append([float(v) for v in parts[3:]])
        assert report["tpr_at_95"] == pytest.approx(
            tpr_at_specificity(scores, labels, 0.95), abs=1e-6)
        assert report["auc"] == pytest.approx(auc(roc_curve(scores, labels)), abs=1e-6)
        from fundusvit.dataset import read_manifest
        rows = {r.image_id: r for r in read_manifest(data / "manifest.tsv")}
        nhd = [normalized_hamming((np.asarray(f) > 0.5).astype(int),
                                  rows[i].features)
               for i, f in zip(ids, feats)]
        assert report["nhd_mean"] == pytest.approx(float(np.mean(nhd)), abs=1e-6)
        assert roc_path.read_text().startswith("threshold\tfpr\ttpr")

    def test_eval_creates_the_directories_of_every_output(self, workspace, tmp_path):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        report, roc, scores = (tmp_path / name / "file.tsv"
                               for name in ("report", "roc", "scores"))
        assert run_cli(["eval", "--checkpoint", root / "run",
                        "--manifest", data / "manifest.tsv", "--out", report,
                        "--roc-out", roc, "--scores-out", scores]) == 0
        assert report.read_text().startswith("tpr_at_95 = ")
        assert roc.read_text().startswith("threshold\tfpr\ttpr")
        assert scores.read_text().startswith("image_id\trg\tglaucoma_score")

    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5", "inf"])
    def test_eval_threshold_outside_unit_interval_is_one(self, value, workspace,
                                                         tmp_path, capsys):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        report = tmp_path / "report.txt"
        assert run_cli(["eval", "--checkpoint", root / "run",
                        "--manifest", data / "manifest.tsv", "--out", report,
                        "--threshold", value]) == 1
        assert "--threshold" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_threshold_one_is_accepted(self, workspace, tmp_path):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        report = tmp_path / "report.txt"
        assert run_cli(["eval", "--checkpoint", root / "run",
                        "--manifest", data / "manifest.tsv", "--out", report,
                        "--threshold", "1"]) == 0
        assert "feature_threshold = 1.000000" in report.read_text()

    def test_eval_twice_identical_reports(self, workspace, tmp_path):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(["eval", "--checkpoint", root / "run",
                 "--manifest", data / "manifest.tsv", "--out", a])
        run_cli(["eval", "--checkpoint", root / "run",
                 "--manifest", data / "manifest.tsv", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_infer_format_and_fallback(self, workspace, tmp_path, capsys):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        capsys.readouterr()  # drop the train command's output
        image = data / "images" / "img0000.ppm"
        assert run_cli(["infer", "--checkpoint", root / "run",
                        "--image", image]) == 0
        captured = capsys.readouterr()
        assert "fallback: full image" in captured.err
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1
        name, value = lines[0].split(" ")
        assert name == "glaucoma"
        assert len(value.split(".")[1]) == 6      # six decimal places
        assert 0.0 <= float(value) <= 1.0

    def test_infer_full_image_detection_matches_no_detection(self, workspace,
                                                             tmp_path, capsys):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        capsys.readouterr()
        image = data / "images" / "img0001.ppm"
        ckpt = root / "run"
        run_cli(["infer", "--checkpoint", ckpt, "--image", image])
        without = capsys.readouterr().out
        det = tmp_path / "full.txt"
        # centered box of one third of the image: the crop is the whole image
        det.write_text("0 0.5 0.5 0.333333 0.333333 0.9\n")
        run_cli(["infer", "--checkpoint", ckpt, "--image", image,
                 "--detection", det])
        withdet = capsys.readouterr()
        assert withdet.out == without
        assert "fallback" not in withdet.err

    def test_infer_subpixel_detection_crops_one_pixel(self, workspace, tmp_path, capsys):
        # 3 * (0.0064 + 0.0064) / 2 px on the 64-px image rounds to 0 without
        # the one-pixel floor
        root, data, config = workspace
        run_cli(["train", "--config", config])
        capsys.readouterr()  # drop the train command's output
        det = tmp_path / "tiny.txt"
        det.write_text("0 0.5 0.5 0.0001 0.0001 0.9\n")
        assert run_cli(["infer", "--checkpoint", root / "run",
                        "--image", data / "images" / "img0000.ppm",
                        "--detection", det]) == 0
        assert capsys.readouterr().out.startswith("glaucoma ")

    @pytest.mark.parametrize("header, message", [
        (b"P6\n0 5\n255\n", "image extents must be positive"),
        (b"P6\n5 0\n255\n", "image extents must be positive"),
        (b"P6\n-1 -1\n255\n\0\0\0", "PPM width must be ASCII decimal digits")],
        ids=["zero-width", "zero-height", "negative"])
    def test_infer_image_without_pixels_is_one(self, header, message, workspace,
                                               tmp_path, capsys):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        image = tmp_path / "empty.ppm"
        image.write_bytes(header)
        assert run_cli(["infer", "--checkpoint", root / "run",
                        "--image", image]) == 1
        assert f"{image}: {message}" in capsys.readouterr().err

    def test_infer_missing_detection_is_two(self, workspace, tmp_path, capsys):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        capsys.readouterr()  # drop the train command's output
        assert run_cli(["infer", "--checkpoint", root / "run",
                        "--image", data / "images" / "img0000.ppm",
                        "--detection", tmp_path / "ghost.txt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"missing input: detection file not found: {tmp_path / 'ghost.txt'}" \
            in captured.err

    def test_infer_loose_detection_number_is_one(self, workspace, tmp_path, capsys):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        capsys.readouterr()  # drop the train command's output
        det = tmp_path / "loose.txt"
        det.write_text("0 0.2_5 0.5 0.2 0.2 0.9\n")
        assert run_cli(["infer", "--checkpoint", root / "run",
                        "--image", data / "images" / "img0000.ppm",
                        "--detection", det]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"{det}:1: non-numeric field" in captured.err

    def test_infer_missing_image_is_two(self, workspace, tmp_path):
        root, data, config = workspace
        run_cli(["train", "--config", config])
        assert run_cli(["infer", "--checkpoint", root / "run",
                        "--image", tmp_path / "ghost.ppm"]) == 2

    def test_infer_bank_prints_feature_lines(self, workspace, tmp_path):
        from fundusvit.checkpoint import load_checkpoint, save_checkpoint

        root, data, config = workspace
        run_cli(["train", "--config", config])
        loaded = load_checkpoint(root / "run" / "model.ckpt")
        bank = tmp_path / "bank"
        bank.mkdir()
        save_checkpoint(bank / "model.ckpt", DualHeadViT.stack([loaded.stacked] * 3),
                        loaded.prep, ["glaucoma", "feature1", "feature2"])
        out = subprocess.run(
            [sys.executable, "-m", "fundusvit.cli", "infer",
             "--checkpoint", str(bank),
             "--image", str(data / "images" / "img0000.ppm")],
            capture_output=True, text=True)
        assert out.returncode == 0
        names = [l.split(" ")[0] for l in out.stdout.strip().splitlines()]
        assert names == ["glaucoma", "feature1", "feature2"]


class TestColdImports:
    def test_help_and_default_infer_load_no_scipy(self, workspace, tmp_path):
        # scipy is a test-only dependency: a fresh CLI process must not pay
        # for its import, even when it crops and strips a background
        from fundusvit.checkpoint import load_checkpoint, save_checkpoint

        root, data, config = workspace
        run_cli(["train", "--config", config])
        loaded = load_checkpoint(root / "run" / "model.ckpt")
        assert loaded.prep.od_crop and loaded.prep.bg_removal
        bank = tmp_path / "bank"
        bank.mkdir()
        save_checkpoint(bank / "model.ckpt", DualHeadViT.stack([loaded.stacked] * 2),
                        loaded.prep, ["glaucoma", "feature1"])
        code = ("import sys\n"
                "from fundusvit import cli\n"
                "try:\n"
                "    cli.main(['--help'])\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0\n"
                "assert cli.main(sys.argv[1:]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        out = subprocess.run(
            [sys.executable, "-c", code, "infer", "--checkpoint", str(bank),
             "--image", str(data / "images" / "img0000.ppm"),
             "--detection", str(data / "detections" / "img0000.txt")],
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        assert [l.split(" ")[0] for l in lines[-3:-1]] == ["glaucoma", "feature1"]
        assert lines[-1] == "[]"


class TestPreprocessCommand:
    def test_writes_resized_dataset(self, workspace, tmp_path):
        root, data, config = workspace
        out = tmp_path / "prep"
        assert run_cli(["preprocess", "--manifest", data / "manifest.tsv",
                        "--out", out, "--target", 48]) == 0
        from fundusvit.dataset import read_manifest
        from fundusvit.ppm import read_ppm

        rows = read_manifest(out / "manifest.tsv")
        assert len(rows) == 10
        image = read_ppm(out / rows[0].image_path)
        assert image.shape == (48, 48, 3)

    def test_row_without_detection_falls_back_to_the_full_image(self, workspace,
                                                                tmp_path, capsys):
        root, data, config = workspace
        rows = read_manifest(data / "manifest.tsv")[:3]
        manifest = tmp_path / "m.tsv"
        write_manifest(manifest, [
            replace(r, image_path=str(data / r.image_path),
                    detection_path=None if i == 1 else str(data / r.detection_path))
            for i, r in enumerate(rows)])
        capsys.readouterr()
        for crop in ("true", "false"):
            assert run_cli(["preprocess", "--manifest", manifest, "--out", tmp_path / crop,
                            "--target", 32, "--od-crop", crop]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [f"{rows[1].image_id}: fallback: full image"]
        image = f"images/{rows[1].image_id}.ppm"  # the whole image, as without crops
        assert (tmp_path / "true" / image).read_bytes() \
            == (tmp_path / "false" / image).read_bytes()

    def test_nonpositive_target_is_one_and_writes_nothing(self, workspace, tmp_path,
                                                          capsys):
        root, data, config = workspace
        out = tmp_path / "prep"
        assert run_cli(["preprocess", "--manifest", data / "manifest.tsv",
                        "--out", out, "--target", 0]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fundusvit: error:") and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("args", [["--n", 2, "--size", 0], ["--n", 2, "--size", -4],
                                  ["--n", 2, "--size", 1], ["--n", 2, "--size", 2],
                                  ["--n", -3], ["--n", 0],
                                  ["--n", 2, "--pos-fraction", 1.5],
                                  ["--n", 2, "--pos-fraction", -0.5],
                                  ["--n", 2, "--seed", -1]],
                         ids=lambda args: "_".join(map(str, args)))
def test_synth_rejects_what_it_cannot_generate(args, tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli(["synth", "--out", out, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fundusvit: error:") and "Traceback" not in err
    assert not out.exists()
    if "--seed" in args:
        assert "seed must be nonnegative, got -1" in err


# spellings int() and float() take that the numeric options do not
NUMBER_SPELLINGS = ["1_0", "+3", "\uff16\uff14", " 4", "0x10", "1e1"]
REAL_SPELLINGS = ["1_0e-1", "+0.5", "nan", "inf", "\uff10.5", "0.5 ", "1e400"]


@pytest.mark.parametrize("option, value", [
    *[(option, value) for option in ("--n", "--seed", "--size") for value in NUMBER_SPELLINGS],
    *[("--pos-fraction", value) for value in REAL_SPELLINGS]])
def test_synth_numbers_take_one_spelling(option, value, tmp_path, capsys):
    out = tmp_path / "data"
    args = {"--n": 2, "--size": 32, option: value}
    assert run_cli(["synth", "--out", out, *[x for item in args.items() for x in item]]) == 1
    err = capsys.readouterr().err
    reason = refusal(kv.real if option == "--pos-fraction" else kv.integer, value)
    assert f"argument {option}: {reason}\n" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["preprocess", "--target", "3_2"], ["preprocess", "--target", "+32"],
    ["eval", "--threshold", "0_5"], ["eval", "--threshold", "+0.5"]],
    ids=lambda argv: "_".join(argv))
def test_numeric_options_take_one_spelling(argv, workspace, tmp_path, capsys):
    root, data, config = workspace
    out = tmp_path / "out"
    required = {"preprocess": ["--manifest", data / "manifest.tsv", "--out", out],
                "eval": ["--checkpoint", root / "run", "--manifest", data / "manifest.tsv",
                         "--out", out / "report.txt"]}
    assert run_cli([*argv, *required[argv[0]]]) == 1
    err = capsys.readouterr().err
    reason = refusal(kv.real if argv[1] == "--threshold" else kv.integer, argv[2])
    assert f"argument {argv[1]}: {reason}\n" in err and "Traceback" not in err
    assert not out.exists()


def refusal(parse, text: str) -> str:
    """The message ``parse`` refuses ``text`` with."""
    with pytest.raises(ValueError) as refused:
        parse(text)
    return str(refused.value)


@pytest.mark.parametrize("argv, reason", [
    (["synth", "--n", "1_0"], "expected an integer, got '1_0'"),
    (["synth", "--n", "2", "--pos-fraction", "+0.5"], "expected a decimal number, got '+0.5'"),
    (["preprocess", "--od-crop", "on"], "expected true/false, got 'on'"),
    (["eval", "--threshold", "0_5"], "expected a decimal number, got '0_5'"),
    (["preprocess", "--od-crop", "1"], "expected true/false, got '1'"),
    (["preprocess", "--bg-removal", "yes"], "expected true/false, got 'yes'")],
    ids=["integer", "real", "boolean", "probability", "boolean-1", "boolean-yes"])
def test_option_errors_name_the_accepted_spelling(argv, reason, workspace, tmp_path,
                                                 capsys):
    # argparse would print "invalid <function> value"; each option kind
    # prints its parser's own reason instead, with the usage exit code
    root, data, config = workspace
    out = tmp_path / "out"
    required = {"synth": ["--out", out],
                "preprocess": ["--manifest", data / "manifest.tsv", "--out", out],
                "eval": ["--checkpoint", root / "run", "--manifest", data / "manifest.tsv",
                         "--out", out / "report.txt"]}
    assert run_cli([*argv, *required[argv[0]]]) == 1
    err = capsys.readouterr().err
    option = next(a for a in reversed(argv) if a.startswith("--"))
    assert err.splitlines()[-1] == f"fundusvit {argv[0]}: error: argument {option}: {reason}"
    assert not out.exists()


@pytest.mark.parametrize("line, key", [("train.epochs = 1_0", "train.epochs"),
                                       ("model.dim = \uff16\uff14", "model.dim"),
                                       ("train.batch_size = +3", "train.batch_size"),
                                       ("train.lr0 = 1_0e-4", "train.lr0"),
                                       ("train.split = 4:+1", "train.split"),
                                       ("train.lr_decay = -1_0", "train.lr_decay")])
def test_config_numbers_take_one_spelling(line, key, workspace, tmp_path, capsys):
    root, data, config = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"paths.manifest = {data / 'manifest.tsv'}\n"
                   f"paths.out = {tmp_path / 'out'}\n{line}\n")
    assert run_cli(["train", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fundusvit: config error:") and f"{key}: bad value" in err
    assert not (tmp_path / "out").exists()


# the activation, the Adam moments, the augmentation ranges, the background
# threshold and the detection floor are constants, not config keys
@pytest.mark.parametrize("key", ["model.activation",
                                 "train.beta1", "train.beta2", "train.adam_eps",
                                 "augment.p_flip_h", "augment.p_flip_v",
                                 "augment.rot_lo", "augment.rot_hi",
                                 "augment.sat_lo", "augment.sat_hi",
                                 "augment.bright_lo", "augment.bright_hi",
                                 "augment.hue_lo", "augment.hue_hi",
                                 "prep.bg_tau", "prep.confidence_floor"])
def test_a_fixed_constant_is_not_a_config_key(key, workspace, tmp_path, capsys):
    root, data, config = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"paths.manifest = {data / 'manifest.tsv'}\n"
                   f"paths.out = {tmp_path / 'out'}\n{key} = 0.5\n")
    assert run_cli(["train", "--config", bad]) == 1
    assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_help_names_each_bound_and_default(capsys):
    assert run_cli(["synth", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for phrase in ["number of images, at least 1", "(default 0)",
                   "at least 3 (default 128)", "in [0, 1] (default 0.5)"]:
        assert phrase in text
