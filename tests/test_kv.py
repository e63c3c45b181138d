"""The ``section.field = value`` codec: golden run-config echo and checkpoint
header text, typed round-trips for the four settings classes, and config
parsing that fails only with ConfigError."""

import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundusvit import kv
from fundusvit.checkpoint import save_checkpoint
from fundusvit.config import (ConfigError, Paths, RunConfig, effective_lines,
                              parse_config_text)
from fundusvit.dataset import TASKS, PreprocessOptions
from fundusvit.model import DualHeadViT, ModelConfig
from fundusvit.preprocess import AugmentParams
from fundusvit.training import TrainConfig

GOLDEN_CONFIG = """\
model.dim = 32
model.mlp_hidden = 48
train.split = 3:2
train.lr0 = 0.0005
train.lr_decay = 1e-9
train.n_nrg = 40
augment.enabled = false
prep.bg_removal = false
paths.manifest = data/manifest.tsv
"""

GOLDEN_ECHO = """\
model.height = 64
model.width = 64
model.patch = 16
model.dim = 32
model.depth = 4
model.heads = 4
model.agg_hidden = 64
model.mlp_hidden = 48
train.lr0 = 0.0005
train.lr_decay = 1e-09
train.lr_decay_every = 5
train.batch_size = 8
train.epochs = 30
train.seed = 0
train.split = 3:2
train.task = glaucoma
train.n_nrg = 40
augment.enabled = false
prep.od_crop = true
prep.bg_removal = false
paths.manifest = data/manifest.tsv
paths.out = none"""

GOLDEN_HEADER = """\
fundusvit-checkpoint v2
model.height = 32
model.width = 32
model.patch = 16
model.dim = 8
model.depth = 1
model.heads = 2
model.agg_hidden = 4
model.mlp_hidden = none
prep.od_crop = false
prep.bg_removal = true
tasks = feature4
tensor patch_proj.weight 1x768x8 @ 0
tensor patch_proj.bias 1x1x8 @ 24576
tensor cls_token 1x1x8 @ 24608
tensor pos_embed 1x5x8 @ 24640
tensor block0.ln1.gain 1x8 @ 24800
tensor block0.ln1.bias 1x8 @ 24832
tensor block0.attn.q.weight 1x8x8 @ 24864
tensor block0.attn.q.bias 1x1x8 @ 25120
tensor block0.attn.k.weight 1x8x8 @ 25152
tensor block0.attn.k.bias 1x1x8 @ 25408
tensor block0.attn.v.weight 1x8x8 @ 25440
tensor block0.attn.v.bias 1x1x8 @ 25696
tensor block0.attn.out.weight 1x8x8 @ 25728
tensor block0.attn.out.bias 1x1x8 @ 25984
tensor block0.ln2.gain 1x8 @ 26016
tensor block0.ln2.bias 1x8 @ 26048
tensor block0.mlp.fc1.weight 1x8x32 @ 26080
tensor block0.mlp.fc1.bias 1x1x32 @ 27104
tensor block0.mlp.fc2.weight 1x32x8 @ 27232
tensor block0.mlp.fc2.bias 1x1x8 @ 28256
tensor mlp_head.weight 1x8x2 @ 28288
tensor mlp_head.bias 1x1x2 @ 28352
tensor agg.proj1.weight 1x8x4 @ 28360
tensor agg.proj1.bias 1x1x4 @ 28488
tensor agg.norm1.gain 1x4 @ 28504
tensor agg.norm1.bias 1x4 @ 28520
tensor agg.proj2.weight 1x4x1 @ 28536
tensor agg.proj2.bias 1x1x1 @ 28552
tensor agg.norm2.gain 1x1 @ 28556
tensor agg.norm2.bias 1x1 @ 28560
tensor final_fc.weight 1x8x2 @ 28564
tensor final_fc.bias 1x1x2 @ 28628
---
"""


class TestGolden:
    def test_effective_lines(self):
        cfg = parse_config_text(GOLDEN_CONFIG)
        assert "\n".join(effective_lines(cfg)) == GOLDEN_ECHO

    def test_checkpoint_header(self, tmp_path):
        model = DualHeadViT(ModelConfig(height=32, width=32, patch=16, dim=8,
                                        depth=1, heads=2, agg_hidden=4),
                            seed=3, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(od_crop=False), ["feature4"])
        raw = path.read_bytes()
        assert raw[:len(GOLDEN_HEADER)] == GOLDEN_HEADER.encode("ascii")
        assert len(raw) == len(GOLDEN_HEADER) + 28636


class TestEchoRoundTrip:
    @pytest.mark.parametrize("cfg", [
        RunConfig(),
        RunConfig(paths=Paths(manifest="data/manifest.tsv", out="runs/demo")),
    ], ids=["default", "paths-set"])
    def test_echo_reparses_to_the_same_config(self, cfg):
        assert parse_config_text("\n".join(effective_lines(cfg))) == cfg


# spellings int() or float() take that config numbers do not
LOOSE_INTEGERS = ["1_0", "+3", "\uff16\uff14", " 4", "4 ", "0x10", "1e1", "4.", "-", ""]
LOOSE_REALS = ["1_0e-4", "+0.5", "\uff10.5", " 0.5", "nan", "-inf", "1e", "e5", ".", "0.5f"]


class TestNumbers:
    @pytest.mark.parametrize("text", LOOSE_INTEGERS)
    def test_integer_takes_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="expected an integer"):
            kv.integer(text)

    @pytest.mark.parametrize("text", LOOSE_REALS)
    def test_real_takes_ascii_decimals_only(self, text):
        with pytest.raises(ValueError, match="expected a decimal number"):
            kv.real(text)

    def test_real_refuses_what_overflows(self):
        with pytest.raises(ValueError, match="not finite"):
            kv.real("-1e400")

    @pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("-12", -12),
                                             ("007", 7)])
    def test_integer_spellings(self, text, value):
        assert kv.integer(text) == value

    @pytest.mark.parametrize("text, value", [("2", 2.0), ("-0.0", -0.0), (".5", 0.5),
                                             ("5.", 5.0), ("2e-05", 2e-05),
                                             ("1E+16", 1e16)])
    def test_real_spellings(self, text, value):
        assert kv.real(text) == value

    @given(st.integers())
    def test_every_written_integer_reads_back(self, value):
        assert kv.integer(str(value)) == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_written_real_reads_back(self, value):
        assert kv.real(str(value)) == value

    @pytest.mark.parametrize("section, cls, name, text", [
        ("train", TrainConfig, "epochs", "1_0"), ("model", ModelConfig, "dim", "\uff16\uff14"),
        ("train", TrainConfig, "batch_size", "+3"), ("train", TrainConfig, "lr0", "1_0e-4"),
        ("train", TrainConfig, "n_nrg", "+1"), ("train", TrainConfig, "split", "4:+1")])
    def test_build_names_the_key_of_a_loose_number(self, section, cls, name, text):
        with pytest.raises(kv.KeyValueError, match=f"^{section}.{name}: bad value") as exc:
            kv.build(cls, section, {name: text})
        assert exc.value.key == f"{section}.{name}"


class TestBuild:
    def test_errors_name_the_key(self):
        with pytest.raises(ValueError, match=r"train\.epochs"):
            kv.build(TrainConfig, "train", {"epochs": "ten"})
        with pytest.raises(ValueError, match="unknown config key 'model.foo'"):
            kv.build(ModelConfig, "model", {"foo": "1"})
        with pytest.raises(ValueError, match=r"train\.split"):
            kv.build(TrainConfig, "train", {"split": "4"})

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_floats_rejected(self, text):
        with pytest.raises(ValueError, match="train.lr0"):
            kv.build(TrainConfig, "train", {"lr0": text})

    # each refusal is the validator's own message: a renamed or removed
    # field is refused as an unknown key, which names the field too
    @pytest.mark.parametrize("cls, section, raw, refusal", [
        pytest.param(TrainConfig, "train", {"epochs": "0"},
                     "epochs must be at least 1, got 0", id="TrainConfig-train-raw0-epochs"),
        pytest.param(TrainConfig, "train", {"epochs": "-3"},
                     "epochs must be at least 1, got -3", id="TrainConfig-train-raw1-epochs"),
        pytest.param(TrainConfig, "train", {"lr_decay_every": "0"},
                     "lr_decay_every must be at least 1, got 0",
                     id="TrainConfig-train-raw2-lr_decay_every"),
        pytest.param(TrainConfig, "train", {"batch_size": "0"},
                     "batch_size must be at least 1, got 0",
                     id="TrainConfig-train-raw3-batch_size"),
        pytest.param(TrainConfig, "train", {"lr0": "0"},
                     "lr0 must be positive and finite, got 0.0",
                     id="TrainConfig-train-raw4-lr0"),
        pytest.param(TrainConfig, "train", {"lr_decay": "0"},
                     "lr_decay must lie in (0, 1], got 0.0",
                     id="TrainConfig-train-raw5-lr_decay"),
        pytest.param(TrainConfig, "train", {"lr_decay": "1.0000000000000002"},
                     "lr_decay must lie in (0, 1], got 1.0000000000000002",
                     id="TrainConfig-train-raw6-lr_decay"),
        pytest.param(TrainConfig, "train", {"n_nrg": "-1"},
                     "n_nrg must be nonnegative, got -1", id="TrainConfig-train-raw7-n_nrg"),
        pytest.param(TrainConfig, "train", {"split": "4:0"},
                     "split parts must be at least 1, got (4, 0)",
                     id="TrainConfig-train-raw8-split"),
        (ModelConfig, "model", {"heads": "3"}, "not divisible by heads 3"),
        (TrainConfig, "train", {"seed": "-1"}, "seed must be nonnegative"),
    ])
    def test_out_of_domain_values_rejected(self, cls, section, raw, refusal):
        with pytest.raises(ValueError, match=re.escape(refusal)):
            kv.build(cls, section, raw)

    def test_domain_edges_accepted(self):
        train = kv.build(TrainConfig, "train", {"epochs": "1", "lr_decay": "1"})
        assert (train.epochs, train.lr_decay) == (1, 1.0)

    def test_field_type_without_text_form_is_a_type_error(self):
        @dataclass
        class Toy:
            values: list[int]

        with pytest.raises(TypeError, match="no text form"):
            kv.build(Toy, "toy", {"values": "1"})

    def test_optional_and_boolean(self):
        assert kv.build(ModelConfig, "model", {"mlp_hidden": "none"}).mlp_hidden is None
        assert kv.build(ModelConfig, "model", {"mlp_hidden": "7"}).mlp_hidden == 7
        assert kv.build(PreprocessOptions, "prep", {"od_crop": "false"}).od_crop is False
        # a flag takes the one spelling format_value writes
        for text in ("maybe", "1", "yes", "0", "no", "True"):
            with pytest.raises(ValueError, match="prep.od_crop"):
                kv.build(PreprocessOptions, "prep", {"od_crop": text})


positive = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def model_configs(draw):
    patch = draw(st.integers(1, 32))
    heads = draw(st.integers(1, 8))
    return ModelConfig(height=patch * draw(st.integers(1, 8)),
                       width=patch * draw(st.integers(1, 8)),
                       patch=patch,
                       dim=heads * draw(st.integers(1, 16)),
                       depth=draw(st.integers(1, 6)),
                       heads=heads,
                       agg_hidden=draw(st.integers(1, 64)),
                       mlp_hidden=draw(st.none() | st.integers(1, 256)))


SETTINGS = {
    "model": (ModelConfig, model_configs()),
    "train": (TrainConfig, st.builds(
        TrainConfig, lr0=positive, lr_decay=st.floats(0.0, 1.0, exclude_min=True),
        lr_decay_every=st.integers(1, 100), batch_size=st.integers(1, 64),
        epochs=st.integers(1, 100), seed=st.integers(0, 2**40),
        split=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        task=st.sampled_from([*TASKS, "bank"]),
        n_nrg=st.none() | st.integers(0, 10**6))),
    "augment": (AugmentParams, st.builds(AugmentParams, enabled=st.booleans())),
    "prep": (PreprocessOptions, st.builds(
        PreprocessOptions, od_crop=st.booleans(), bg_removal=st.booleans())),
    # a path spelled "none" reads back as unset, so the strategy avoids it
    "paths": (Paths, st.builds(
        Paths, manifest=st.none() | st.text(max_size=12).filter(lambda t: t != "none"),
        out=st.none() | st.just("runs/demo"))),
}


@pytest.mark.parametrize("section", sorted(SETTINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_build_inverts_dump(section, data):
    cls, strategy = SETTINGS[section]
    obj = data.draw(strategy)
    raw = dict(line.removeprefix(f"{section}.").split(" = ", 1)
               for line in kv.dump(section, obj))
    assert kv.build(cls, section, raw) == obj


KEYS = [line.split(" = ")[0] for line in effective_lines(RunConfig())]
VALUES = st.sampled_from(["0", "-1", "1", "16", "nan", "inf", "1e400", "none",
                          "true", "maybe", "0:0", "3:2", "1:-1", "2:1:1", "",
                          "relu", "bank"]) | st.text(max_size=12)
LINES = st.one_of(
    st.text(max_size=40),
    st.builds("{} = {}".format, st.sampled_from(KEYS + ["model.foo", "x"]), VALUES))


@settings(max_examples=300, deadline=None)
@given(st.lists(LINES, max_size=8))
def test_arbitrary_config_text_raises_only_config_error(lines):
    try:
        parse_config_text("\n".join(lines))
    except ConfigError:
        pass
