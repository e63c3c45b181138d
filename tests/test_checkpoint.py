"""Checkpoint format tests: bit-exact round-trips, manifest structure,
incompatibility detection, atomic artifact writes, and the one-pass bank
load against loading each member alone."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fundusvit import atomic, checkpoint, cli, kv
from fundusvit.atomic import write_atomic
from fundusvit.checkpoint import (TASKS, IncompatibleCheckpointError, _header,
                                  _layout, _parse_header, load_bank,
                                  load_checkpoint, save_checkpoint)
from fundusvit import model as model_module
from fundusvit.dataset import ManifestRow, PreprocessOptions, write_manifest
from fundusvit.metrics import evaluate_scores
from fundusvit.model import DualHeadViT, ModelConfig
from fundusvit.ppm import write_ppm
from fundusvit.synth import generate_dataset

from test_kv import SETTINGS

CFG = ModelConfig(height=32, width=32, patch=16, dim=16, depth=1, heads=2,
                  agg_hidden=8, mlp_hidden=16)


def make_model(seed=0):
    return DualHeadViT(CFG, seed=seed, dtype=np.float32)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = make_model(seed=4)
        prep = PreprocessOptions(od_crop=False, bg_removal=True, bg_tau=12,
                                 confidence_floor=0.3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, prep, "feature3")
        loaded, loaded_prep, task = load_checkpoint(path)
        assert task == "feature3"
        assert loaded_prep == prep
        assert loaded.config == CFG
        for (na, ta), (nb, tb) in zip(model.params.items(),
                                      loaded.params.items()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()
        # a second save is byte-identical to the first
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(path2, loaded, loaded_prep, task)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        model = make_model(seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), "glaucoma")

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew an initial value")

        monkeypatch.setattr(model_module, "_trunc_normal", no_draws)
        loaded, _, _ = load_checkpoint(path)
        for (_, ta), (_, tb) in zip(model.params.items(), loaded.params.items()):
            assert tb.data.dtype == np.float32
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_header_structure(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), "glaucoma")
        raw = path.read_bytes()
        header = raw[:raw.find(b"\n---\n")].decode("ascii").splitlines()
        assert header[0] == "fundusvit-checkpoint v1"
        assert any(line == "model.dim = 16" for line in header)
        assert any(line == "task = glaucoma" for line in header)
        tensor_lines = [l for l in header if l.startswith("tensor ")]
        assert len(tensor_lines) == len(model.params)
        assert tensor_lines[0].startswith("tensor patch_proj.weight 768x16 @ 0")
        # offsets are cumulative over little-endian float32 payloads
        offsets = [int(l.rsplit("@", 1)[1]) for l in tensor_lines]
        sizes = [4 * int(np.prod([int(d) for d in l.split(" ")[2].split("x")]))
                 for l in tensor_lines]
        assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]


@settings(max_examples=80, deadline=None)
@given(cfg=SETTINGS["model"][1], prep=SETTINGS["prep"][1], task=st.sampled_from(TASKS))
def test_every_written_header_parses_to_its_settings(cfg, prep, task):
    # the reader accepts a header only as the writer's bytes, so the writer
    # must give those bytes back for every setting it accepts
    tensor_lines, size = _layout(DualHeadViT.parameter_shapes(cfg))
    header, parsed = _parse_header(Path("m.ckpt"), _header(cfg, prep, task, tensor_lines))
    assert (header.config, header.prep, header.size, parsed) == (cfg, prep, size, task)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not-a-checkpoint\n---\n")
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), "glaucoma")
        raw = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-32])
        with pytest.raises(IncompatibleCheckpointError, match="out of range"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_unknown_task(self, tmp_path):
        model = make_model()
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", model, PreprocessOptions(), "foo")
        with pytest.raises(ValueError, match="one task"):  # a file holds K = 1
            save_checkpoint(tmp_path / "x.ckpt", DualHeadViT.stack([model, model]),
                            PreprocessOptions(), "glaucoma")
        assert not (tmp_path / "x.ckpt").exists()


class TestBank:
    def test_load_bank_from_directory(self, tmp_path):
        prep = PreprocessOptions()
        save_checkpoint(tmp_path / "glaucoma.ckpt", make_model(1), prep, "glaucoma")
        save_checkpoint(tmp_path / "feature1.ckpt", make_model(2), prep, "feature1")
        bank = load_bank(tmp_path)
        assert set(bank.models) == {"glaucoma", "feature1"}
        assert bank.config == CFG

    def test_single_file_bank(self, tmp_path):
        save_checkpoint(tmp_path / "glaucoma.ckpt", make_model(1),
                        PreprocessOptions(), "glaucoma")
        bank = load_bank(tmp_path / "glaucoma.ckpt")
        assert set(bank.models) == {"glaucoma"}

    def test_mixed_architectures_rejected(self, tmp_path):
        prep = PreprocessOptions()
        save_checkpoint(tmp_path / "glaucoma.ckpt", make_model(1), prep, "glaucoma")
        other = DualHeadViT(ModelConfig(height=32, width=32, patch=16, dim=32,
                                        depth=1, heads=2, agg_hidden=8),
                            seed=0, dtype=np.float32)
        save_checkpoint(tmp_path / "feature1.ckpt", other, prep, "feature1")
        with pytest.raises(IncompatibleCheckpointError, match="differs"):
            load_bank(tmp_path)

    def test_bank_without_glaucoma_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "feature1.ckpt", make_model(1),
                        PreprocessOptions(), "feature1")
        with pytest.raises(IncompatibleCheckpointError, match="glaucoma"):
            load_bank(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bank(tmp_path)


class TestAtomicWrites:
    """A write that fails midway leaves the previous file and no temporary
    file behind."""

    @staticmethod
    def fail_midway(monkeypatch, only=""):
        """Writes to temporary files whose name holds ``only`` fail midway."""
        real_open = open

        class HalfWritten:
            def __new__(cls, path, *args, **kwargs):
                if only not in str(path):
                    return real_open(path, *args, **kwargs)
                return super().__new__(cls)

            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(atomic, "open", HalfWritten, raising=False)

    def test_helper_replaces_whole_files(self, tmp_path):
        path = tmp_path / "a.txt"
        write_atomic(path, "first\n")
        write_atomic(path, b"second\n")
        assert path.read_bytes() == b"second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failed_checkpoint_write_keeps_the_previous_checkpoint(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "glaucoma.ckpt"
        save_checkpoint(path, make_model(seed=1), PreprocessOptions(), "glaucoma")
        before = path.read_bytes()
        self.fail_midway(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, make_model(seed=2), PreprocessOptions(), "glaucoma")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["glaucoma.ckpt"]

    def test_failed_report_write_keeps_the_previous_report(self, tmp_path,
                                                           monkeypatch):
        report = evaluate_scores(["a", "b"], [0.9, 0.1], [1, 0], np.zeros((2, 10)),
                                 np.zeros((2, 10), dtype=int))
        path, roc = tmp_path / "report.txt", tmp_path / "roc.tsv"
        report.write(path)
        report.write_roc_table(roc)
        before = path.read_bytes(), roc.read_bytes()
        self.fail_midway(monkeypatch)
        with pytest.raises(OSError):
            report.write(path)
        with pytest.raises(OSError):
            report.write_roc_table(roc)
        assert (path.read_bytes(), roc.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "roc.tsv"]

    def test_failed_image_and_manifest_writes_keep_the_previous_files(self, tmp_path,
                                                                      monkeypatch):
        image, manifest = tmp_path / "a.ppm", tmp_path / "m.tsv"
        write_ppm(image, np.zeros((2, 3, 3), dtype=np.uint8))
        rows = [ManifestRow("a", "a.ppm", 3, 2, 0, (0,) * 10)]
        write_manifest(manifest, rows)
        before = image.read_bytes(), manifest.read_bytes()
        self.fail_midway(monkeypatch)
        with pytest.raises(OSError):
            write_ppm(image, np.ones((4, 4, 3), dtype=np.uint8))
        with pytest.raises(OSError):
            write_manifest(manifest, [])
        assert (image.read_bytes(), manifest.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ppm", "m.tsv"]

    def test_failed_synth_detection_write_keeps_the_previous_file(self, tmp_path,
                                                                  monkeypatch):
        generate_dataset(tmp_path, n=1, seed=0, size=32)
        detection = tmp_path / "detections" / "img0000.txt"
        before = detection.read_bytes()
        self.fail_midway(monkeypatch, only=".txt.")
        with pytest.raises(OSError):
            generate_dataset(tmp_path, n=1, seed=1, size=32)
        assert detection.read_bytes() == before
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


def save_bank(directory, tasks=TASKS):
    """One member per task in ``tasks`` (all eleven by default), each with
    its own weights."""
    for task in tasks:
        save_checkpoint(directory / f"{task}.ckpt", make_model(TASKS.index(task)),
                        PreprocessOptions(), task)


def assert_same_stack(a: DualHeadViT, b: DualHeadViT):
    assert a.config == b.config and a.n_tasks == b.n_tasks
    assert list(a.params) == list(b.params)
    for name, t in a.params.items():
        assert t.data.dtype == b.params[name].data.dtype == np.float32
        assert t.data.shape == b.params[name].data.shape
        assert t.data.tobytes() == b.params[name].data.tobytes(), name


class TestStackedLoad:
    """``load_bank`` reads, parses and stacks in one pass; it must give
    what stacking each member's ``load_checkpoint`` gives."""

    def test_bank_equals_stack_of_loaded_members(self, tmp_path):
        save_bank(tmp_path)
        bank = load_bank(tmp_path)
        assert bank.tasks == tuple(TASKS) and list(bank.models) == TASKS
        members = DualHeadViT.stack([load_checkpoint(tmp_path / f"{task}.ckpt")[0]
                                     for task in TASKS])
        assert_same_stack(bank.stacked, members)
        image = np.random.default_rng(0).random((3, CFG.height, CFG.width, 3))
        assert bank.stacked.predict(image).tobytes() == members.predict(image).tobytes()
        # a member looked up by task is that task's slice of the stack
        assert_same_stack(bank.stacked.member(bank.tasks.index("feature4")),
                          members.member(TASKS.index("feature4")))
        assert "feature4" in bank.models and "bank" not in bank.models

    def test_one_read_per_file_one_parse_one_model(self, tmp_path, monkeypatch):
        save_bank(tmp_path)
        reads, builds, binds = [], [], []
        build, bind = kv.build, DualHeadViT._bind

        def counting_open(file, *args, **kwargs):
            reads.append(Path(file).name)
            return open(file, *args, **kwargs)

        def counting_build(*args):
            builds.append(args[1])
            return build(*args)

        def counting_bind(self, *args):
            binds.append(self)
            return bind(self, *args)

        monkeypatch.setattr(checkpoint, "open", counting_open, raising=False)
        monkeypatch.setattr(kv, "build", counting_build)
        monkeypatch.setattr(DualHeadViT, "_bind", counting_bind)
        bank = load_bank(tmp_path)
        assert sorted(reads) == sorted(f"{task}.ckpt" for task in TASKS)
        assert builds == ["model", "prep"]  # the members share one header text
        assert binds == [bank.stacked] and bank.stacked.n_tasks == len(TASKS)

    def test_member_with_equal_settings_in_other_text_is_refused(self, tmp_path):
        # "yes" and "true" parse to the same flag, but the writer spells it
        # "true": a header in any other text than the writer's is refused
        save_bank(tmp_path)
        path = tmp_path / "feature3.ckpt"
        raw = path.read_bytes()
        assert b"\nprep.od_crop = true\n" in raw
        path.write_bytes(raw.replace(b"\nprep.od_crop = true\n",
                                     b"\nprep.od_crop = yes\n", 1))
        with pytest.raises(IncompatibleCheckpointError, match="feature3.ckpt"):
            load_bank(tmp_path)


def payload(path):
    raw = path.read_bytes()
    return raw[raw.index(b"\n---\n") + 5:]


def with_nan(path):
    """``path`` with its last parameter value replaced by NaN."""
    raw = path.read_bytes()
    path.write_bytes(raw[:-4] + np.float32(np.nan).tobytes())


def assert_loads_as_saved(path, model, task):
    loaded, _, loaded_task = load_checkpoint(path)
    assert loaded_task == task and loaded.config == model.config
    assert_same_stack(loaded, model)


class TestBlockLoad:
    """Each member's payload is read from its file straight into its row of
    one (K, P) block; every parameter is a view of that block's columns."""

    @pytest.mark.parametrize("tasks, single", [
        (TASKS, False), (["glaucoma"], True), (["glaucoma"], False),
        (["glaucoma", "feature3", "feature10"], False)])
    def test_parameters_are_column_views_of_one_block(self, tmp_path, tasks, single):
        save_bank(tmp_path, tasks)
        bank = load_bank(tmp_path / "glaucoma.ckpt" if single else tmp_path)
        assert bank.tasks == tuple(tasks)
        arrays = [t.data for t in bank.stacked.params.values()]
        block = arrays[0].base
        assert block.flags.c_contiguous and block.dtype == np.float32
        assert block.shape == (len(tasks), sum(a[0].size for a in arrays))
        assert all(a.base is block and np.shares_memory(a, block) for a in arrays)
        # row k is task k's payload, as its file holds it, in task order
        for row, task in zip(block, bank.tasks):
            assert row.tobytes() == payload(tmp_path / f"{task}.ckpt")

    def test_full_resolution_round_trips_bit_exactly(self, tmp_path):
        model = DualHeadViT(ModelConfig.full_resolution(), seed=3, dtype=np.float32)
        path = tmp_path / "glaucoma.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), "glaucoma")
        assert len(payload(path)) == 4 * model.config.param_count() > 1_000_000
        assert_loads_as_saved(path, model, "glaucoma")
        bank = load_bank(tmp_path)
        assert_same_stack(bank.stacked, model)

    def test_header_longer_than_the_first_read_loads(self, tmp_path):
        cfg = ModelConfig(height=32, width=32, patch=16, dim=8, depth=16, heads=2,
                          agg_hidden=4, mlp_hidden=8)
        model = DualHeadViT(cfg, seed=1, dtype=np.float32)
        path = tmp_path / "feature2.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), "feature2")
        assert path.read_bytes().index(b"\n---\n") > checkpoint._CHUNK
        assert_loads_as_saved(path, model, "feature2")

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
    def test_terminator_split_across_reads_is_found(self, tmp_path, monkeypatch, chunk):
        save_bank(tmp_path, ["glaucoma", "feature1"])
        monkeypatch.setattr(checkpoint, "_CHUNK", chunk)
        bank = load_bank(tmp_path)
        for row, task in zip(bank.stacked.params["cls_token"].data.base, bank.tasks):
            assert row.tobytes() == payload(tmp_path / f"{task}.ckpt")

    @staticmethod
    def fault(name, bank):
        """Damage the bank ``bank`` (glaucoma and feature1 members) in one
        way; the path the error names."""
        member = bank / "feature1.ckpt"
        raw = member.read_bytes()
        if name == "missing member":
            member.unlink()
            member.symlink_to(bank / "nowhere.ckpt")
        elif name == "directory member":
            member.unlink()
            member.mkdir()
        elif name == "fifo member":
            member.unlink()
            os.mkfifo(member)
        elif name == "truncated payload":
            member.write_bytes(raw[:-32])
        elif name == "trailing bytes":
            member.write_bytes(raw + b"\0" * 8)
        elif name == "non-finite value":
            with_nan(member)
        elif name == "duplicate task":
            save_checkpoint(bank / "glaucoma2.ckpt", make_model(7), PreprocessOptions(),
                            "glaucoma")
            return bank / "glaucoma2.ckpt"
        elif name == "other settings":  # the second member in file order
            save_checkpoint(bank / "glaucoma.ckpt", make_model(0),
                            PreprocessOptions(od_crop=False), "glaucoma")
            return bank / "glaucoma.ckpt"
        elif name == "no glaucoma":
            (bank / "glaucoma.ckpt").unlink()
            return bank
        return member

    @pytest.mark.parametrize("name, error, message, code", [
        ("missing member", FileNotFoundError, "checkpoint not found: {}", 2),
        ("directory member", FileNotFoundError, "checkpoint not found: {}", 2),
        ("fifo member", FileNotFoundError, "checkpoint not found: {}", 2),
        ("truncated payload", IncompatibleCheckpointError,
         "{}: payload size {size_cut} out of range, expected {size} bytes", 3),
        ("trailing bytes", IncompatibleCheckpointError,
         "{}: payload size {size_long} out of range, expected {size} bytes", 3),
        ("non-finite value", IncompatibleCheckpointError,
         "{}: non-finite parameter values", 3),
        ("duplicate task", IncompatibleCheckpointError,
         "{}: duplicate task 'glaucoma'", 3),
        ("other settings", IncompatibleCheckpointError,
         "{}: configuration differs from the rest of the bank", 3),
        ("no glaucoma", IncompatibleCheckpointError,
         "{}: bank has no glaucoma classifier", 3),
    ])
    def test_each_single_fault_keeps_its_error_and_exit_code(self, tmp_path, capsys,
                                                             name, error, message, code):
        save_bank(tmp_path, ["glaucoma", "feature1"])
        size = len(payload(tmp_path / "glaucoma.ckpt"))
        named = self.fault(name, tmp_path)
        expected = message.format(named, size=size, size_cut=size - 32,
                                  size_long=size + 8)
        with pytest.raises(error) as caught:
            load_bank(tmp_path)
        assert str(caught.value) == expected
        capsys.readouterr()
        assert cli.main(["infer", "--checkpoint", str(tmp_path),
                         "--image", str(tmp_path / "x.ppm")]) == code
        assert capsys.readouterr().err.rstrip("\n").endswith(expected)

    def test_files_fail_in_file_order(self, tmp_path):
        # two faulty members: the first file in sorted order is reported,
        # whether its fault is in the payload or the header
        save_bank(tmp_path, ["glaucoma", "feature1"])
        with_nan(tmp_path / "feature1.ckpt")
        save_checkpoint(tmp_path / "glaucoma.ckpt", make_model(1),
                        PreprocessOptions(od_crop=False), "glaucoma")
        with pytest.raises(IncompatibleCheckpointError, match="feature1.ckpt: non-finite"):
            load_bank(tmp_path)

    def test_header_faults_come_before_the_payload_of_the_same_file(self, tmp_path):
        # one member with a non-finite payload that also repeats a task or
        # has other settings: its header's fault is reported (the settings
        # are checked before its payload is read into the block)
        save_bank(tmp_path, ["feature1", "glaucoma"])
        save_checkpoint(tmp_path / "glaucoma2.ckpt", make_model(7), PreprocessOptions(),
                        "glaucoma")
        with_nan(tmp_path / "glaucoma2.ckpt")
        with pytest.raises(IncompatibleCheckpointError,
                           match="glaucoma2.ckpt: duplicate task 'glaucoma'"):
            load_bank(tmp_path)
        (tmp_path / "glaucoma2.ckpt").unlink()
        save_checkpoint(tmp_path / "glaucoma.ckpt", make_model(1),
                        PreprocessOptions(od_crop=False), "glaucoma")
        with_nan(tmp_path / "glaucoma.ckpt")
        with pytest.raises(IncompatibleCheckpointError,
                           match="glaucoma.ckpt: configuration differs"):
            load_bank(tmp_path)


# bytes that move line and key boundaries around the task line
BOUNDARY = st.sampled_from(b"\n\r\x0b\x0c\x1c\x1d\x1e =.tk1glaucomafeature")


@st.composite
def damaged_header(draw, raw: bytes) -> bytes:
    """``raw`` with one to three byte edits, most in or near its task line."""
    buf = bytearray(raw)
    line = raw.index(b"\ntask = ")
    header_end = raw.index(b"\n---\n")
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.one_of(st.integers(line + 8, line + 16),  # the task name
                             st.integers(max(0, line - 12), line + 24),
                             st.integers(0, header_end)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.one_of(BOUNDARY, st.integers(0, 255)))
        if op == "insert":
            buf.insert(pos, byte)
        elif op == "replace":
            buf[pos] = byte
        else:
            del buf[pos]
    return bytes(buf)


def outcome(load):
    try:
        return load()
    except (FileNotFoundError, IncompatibleCheckpointError) as exc:
        return type(exc), str(exc)


def assert_bank_loads_as_its_members(root):
    """``load_bank(root)`` on two members, against what loading each member
    alone implies: the first member's error, then the second's, then a
    duplicate task, other settings or no glaucoma member, else their stack."""
    first, second = [outcome(lambda: load_checkpoint(p)) for p in sorted(root.iterdir())]
    bank = outcome(lambda: load_bank(root))
    failed = [o for o in (first, second) if not isinstance(o[0], DualHeadViT)]
    if failed:
        assert bank == failed[0]
        return
    if first[2] == second[2]:
        assert bank[0] is IncompatibleCheckpointError and "duplicate task" in bank[1]
    elif (first[0].config, first[1]) != (second[0].config, second[1]):
        assert bank[0] is IncompatibleCheckpointError and "differs" in bank[1]
    elif "glaucoma" not in (first[2], second[2]):
        assert bank[0] is IncompatibleCheckpointError and "no glaucoma" in bank[1]
    else:
        order = sorted((first, second), key=lambda o: TASKS.index(o[2]))
        assert bank.tasks == tuple(o[2] for o in order)
        assert_same_stack(bank.stacked, DualHeadViT.stack([o[0] for o in order]))


def two_members(root):
    prep = PreprocessOptions()
    save_checkpoint(root / "a.ckpt", make_model(1), prep, "glaucoma")
    save_checkpoint(root / "b.ckpt", make_model(2), prep, "feature1")
    return root / "a.ckpt", root / "b.ckpt"


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reused_header_parse_matches_a_fresh_parse(tmp_path_factory, data):
    # a bank parses a header text once and reuses it for members that differ
    # only in their task line; damaged members must load, or fail, exactly
    # as they do alone
    root = tmp_path_factory.mktemp("bank")
    for path in two_members(root):
        raw = path.read_bytes()
        path.write_bytes(data.draw(st.one_of(st.just(raw), damaged_header(raw))))
    assert_bank_loads_as_its_members(root)


# splitlines() also ends a line at "\r", so each first header below parses
# like an intact one; its task line, cut at "\n", is not a whole line
@pytest.mark.parametrize("first, second", [
    # the text after a task line joined to the first tensor line by "\r"
    # matches a second member that lacks that tensor line
    ((b"task = glaucoma\n", b"task = glaucoma\r"),
     (b"task = feature1\ntensor patch_proj.weight 768x16 @ 0\n", b"task = feature1\n")),
    ((b"task = glaucoma\n", b"task = glaucoma\r\n"), None),
    ((b"\ntask = glaucoma\n", b"\rtask = glaucoma\n"), None),
    ((b"task = glaucoma\n", b"task = glaucoma\ntask = feature1\n"), None),
    # only the task differs from the first header, and it is no task
    (None, (b"task = feature1\n", b"task = feature11\n")),
])
def test_task_line_edge_cases_load_as_their_members(tmp_path, first, second):
    for path, edit in zip(two_members(tmp_path), (first, second)):
        if edit is not None:
            raw = path.read_bytes()
            assert edit[0] in raw
            path.write_bytes(raw.replace(*edit, 1))
    assert_bank_loads_as_its_members(tmp_path)
