"""Checkpoint format tests: bit-exact round-trips, manifest structure,
incompatibility detection, atomic artifact writes, and the one-read load of
a run's task stack against loading each member's own run."""

import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fundusvit import atomic, checkpoint, cli, kv
from fundusvit.atomic import write_atomic
from fundusvit.checkpoint import (CHECKPOINT_NAME, IncompatibleCheckpointError, _END,
                                  _header, _layout, _parse_header, load_bank,
                                  load_checkpoint, save_checkpoint)
from fundusvit import model as model_module
from fundusvit.dataset import TASKS, ManifestRow, PreprocessOptions, write_manifest
from fundusvit.metrics import evaluate_scores
from fundusvit.model import DualHeadViT, ModelConfig
from fundusvit.ppm import write_ppm
from fundusvit.synth import generate_dataset

from test_kv import SETTINGS

CFG = ModelConfig(height=32, width=32, patch=16, dim=16, depth=1, heads=2,
                  agg_hidden=8, mlp_hidden=16)
# nonempty task lists in TASKS order, the only lists a checkpoint holds
TASK_LISTS = st.sets(st.sampled_from(TASKS), min_size=1).map(
    lambda chosen: [task for task in TASKS if task in chosen])


def make_model(seed=0):
    return DualHeadViT(CFG, seed=seed, dtype=np.float32)


def save_bank(directory, tasks=TASKS):
    """Save one member per task in ``tasks`` (all eleven by default), each
    with its own weights, as ``directory``'s one checkpoint; its path."""
    path = directory / CHECKPOINT_NAME
    save_checkpoint(path, DualHeadViT.stack([make_model(TASKS.index(t)) for t in tasks]),
                    PreprocessOptions(), tasks)
    return path


def payload(path):
    raw = path.read_bytes()
    return raw[raw.index(_END) + len(_END):]


def with_nan(path):
    """``path`` with its last parameter value replaced by NaN."""
    raw = path.read_bytes()
    path.write_bytes(raw[:-4] + np.float32(np.nan).tobytes())


def assert_same_stack(a: DualHeadViT, b: DualHeadViT):
    assert a.config == b.config and a.n_tasks == b.n_tasks
    assert list(a.params) == list(b.params)
    for name, t in a.params.items():
        assert t.data.dtype == b.params[name].data.dtype == np.float32
        assert t.data.shape == b.params[name].data.shape
        assert t.data.tobytes() == b.params[name].data.tobytes(), name


def assert_loads_as_saved(path, model, tasks):
    loaded = load_checkpoint(path)
    assert loaded.tasks == tuple(tasks) and loaded.config == model.config
    assert_same_stack(loaded.stacked, model)


class FileSpy:
    """A checkpoint file opened as ``checkpoint`` opens it, counting the
    bytes each read returns; ``readinto`` may be capped to fewer bytes than
    asked for, and to none after its first call."""

    def __init__(self, *args, cap=None, **kwargs):
        self.file = open(*args, **kwargs)
        self.reads: list[int] = []
        self.cap = cap

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def fileno(self):
        return self.file.fileno()

    def close(self):
        self.file.close()

    def read(self, size):
        data = self.file.read(size)
        self.reads.append(len(data))
        return data

    def readinto(self, view):
        if self.cap is not None:
            view = view[:self.cap]
            self.cap = 0
        count = self.file.readinto(view)
        self.reads.append(count)
        return count


def spy_on_opens(monkeypatch, cap=None) -> list[FileSpy]:
    """Open every checkpoint through a ``FileSpy``; the spies, in order."""
    spies = []

    def spying_open(*args, **kwargs):
        spies.append(FileSpy(*args, cap=cap, **kwargs))
        return spies[-1]

    monkeypatch.setattr(checkpoint, "open", spying_open, raising=False)
    return spies


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        prep = PreprocessOptions(od_crop=False, bg_removal=True)
        for tasks in (["feature3"], ["glaucoma", "feature2", "feature10"]):
            model = DualHeadViT.stack([make_model(seed=4 + k) for k in range(len(tasks))])
            path = tmp_path / "m.ckpt"
            save_checkpoint(path, model, prep, tasks)
            loaded = load_checkpoint(path)
            assert loaded.tasks == tuple(tasks)
            assert loaded.prep == prep
            assert loaded.config == CFG
            assert_same_stack(loaded.stacked, model)
            # a second save is byte-identical to the first
            path2 = tmp_path / "m2.ckpt"
            save_checkpoint(path2, loaded.stacked, loaded.prep, loaded.tasks)
            assert path.read_bytes() == path2.read_bytes()

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        model = make_model(seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), ["glaucoma"])

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew an initial value")

        monkeypatch.setattr(model_module, "_trunc_normal", no_draws)
        loaded = load_checkpoint(path).stacked
        for (_, ta), (_, tb) in zip(model.params.items(), loaded.params.items()):
            assert tb.data.dtype == np.float32
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_header_structure(self, tmp_path):
        model = DualHeadViT.stack([make_model(1), make_model(2)])
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), ["glaucoma", "feature2"])
        raw = path.read_bytes()
        header = raw[:raw.find(_END)].decode("ascii").splitlines()
        assert header[0] == "fundusvit-checkpoint v2"
        assert any(line == "model.dim = 16" for line in header)
        assert any(line == "tasks = glaucoma feature2" for line in header)
        tensor_lines = [l for l in header if l.startswith("tensor ")]
        assert len(tensor_lines) == len(model.params)
        # each line is a (K, ...) parameter as the stack holds it
        assert tensor_lines[0].startswith("tensor patch_proj.weight 2x768x16 @ 0")
        # offsets are cumulative over little-endian float32 (K, ...) arrays,
        # each stored whole: the payload is the stack's arrays back to back
        offsets = [int(l.rsplit("@", 1)[1]) for l in tensor_lines]
        sizes = [4 * int(np.prod([int(d) for d in l.split(" ")[2].split("x")]))
                 for l in tensor_lines]
        assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]
        assert payload(path) == b"".join(t.data.tobytes() for t in model.params.values())


@settings(max_examples=80, deadline=None)
@given(cfg=SETTINGS["model"][1], prep=SETTINGS["prep"][1], tasks=TASK_LISTS)
def test_every_written_header_parses_to_its_settings(cfg, prep, tasks):
    # the reader accepts a header only as the writer's bytes, so the writer
    # must give those bytes back for every setting it accepts
    tensor_lines, size = _layout(DualHeadViT.parameter_shapes(cfg), len(tasks))
    header = _parse_header(Path("m.ckpt"), _header(cfg, prep, tuple(tasks), tensor_lines))
    assert (header.config, header.prep, header.size, header.tasks) \
        == (cfg, prep, size, tuple(tasks))


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        for first_line in (b"not-a-checkpoint", b"fundusvit-checkpoint v1"):
            path.write_bytes(first_line + b"\n---\n")
            with pytest.raises(IncompatibleCheckpointError) as caught:
                load_checkpoint(path)
            assert str(caught.value) == (f"{path}: header line 1 reads "
                                         f"{first_line.decode()!r}, "
                                         "expected 'fundusvit-checkpoint v2'")

    @pytest.mark.parametrize("name", ["prep", "prep.", "model"])
    def test_a_settings_line_without_a_field_names_its_line(self, tmp_path, name):
        # "prep.od_crop = true" with its "." turned into a line break
        path = save_bank(tmp_path, ["glaucoma"])
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"\nprep.od_crop = ",
                                     f"\n{name}\nod_crop = ".encode(), 1))
        line = raw[:raw.index(b"\nprep.od_crop = ")].count(b"\n") + 2
        key = name.removesuffix(".")
        with pytest.raises(IncompatibleCheckpointError, match=re.escape(
                f"{path}: header line {line} reads {name!r}: unknown config key '{key}.'")):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = save_bank(tmp_path, ["glaucoma"])
        raw = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-32])
        with pytest.raises(IncompatibleCheckpointError, match="out of range"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_unknown_task(self, tmp_path):
        # a checkpoint holds one or more distinct tasks in TASKS order
        for tasks in (["foo"], ["glaucoma", "glaucoma"], ["feature1", "glaucoma"], [],
                      ["bank"], "glaucoma"):
            with pytest.raises(ValueError, match="distinct and in TASKS order"):
                save_checkpoint(tmp_path / "x.ckpt", make_model(), PreprocessOptions(),
                                tasks)
        assert not (tmp_path / "x.ckpt").exists()

    def test_stack_of_another_size_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="a stack of 2 tasks saved as 1"):
            save_checkpoint(tmp_path / "x.ckpt", DualHeadViT.stack([make_model()] * 2),
                            PreprocessOptions(), ["glaucoma"])
        assert not (tmp_path / "x.ckpt").exists()

    def test_other_file_is_refused_after_one_read(self, tmp_path, monkeypatch, capsys):
        # 50 MB that are not a checkpoint, sparse on disk: refused at the
        # first read, not read whole
        path = tmp_path / CHECKPOINT_NAME
        with open(path, "wb") as fh:
            fh.write(b"PK\x03\x04 an archive")
            fh.truncate(50 * 1024 * 1024)
        spies = spy_on_opens(monkeypatch)
        with pytest.raises(IncompatibleCheckpointError) as caught:
            load_bank(tmp_path)
        message = str(caught.value)
        assert message.startswith(f"{path}: header line 1 reads 'PK\\x03\\x04 an archive")
        assert message.endswith(", expected 'fundusvit-checkpoint v2'")
        assert [spy.reads for spy in spies] == [[checkpoint._CHUNK]]
        capsys.readouterr()
        assert cli.main(["infer", "--checkpoint", str(tmp_path),
                         "--image", str(tmp_path / "x.ppm")]) == 3
        assert capsys.readouterr().err.rstrip("\n").endswith(message)
        assert sum(spies[-1].reads) == checkpoint._CHUNK

    def test_magic_without_terminator_is_refused_after_a_bounded_read(
            self, tmp_path, monkeypatch, capsys):
        # 50 MB whose first line is the magic and that have no '---' line,
        # sparse on disk: refused once the header limit is searched
        path = tmp_path / CHECKPOINT_NAME
        with open(path, "wb") as fh:
            fh.write(b"fundusvit-checkpoint v2\n")
            fh.truncate(50 * 1024 * 1024)
        spies = spy_on_opens(monkeypatch)
        message = (f"{path}: no '---' line ends the header within "
                   f"{checkpoint._HEADER_LIMIT} bytes")
        with pytest.raises(IncompatibleCheckpointError) as caught:
            load_bank(tmp_path)
        assert str(caught.value) == message
        assert sum(spies[0].reads) < checkpoint._HEADER_LIMIT + 2 * checkpoint._CHUNK
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = cli.main(["infer", "--checkpoint", str(tmp_path),
                             "--image", str(tmp_path / "x.ppm")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err.rstrip("\n").endswith(message)
        assert peak < 4 * checkpoint._HEADER_LIMIT

    def test_header_limit_binds_writer_and_reader_alike(self, tmp_path, monkeypatch):
        model = make_model()
        path = tmp_path / CHECKPOINT_NAME
        save_checkpoint(path, model, PreprocessOptions(), ["glaucoma"])
        size = path.read_bytes().index(_END)
        # a header of exactly the limit is written and read back
        monkeypatch.setattr(checkpoint, "_HEADER_LIMIT", size)
        save_checkpoint(path, model, PreprocessOptions(), ["glaucoma"])
        assert_loads_as_saved(path, model, ["glaucoma"])
        # one byte over: the writer refuses it, and the reader refuses the
        # file written under the larger limit
        monkeypatch.setattr(checkpoint, "_HEADER_LIMIT", size - 1)
        with pytest.raises(ValueError, match=f"header of {size} bytes is over the "
                                             f"{size - 1}-byte limit"):
            save_checkpoint(tmp_path / "x.ckpt", model, PreprocessOptions(), ["glaucoma"])
        assert not (tmp_path / "x.ckpt").exists()
        with pytest.raises(IncompatibleCheckpointError, match="no '---' line ends"):
            load_checkpoint(path)

    def test_file_that_shrinks_under_the_reader_is_refused(self, tmp_path, monkeypatch,
                                                          capsys):
        # the size check passed, then the payload reads come up short: one
        # byte, then none; without the check the block would keep garbage
        path = save_bank(tmp_path, ["glaucoma", "feature1"])
        raw = path.read_bytes()
        spill = checkpoint._CHUNK - raw.index(_END) - len(_END)
        assert 0 < spill < len(payload(path))
        spies = spy_on_opens(monkeypatch, cap=1)
        expected = (f"{path}: payload size {spill + 1} out of range, "
                    f"expected {len(payload(path))} bytes")
        with pytest.raises(IncompatibleCheckpointError) as caught:
            load_bank(tmp_path)
        assert str(caught.value) == expected
        assert spies[0].reads[-2:] == [1, 0]
        capsys.readouterr()
        assert cli.main(["infer", "--checkpoint", str(tmp_path),
                         "--image", str(tmp_path / "x.ppm")]) == 3
        assert capsys.readouterr().err.rstrip("\n").endswith(expected)


class TestBank:
    def test_load_bank_from_directory(self, tmp_path):
        save_bank(tmp_path, ["glaucoma", "feature1"])
        bank = load_bank(tmp_path)
        assert bank.models == ("glaucoma", "feature1")
        assert bank.config == CFG

    def test_single_file_bank(self, tmp_path):
        path = save_bank(tmp_path, ["glaucoma"])
        bank = load_bank(path)
        assert bank.models == ("glaucoma",)

    def test_mixed_architectures_rejected(self, tmp_path):
        # model lines of one architecture over the tensors of another
        path = save_bank(tmp_path, ["glaucoma", "feature1"])
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"\nmodel.dim = 16\n", b"\nmodel.dim = 32\n", 1))
        with pytest.raises(IncompatibleCheckpointError,
                           match=re.escape("reads 'tensor patch_proj.weight 2x768x16 @ 0', "
                                           "expected 'tensor patch_proj.weight 2x768x32 @ 0'")):
            load_bank(tmp_path)

    def test_bank_without_glaucoma_rejected(self, tmp_path):
        save_bank(tmp_path, ["feature1"])
        with pytest.raises(IncompatibleCheckpointError, match="glaucoma"):
            load_bank(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=CHECKPOINT_NAME):
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
        path = tmp_path / CHECKPOINT_NAME
        save_checkpoint(path, make_model(seed=1), PreprocessOptions(), ["glaucoma"])
        before = path.read_bytes()
        self.fail_midway(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, make_model(seed=2), PreprocessOptions(), ["glaucoma"])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [CHECKPOINT_NAME]

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


class TestStackedLoad:
    """A run's checkpoint holds its task stack; loading it must give what
    stacking each member's own single-task run gives."""

    def test_bank_equals_stack_of_loaded_members(self, tmp_path):
        save_bank(tmp_path)
        bank = load_bank(tmp_path)
        assert bank.tasks == tuple(TASKS) and list(bank.models) == TASKS
        for task in TASKS:  # each member saved alone, as its own run
            (tmp_path / task).mkdir()
            save_bank(tmp_path / task, [task])
        members = DualHeadViT.stack([load_checkpoint(tmp_path / task / CHECKPOINT_NAME).stacked
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
        builds, binds = [], []
        build, bind = kv.build, DualHeadViT._bind

        def counting_build(*args):
            builds.append(args[1])
            return build(*args)

        def counting_bind(self, *args):
            binds.append(self)
            return bind(self, *args)

        spies = spy_on_opens(monkeypatch)
        monkeypatch.setattr(kv, "build", counting_build)
        monkeypatch.setattr(DualHeadViT, "_bind", counting_bind)
        bank = load_bank(tmp_path)
        # one open, one header read, then one read of the rest of the payload
        [spy] = spies
        size = (tmp_path / CHECKPOINT_NAME).stat().st_size
        assert spy.reads == [checkpoint._CHUNK, size - checkpoint._CHUNK]
        assert builds == ["model", "prep"]
        assert binds == [bank.stacked] and bank.stacked.n_tasks == len(TASKS)

    def test_member_with_equal_settings_in_other_text_is_refused(self, tmp_path):
        # "016" parses to 16, but the writer spells it "16": a header in any
        # other text than the writer's is refused
        path = save_bank(tmp_path)
        raw = path.read_bytes()
        assert b"\nmodel.dim = 16\n" in raw
        path.write_bytes(raw.replace(b"\nmodel.dim = 16\n", b"\nmodel.dim = 016\n", 1))
        with pytest.raises(IncompatibleCheckpointError, match=CHECKPOINT_NAME):
            load_bank(tmp_path)


def retasked(path, tasks, k=None):
    """Rewrite ``path`` with its header naming ``tasks`` and, if ``k`` is
    given, tensor lines for a stack of ``k``; the payload stays."""
    loaded = load_checkpoint(path)
    tensor_lines, _ = _layout(loaded.stacked.parameter_shapes(loaded.config),
                              len(tasks) if k is None else k)
    path.write_bytes(_header(loaded.config, loaded.prep, tasks, tensor_lines) + _END
                     + payload(path))


class TestBlockLoad:
    """A checkpoint's payload is read from its file straight into one
    float32 block; every parameter is a contiguous view of that block."""

    @pytest.mark.parametrize("tasks, single", [
        (TASKS, False), (["glaucoma"], True), (["glaucoma"], False),
        (["glaucoma", "feature3", "feature10"], False)])
    def test_parameters_are_consecutive_views_of_one_block(self, tmp_path, tasks, single):
        path = save_bank(tmp_path, tasks)
        bank = load_bank(path if single else tmp_path)
        assert bank.tasks == tuple(tasks)
        arrays = [t.data for t in bank.stacked.params.values()]
        block = arrays[0].base
        assert block.flags.c_contiguous and block.dtype == np.float32 and block.ndim == 1
        # the block is the payload as the file holds it, each parameter's
        # (K, ...) array in turn
        assert block.tobytes() == payload(path)
        start, offset = block.__array_interface__["data"][0], 0
        for a in arrays:
            assert a.base is block and a.flags.c_contiguous and len(a) == len(tasks)
            assert a.__array_interface__["data"][0] - start == offset
            offset += a.nbytes
        assert offset == block.nbytes

    def test_full_resolution_round_trips_bit_exactly(self, tmp_path):
        model = DualHeadViT(ModelConfig.full_resolution(), seed=3, dtype=np.float32)
        path = tmp_path / CHECKPOINT_NAME
        save_checkpoint(path, model, PreprocessOptions(), ["glaucoma"])
        assert len(payload(path)) == 4 * model.config.param_count() > 1_000_000
        assert_loads_as_saved(path, model, ["glaucoma"])
        bank = load_bank(tmp_path)
        assert_same_stack(bank.stacked, model)

    def test_header_longer_than_the_first_read_loads(self, tmp_path):
        cfg = ModelConfig(height=32, width=32, patch=16, dim=8, depth=16, heads=2,
                          agg_hidden=4, mlp_hidden=8)
        model = DualHeadViT(cfg, seed=1, dtype=np.float32)
        path = tmp_path / "feature2.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), ["feature2"])
        assert path.read_bytes().index(_END) > checkpoint._CHUNK
        assert_loads_as_saved(path, model, ["feature2"])

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
    def test_terminator_split_across_reads_is_found(self, tmp_path, monkeypatch, chunk):
        # the magic is checked, and the terminator searched, across reads
        path = save_bank(tmp_path, ["glaucoma", "feature1"])
        monkeypatch.setattr(checkpoint, "_CHUNK", chunk)
        bank = load_bank(tmp_path)
        assert bank.stacked.params["cls_token"].data.base.tobytes() == payload(path)

    @staticmethod
    def fault(name, path):
        """Damage the checkpoint ``path`` (glaucoma and feature1) in one way;
        the message's fields beyond the path."""
        raw = path.read_bytes()
        size = len(payload(path))
        header_lines = raw[:raw.index(_END)].split(b"\n")
        first_tensor = next(i for i, line in enumerate(header_lines)
                            if line.startswith(b"tensor ")) + 1
        if name == "missing member":
            path.unlink()
            path.symlink_to(path.parent / "nowhere.ckpt")
        elif name == "directory member":
            path.unlink()
            path.mkdir()
        elif name == "fifo member":
            path.unlink()
            os.mkfifo(path)
        elif name == "truncated payload":
            path.write_bytes(raw[:-32])
        elif name == "trailing bytes":
            path.write_bytes(raw + b"\0" * 8)
        elif name == "non-finite value":
            with_nan(path)
        elif name == "duplicate task":
            retasked(path, ("glaucoma", "glaucoma"))
        elif name == "other settings":  # model lines another run's, tensors this one's
            path.write_bytes(raw.replace(b"\nmodel.dim = 16\n", b"\nmodel.dim = 32\n", 1))
        elif name == "no glaucoma":
            save_bank(path.parent, ["feature1"])
        elif name == "unknown task":
            retasked(path, ("glaucoma", "feature11"))
        elif name == "tasks out of order":
            retasked(path, ("feature1", "glaucoma"))
        elif name == "empty tasks":
            save_bank(path.parent, ["glaucoma"])
            path.write_bytes(path.read_bytes().replace(b"\ntasks = glaucoma\n",
                                                       b"\ntasks = \n", 1))
        elif name == "task count off the tensors":  # three tasks, tensors of two
            retasked(path, ("glaucoma", "feature1", "feature2"), k=2)
        elif name == "task count off the payload":  # three tasks, payload of two
            retasked(path, ("glaucoma", "feature1", "feature2"))
        return dict(size=size, size_cut=size - 32, size_long=size + 8,
                    size_three=size // 2 * 3, first_tensor=first_tensor)

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
         "{}: tasks must be distinct and in TASKS order, got ('glaucoma', 'glaucoma')", 3),
        ("other settings", IncompatibleCheckpointError,
         "{}: header line {first_tensor} reads 'tensor patch_proj.weight 2x768x16 @ 0', "
         "expected 'tensor patch_proj.weight 2x768x32 @ 0'", 3),
        ("no glaucoma", IncompatibleCheckpointError,
         "{}: bank has no glaucoma classifier", 3),
        ("unknown task", IncompatibleCheckpointError,
         "{}: tasks must be distinct and in TASKS order, got ('glaucoma', 'feature11')", 3),
        ("tasks out of order", IncompatibleCheckpointError,
         "{}: tasks must be distinct and in TASKS order, got ('feature1', 'glaucoma')", 3),
        ("empty tasks", IncompatibleCheckpointError,
         "{}: tasks must be distinct and in TASKS order, got ('',)", 3),
        ("task count off the tensors", IncompatibleCheckpointError,
         "{}: header line {first_tensor} reads 'tensor patch_proj.weight 2x768x16 @ 0', "
         "expected 'tensor patch_proj.weight 3x768x16 @ 0'", 3),
        ("task count off the payload", IncompatibleCheckpointError,
         "{}: payload size {size} out of range, expected {size_three} bytes", 3),
    ])
    def test_each_single_fault_keeps_its_error_and_exit_code(self, tmp_path, capsys,
                                                             name, error, message, code):
        path = save_bank(tmp_path, ["glaucoma", "feature1"])
        expected = message.format(path, **self.fault(name, path))
        with pytest.raises(error) as caught:
            load_bank(tmp_path)
        assert str(caught.value) == expected
        capsys.readouterr()
        assert cli.main(["infer", "--checkpoint", str(tmp_path),
                         "--image", str(tmp_path / "x.ppm")]) == code
        assert capsys.readouterr().err.rstrip("\n").endswith(expected)

    def test_header_faults_come_before_the_payload_of_the_same_file(self, tmp_path):
        # a non-finite payload under a header that repeats a task or has
        # other settings: the header's fault is reported (the header is
        # checked before the payload is read into the block)
        path = save_bank(tmp_path, ["glaucoma", "feature1"])
        retasked(path, ("glaucoma", "glaucoma"))
        with_nan(path)
        with pytest.raises(IncompatibleCheckpointError,
                           match=re.escape(f"{path}: tasks must be distinct")):
            load_bank(tmp_path)
        save_bank(tmp_path, ["glaucoma", "feature1"])
        with_nan(path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"\nmodel.dim = 16\n", b"\nmodel.dim = 32\n", 1))
        with pytest.raises(IncompatibleCheckpointError,
                           match=re.escape(f"{path}: header line")):
            load_bank(tmp_path)


# bytes that move line and key boundaries around the tasks line
BOUNDARY = st.sampled_from(b"\n\r\x0b\x0c\x1c\x1d\x1e =.tks1glaucomafeature")


@st.composite
def damaged_header(draw, raw: bytes) -> bytes:
    """``raw`` with one to three byte edits, most in or near its tasks line."""
    buf = bytearray(raw)
    line = raw.index(b"\ntasks = ")
    header_end = raw.index(_END)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.one_of(st.integers(line + 9, line + 26),  # the task names
                             st.integers(max(0, line - 12), line + 32),
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


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_header_loads_only_as_the_writers_bytes(tmp_path_factory, data):
    # a damaged file is refused, naming it, unless the writer writes exactly
    # its bytes for what it loads as (a task renamed to another task, say)
    root = tmp_path_factory.mktemp("bank")
    path = save_bank(root, ["glaucoma", "feature1"])
    damaged = data.draw(damaged_header(path.read_bytes()))
    path.write_bytes(damaged)
    try:
        loaded = load_checkpoint(path)
    except IncompatibleCheckpointError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    save_checkpoint(root / "again.ckpt", loaded.stacked, loaded.prep, loaded.tasks)
    assert (root / "again.ckpt").read_bytes() == damaged


# tasks lines that split, join or respell the line, or name no task; each
# is refused
@pytest.mark.parametrize("edit", [
    (b"tasks = glaucoma feature1\n", b"tasks = glaucoma feature1\r"),
    (b"tasks = glaucoma feature1\n", b"tasks = glaucoma feature1\r\n"),
    (b"\ntasks = glaucoma", b"\rtasks = glaucoma"),
    (b"tasks = glaucoma feature1\n", b"tasks = glaucoma feature1\ntasks = glaucoma feature1\n"),
    (b"tasks = glaucoma feature1\n", b"tasks = glaucoma  feature1\n"),
    (b"tasks = glaucoma feature1\n", b"tasks = glaucoma feature1 \n"),
    (b"tasks = glaucoma feature1\n", b"tasks = glaucoma,feature1\n"),
    (b"tasks = glaucoma feature1\n", b"task = glaucoma feature1\n"),
    (b"tasks = glaucoma feature1\n", b"tasks = glaucoma feature11\n"),
], ids=["cr", "crlf", "cr-before", "twice", "two-spaces", "trailing-space", "comma",
        "v1-key", "no-task"])
def test_tasks_line_edge_cases_are_refused(tmp_path, edit):
    path = save_bank(tmp_path, ["glaucoma", "feature1"])
    raw = path.read_bytes()
    assert edit[0] in raw
    path.write_bytes(raw.replace(*edit, 1))
    with pytest.raises(IncompatibleCheckpointError, match=re.escape(f"{path}: ")):
        load_bank(tmp_path)
