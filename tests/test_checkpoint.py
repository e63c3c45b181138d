"""Checkpoint format tests: bit-exact round-trips, manifest structure,
incompatibility detection, atomic artifact writes, and the one-pass bank
load against loading each member alone."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fundusvit import atomic, kv
from fundusvit.atomic import write_atomic
from fundusvit.checkpoint import (TASKS, IncompatibleCheckpointError, load_bank,
                                  load_checkpoint, save_checkpoint)
from fundusvit import model as model_module
from fundusvit.dataset import ManifestRow, PreprocessOptions, write_manifest
from fundusvit.metrics import evaluate_scores
from fundusvit.model import DualHeadViT, ModelConfig
from fundusvit.ppm import write_ppm
from fundusvit.synth import generate_dataset

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
        for (na, ta), (nb, tb) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
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
        for (_, ta), (_, tb) in zip(model.named_parameters(), loaded.named_parameters()):
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
        assert len(tensor_lines) == len(model.named_parameters())
        assert tensor_lines[0].startswith("tensor patch_proj.weight 768x16 @ 0")
        # offsets are cumulative over little-endian float32 payloads
        offsets = [int(l.rsplit("@", 1)[1]) for l in tensor_lines]
        sizes = [4 * int(np.prod([int(d) for d in l.split(" ")[2].split("x")]))
                 for l in tensor_lines]
        assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]


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


def save_bank(directory):
    """Eleven members with distinct weights, one per task."""
    for seed, task in enumerate(TASKS):
        save_checkpoint(directory / f"{task}.ckpt", make_model(seed), PreprocessOptions(),
                        task)


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
        assert_same_stack(DualHeadViT.stack([bank.models["feature4"]]),
                          DualHeadViT.stack([members.member(TASKS.index("feature4"))]))
        assert "feature4" in bank.models and "bank" not in bank.models
        with pytest.raises(KeyError):
            bank.models["bank"]

    def test_one_read_per_file_one_parse_one_model(self, tmp_path, monkeypatch):
        save_bank(tmp_path)
        reads, builds, binds = [], [], []
        read_bytes, build, bind = Path.read_bytes, kv.build, DualHeadViT._bind

        def counting_read(self):
            reads.append(self.name)
            return read_bytes(self)

        def counting_build(*args):
            builds.append(args[1])
            return build(*args)

        def counting_bind(self, *args):
            binds.append(self)
            return bind(self, *args)

        monkeypatch.setattr(Path, "read_bytes", counting_read)
        monkeypatch.setattr(kv, "build", counting_build)
        monkeypatch.setattr(DualHeadViT, "_bind", counting_bind)
        bank = load_bank(tmp_path)
        assert sorted(reads) == sorted(f"{task}.ckpt" for task in TASKS)
        assert builds == ["model", "prep"]  # the members share one header text
        assert binds == [bank.stacked] and bank.stacked.n_tasks == len(TASKS)

    def test_member_with_equal_settings_in_other_text_loads(self, tmp_path):
        # "yes" and "true" parse to the same flag: the member is parsed on
        # its own and compared by value, so it joins the bank
        save_bank(tmp_path)
        expected = load_bank(tmp_path)
        path = tmp_path / "feature3.ckpt"
        raw = path.read_bytes()
        assert b"\nprep.od_crop = true\n" in raw
        path.write_bytes(raw.replace(b"\nprep.od_crop = true\n",
                                     b"\nprep.od_crop = yes\n", 1))
        bank = load_bank(tmp_path)
        assert bank.prep == expected.prep and bank.tasks == expected.tasks
        assert_same_stack(bank.stacked, expected.stacked)


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
