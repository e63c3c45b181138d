"""Golden hashes of the bank flow: a seeded synth, an 11-task desk-scale
``train --task bank`` with augmentation on, then ``eval``. The run's one
checkpoint, every training log, the bank log and the report are pinned by
sha256, so a change that moves any artifact byte fails here and has to say
why."""

import hashlib

from fundusvit import cli

CONFIG = """\
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
train.task = bank
paths.manifest = data/manifest.tsv
paths.out = bank
"""

GOLDEN = {
    "bank.log":
        "338bc5922bbb2383a1ec4268194088262541ca0fb2718bad557cca4ba01e7f0f",
    "feature1.log":
        "4e45af5c6da0d51f023c6d7a6d736be23d8b66455da2f17d27fb356791bb6c94",
    "feature10.log":
        "25b1462578a45bed4abc519ecdcc259068515962017fe9daee1c344b86744587",
    "feature2.log":
        "09b594ed1c47263fb25a89c03f3d5605dbf9f4019cb5a109fc8ab68338f0430f",
    "feature3.log":
        "5ff864f939c2225bd36a8943e097915b429a9d7de48555225d8380a924feeaee",
    "feature4.log":
        "02d80de04d68a61218957fc9edc07eb73cc9c5ee3ce7c12864462bff117f4c0b",
    "feature5.log":
        "8c5151569b97cb66b498c10930253714032689dcca768ddd33707873683ca171",
    "feature6.log":
        "f26705cc2be3569809d8ce9cacbe8636ee4b2889421d35c4877f34487066f863",
    "feature7.log":
        "52629e3ba7afbd97f83566cef1bbb039d9f41fe16b1eb7da36e31ddc0b451215",
    "feature8.log":
        "83d7db5e32a06342b9c9755fb01d584d6cd913e3ff45fe73a371dec58fb362c8",
    "feature9.log":
        "1b7682b433155d5c2b23311558536fdcc4e96149bc5b032706c841c2faa4d502",
    "glaucoma.log":
        "d06a943f9b4a5750178c920f5004fb54376e3a1e3fce1f83a65ddb00993b8122",
    "model.ckpt":
        "4a3707f003c0ece6a4c144ae194426698e08be9604150fad93c5d5cb57c0106a",
    "report.txt":
        "f80edec9e11f6fbc19cb334ad21479c9ac07ecc27194ad5131ee3632ddc7bdab",
}


def test_bank_flow_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    # relative paths keep the echoed config, and so the logs, independent of
    # where the test runs
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--n", "20", "--seed", "7", "--out", "data",
                     "--size", "64"]) == 0
    (tmp_path / "run.cfg").write_text(CONFIG)
    assert cli.main(["train", "--config", "run.cfg"]) == 0
    assert cli.main(["eval", "--checkpoint", "bank", "--manifest", "data/manifest.tsv",
                     "--out", "bank/report.txt"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted((tmp_path / "bank").iterdir())}
    assert digests == GOLDEN
