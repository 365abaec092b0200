"""Golden digests: a small pipeline run in-process must keep writing the
same bytes. gen-synth → build-graphs → train-teacher → KD MLP distill →
eval, with relative paths so the config echoes do not hold the temporary
directory. A change that moves any output byte fails here; one that means
to must re-record the digests and say why."""

import hashlib

from graphkd.cli import run

PIPELINE = [
    ["gen-synth", "--samples", "40", "--out", "data"],
    ["build-graphs", "--manifest", "data/manifest.jsonl", "--embeddings", "data/visual.gemb",
     "--triplets", "data/triplets.tsv", "--triplet-embeddings", "data/triplets.gemb",
     "--out", "graphs.jsonl"],
    ["train-teacher", "--graphs", "graphs.jsonl", "--epochs", "2", "--out", "teacher.ckpt"],
    ["distill", "--graphs", "graphs.jsonl", "--teacher", "teacher.ckpt", "--student", "mlp",
     "--epochs", "2", "--out", "student.ckpt"],
    ["eval", "--model", "student.ckpt", "--graphs", "graphs.jsonl", "--report", "report.json"],
]

DIGESTS = {
    "data/config.json":
        "23daab83de649c399298272f35f1730b64922e30f2d95222ddd383f31aa30131",
    "data/ground_truth.jsonl":
        "4dc35633410c9d9c71d94079731c5166d6b3693530b26484cee5e1ec36a425d4",
    "data/manifest.jsonl":
        "05462a76762e630733119fba0828602a5d8bb55380f004e7575ecf3040c1584f",
    "data/triplets.gemb":
        "2a37b6ac517a984832f14bfad7992b05268c017ed18c65b165831ad955181657",
    "data/triplets.tsv":
        "733ac2e5c8d6901171103e3c695b996eadbf3cc4b35aa0e65ced080da373ed1b",
    "data/visual.gemb":
        "7acc7358363420947c37ec262a9493aba89ff78c0e7087c9037efc3480ea8c76",
    "graphs.jsonl":
        "339635e0a869b6e0bff9967ec2c17142a98695126a11e0c4f485b7dc8c85f9a3",
    "graphs.jsonl.gkdc":
        "845f6eaa9e657ff61165a104a3acbd6cc3fd7b5819313b0141301a5561044879",
    "report.json":
        "1a072317a456e866225ceaba7a51647d9283dcd54a5c2aafc425872ea7e4bfda",
    "student.ckpt":
        "253c57c5807444c7ef248279e79eceb1e184ffba4c06e01632c99012da97b122",
    "teacher.ckpt":
        "51ff248174484e250b1b9eaf06305da0332cf16bb4de2af6a383c41dbe132613",
}


def test_pipeline_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in PIPELINE:
        assert run(argv) == 0, argv
    got = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert got == DIGESTS
