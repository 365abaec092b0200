"""Golden digests: a small pipeline run in-process must keep writing the
same bytes. gen-synth → build-graphs → train-teacher → KD MLP distill →
eval, with relative paths so the config echoes do not hold the temporary
directory. A change that moves any output byte fails here; one that means
to must re-record the digests and say why.

The first run fits in one chunk of token rows and one teacher stack. The
second shrinks those bounds so that the build embeds its records over
several chunks and every stacked teacher forward (soft labels, validation,
eval) splits its node-count groups, and must still write the same bytes as
one chunk and one stack would."""

import hashlib

from graphkd import embeddings, graphs, teacher
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


CHUNKED_PIPELINE = [
    ["gen-synth", "--samples", "60", "--seed", "3", "--out", "data"],
    ["build-graphs", "--manifest", "data/manifest.jsonl", "--embeddings", "data/visual.gemb",
     "--triplets", "data/triplets.tsv", "--k", "2", "--out", "graphs.jsonl"],
    ["train-teacher", "--graphs", "graphs.jsonl", "--epochs", "2", "--out", "t0.ckpt"],
    ["train-teacher", "--graphs", "graphs.jsonl", "--epochs", "1", "--seed", "1",
     "--out", "t1.ckpt"],
    ["distill", "--graphs", "graphs.jsonl", "--teacher", "t0.ckpt,t1.ckpt", "--student",
     "transformer", "--temperature", "2", "--epochs", "1", "--out", "student.ckpt"],
    ["eval", "--model", "t0.ckpt", "--graphs", "graphs.jsonl", "--split", "all",
     "--report", "teacher.json"],
    ["eval", "--model", "student.ckpt", "--graphs", "graphs.jsonl", "--report", "student.json"],
]

CHUNKED_DIGESTS = {
    "data/config.json":
        "ed5f6a94bcfc8497ebe89c5a192887f4c03285cdfc1568c368b6c880899b5054",
    "data/ground_truth.jsonl":
        "abd21a1d13fbc9d62ef7b82f6fef9fa45f8a03e40418d73a30b8ab643038a6bb",
    "data/manifest.jsonl":
        "fa6db238a16bc97a16a696f91e50ccff4f878a0097e346a1d78b913a85e355fd",
    "data/triplets.gemb":
        "517b9dafe47880a5f85a59ce46d4cecd71600b9a1d65b4d5b10e8051f434c7f9",
    "data/triplets.tsv":
        "733ac2e5c8d6901171103e3c695b996eadbf3cc4b35aa0e65ced080da373ed1b",
    "data/visual.gemb":
        "979c37c251cd3ff0af8d86c7b0add008c8d55a772ab19104fb02074f60ce1044",
    "graphs.jsonl":
        "eeec5cf0b5e17294f1d047fe34d87fb7f9ded0690bac39502771dbd520095633",
    "graphs.jsonl.gkdc":
        "687e5179bd80777f0d845717b8169de7f1af41b98ae897c8276d82137a2e2ab7",
    "student.ckpt":
        "0c82713aa027dde7ebe04fc292fa6adb78588871815caf46f4580d3174c3e9bb",
    "student.json":
        "953a226e04041dba3406a89a38e03c2974f6c528f9e4dbc32cc9c68e00f348d7",
    "t0.ckpt":
        "b4050bee371101083f762bd6f92f69b4126c0d25ed53f90a9f82ecb63fe1c5bc",
    "t1.ckpt":
        "672505931a6c0251c1ce9f27c506d91a47df6dd621457304361b210cd40a8272",
    "teacher.json":
        "69079cb21d998d0cd3296e5a8908584c537ae9a82fc641f65b39f1a62b6a689a",
}


def _digests(root):
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_pipeline_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in PIPELINE:
        assert run(argv) == 0, argv
    assert _digests(tmp_path) == DIGESTS


def test_chunked_build_and_capped_stacks_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(embeddings, "TOKEN_ROW_CHUNK", 5)
    monkeypatch.setattr(graphs, "TOKEN_CHUNK_RECORDS", 7)
    monkeypatch.setattr(teacher, "MAX_STACK", 3)
    for argv in CHUNKED_PIPELINE:
        assert run(argv) == 0, argv
    assert _digests(tmp_path) == CHUNKED_DIGESTS
