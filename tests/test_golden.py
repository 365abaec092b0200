"""Golden digests: a small pipeline run in-process must keep writing the
same bytes. gen-synth → build-graphs → train-teacher → KD MLP distill →
eval, with relative paths so the config echoes do not hold the temporary
directory. A change that moves any output byte fails here; one that means
to must re-record the digests and say why.

The first run fits in one chunk of token rows and one teacher stack. The
second shrinks those bounds so that the build embeds its records over
several chunks and every stacked teacher forward (soft labels, validation,
eval) splits its node-count groups, and must still write the same bytes as
one chunk and one stack would.

The third trains with SGD at the default and at a given learning rate,
distils a plain (kd-weight 0) MLP and a KD transformer, evaluates all three
models and compares the students. It also fixes each command's stderr,
which holds the epoch log, and the config echo of every checkpoint.

The fourth builds from a manifest whose visual channels are texts, with no
visual store, at k 1: once against a triplet store whose GEMB records are
listed in reverse id order, and once over triplets embedded from their
texts."""

import hashlib
import json
import struct

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


SGD_PIPELINE = [
    ["gen-synth", "--samples", "48", "--classes", "3", "--seed", "11", "--out", "data"],
    ["build-graphs", "--manifest", "data/manifest.jsonl", "--embeddings", "data/visual.gemb",
     "--triplets", "data/triplets.tsv", "--triplet-embeddings", "data/triplets.gemb",
     "--out", "graphs.jsonl"],
    ["train-teacher", "--graphs", "graphs.jsonl", "--optimizer", "sgd", "--hidden", "8",
     "--head-hidden", "6", "--epochs", "2", "--out", "teacher.ckpt"],
    ["distill", "--graphs", "graphs.jsonl", "--teacher", "teacher.ckpt", "--student", "mlp",
     "--kd-weight", "0", "--optimizer", "sgd", "--lr", "0.05", "--epochs", "2",
     "--out", "plain.ckpt"],
    ["distill", "--graphs", "graphs.jsonl", "--teacher", "teacher.ckpt", "--student",
     "transformer", "--kd-weight", "0.5", "--hidden", "16", "--epochs", "2",
     "--out", "kd.ckpt"],
    ["eval", "--model", "teacher.ckpt", "--graphs", "graphs.jsonl", "--report", "teacher.json"],
    ["eval", "--model", "plain.ckpt", "--graphs", "graphs.jsonl", "--report", "plain.json"],
    ["eval", "--model", "kd.ckpt", "--graphs", "graphs.jsonl", "--report", "kd.json"],
    ["compare", "--baseline", "plain.json", "--treated", "kd.json", "--out", "compare.json"],
]

SGD_DIGESTS = {
    "compare.json":
        "9b3cdfdf84ac6411aa6a509a7afe65c0c176fd8432ca1ceaccf0c1c58013c0bf",
    "data/config.json":
        "6c0915dce0bf23a7b72f423c1e4f84e8b009b9e13ae8b3426d82516cddb3338a",
    "data/ground_truth.jsonl":
        "3cf43408f0d2ba74386c0bd14fa693637f9141350c7fd362f2be6f5688bb90a1",
    "data/manifest.jsonl":
        "f605700ea1c82b4f70ad8a436790419479f4049c3dc8a9bdb6b2f3c5deab74c4",
    "data/triplets.gemb":
        "643221d16cabfa679f1a4cd2a6d79e27e4bce5b4d7b6916ad765cc2e47bfed01",
    "data/triplets.tsv":
        "8b2d7229004fc881140cbb3c30ce620771cfa330936941376b36612e6906f382",
    "data/visual.gemb":
        "f053191d183b3843f62ea18432510f2f0ff7762f46364b34a9d2cbb32740070f",
    "graphs.jsonl":
        "3a2db3c96834a583aa2de4fa442eae4f920ad0791829d5fdc0421fd80e63d9df",
    "graphs.jsonl.gkdc":
        "2616b4fdc418a0bdd75a6c76c61624e540bf5e6023bb27bda81a6a5ef09898e3",
    "kd.ckpt":
        "e2f8f84af93e31ff8a7453732dfa822fdc7788ef5a36229f212fd567e0b240ab",
    "kd.json":
        "ea4fd47c46b1935d1427a55fa299174f443543e461aa82e450c3d3b611f4e212",
    "plain.ckpt":
        "9f081232da8d79f58b29377a4fa5545f0af9796f1a8c4c992d9c1a05b84a6519",
    "plain.json":
        "66eafdb617d9c03f92ddf7f7b78743c3ad71b9fb972e7fe9411a9ebd39ef6657",
    "teacher.ckpt":
        "48ab02a29c5d5e530d798fa8afeb535e6ffd0590db0773b585d67e58595aa9d8",
    "teacher.json":
        "10503e920c36f0561eafd3920ff40e6333fdacdce3f471247ec10b521a4cebc5",
}

# The sha256 of each SGD_PIPELINE command's stderr, in order.
SGD_STDERR_DIGESTS = [
    "8b63e47a0db0f45f7c7b342a2009e1f9c38186d4bb0be6d387ff8ecf3def17b4",
    "c7c751fe5fb5bf256abe81f6fed659898b543addb9d7eda9e67582ce2037656f",
    "ab5eb46cbac6a73d4267f301927c724dd4d9bed01a82eb6ea19049aab00af56c",
    "603e1d19774141d56c3a9db276c85473de64e7bd70f3b37aa2a2d953f5133440",
    "ba3c8a59466b59ab1dfdee4010e4c14df7fa698029d05bd90b01ae6adfd995ae",
    *[hashlib.sha256(b"").hexdigest()] * 4,
]


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


def test_sgd_and_plain_student_run_matches_the_recorded_digests(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.chdir(tmp_path)
    stderr = []
    for argv in SGD_PIPELINE:
        assert run(argv) == 0, argv
        stderr.append(hashlib.sha256(capsys.readouterr().err.encode("utf-8")).hexdigest())
    assert _digests(tmp_path) == SGD_DIGESTS
    assert stderr == SGD_STDERR_DIGESTS


TEXT_VISUAL_PIPELINE = [
    ["gen-synth", "--samples", "36", "--classes", "3", "--dim", "16", "--out", "data"],
    ["build-graphs", "--manifest", "manifest.jsonl", "--triplets", "data/triplets.tsv",
     "--triplet-embeddings", "reversed.gemb", "--k", "1", "--out", "reversed.jsonl"],
    ["build-graphs", "--manifest", "manifest.jsonl", "--triplets", "data/triplets.tsv",
     "--dim", "16", "--k", "1", "--out", "hybrid.jsonl"],
    ["train-teacher", "--graphs", "reversed.jsonl", "--epochs", "2", "--out", "teacher.ckpt"],
    ["eval", "--model", "teacher.ckpt", "--graphs", "hybrid.jsonl", "--split", "all",
     "--report", "report.json"],
]

TEXT_VISUAL_DIGESTS = {
    "data/config.json":
        "b751534b66c221e88ed4419d320ea1b197d06d3b27f7049be44ec3807dc245c9",
    "data/ground_truth.jsonl":
        "ae9162557d3a6c0a2069b1792a777bbcd1328629911b15147d0b06bc21bc839b",
    "data/manifest.jsonl":
        "dc70a513038d8661059d1665c365b35568fa9aa117034b5df09c86214399c47b",
    "data/triplets.gemb":
        "7e991397c4bf69f631d28fe306f1fc4f32ff7a48a796652c0f7c838e9da324f2",
    "data/triplets.tsv":
        "8b2d7229004fc881140cbb3c30ce620771cfa330936941376b36612e6906f382",
    "data/visual.gemb":
        "96cecfe3176608be44a1146641d8699523e69f0a4dbba55929b7b89b9b40b0c7",
    "hybrid.jsonl":
        "3857649f864217a51b61da93433715bebcdaadbe2432e5106c8f42869102736c",
    "hybrid.jsonl.gkdc":
        "fef8e89954b48410a55ffec98839a45d547b604d47ebd450bcc1afbcb6c3e7bf",
    "manifest.jsonl":
        "d1eb56bd7ffa9cc3d693bfd23e99ed448ad0e947bbfff200235673df50b9516d",
    "report.json":
        "277edb0c5f598b5665d4390c4293e19acff53193d9f6c5bb199221beeb43df90",
    "reversed.gemb":
        "316871e61a6ce9908b7493c9b88c280129c285bb893d76f041b6e93d5cf3cff0",
    "reversed.jsonl":
        "4c2eb5f0a8fb16712d2e245e0357132d933c4ffa936232740cc35e9f2eaa4cc6",
    "reversed.jsonl.gkdc":
        "c327a9b10523e0c526ad93c1dcd433819c1b3821427e24f975f914ade52d517b",
    "teacher.ckpt":
        "5607b2a7a56a7041cb78b218265e5abc9334ed8873f07400666f8e97fdcd6a00",
}

# The sha256 of each TEXT_VISUAL_PIPELINE command's stderr after gen-synth, in order.
TEXT_VISUAL_STDERR_DIGESTS = [
    *["c5999d17010940ff8d45fe609567b5b09c3c4d1dd278a07eaadd1d2fabbdd546"] * 2,
    "7deda282ce299477d06d34937af5b5ed608713117dac5ab06811ce52aef1061f",
    hashlib.sha256(b"").hexdigest(),
]


def _reversed_gemb(blob: bytes) -> bytes:
    """The GEMB file ``blob`` with its records in reverse order: a 20-byte
    header (magic, version, dim, count), then per record a u16 id length,
    the id bytes and dim little-endian f32 values."""
    dim, count = struct.unpack_from("<IQ", blob, 8)
    records, at = [], 20
    for _ in range(count):
        (size,) = struct.unpack_from("<H", blob, at)
        end = at + 2 + size + 4 * dim
        records.append(blob[at:end])
        at = end
    assert at == len(blob)
    return blob[:20] + b"".join(reversed(records))


def _text_visual_manifest(lines) -> str:
    """The synthetic manifest with each visual reference replaced by a text:
    the question's first eight tokens, or for every seventh record an empty
    text (the embedder's sentinel)."""
    out = []
    for i, line in enumerate(lines):
        doc = json.loads(line)
        del doc["visual_ref"]
        doc["visual_text"] = "" if i % 7 == 3 else " ".join(doc["question"].split()[:8])
        out.append(json.dumps(doc, sort_keys=True) + "\n")
    return "".join(out)


def test_text_visual_manifest_and_reversed_store_match_the_recorded_digests(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    gen, *rest = TEXT_VISUAL_PIPELINE
    assert run(gen) == 0
    capsys.readouterr()
    (tmp_path / "manifest.jsonl").write_text(
        _text_visual_manifest((tmp_path / "data/manifest.jsonl").read_text().splitlines()),
        encoding="utf-8")
    forward = (tmp_path / "data/triplets.gemb").read_bytes()
    (tmp_path / "reversed.gemb").write_bytes(_reversed_gemb(forward))
    assert _reversed_gemb(_reversed_gemb(forward)) == forward
    stderr = []
    for argv in rest:
        assert run(argv) == 0, argv
        stderr.append(hashlib.sha256(capsys.readouterr().err.encode("utf-8")).hexdigest())
    assert _digests(tmp_path) == TEXT_VISUAL_DIGESTS
    assert stderr == TEXT_VISUAL_STDERR_DIGESTS
