"""Command-line interface: grammar, exit codes, determinism, full pipeline."""

import dataclasses
import json
import shutil
import struct

import numpy as np
import pytest

from graphkd.cli import build_parser, run
from graphkd.datagen import SynthConfig
from graphkd.distill import DistillConfig
from graphkd.embeddings import EMBEDDING_MAGIC, EMBEDDING_VERSION, read_store
from graphkd.evaluate import read_report
from graphkd.graphs import COMPANION_SUFFIX, companion_path, read_graphs
from graphkd.serialization import (CHECKPOINT_MAGIC, FORMAT_VERSION, read_checkpoint,
                                   write_checkpoint)
from graphkd.teacher import TeacherConfig
from record_mutations import RECORD_MUTATIONS

GEN = ["gen-synth", "--samples", "160", "--classes", "4", "--dim", "16",
       "--triplets-per-class", "4", "--seed", "3"]


def _gen(out_dir):
    assert run(GEN + ["--out", str(out_dir)]) == 0
    return {
        "manifest": out_dir / "manifest.jsonl",
        "visual": out_dir / "visual.gemb",
        "triplets": out_dir / "triplets.tsv",
        "triplet_embeddings": out_dir / "triplets.gemb",
    }


def _build(paths, out, seed="3"):
    assert run(["build-graphs", "--manifest", str(paths["manifest"]),
                "--embeddings", str(paths["visual"]),
                "--triplets", str(paths["triplets"]),
                "--triplet-embeddings", str(paths["triplet_embeddings"]),
                "--seed", seed, "--out", str(out)]) == 0


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run(["train-teacher", "--out", "x.ckpt"]) == 1
        assert "graphs" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["gen-synth", "--out", "d", "--wat", "1"]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_no_arguments(self):
        assert run([]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "gen-synth" in capsys.readouterr().out

    def test_bad_choice_value(self):
        assert run(["build-graphs", "--manifest", "m", "--triplets", "t",
                    "--edge-mode", "psychic", "--out", "o"]) == 1


class TestDefaults:
    @pytest.mark.parametrize("argv, config, not_flags", [
        (["gen-synth", "--out", "d"], SynthConfig, {"label_noise", "split_fractions"}),
        (["train-teacher", "--graphs", "g", "--out", "o"], TeacherConfig, set()),
        (["distill", "--graphs", "g", "--teacher", "t", "--student", "mlp", "--out", "o"],
         DistillConfig, set()),
    ])
    def test_flag_defaults_are_the_config_defaults(self, argv, config, not_flags):
        flags = {"learning_rate" if k == "lr" else k: v
                 for k, v in vars(build_parser().parse_args(argv)).items()}
        defaults = {f.name: f.default for f in dataclasses.fields(config)
                    if f.default is not dataclasses.MISSING}
        assert defaults.keys() - flags.keys() == not_flags
        shared = defaults.keys() & flags.keys()
        assert {k: flags[k] for k in shared} == {k: defaults[k] for k in shared}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A graphs file, its companion and a teacher trained on it."""
    root = tmp_path_factory.mktemp("trained")
    graphs = root / "d.graphs"
    _build(_gen(root / "d"), graphs)
    teacher = root / "t.ckpt"
    assert run(["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                "--epochs", "1", "--out", str(teacher)]) == 0
    return graphs, teacher


@pytest.fixture(scope="module")
def report(trained, tmp_path_factory):
    """A test-split report of the trained teacher."""
    graphs, teacher = trained
    path = tmp_path_factory.mktemp("report") / "teacher.json"
    assert run(["eval", "--model", str(teacher), "--graphs", str(graphs),
                "--report", str(path)]) == 0
    return path


def _mutate_graphs(path, mutation):
    text = path.read_text(encoding="utf-8")
    if mutation == "truncate":
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        return
    lines = text.splitlines()
    header, record = json.loads(lines[0]), json.loads(lines[2])
    node = record["nodes"][1]
    if mutation == "short-embedding":
        node["embedding"] = node["embedding"][:10]
    elif mutation == "nested-embedding":
        node["embedding"] = [node["embedding"]]
    elif mutation == "nan-embedding":
        node["embedding"][0] = float("nan")
    elif mutation == "nan-adjacency":
        record["adjacency"][1] = float("nan")
    elif mutation == "no-label-vocab":
        del header["label_vocab"]
    elif mutation == "surrogate-label":
        header["label_vocab"][0] += "\ud800"
    else:
        edit, _ = RECORD_MUTATIONS[mutation]
        edit(record, record["nodes"])
        if not record["nodes"]:
            record["adjacency"] = []
    lines[0], lines[2] = json.dumps(header), json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_companion(path, edit):
    """Rewrite the companion at ``path`` after ``edit(meta, tensors)``. The
    metadata is written with ASCII escapes, so it may hold unpaired
    surrogates. The graphs file is untouched, so the companion still matches
    it and is the copy that gets read."""
    meta, tensors = read_checkpoint(path)
    edit(meta, tensors)
    meta["tensors"] = [{"name": name, "rows": t.shape[0], "cols": t.shape[1]}
                       for name, t in tensors.items()]
    raw = json.dumps(meta).encode("ascii")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(raw)) + raw
                     + b"".join(t.astype("<f8").tobytes() for t in tensors.values()))


def _mutate_companion(graphs, mutation):
    """Apply a record mutation to the second sample of the companion of
    ``graphs``. A sample left without nodes loses its content rows and
    adjacency block too, so the tensors still fit the samples."""
    def edit(meta, tensors):
        first, record = meta["samples"][:2]
        refs = iter(record["triplet_rows"])
        nodes = [{"kind": kind, "id": node_id,
                  "row": next(refs) if kind == "commonsense" else None}
                 for kind, node_id in zip(record["kinds"], record["ids"])]
        RECORD_MUTATIONS[mutation][0](record, nodes)
        if not nodes:
            start, n = len(first["kinds"]) ** 2, len(record["kinds"])
            tensors["rows"] = np.delete(tensors["rows"], slice(4, 8), axis=0)
            tensors["adjacency"] = np.delete(tensors["adjacency"],
                                             slice(start, start + n * n), axis=0)
        record["kinds"] = [node["kind"] for node in nodes]
        record["ids"] = [node["id"] for node in nodes]
        record["triplet_rows"] = [node["row"] for node in nodes if node["row"] is not None]

    _edit_companion(companion_path(graphs), edit)


def _gemb(dim, entries, count=None, magic=EMBEDDING_MAGIC, version=EMBEDDING_VERSION):
    """GEMB bytes of (id bytes, row) entries; ``count`` overrides the header's."""
    out = [magic, struct.pack("<IIQ", version, dim, len(entries) if count is None else count)]
    for key, row in entries:
        out += [struct.pack("<H", len(key)), key, np.asarray(row, dtype="<f4").tobytes()]
    return b"".join(out)


GEMB_MUTATIONS = ["truncated", "trailing-byte", "count-plus-one", "count-minus-one",
                  "dim-zero", "wrong-dim", "nan-value", "inf-value", "duplicate-id",
                  "bad-utf8-id", "bad-magic", "bad-version"]


def _mutate_gemb(path, mutation):
    blob = path.read_bytes()
    store = read_store(path)
    dim, entries = store.dim, [(k.encode("utf-8"), store.vector(k)) for k in store.ids()]
    assert _gemb(dim, entries) == blob
    (first, _), (second, row) = entries[0], entries[1]
    if mutation == "truncated":
        blob = blob[:len(blob) // 2]
    elif mutation == "trailing-byte":
        blob += b"\0"
    elif mutation in ("count-plus-one", "count-minus-one"):
        blob = _gemb(dim, entries, count=len(entries) + (1 if mutation == "count-plus-one" else -1))
    elif mutation == "dim-zero":
        blob = _gemb(0, [(key, row[:0]) for key, row in entries])
    elif mutation == "wrong-dim":
        blob = _gemb(dim // 2, [(key, row[:dim // 2]) for key, row in entries])
    elif mutation in ("nan-value", "inf-value"):
        row = row.copy()
        row[0] = np.nan if mutation == "nan-value" else np.inf
        blob = _gemb(dim, [entries[0], (second, row)] + entries[2:])
    elif mutation == "duplicate-id":
        blob = _gemb(dim, [entries[0], (first, row)] + entries[2:])
    elif mutation == "bad-utf8-id":
        blob = _gemb(dim, [entries[0], (b"\xff" * len(second), row)] + entries[2:])
    elif mutation == "bad-magic":
        blob = _gemb(dim, entries, magic=b"GEMX")
    else:
        blob = _gemb(dim, entries, version=EMBEDDING_VERSION + 1)
    path.write_bytes(blob)


class TestMalformedInputs:
    @pytest.mark.parametrize("command", ["train-teacher", "eval"])
    @pytest.mark.parametrize("mutation", [
        "truncate", "short-embedding", "nested-embedding", "nan-embedding",
        "nan-adjacency", "no-label-vocab", "surrogate-label"])
    def test_malformed_graphs_exit_two_with_one_line(self, trained, tmp_path, capsys,
                                                     command, mutation):
        self._read_spoiled(trained, tmp_path, capsys, command, _mutate_graphs, mutation)

    @pytest.mark.parametrize("command", ["train-teacher", "eval"])
    @pytest.mark.parametrize("source", ["json", "companion"])
    @pytest.mark.parametrize("mutation", sorted(RECORD_MUTATIONS))
    def test_record_rule_holds_for_either_copy(self, trained, tmp_path, capsys, command,
                                               source, mutation):
        """An edited JSON line leaves the companion stale, so the JSON is
        parsed; an edited companion still matches the JSON, so it is read."""
        spoil = _mutate_graphs if source == "json" else _mutate_companion
        err = self._read_spoiled(trained, tmp_path, capsys, command, spoil, mutation)
        assert RECORD_MUTATIONS[mutation][1] in err
        copy = f"{tmp_path / 'd.graphs'}{COMPANION_SUFFIX}"
        assert (copy in err) == (source == "companion")

    @pytest.mark.parametrize("command", ["train-teacher", "eval"])
    def test_surrogate_label_in_companion_exits_two(self, trained, tmp_path, capsys, command):
        def edit(meta, _):
            meta["header"]["label_vocab"][0] += "\ud800"

        err = self._read_spoiled(trained, tmp_path, capsys, command,
                                 lambda graphs: _edit_companion(companion_path(graphs), edit))
        assert "surrogate" in err

    def _read_spoiled(self, trained, tmp_path, capsys, command, spoil, *args):
        """Run ``command`` on a copy of the graphs file and its companion
        after ``spoil(copy, *args)``; it must exit 2 with one ``error:``
        line, no traceback, and write nothing. Returns stderr."""
        source, teacher = trained
        graphs = tmp_path / "d.graphs"
        shutil.copy(source, graphs)
        shutil.copy(companion_path(source), companion_path(graphs))
        spoil(graphs, *args)
        out = tmp_path / "out"
        argv = (["train-teacher", "--graphs", str(graphs), "--epochs", "1", "--out", str(out)]
                if command == "train-teacher" else
                ["eval", "--model", str(teacher), "--graphs", str(graphs), "--report", str(out)])
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()
        return err

    @pytest.mark.parametrize("store", ["embeddings", "triplet-embeddings"])
    @pytest.mark.parametrize("mutation", GEMB_MUTATIONS)
    def test_malformed_embedding_store_exits_two(self, trained, tmp_path, capsys, store,
                                                 mutation):
        data = tmp_path / "d"
        shutil.copytree(trained[0].parent / "d", data)
        paths = {"embeddings": data / "visual.gemb",
                 "triplet-embeddings": data / "triplets.gemb"}
        _mutate_gemb(paths[store], mutation)
        out = tmp_path / "g.graphs"
        capsys.readouterr()
        assert run(["build-graphs", "--manifest", str(data / "manifest.jsonl"),
                    "--embeddings", str(paths["embeddings"]),
                    "--triplets", str(data / "triplets.tsv"),
                    "--triplet-embeddings", str(paths["triplet-embeddings"]),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() and not companion_path(out).exists()

    @pytest.mark.parametrize("artifact", ["manifest", "triplets", "graphs", "report"])
    def test_non_utf8_input_exits_two_naming_the_path(self, trained, report, tmp_path, capsys,
                                                      artifact):
        graphs, teacher = trained
        data = tmp_path / "d"
        shutil.copytree(graphs.parent / "d", data)
        bad = {"manifest": data / "manifest.jsonl", "triplets": data / "triplets.tsv",
               "graphs": tmp_path / "d.graphs", "report": tmp_path / "r.json"}[artifact]
        shutil.copy(graphs, tmp_path / "d.graphs")
        shutil.copy(companion_path(graphs), companion_path(tmp_path / "d.graphs"))
        shutil.copy(report, tmp_path / "r.json")
        blob = bad.read_bytes()
        at = blob.index(b"\n") + 1
        bad.write_bytes(blob[:at] + b"\xff" + blob[at:])
        out = tmp_path / "out"
        argv = {
            "manifest": ["build-graphs", "--manifest", str(data / "manifest.jsonl"),
                         "--triplets", str(data / "triplets.tsv"), "--out", str(out)],
            "triplets": ["build-graphs", "--manifest", str(data / "manifest.jsonl"),
                         "--triplets", str(data / "triplets.tsv"), "--out", str(out)],
            "graphs": ["eval", "--model", str(teacher), "--graphs", str(bad),
                       "--report", str(out)],
            "report": ["compare", "--baseline", str(bad), "--treated", str(report),
                       "--out", str(out)],
        }[artifact]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("mutation", ["per-group-list", "per-group-number",
                                          "micro-f1-string", "micro-f1-nan",
                                          "surrogate-group"])
    def test_malformed_report_exits_two_with_one_line(self, report, tmp_path, capsys,
                                                      mutation):
        doc = json.loads(report.read_text(encoding="utf-8"))
        if mutation == "per-group-list":
            doc["per_group"] = list(doc["per_group"].values())
        elif mutation == "per-group-number":
            doc["per_group"][sorted(doc["per_group"])[0]] = 0.5
        elif mutation == "micro-f1-string":
            doc["micro_f1"] = str(doc["micro_f1"])
        elif mutation == "surrogate-group":
            doc["per_group"]["g\ud800"] = doc["per_group"].popitem()[1]
        else:
            doc["micro_f1"] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "cmp.json"
        capsys.readouterr()
        assert run(["compare", "--baseline", str(bad), "--treated", str(report),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "distill"])
    @pytest.mark.parametrize("mutation", ["config-list", "config-string", "config-null",
                                          "model-number"])
    def test_malformed_checkpoint_metadata_exits_two_with_one_line(
            self, trained, tmp_path, capsys, command, mutation):
        graphs, teacher = trained
        meta, tensors = read_checkpoint(teacher)
        meta.pop("tensors")
        if mutation == "model-number":
            meta["model"] = 7
        else:
            meta["config"] = {"config-list": [1, 2], "config-string": "dim=8",
                              "config-null": None}[mutation]
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, meta, list(tensors.items()))
        out = tmp_path / "out"
        argv = (["eval", "--model", str(bad), "--graphs", str(graphs), "--report", str(out)]
                if command == "eval" else
                ["distill", "--graphs", str(graphs), "--teacher", str(bad), "--student", "mlp",
                 "--epochs", "1", "--out", str(out)])
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err
        assert not out.exists()

    def test_non_finite_checkpoint_exits_two(self, trained, tmp_path, capsys):
        graphs, teacher = trained
        meta, tensors = read_checkpoint(teacher)
        meta.pop("tensors")
        tensors["w0"][0, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        write_checkpoint(bad, meta, list(tensors.items()))
        capsys.readouterr()
        assert run(["eval", "--model", str(bad), "--graphs", str(graphs),
                    "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and err.count("\n") == 1


class TestDataErrors:
    def test_missing_manifest_exits_two(self, tmp_path):
        assert run(["build-graphs", "--manifest", str(tmp_path / "nope.jsonl"),
                    "--triplets", str(tmp_path / "nope.tsv"),
                    "--out", str(tmp_path / "o.graphs")]) == 2

    def test_corrupt_checkpoint_exits_two(self, tmp_path):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run(["eval", "--model", str(bad), "--graphs", str(graphs),
                    "--report", str(tmp_path / "r.json")]) == 2

    def test_mismatched_teacher_exits_two(self, tmp_path):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)
        other = tmp_path / "o"
        assert run(["gen-synth", "--samples", "120", "--classes", "3", "--dim",
                    "16", "--triplets-per-class", "4", "--seed", "1",
                    "--out", str(other)]) == 0
        other_graphs = tmp_path / "o.graphs"
        assert run(["build-graphs", "--manifest", str(other / "manifest.jsonl"),
                    "--embeddings", str(other / "visual.gemb"),
                    "--triplets", str(other / "triplets.tsv"),
                    "--triplet-embeddings", str(other / "triplets.gemb"),
                    "--seed", "1", "--out", str(other_graphs)]) == 0
        ckpt = tmp_path / "t3.ckpt"
        assert run(["train-teacher", "--graphs", str(other_graphs),
                    "--hidden", "8", "--epochs", "1", "--seed", "0",
                    "--out", str(ckpt)]) == 0
        assert run(["distill", "--graphs", str(graphs), "--teacher", str(ckpt),
                    "--student", "mlp", "--epochs", "1",
                    "--out", str(tmp_path / "s.ckpt")]) == 2

    @pytest.mark.parametrize("flag", ["--hidden", "--head-hidden", "--epochs"])
    def test_train_teacher_rejects_zero_sizes(self, tmp_path, capsys, flag):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)
        out = tmp_path / "t.ckpt"
        args = {"--hidden": "8", "--head-hidden": "8", "--epochs": "1"}
        args[flag] = "0"
        assert run(["train-teacher", "--graphs", str(graphs), "--out", str(out)]
                   + [x for kv in args.items() for x in kv]) == 2
        assert f"{flag.lstrip('-').replace('-', '_')} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--hidden", "--epochs"])
    def test_distill_rejects_zero_sizes(self, tmp_path, flag):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)
        teacher = tmp_path / "t.ckpt"
        assert run(["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                    "--epochs", "1", "--out", str(teacher)]) == 0
        args = {"--hidden": "8", "--epochs": "1"}
        args[flag] = "0"
        assert run(["distill", "--graphs", str(graphs), "--teacher", str(teacher),
                    "--student", "mlp", "--out", str(tmp_path / "s.ckpt")]
                   + [x for kv in args.items() for x in kv]) == 2

    @pytest.mark.parametrize("command, flag, field", [
        ("gen-synth", "--noise", "noise"),
        ("train-teacher", "--lr", "learning_rate"),
        ("distill", "--kd-weight", "kd_weight"),
        ("distill", "--temperature", "temperature"),
        ("distill", "--lr", "learning_rate"),
        ("gradcheck", "--eps", "eps"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_two_before_writing(self, trained, tmp_path, capsys,
                                                       command, flag, field, value):
        graphs, teacher = trained
        out = tmp_path / "out"
        argv = {
            "gen-synth": ["gen-synth", "--samples", "60", "--out", str(out)],
            "train-teacher": ["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                              "--epochs", "1", "--out", str(out)],
            "distill": ["distill", "--graphs", str(graphs), "--teacher", str(teacher),
                        "--student", "mlp", "--epochs", "1", "--out", str(out)],
            "gradcheck": ["gradcheck"],
        }[command]
        capsys.readouterr()
        assert run(argv + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and field in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_noise_whose_confuser_count_overflows_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["gen-synth", "--samples", "60", "--noise", "1e18", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "overflows" in err
        assert not out.exists()

    def test_eval_with_truncated_label_vocab_exits_two(self, tmp_path, capsys):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)
        teacher = tmp_path / "t.ckpt"
        assert run(["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                    "--epochs", "1", "--out", str(teacher)]) == 0
        lines = graphs.read_text().splitlines()
        header = json.loads(lines[0])
        header["label_vocab"] = header["label_vocab"][:2]
        lines[0] = json.dumps(header)
        graphs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["eval", "--model", str(teacher), "--graphs", str(graphs),
                    "--split", "all", "--report", str(tmp_path / "r.json")]) == 2
        assert "label vocabulary" in capsys.readouterr().err

    def test_truncated_companion_exits_two_with_one_line(self, tmp_path, capsys):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)
        companion = companion_path(graphs)
        companion.write_bytes(companion.read_bytes()[:100])
        capsys.readouterr()
        assert run(["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                    "--epochs", "1", "--out", str(tmp_path / "t.ckpt")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(companion) in err


class TestDeterminism:
    def test_gen_synth_twice_identical(self, tmp_path):
        a = _gen(tmp_path / "a")
        b = _gen(tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_build_graphs_twice_identical(self, tmp_path):
        data = _gen(tmp_path / "d")
        g1, g2 = tmp_path / "1.graphs", tmp_path / "2.graphs"
        _build(data, g1)
        _build(data, g2)
        assert g1.read_bytes() == g2.read_bytes()
        assert companion_path(g1).read_bytes() == companion_path(g2).read_bytes()

    def test_train_teacher_twice_identical(self, tmp_path):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)
        blobs = []
        for name in ("1", "2"):
            out = tmp_path / f"t{name}.ckpt"
            assert run(["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                        "--epochs", "2", "--seed", "5", "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

class TestPipeline:
    def test_full_pipeline_produces_parsable_comparison(self, tmp_path, capsys):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)

        teacher = tmp_path / "teacher.ckpt"
        assert run(["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                    "--epochs", "2", "--seed", "0", "--out", str(teacher)]) == 0

        baseline = tmp_path / "baseline.ckpt"
        distilled = tmp_path / "distilled.ckpt"
        assert run(["distill", "--graphs", str(graphs), "--teacher", str(teacher),
                    "--student", "mlp", "--kd-weight", "0", "--epochs", "2",
                    "--seed", "0", "--out", str(baseline)]) == 0
        assert run(["distill", "--graphs", str(graphs), "--teacher", str(teacher),
                    "--student", "mlp", "--kd-weight", "1.0", "--epochs", "2",
                    "--seed", "0", "--out", str(distilled)]) == 0

        base_report = tmp_path / "base.json"
        dist_report = tmp_path / "dist.json"
        assert run(["eval", "--model", str(baseline), "--graphs", str(graphs),
                    "--split", "test", "--report", str(base_report)]) == 0
        assert run(["eval", "--model", str(distilled), "--graphs", str(graphs),
                    "--split", "test", "--report", str(dist_report)]) == 0

        comparison = tmp_path / "cmp.json"
        assert run(["compare", "--baseline", str(base_report),
                    "--treated", str(dist_report), "--out", str(comparison)]) == 0
        captured = capsys.readouterr()
        assert "AVG" in captured.out and "delta" in captured.out

        doc = json.loads(comparison.read_text())
        assert doc["rows"] and "delta_avg" in doc["rows"][0]
        report = read_report(base_report)
        assert report.split == "test"
        assert report.config["model_kind"] == "student-mlp"

    def test_distill_with_teacher_ensemble(self, tmp_path):
        data = _gen(tmp_path / "d")
        graphs = tmp_path / "d.graphs"
        _build(data, graphs)
        t1, t2 = tmp_path / "t1.ckpt", tmp_path / "t2.ckpt"
        for seed, path in (("0", t1), ("1", t2)):
            assert run(["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                        "--epochs", "1", "--seed", seed, "--out", str(path)]) == 0
        out = tmp_path / "s.ckpt"
        assert run(["distill", "--graphs", str(graphs),
                    "--teacher", f"{t1},{t2}", "--student", "transformer",
                    "--epochs", "1", "--seed", "0", "--out", str(out)]) == 0
        from graphkd.distill import load_student
        _, meta = load_student(out)
        assert len(meta["teachers"]) == 2

    def test_build_graphs_embeds_triplet_surfaces_when_no_store(self, tmp_path):
        data = _gen(tmp_path / "d")
        out = tmp_path / "alt.graphs"
        assert run(["build-graphs", "--manifest", str(data["manifest"]),
                    "--embeddings", str(data["visual"]),
                    "--triplets", str(data["triplets"]),
                    "--dim", "16", "--seed", "3", "--out", str(out)]) == 0
        subgraphs, header = read_graphs(out)
        assert header["config"]["triplet_embeddings"] is None
        assert all(sg.size >= 4 for sg in subgraphs)

class TestGradcheckCommand:
    def test_passes_and_prints(self, capsys):
        assert run(["gradcheck", "--seed", "0", "--eps", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert out.count("max relative gradient error") == 3
