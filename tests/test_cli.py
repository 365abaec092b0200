"""Command-line interface: grammar, exit codes, determinism, full pipeline."""

import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graphkd
from graphkd.cli import build_parser, run
from graphkd.datagen import SynthConfig
from graphkd.distill import DistillConfig
from graphkd.embeddings import EMBEDDING_MAGIC, EMBEDDING_VERSION, read_store
from graphkd.errors import FormatError
from graphkd.evaluate import read_report
from graphkd.graphs import COMPANION_SUFFIX, companion_path, read_graphs, write_graphs
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
        assert run(["eval", "--model", "m", "--graphs", "g", "--split", "psychic",
                    "--report", "r"]) == 1


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
                  "bad-utf8-id", "bad-magic", "bad-version", "zero-vector"]


def _mutate_gemb(path, mutation):
    """Rewrite the store at ``path`` with ``mutation``; returns the id of the
    second entry, the one most mutations change."""
    blob = path.read_bytes()
    store = read_store(path)
    dim = store.dim
    entries = [(key.encode("utf-8"), row) for key, row in zip(store.ids, store.matrix)]
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
    elif mutation == "zero-vector":
        blob = _gemb(dim, [entries[0], (second, row * 0.0)] + entries[2:])
    else:
        blob = _gemb(dim, entries, version=EMBEDDING_VERSION + 1)
    path.write_bytes(blob)
    return second.decode("utf-8")


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
        second = _mutate_gemb(paths[store], mutation)
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
        if mutation == "zero-vector":
            assert f"'{second}'" in err

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

    def test_zero_norm_triplet_store_is_refused_before_the_manifest_is_read(
            self, tmp_path, capsys):
        data = _gen(tmp_path / "d")
        store = read_store(data["triplet_embeddings"])
        entries = [(key.encode("utf-8"), row * (key != "t5"))
                   for key, row in zip(store.ids, store.matrix)]
        data["triplet_embeddings"].write_bytes(_gemb(store.dim, entries))
        out = tmp_path / "o.graphs"
        capsys.readouterr()
        assert run(["build-graphs", "--manifest", str(tmp_path / "nope.jsonl"),
                    "--triplets", str(data["triplets"]),
                    "--triplet-embeddings", str(data["triplet_embeddings"]),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: triplet store contains a zero-norm embedding, 't5'\n"
        assert not out.exists()

    @staticmethod
    def _use_argv(command, model, graphs, out):
        if command == "eval":
            return ["eval", "--model", str(model), "--graphs", str(graphs), "--split", "all",
                    "--report", str(out)]
        return ["distill", "--graphs", str(graphs), "--teacher", str(model), "--student",
                "mlp", "--epochs", "1", "--out", str(out)]

    @pytest.mark.parametrize("command", ["eval", "distill"])
    def test_checkpoint_trained_on_other_labels_exits_two(self, trained, tmp_path, capsys,
                                                          command):
        """Renaming label c0 to zc0 reorders the sorted vocabulary while the
        class count stays; a teacher trained before must be refused rather
        than scored against the wrong classes."""
        source, teacher = trained
        data = source.parent / "d"
        manifest = tmp_path / "m.jsonl"
        text = (data / "manifest.jsonl").read_text(encoding="utf-8")
        manifest.write_text(text.replace('"label":"c0"', '"label":"zc0"'), encoding="utf-8")
        graphs = tmp_path / "renamed.graphs"
        _build({"manifest": manifest, "visual": data / "visual.gemb",
                "triplets": data / "triplets.tsv",
                "triplet_embeddings": data / "triplets.gemb"}, graphs)
        assert read_graphs(graphs)[1]["label_vocab"] == ["c1", "c2", "c3", "zc0"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(self._use_argv(command, teacher, graphs, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(teacher) in err and "label vocabulary" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "distill"])
    def test_checkpoint_without_label_vocab_is_checked_by_class_count(
            self, trained, tmp_path, capsys, command):
        graphs, teacher = trained
        meta, tensors = read_checkpoint(teacher)
        meta.pop("tensors")
        del meta["label_vocab"]
        same = tmp_path / "same.ckpt"
        write_checkpoint(same, meta, list(tensors.items()))
        meta["config"]["num_classes"] += 1
        more = tmp_path / "more.ckpt"
        write_checkpoint(more, meta, list(tensors.items()))
        assert run(self._use_argv(command, same, graphs, tmp_path / "ok")) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(self._use_argv(command, more, graphs, out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {more} has 5 classes, the graphs have 4\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "distill"])
    def test_graphs_companion_as_a_model_exits_two_naming_its_format(
            self, trained, tmp_path, capsys, command):
        graphs, _ = trained
        companion = companion_path(graphs)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(self._use_argv(command, companion, graphs, out)) == 2
        expected = "a teacher or a student" if command == "eval" else "a teacher"
        assert capsys.readouterr().err == (
            f"error: {companion} records no model kind (a 'graphkd-graphs-companion' file), "
            f"expected {expected}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["gen-synth", "gradcheck"])
    def test_negative_seed_exits_two_before_writing(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {"gen-synth": ["gen-synth", "--samples", "60", "--out", str(out)],
                "gradcheck": ["gradcheck"]}[command]
        capsys.readouterr()
        assert run(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
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


class TestFlagsFirst:
    """A bad flag is refused before any input is read, so the error names
    the flag even when the graphs file does not exist."""

    @pytest.mark.parametrize("argv, field", [
        (["distill", "--teacher", "t.ckpt", "--student", "mlp", "--kd-weight", "nan"],
         "kd_weight"),
        (["distill", "--teacher", "t.ckpt", "--student", "mlp", "--epochs", "0"], "epochs"),
        (["train-teacher", "--epochs", "0"], "epochs"),
        (["train-teacher", "--lr", "inf"], "learning_rate"),
        (["train-teacher", "--lr", "-1"], "learning_rate"),
        (["distill", "--teacher", "t.ckpt", "--student", "mlp", "--lr", "-1"],
         "learning_rate"),
        (["train-teacher", "--seed", "-1"], "seed"),
        (["distill", "--teacher", "t.ckpt", "--student", "mlp", "--seed", "-1"], "seed"),
    ])
    def test_bad_flag_with_missing_graphs_exits_two_naming_the_flag(self, tmp_path, capsys,
                                                                    argv, field):
        missing = tmp_path / "missing.graphs"
        out = tmp_path / "out"
        assert run(argv + ["--graphs", str(missing), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err and str(missing) not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--k", "0", "k must be"), ("--dim", "1", "dim"),
    ])
    def test_bad_build_flag_with_missing_inputs_exits_two_naming_the_flag(
            self, tmp_path, capsys, flag, value, named):
        missing = tmp_path / "missing.jsonl"
        out = tmp_path / "out.graphs"
        assert run(["build-graphs", "--manifest", str(missing), "--triplets",
                    str(tmp_path / "missing.tsv"), flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err and "missing" not in err
        assert list(tmp_path.iterdir()) == []


class TestAllocationFailure:
    def test_memory_error_is_one_line_and_exit_two(self, trained, tmp_path, capsys,
                                                   monkeypatch):
        from graphkd import distill

        def glorot_uniform(rng, rows, cols):
            raise MemoryError(f"Unable to allocate 191. GiB for an array with shape "
                              f"({rows}, {cols}) and data type float64")

        monkeypatch.setattr(distill, "glorot_uniform", glorot_uniform)
        graphs, teacher = trained
        out = tmp_path / "s.ckpt"
        capsys.readouterr()
        assert run(["distill", "--graphs", str(graphs), "--teacher", str(teacher),
                    "--student", "mlp", "--hidden", "100000000", "--epochs", "1",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "191. GiB" in err and "Traceback" not in err
        assert not out.exists()


def _forge_rows(path, rows):
    """Rewrite the checkpoint at ``path`` so that its manifest claims
    ``rows`` rows for its first tensor; the tensor bytes stay as they are."""
    blob = path.read_bytes()
    meta_len = struct.unpack("<Q", blob[8:16])[0]
    meta = json.loads(blob[16:16 + meta_len])
    meta["tensors"][0]["rows"] = rows
    raw = json.dumps(meta).encode("ascii")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + meta_len:])


class TestForgedManifest:
    """A manifest that claims 2**40 rows is refused before anything is
    allocated for it, with one line and exit 2."""

    @pytest.mark.parametrize("target", ["model", "companion"])
    def test_forged_rows_exit_two_with_one_line(self, trained, tmp_path, capsys, target):
        graphs, teacher = trained
        graphs = shutil.copy(graphs, tmp_path / "g.graphs")
        shutil.copy(companion_path(trained[0]), companion_path(graphs))
        model = shutil.copy(teacher, tmp_path / "t.ckpt")
        forged = model if target == "model" else companion_path(graphs)
        _forge_rows(forged, 2**40)
        capsys.readouterr()
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                (read_checkpoint(forged) if target == "model"
                 else read_graphs(graphs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        report = tmp_path / "r.json"
        assert run(["eval", "--model", str(model), "--graphs", str(graphs),
                    "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "truncated" in err
        if target == "companion":
            assert str(forged) in err
        assert not report.exists()


class TestGraphsEcho:
    """A checkpoint echoes its graphs header's config, under one rule for
    teachers and students: omitted when the header has none."""

    def _checkpoints(self, graphs, tmp_path):
        teacher, student = tmp_path / "t.ckpt", tmp_path / "s.ckpt"
        assert run(["train-teacher", "--graphs", str(graphs), "--hidden", "8",
                    "--epochs", "1", "--out", str(teacher)]) == 0
        assert run(["distill", "--graphs", str(graphs), "--teacher", str(teacher),
                    "--student", "mlp", "--hidden", "8", "--epochs", "1",
                    "--out", str(student)]) == 0
        return read_checkpoint(teacher)[0], read_checkpoint(student)[0]

    def test_header_config_is_echoed_by_both_commands(self, trained, tmp_path):
        graphs, _ = trained
        _, header = read_graphs(graphs)
        for meta in self._checkpoints(graphs, tmp_path):
            assert meta["graph_config"] == header["config"]
            assert meta["label_vocab"] == header["label_vocab"]

    def test_library_written_graphs_without_config_are_echoed_by_neither(
            self, trained, tmp_path):
        subgraphs, header = read_graphs(trained[0])
        graphs = tmp_path / "lib.graphs"
        write_graphs(graphs, subgraphs, header["label_vocab"], None)
        assert read_graphs(graphs)[1]["config"] is None
        for meta in self._checkpoints(graphs, tmp_path):
            assert "graph_config" not in meta
            assert meta["label_vocab"] == header["label_vocab"]


class TestEntryPoint:
    """``python -m graphkd.cli`` in a fresh process, as the benchmark starts
    every command: exit codes, stdout and stderr of ``main``."""

    def _cli(self, *argv, cwd):
        env = {**os.environ, "PYTHONPATH": str(Path(graphkd.__file__).resolve().parents[1])}
        return subprocess.run([sys.executable, "-m", "graphkd.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_success_exits_zero_and_prints_the_output_path(self, tmp_path):
        done = self._cli("gen-synth", "--samples", "20", "--dim", "8", "--out", "data",
                         cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "data" / "manifest.jsonl").is_file()
        assert done.stdout == f"{Path('data') / 'manifest.jsonl'}\n"

    def test_data_error_exits_two_with_one_error_line(self, tmp_path):
        (tmp_path / "manifest.jsonl").write_text("not json\n", encoding="utf-8")
        (tmp_path / "triplets.tsv").write_text("a\tb\tc\n", encoding="utf-8")
        done = self._cli("build-graphs", "--manifest", "manifest.jsonl",
                         "--triplets", "triplets.tsv", "--out", "g.jsonl", cwd=tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr and done.stdout == ""
        assert not (tmp_path / "g.jsonl").exists()

    @pytest.mark.parametrize("flag", [["--edge-mode", "cosine"], ["--tau", "0.3"]],
                             ids=["edge-mode", "tau"])
    def test_removed_build_flag_is_a_usage_error(self, tmp_path, flag):
        """Every build makes hybrid edges at threshold 0; the two flags that
        chose otherwise are gone. The error shows the usage of build-graphs,
        which lists the flags it does take."""
        done = self._cli("build-graphs", "--manifest", "m.jsonl", "--triplets", "t.tsv",
                         *flag, "--out", "g.jsonl", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("usage: graphkd build-graphs ")
        assert done.stderr.endswith(f"graphkd build-graphs: error: unrecognized arguments: "
                                    f"{' '.join(flag)}\n")
        assert "Traceback" not in done.stderr and list(tmp_path.iterdir()) == []

    def test_unknown_flag_before_the_subcommand_is_the_top_level_usage_error(self, tmp_path):
        done = self._cli("--wat", "gen-synth", "--out", "d", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("usage: graphkd [-h]")
        assert done.stderr.endswith("graphkd: error: unrecognized arguments: --wat\n")
        assert "Traceback" not in done.stderr and list(tmp_path.iterdir()) == []


class TestModulesLoaded:
    """What a fresh ``python -m graphkd.cli`` process imports for each
    command, read from ``-X importtime``: a command loads only what it runs."""

    MODELS = {"graphkd.autodiff", "graphkd.teacher", "graphkd.distill", "graphkd.evaluate"}

    @staticmethod
    def _loaded(*argv, cwd) -> set[str]:
        env = {**os.environ, "PYTHONPATH": str(Path(graphkd.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}

    def test_importing_the_package_loads_no_module_of_it(self, tmp_path):
        loaded = self._loaded("-c", "import graphkd", cwd=tmp_path)
        assert "graphkd" in loaded
        assert {m for m in loaded if m.startswith("graphkd.")} == set()

    def test_help_loads_no_numpy(self, tmp_path):
        loaded = self._loaded("-m", "graphkd.cli", "--help", cwd=tmp_path)
        assert "graphkd.config" in loaded and "numpy" not in loaded

    def test_compare_loads_no_numpy(self, report, tmp_path):
        loaded = self._loaded("-m", "graphkd.cli", "compare", "--baseline", str(report),
                              "--treated", str(report), "--out", "c.json", cwd=tmp_path)
        assert "graphkd.evaluate" in loaded and "numpy" not in loaded

    def test_eval_loads_neither_datagen_nor_verification(self, trained, tmp_path):
        graphs, teacher = trained
        loaded = self._loaded("-m", "graphkd.cli", "eval", "--model", str(teacher),
                              "--graphs", str(graphs), "--report", "r.json", cwd=tmp_path)
        assert "graphkd.distill" in loaded
        assert not loaded & {"graphkd.datagen", "graphkd.verification"}

    def test_gen_synth_and_build_graphs_load_no_model(self, tmp_path):
        loaded = self._loaded("-m", "graphkd.cli", "gen-synth", "--samples", "20", "--dim", "8",
                              "--out", "data", cwd=tmp_path)
        assert "graphkd.datagen" in loaded and not loaded & self.MODELS
        loaded = self._loaded("-m", "graphkd.cli", "build-graphs",
                              "--manifest", "data/manifest.jsonl",
                              "--embeddings", "data/visual.gemb", "--triplets", "data/triplets.tsv",
                              "--triplet-embeddings", "data/triplets.gemb", "--out", "g.jsonl",
                              cwd=tmp_path)
        assert "graphkd.graphs" in loaded and not loaded & self.MODELS


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
        meta, _ = read_checkpoint(out)
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

    @pytest.mark.parametrize("seed, expected", [
        ("0", "teacher: max relative gradient error 7.965e-09\n"
              "student-mlp: max relative gradient error 1.387e-10\n"
              "student-transformer: max relative gradient error 6.500e-08\n"),
        ("3", "teacher: max relative gradient error 9.282e-09\n"
              "student-mlp: max relative gradient error 3.411e-09\n"
              "student-transformer: max relative gradient error 4.276e-06\n"),
    ], ids=["seed0", "seed3"])
    def test_prints_the_pinned_errors(self, capsys, seed, expected):
        """Four digits of each error: a change to a loss or to one of its
        backward rules moves them."""
        assert run(["gradcheck", "--seed", seed]) == 0
        assert capsys.readouterr().out == expected
