"""Synthetic generation and manifest ingestion."""

import json
from collections import Counter

import numpy as np
import pytest

from graphkd.datagen import (ManifestRecord, SynthConfig, generate_synthetic,
                             ingest_manifest, parse_manifest_line, topic_signature)
from graphkd.embeddings import (EmbeddingStore, TripletStore, read_store,
                                read_triplets_tsv, token_rows, toy_embed)
from graphkd.errors import ConfigError, DataError
from graphkd.serialization import canonical_json

SMALL = dict(samples=240, dim=16, noise=0.3, mask_prob=0.4, triplets_per_class=4, seed=3)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    paths = generate_synthetic(SynthConfig(**SMALL), out)
    return paths


class TestGeneration:
    def test_bitwise_deterministic(self, tmp_path):
        config = SynthConfig(**SMALL)
        a = generate_synthetic(config, tmp_path / "a")
        b = generate_synthetic(config, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes(), key

    def test_seed_changes_output(self, tmp_path):
        a = generate_synthetic(SynthConfig(**SMALL), tmp_path / "a")
        b = generate_synthetic(SynthConfig(**{**SMALL, "seed": 4}), tmp_path / "b")
        assert a["manifest"].read_bytes() != b["manifest"].read_bytes()

    def test_ingest_round_trips(self, small_dataset):
        store = read_store(small_dataset["visual_embeddings"])
        dataset = ingest_manifest(small_dataset["manifest"], embedding_store=store)
        assert len(dataset.records) == SMALL["samples"]
        assert dataset.label_vocab == ["c0", "c1", "c2", "c3"]
        assert sorted({r.group for r in dataset.records}) == ["g0", "g1", "g2"]

    def test_split_counts(self, small_dataset):
        dataset = ingest_manifest(small_dataset["manifest"],
                                  read_store(small_dataset["visual_embeddings"]))
        assert Counter(r.split for r in dataset.records) == {"train": 168, "val": 24,
                                                             "test": 48}

    def test_triplet_store_alignment(self, small_dataset):
        triplets = read_triplets_tsv(small_dataset["triplets"])
        store = read_store(small_dataset["triplet_embeddings"])
        TripletStore(triplets, store)  # alignment would raise

    def test_class_counts_near_uniform_at_defaults(self, tmp_path):
        paths = generate_synthetic(SynthConfig(noise=0.3, mask_prob=0.4,
                                               triplets_per_class=16), tmp_path / "full")
        dataset = ingest_manifest(paths["manifest"], read_store(paths["visual_embeddings"]))
        gt_lines = paths["ground_truth"].read_text().splitlines()[1:]
        clean = {json.loads(l)["sample_id"]: json.loads(l)["label"] for l in gt_lines}
        counts = {}
        for rec in dataset.records:
            counts.setdefault((rec.split, clean[rec.sample_id]), 0)
            counts[(rec.split, clean[rec.sample_id])] += 1
        fractions = {"train": 0.7, "val": 0.1, "test": 0.2}
        for (split, _), n in counts.items():
            expected = 2000 * fractions[split] / 4
            assert abs(n - expected) <= 0.1 * expected + 1

    def test_masked_questions_carry_no_signature_tokens(self, small_dataset):
        gt_lines = small_dataset["ground_truth"].read_text().splitlines()[1:]
        masked = {json.loads(l)["sample_id"]: json.loads(l)["masked"]
                  for l in gt_lines}
        dataset = ingest_manifest(small_dataset["manifest"],
                                  read_store(small_dataset["visual_embeddings"]))
        saw_masked = saw_clean = False
        for rec in dataset.records:
            has_signature = any(tok.startswith("sig") for tok in rec.question.split())
            if masked[rec.sample_id]:
                assert not has_signature
                saw_masked = True
            else:
                assert has_signature
                saw_clean = True
        assert saw_masked and saw_clean

    def test_label_noise_applied_to_train_only(self, small_dataset):
        gt_lines = small_dataset["ground_truth"].read_text().splitlines()[1:]
        clean = {json.loads(l)["sample_id"]: json.loads(l)["label"] for l in gt_lines}
        dataset = ingest_manifest(small_dataset["manifest"],
                                  read_store(small_dataset["visual_embeddings"]))
        flips = {"train": 0, "val": 0, "test": 0}
        totals = {"train": 0, "val": 0, "test": 0}
        for rec in dataset.records:
            totals[rec.split] += 1
            if rec.label != clean[rec.sample_id]:
                flips[rec.split] += 1
        assert flips["val"] == 0 and flips["test"] == 0
        rate = flips["train"] / totals["train"]
        assert 0.1 <= rate <= 0.4

    def test_ground_truth_header(self, small_dataset):
        header = json.loads(small_dataset["ground_truth"].read_text().splitlines()[0])
        assert header["format"] == "synth-ground-truth"
        num_topics = SMALL["triplets_per_class"] * 4
        assert len(header["topic_prototypes"]) == num_topics
        assert len(header["class_directions"]) == 4
        assert sorted(set(header["topic_classes"])) == [0, 1, 2, 3]

    def test_topic_prototype_matches_embedder(self, small_dataset):
        header = json.loads(small_dataset["ground_truth"].read_text().splitlines()[0])
        for topic in (0, 5):
            text = " ".join(topic_signature(topic))
            direct = toy_embed(text, token_rows([text], SMALL["dim"], SMALL["seed"]))
            assert header["topic_prototypes"][topic] == direct.tolist()

    def test_config_echo_written(self, small_dataset):
        echo = json.loads(small_dataset["config"].read_text())
        assert echo["samples"] == SMALL["samples"]
        assert echo["seed"] == SMALL["seed"]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(classes=1).validate()
        with pytest.raises(ConfigError):
            SynthConfig(samples=2, classes=4).validate()
        with pytest.raises(ConfigError):
            SynthConfig(noise=-0.1).validate()
        with pytest.raises(ConfigError):
            SynthConfig(mask_prob=1.5).validate()
        with pytest.raises(ConfigError):
            SynthConfig(label_noise=1.0).validate()
        with pytest.raises(ConfigError):
            SynthConfig(split_fractions=(0.5, 0.1, 0.1)).validate()
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            SynthConfig(seed=-1).validate()


class TestIngestValidation:
    def _line(self, **overrides):
        doc = {"sample_id": "s0", "question": "q", "language_context": "lc",
               "label": "c0", "group": "g0", "split": "train", "visual_text": "v"}
        doc.update(overrides)
        return canonical_json(doc)

    def test_missing_field_names_line(self, tmp_path):
        lines = [self._line(sample_id=f"s{i}") for i in range(6)]
        doc = json.loads(self._line(sample_id="s6"))
        del doc["label"]
        lines.append(canonical_json(doc))
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 7.*label"):
            ingest_manifest(path)

    def test_duplicate_sample_id(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(self._line() + "\n" + self._line() + "\n")
        with pytest.raises(DataError, match="duplicate sample id 's0'"):
            ingest_manifest(path)

    def test_unknown_split_token(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(self._line(split="holdout") + "\n")
        with pytest.raises(DataError, match="split"):
            ingest_manifest(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(self._line() + "\n{broken\n")
        with pytest.raises(DataError, match="line 2"):
            ingest_manifest(path)

    @pytest.mark.parametrize("field, value", [("sample_id", "s\ud800"),
                                              ("visual_text", "pic \udfff")])
    def test_unpaired_surrogate_escape_rejected(self, field, value):
        doc = json.loads(self._line())
        doc[field] = value
        line = json.dumps(doc)
        assert "\\ud" in line
        with pytest.raises(DataError, match=f"line 4: field '{field}'.*surrogate"):
            parse_manifest_line(line, 4)

    @pytest.mark.parametrize("field", ["visual_text", "visual_ref"])
    def test_non_string_visual_field_rejected(self, field):
        doc = json.loads(self._line())
        doc.pop("visual_text", None)
        doc[field] = 123
        with pytest.raises(DataError, match=f"field '{field}' must be a string"):
            parse_manifest_line(canonical_json(doc), 1)

    def test_both_visual_fields_rejected(self):
        doc = json.loads(self._line())
        doc["visual_ref"] = "v0"
        with pytest.raises(DataError):
            parse_manifest_line(canonical_json(doc), 1)

    def test_neither_visual_field_rejected(self):
        doc = json.loads(self._line())
        del doc["visual_text"]
        with pytest.raises(DataError):
            parse_manifest_line(canonical_json(doc), 1)

    def test_empty_question_rejected(self):
        with pytest.raises(DataError, match="question"):
            parse_manifest_line(self._line(question=""), 1)

    def test_unresolved_visual_ref(self, tmp_path):
        doc = json.loads(self._line())
        del doc["visual_text"]
        doc["visual_ref"] = "v9"
        path = tmp_path / "m.jsonl"
        path.write_text(canonical_json(doc) + "\n")
        with pytest.raises(DataError, match="missing embedding id 'v9'"):
            ingest_manifest(path, embedding_store=EmbeddingStore([], [], 4))
        with pytest.raises(DataError, match="no\\s+embedding store"):
            ingest_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            ingest_manifest(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n" + self._line() + "\n\n")
        dataset = ingest_manifest(path)
        assert len(dataset.records) == 1

    def test_record_serialization_round_trip(self):
        rec = ManifestRecord(sample_id="s1", question="q?", language_context="lc",
                             label="c1", group="g2", split="val", visual_ref="v1")
        parsed = parse_manifest_line(rec.to_json_line(), 1)
        assert parsed == rec


class TestMaskingDirection:
    def test_masking_degrades_raw_feature_students(self, tmp_path):
        # Recalibrated replacement for the original mask-free example: with
        # everything else fixed, a raw-feature baseline trained on unmasked
        # data must clearly beat one trained on heavily masked data.
        from graphkd.distill import DistillConfig, student_logits, train_student
        from graphkd.graphs import build_dataset_graphs
        from graphkd.evaluate import micro_f1

        scores = {}
        for rho in (0.0, 0.8):
            paths = generate_synthetic(
                SynthConfig(samples=400, dim=32, noise=0.3, triplets_per_class=4,
                            mask_prob=rho, seed=5), tmp_path / f"rho{rho}")
            store = read_store(paths["visual_embeddings"])
            tstore = TripletStore(read_triplets_tsv(paths["triplets"]),
                                  read_store(paths["triplet_embeddings"]))
            dataset = ingest_manifest(paths["manifest"], embedding_store=store)
            graphs = build_dataset_graphs(dataset, tstore, seed=5)
            train = [g for g in graphs if g.split == "train"]
            test = [g for g in graphs if g.split == "test"]
            params, _, _ = train_student(
                train, [], DistillConfig(student="mlp", dim=32, num_classes=4,
                                         kd_weight=0.0, epochs=8, seed=0), [])
            preds = student_logits(params, test).argmax(axis=1)
            scores[rho] = micro_f1(preds, [g.label for g in test])
        assert scores[0.0] >= scores[0.8] + 0.05
