"""Synthetic multimodal dataset generation and manifest ingestion.

The planted task is a knowledge lookup. Samples are drawn from a pool of
fine-grained *topics* (several per class); content channels identify the
topic, while the topic-to-class mapping lives in the triplet store:

* question / language-context *texts* are built from topic signature
  tokens, a few signature tokens of one confuser topic, and per-sample
  noise tokens, so the stand-in embedder reproduces
  ``normalize(topic prototype + confusion + orthogonal noise)`` at
  graph-build time;
* the *visual* embedding per sample has the same vector structure and is
  written to an embedding store, referenced from the manifest by id;
* each topic owns one knowledge triplet whose surface text names the
  class and whose embedding mixes the topic prototype (what retrieval
  matches) with a class direction orthogonal to every content feature
  (what the graph learner reads); random "filler" triplets pad the store
  and absorb retrievals from channels that carry no signal.

The ``noise`` knob sets the in-span confusion (how strongly a wrong topic
bleeds into each channel). With probability ``mask_prob`` a sample's
question and language-context texts are replaced by pure noise tokens;
the visual channel is never masked, so retrieval still recovers the topic
for masked samples. A graph model therefore reads the class off retrieved
triplets with one linear projection, while a raw-feature model has to
memorize the entire topic dictionary from the training split -- that
learnability gap is what the distillation experiment measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import (EmbeddingStore, TokenRows, Triplet, token_rows, toy_embed, write_store,
                         write_triplets_tsv)
from .errors import ConfigError, DataError, check_finite
from .serialization import canonical_json, check_text, utf8_lines

SPLITS = ("train", "val", "test")
NUM_GROUPS = 3
SIGNATURE_TOKENS = 8
NOISE_TOKENS = 16
TRIPLET_JITTER = 0.1
CLASS_MIX = 1.0
TRIPLETS_PER_TOPIC = 6
FILLER_TRIPLETS = 192


@dataclass
class SynthConfig:
    samples: int = 2000
    classes: int = 4
    dim: int = 64
    noise: float = 0.6
    mask_prob: float = 0.5
    label_noise: float = 0.25
    triplets_per_class: int = 8
    split_fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 7

    def validate(self) -> None:
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if self.samples < self.classes:
            raise ConfigError(f"need at least {self.classes} samples, got {self.samples}")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        check_finite(self, "noise")
        if self.noise < 0:
            raise ConfigError(f"noise scale must be >= 0, got {self.noise}")
        # generate_synthetic draws each confuser count from [0, this] as an int64.
        if round(2 * self.noise * SIGNATURE_TOKENS) >= np.iinfo(np.int64).max:
            raise ConfigError(f"noise scale {self.noise} is too large: its confuser count "
                              f"overflows int64")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ConfigError(f"mask probability must be in [0, 1], got {self.mask_prob}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError(f"label noise must be in [0, 1), got {self.label_noise}")
        if self.triplets_per_class < 1:
            raise ConfigError("need at least one triplet per class")
        if len(self.split_fractions) != 3 or not abs(sum(self.split_fractions) - 1.0) <= 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {self.split_fractions}")

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "classes": self.classes,
            "dim": self.dim,
            "noise": self.noise,
            "mask_prob": self.mask_prob,
            "label_noise": self.label_noise,
            "triplets_per_class": self.triplets_per_class,
            "split_fractions": list(self.split_fractions),
            "seed": self.seed,
        }


@dataclass
class ManifestRecord:
    """One dataset sample. Exactly one of visual_text / visual_ref is set:
    either literal text for the embedder or an id into an embedding store."""

    sample_id: str
    question: str
    language_context: str
    label: str
    group: str
    split: str
    visual_text: str | None = None
    visual_ref: str | None = None

    def to_json_line(self) -> str:
        doc = {
            "sample_id": self.sample_id,
            "question": self.question,
            "language_context": self.language_context,
            "label": self.label,
            "group": self.group,
            "split": self.split,
        }
        if self.visual_ref is not None:
            doc["visual_ref"] = self.visual_ref
        else:
            doc["visual_text"] = self.visual_text if self.visual_text is not None else ""
        return canonical_json(doc)


@dataclass
class Dataset:
    records: list[ManifestRecord]
    label_vocab: list[str]
    groups: list[str]
    split_counts: dict[str, int]
    visual_store: EmbeddingStore | None = None


def _normalize(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def topic_signature(topic: int) -> list[str]:
    return [f"sig{topic}w{j}" for j in range(SIGNATURE_TOKENS)]


def topic_prototype(topic: int, dim: int, seed: int,
                    rows: TokenRows | None = None) -> np.ndarray:
    """Unit vector the embedder produces for the pure topic signature text,
    with token rows from ``rows`` when given (see ``toy_embed``)."""
    return toy_embed(" ".join(topic_signature(topic)), dim, seed, rows)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _split_of(index: int, samples: int, fractions: tuple[float, float, float]) -> str:
    train_end = round(samples * fractions[0])
    val_end = train_end + round(samples * fractions[1])
    if index < train_end:
        return "train"
    if index < val_end:
        return "val"
    return "test"


def generate_synthetic(config: SynthConfig, out_dir) -> dict[str, Path]:
    """Write the synthetic dataset into ``out_dir``; a pure function of the
    config (identical config gives byte-identical files). Returns the paths
    of everything written."""
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(config.seed))

    num_topics = config.classes * config.triplets_per_class
    rows = token_rows([" ".join(topic_signature(t)) for t in range(num_topics)],
                      config.dim, config.seed)
    prototypes = [topic_prototype(t, config.dim, config.seed, rows) for t in range(num_topics)]
    class_of = [t % config.classes for t in range(num_topics)]
    class_dirs = [_unit(rng, config.dim) for _ in range(config.classes)]

    # Each topic owns six triplets: a confident retrieval (k=3) fills a
    # content node's hits with one topic's knowledge, and two channels that
    # agree on the topic usually pick different subsets, so agreement
    # survives the per-subgraph dedup as extra distinct nodes.
    triplets: list[Triplet] = []
    triplet_embeddings = EmbeddingStore(config.dim)
    for t in range(num_topics):
        for j in range(TRIPLETS_PER_TOPIC):
            triplets.append(Triplet(f"topic{t}", "indicates", f"c{class_of[t]} fact{j}"))
            vec = _normalize(prototypes[t] + CLASS_MIX * class_dirs[class_of[t]]
                             + TRIPLET_JITTER * _unit(rng, config.dim))
            triplet_embeddings.add(f"t{len(triplets) - 1}", vec)
    base = len(triplets)
    for j in range(FILLER_TRIPLETS):
        triplets.append(Triplet(f"filler{j}", "mentions", f"misc{j}"))
        triplet_embeddings.add(f"t{base + j}", _unit(rng, config.dim))

    # Text channels mirror the vector geometry in token space: 8 signature
    # rows (own topic) + up to 16*noise confuser rows (another topic) + 16
    # per-sample noise rows, so orth/signal mass matches the visual
    # channel's sqrt(2).
    max_confusers = round(2 * config.noise * SIGNATURE_TOKENS)
    orth_scale = np.sqrt(NOISE_TOKENS / SIGNATURE_TOKENS)

    def text_tokens(prefix: str, i: int, topic: int, confuser: int,
                    n_confuser: int, masked: bool) -> str:
        if masked:
            return " ".join(f"{prefix}{i}x{j}" for j in range(NOISE_TOKENS))
        tokens = topic_signature(topic)
        tokens += topic_signature(confuser)[:n_confuser]
        tokens += [f"{prefix}{i}x{j}" for j in range(NOISE_TOKENS)]
        return " ".join(tokens)

    # Labels are stratified per split (balanced deck, seeded shuffle) so
    # every split keeps near-exact class proportions; each sample's label is
    # still marginally uniform and its topic uniform within the class.
    labels_by_index = np.empty(config.samples, dtype=np.int64)
    boundaries = sorted({0, round(config.samples * config.split_fractions[0]),
                         round(config.samples * config.split_fractions[0])
                         + round(config.samples * config.split_fractions[1]),
                         config.samples})
    for start, end in zip(boundaries, boundaries[1:]):
        deck = np.arange(end - start) % config.classes
        rng.shuffle(deck)
        labels_by_index[start:end] = deck

    visual_store = EmbeddingStore(config.dim)
    records: list[ManifestRecord] = []
    ground_truth: list[dict] = []
    for i in range(config.samples):
        label = int(labels_by_index[i])
        topic = label + config.classes * int(rng.integers(config.triplets_per_class))
        masked = bool(rng.random() < config.mask_prob)
        confuser = int((topic + 1 + rng.integers(num_topics - 1)) % num_topics)
        n_confuser = int(rng.integers(max_confusers + 1)) if max_confusers else 0

        question = text_tokens("qn", i, topic, confuser, n_confuser, masked)
        language = text_tokens("ln", i, topic, confuser, n_confuser, masked)

        confusion = rng.uniform(0.0, 2.0 * config.noise)
        visual = _normalize(prototypes[topic]
                            + confusion * prototypes[confuser]
                            + orth_scale * _unit(rng, config.dim))
        visual_store.add(f"v{i}", visual)

        # Training labels are flipped with probability label_noise (val and
        # test stay clean); the sidecar records the clean label.
        split = _split_of(i, config.samples, config.split_fractions)
        observed = label
        if split == "train" and config.label_noise > 0:
            if rng.random() < config.label_noise:
                observed = int((label + 1 + rng.integers(config.classes - 1))
                               % config.classes)

        records.append(ManifestRecord(
            sample_id=f"s{i}",
            question=question,
            language_context=language,
            label=f"c{observed}",
            group=f"g{i % NUM_GROUPS}",
            split=split,
            visual_ref=f"v{i}",
        ))
        ground_truth.append({"sample_id": f"s{i}", "label": f"c{label}",
                             "observed_label": f"c{observed}", "topic": topic,
                             "masked": masked, "confuser": confuser})

    paths = {
        "manifest": out / "manifest.jsonl",
        "visual_embeddings": out / "visual.gemb",
        "triplets": out / "triplets.tsv",
        "triplet_embeddings": out / "triplets.gemb",
        "ground_truth": out / "ground_truth.jsonl",
        "config": out / "config.json",
    }
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json_line() + "\n")
    write_store(paths["visual_embeddings"], visual_store)
    write_triplets_tsv(paths["triplets"], triplets)
    write_store(paths["triplet_embeddings"], triplet_embeddings)
    with open(paths["ground_truth"], "w", encoding="utf-8") as fh:
        header = {"format": "synth-ground-truth", "version": 1,
                  "topic_prototypes": [p.tolist() for p in prototypes],
                  "topic_classes": class_of,
                  "class_directions": [d.tolist() for d in class_dirs]}
        fh.write(canonical_json(header) + "\n")
        for entry in ground_truth:
            fh.write(canonical_json(entry) + "\n")
    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write(canonical_json(config.to_dict()) + "\n")
    return paths


# ---------------------------------------------------------------------------
# Manifest ingestion
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("sample_id", "question", "language_context", "label", "group", "split")


def parse_manifest_line(line: str, lineno: int) -> ManifestRecord:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {lineno}: invalid record: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"line {lineno}: record must be an object")
    for fieldname in _REQUIRED_FIELDS:
        if fieldname not in doc:
            raise DataError(f"line {lineno}: missing field '{fieldname}'")
        check_text(doc[fieldname], f"line {lineno}: field '{fieldname}'", DataError)
    has_text = "visual_text" in doc
    has_ref = "visual_ref" in doc
    if has_text == has_ref:
        raise DataError(
            f"line {lineno}: exactly one of visual_text / visual_ref is required")
    visual = "visual_text" if has_text else "visual_ref"
    check_text(doc[visual], f"line {lineno}: field '{visual}'", DataError)
    if doc["split"] not in SPLITS:
        raise DataError(f"line {lineno}: unknown split token '{doc['split']}'")
    if not doc["question"]:
        raise DataError(f"line {lineno}: question text is empty")
    if not doc["label"]:
        raise DataError(f"line {lineno}: label is empty")
    return ManifestRecord(
        sample_id=doc["sample_id"],
        question=doc["question"],
        language_context=doc["language_context"],
        label=doc["label"],
        group=doc["group"],
        split=doc["split"],
        visual_text=doc.get("visual_text"),
        visual_ref=doc.get("visual_ref"),
    )


def ingest_manifest(manifest_path, embedding_store=None) -> Dataset:
    """Parse and validate a manifest file. ``embedding_store`` (an
    :class:`EmbeddingStore` or ``None``) is required to resolve visual
    embedding references."""
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(utf8_lines(manifest_path), start=1):
        line = line.strip()
        if not line:
            continue
        rec = parse_manifest_line(line, lineno)
        if rec.sample_id in seen:
            raise DataError(f"line {lineno}: duplicate sample id '{rec.sample_id}'")
        seen.add(rec.sample_id)
        if rec.visual_ref is not None:
            if embedding_store is None:
                raise DataError(
                    f"line {lineno}: visual_ref '{rec.visual_ref}' given but no "
                    "embedding store was supplied")
            if rec.visual_ref not in embedding_store:
                raise DataError(
                    f"line {lineno}: missing embedding id '{rec.visual_ref}'")
        records.append(rec)
    if not records:
        raise DataError(f"manifest {manifest_path} contains no records")

    split_counts = {s: 0 for s in SPLITS}
    for rec in records:
        split_counts[rec.split] += 1
    return Dataset(
        records=records,
        label_vocab=sorted({r.label for r in records}),
        groups=sorted({r.group for r in records}),
        split_counts=split_counts,
        visual_store=embedding_store,
    )
