"""Per-sample heterogeneous subgraph construction.

Each sample becomes a small graph: four content nodes in a fixed kind
order (question, language context, visual context, combined V-L), then the
commonsense triplets retrieved for them, ordered by ascending triplet
index. Edges carry cosine similarity between content nodes, the retrieval
similarity between a content node and its triplets, and normalized PMI of
co-retrieval between triplet pairs (statistics from the training split
only). Each content node's norm is computed once per sample. The NPMI of
every pair co-retrieved on the training split is computed once, into an
``NpmiTable`` indexed by triplet, and each sample's commonsense block is
read from it.

A dataset is built in three passes (see ``build_dataset_graphs``): embed
every sample's content nodes, release the token-row table, retrieve, then
add edges. A commonsense node's embedding is a shared, read-only row of the
triplet store's matrix, not a copy per sample.

Graphs file: JSON lines, one header line (format, label vocabulary, config
echo) and then one record per sample (nodes with kind, id and embedding,
and the row-major adjacency). It is the interchange format and the one a
person can read and edit. Each line is ``canonical_json`` of its object.
The writer assembles a record from JSON fragments in that sorted-key
order. It formats each distinct commonsense node once: the fragment is
keyed, like the companion's ``triplet_rows``, by id and embedding bytes.
Embeddings and adjacency are written as float64 values, as the companion
holds them.

Companion: ``write_graphs`` also writes ``<graphs>.gkdc`` beside it, a
processed copy in the ``GKDC`` container of ``serialization``. Its metadata
holds the sha256 of the graphs file's bytes, the header, and per sample
the id, split, group, label, node kinds, node ids and ``triplet_rows``:
for each commonsense node in order, its row of the ``triplets`` tensor.
Its f64 tensors are ``triplets`` (each distinct commonsense node once),
``rows`` (every other node's embedding, in sample and node order) and
``adjacency`` (every sample's n x n matrix flattened row-major into one
column, in sample order). It holds no path and no time, so the same
graphs give the same companion bytes.

``read_graphs`` uses the companion only when the sha256 in it matches the
graphs file as it is on disk; otherwise, or when there is no companion, it
parses the JSON. A companion that exists but cannot be read is a format
error. Subgraphs read from a companion equal the parsed ones bitwise;
their commonsense embeddings are shared, read-only rows of one table.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import _count_elements
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .datagen import SPLITS, Dataset, ManifestRecord
from .embeddings import (EmbeddingStore, TokenRows, TripletStore, pairwise_cosine,
                         token_rows, top_k_triplets, toy_embed)
from .errors import ConfigError, DataError, FormatError, NumericError
from .serialization import canonical_json, read_checkpoint, utf8_lines, write_checkpoint

CONTENT_KINDS = ("question", "language_context", "visual_context", "vl")
COMMONSENSE_KIND = "commonsense"
EDGE_MODES = ("cosine", "pmi", "hybrid")
GRAPHS_FORMAT = "graphkd-graphs"
GRAPHS_VERSION = 1
COMPANION_SUFFIX = ".gkdc"
COMPANION_FORMAT = "graphkd-graphs-companion"
COMPANION_VERSION = 1
HASH_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class Node:
    kind: str
    id: str
    embedding: np.ndarray


@dataclass
class Subgraph:
    sample_id: str
    split: str
    group: str
    label: int
    nodes: list[Node]
    adjacency: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)

    def features(self) -> np.ndarray:
        """All node embeddings stacked N x dim, in node order."""
        return np.vstack([n.embedding for n in self.nodes])

    def content_features(self) -> np.ndarray:
        """The four content-node embeddings (the raw-feature student input)."""
        return np.vstack([n.embedding for n in self.nodes[:4]])


@dataclass(frozen=True)
class RetrievalHit:
    content_kind: str
    triplet_id: str
    similarity: float


@dataclass(frozen=True)
class NpmiTable:
    """Normalized PMI of every triplet pair co-retrieved on the training
    split, computed once: ``weights[slots[a], slots[b]]``, 0.0 where the
    pair has no edge. Triplets without statistics share the last row and
    column, which are all zeros. The table is (U + 1) x (U + 1) for the U
    triplets retrieved on the training split."""

    slots: dict[str, int]
    weights: np.ndarray

    def block(self, ids: list[str]) -> np.ndarray:
        """The len(ids) x len(ids) matrix of weights between ``ids``."""
        spare = len(self.slots)
        rows = [self.slots.get(tid, spare) for tid in ids]
        return self.weights[np.ix_(rows, rows)]


@dataclass
class CooccurrenceStats:
    """Sample-level retrieval counts over the training split: in how many
    samples was each triplet (and each unordered triplet pair) retrieved.
    A pair is keyed by its two ids in ascending triplet index. The NPMI
    table is computed on first use and kept until the next ``observe``, so
    edit the counts by hand only before that first use."""

    num_samples: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    pair_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    _npmi: NpmiTable | None = field(default=None, init=False, repr=False, compare=False)

    def observe(self, retrieved_ids: set[str]) -> None:
        self._npmi = None
        self.num_samples += 1
        # The tally loop behind Counter.update, in C: one pass per sample, no
        # Python-level get and set per pair.
        _count_elements(self.counts, retrieved_ids)
        _count_elements(self.pair_counts,
                        combinations(sorted(retrieved_ids, key=_triplet_index), 2))

    def npmi_table(self) -> NpmiTable:
        """``pmi_weight`` of every counted pair whose triplets both have
        counts, each computed once."""
        if self._npmi is None:
            slots = {tid: i for i, tid in enumerate(self.counts)}
            weights = np.zeros((len(slots) + 1, len(slots) + 1))
            for (a, b), c12 in self.pair_counts.items():
                if a in slots and b in slots:
                    weight = _npmi(c12, self.counts[a], self.counts[b], self.num_samples)
                    if weight is not None:
                        weights[slots[a], slots[b]] = weights[slots[b], slots[a]] = weight
            self._npmi = NpmiTable(slots, weights)
        return self._npmi


def _triplet_index(triplet_id: str) -> int:
    return int(triplet_id[1:])


def build_content_nodes(record: ManifestRecord, dim: int, seed: int,
                        embedding_store: EmbeddingStore | None = None,
                        rows: TokenRows | None = None) -> list[Node]:
    """Embed one sample's four content nodes in the fixed kind order, with
    token rows from ``rows`` when given (see ``toy_embed``)."""
    question = toy_embed(record.question, dim, seed, rows)
    language = toy_embed(record.language_context, dim, seed, rows)
    if record.visual_ref is not None:
        if embedding_store is None:
            raise DataError(
                f"sample '{record.sample_id}' references embedding id "
                f"'{record.visual_ref}' but no store was supplied")
        if record.visual_ref not in embedding_store:
            raise DataError(f"missing embedding id '{record.visual_ref}'")
        visual = embedding_store.vector(record.visual_ref)
        if visual.size != dim:
            raise ConfigError(
                f"embedding store dim {visual.size} does not match graph dim {dim}")
    else:
        visual = toy_embed(record.visual_text or "", dim, seed, rows)

    mean = 0.5 * (visual + language)
    norm = np.linalg.norm(mean)
    if norm > 1e-12:
        vl = mean / norm
    else:
        vl = np.zeros(dim)
        vl[0] = 1.0
    return [
        Node("question", "question", question),
        Node("language_context", "language_context", language),
        Node("visual_context", "visual_context", visual),
        Node("vl", "vl", vl),
    ]


def attach_commonsense(content_nodes: list[Node], store: TripletStore,
                       k: int = 3) -> tuple[list[Node], list[RetrievalHit]]:
    """Retrieve top-k triplets for each content node; returns the merged,
    index-ordered commonsense nodes plus the full retrieval log. A
    commonsense node's embedding is its triplet's read-only row of the
    store's matrix, looked up by id and shared by every sample that
    retrieves it."""
    log: list[RetrievalHit] = []
    retrieved: set[str] = set()
    for node in content_nodes:
        for tid, sim in top_k_triplets(node.embedding, store, k):
            log.append(RetrievalHit(node.kind, tid, sim))
            retrieved.add(tid)
    nodes = [
        Node(COMMONSENSE_KIND, tid, store.embeddings.row(tid))
        for tid in sorted(retrieved, key=_triplet_index)
    ]
    return nodes, log


def pmi_weight(stats: CooccurrenceStats, id1: str, id2: str) -> float | None:
    """Normalized pointwise mutual information of co-retrieval, in (0, 1];
    ``None`` when the pair never co-occurs or is at/below independence."""
    for tid in (id1, id2):
        if tid not in stats.counts:
            raise DataError(f"no retrieval statistics for triplet '{tid}'")
    key = tuple(sorted((id1, id2), key=_triplet_index))
    return _npmi(stats.pair_counts.get(key, 0), stats.counts[id1], stats.counts[id2],
                 stats.num_samples)


def _npmi(c12: int, c1: int, c2: int, num_samples: int) -> float | None:
    if c12 == 0:
        return None
    pmi = math.log(c12 * num_samples / (c1 * c2))
    if pmi <= 0.0:
        return None
    # min() absorbs the last-ulp rounding when the pair always co-occurs.
    return min(pmi / -math.log(c12 / num_samples), 1.0)


def build_edges(nodes: list[Node], log: list[RetrievalHit], stats: CooccurrenceStats,
                mode: str = "hybrid", tau: float = 0.0) -> np.ndarray:
    """Weighted symmetric hollow adjacency over one sample's nodes.

    Content-content edges: cosine similarity when above ``tau`` (negative
    similarities never become edges, keeping weights in [0, 1]).
    Content-commonsense edges: the retrieval similarity, clamped to [0, 1].
    Commonsense-commonsense edges: normalized PMI, in modes pmi / hybrid,
    read from ``stats.npmi_table()``.
    """
    if mode not in EDGE_MODES:
        raise ConfigError(f"unknown edge mode '{mode}'")
    if not -1.0 <= tau < 1.0:
        raise ConfigError(f"tau must lie in [-1, 1), got {tau}")

    n = len(nodes)
    index = {node.id: i for i, node in enumerate(nodes)}
    adjacency = np.zeros((n, n))

    content = [i for i, node in enumerate(nodes) if node.kind in CONTENT_KINDS]
    kind_to_index = {nodes[i].kind: i for i in content}
    sims = pairwise_cosine([nodes[i].embedding for i in content])
    for (a, b), sim in zip(combinations(content, 2), sims):
        if sim > tau and sim > 0.0:
            adjacency[a, b] = adjacency[b, a] = sim

    for hit in log:
        if hit.triplet_id not in index:
            continue
        a = kind_to_index[hit.content_kind]
        b = index[hit.triplet_id]
        adjacency[a, b] = adjacency[b, a] = min(max(hit.similarity, 0.0), 1.0)

    if mode in ("pmi", "hybrid"):
        # Triplets never retrieved on the training split have no statistics
        # and therefore no PMI edges.
        commonsense = [i for i, node in enumerate(nodes) if node.kind == COMMONSENSE_KIND]
        adjacency[np.ix_(commonsense, commonsense)] = stats.npmi_table().block(
            [nodes[i].id for i in commonsense])
    return adjacency


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Self-loop degree normalization: with A~ = A + I and D~ the diagonal
    of A~'s row sums, returns D~^(-1/2) A~ D~^(-1/2)."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericError(f"adjacency must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise NumericError("adjacency must be symmetric")
    if (a < 0).any():
        raise NumericError("adjacency weights must be non-negative")
    if np.diagonal(a).any():
        raise NumericError("adjacency must have a zero diagonal")
    with_loops = a + np.eye(a.shape[0])
    inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return with_loops * inv_sqrt_degree[:, None] * inv_sqrt_degree[None, :]


# ---------------------------------------------------------------------------
# Dataset-level construction
# ---------------------------------------------------------------------------

def build_dataset_graphs(dataset: Dataset, triplet_store: TripletStore, seed: int,
                         k: int = 3, mode: str = "hybrid",
                         tau: float = 0.0) -> list[Subgraph]:
    """Three passes over a validated dataset: embed, retrieve, then edges.
    Node embeddings use the triplet store's dimension.

    1. Every record's content nodes are embedded from one ``token_rows``
       table, so each distinct token of the dataset's texts gets its row
       once. The table is then released: it is the build's largest object
       (one float64 row per distinct token), and nothing after this pass
       embeds, so retrieval and edges never hold it.
    2. Retrieval, in record order, accumulating the training split's
       co-occurrence statistics. A sample's retrieval depends only on its
       own content nodes, so it does not matter that all samples were
       embedded first.
    3. Edges, which need the complete statistics."""
    dim = triplet_store.dim
    label_index = {label: i for i, label in enumerate(dataset.label_vocab)}

    # A record with a visual_ref has no visual_text, so this is every text
    # build_content_nodes embeds.
    rows = token_rows([text for r in dataset.records
                       for text in (r.question, r.language_context, r.visual_text or "")],
                      dim, seed)
    contents = [build_content_nodes(record, dim, seed, dataset.visual_store, rows)
                for record in dataset.records]
    del rows

    built: list[tuple[list[Node], list[RetrievalHit]]] = []
    stats = CooccurrenceStats()
    for record, content in zip(dataset.records, contents):
        commonsense, log = attach_commonsense(content, triplet_store, k)
        built.append((content + commonsense, log))
        if record.split == "train":
            stats.observe({hit.triplet_id for hit in log})

    subgraphs: list[Subgraph] = []
    for record, (nodes, log) in zip(dataset.records, built):
        adjacency = build_edges(nodes, log, stats, mode=mode, tau=tau)
        subgraphs.append(Subgraph(
            sample_id=record.sample_id,
            split=record.split,
            group=record.group,
            label=label_index[record.label],
            nodes=nodes,
            adjacency=adjacency,
        ))
    return subgraphs


# ---------------------------------------------------------------------------
# Graph file (line-delimited JSON) and its binary companion
# ---------------------------------------------------------------------------

def companion_path(path) -> Path:
    """Where the binary companion of the graphs file at ``path`` lives."""
    return Path(str(path) + COMPANION_SUFFIX)


class _CompanionWriter:
    """Collects the companion's metadata and tensor pieces before the JSON
    lines are written. Pieces are views of the subgraphs' own arrays, so
    nothing large is copied or concatenated."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.samples: list[dict] = []
        self.triplet_rows: dict[tuple[str, bytes], int] = {}
        self.triplets: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []
        self.adjacency: list[np.ndarray] = []
        self.dim: int | None = None

    def add(self, sg: Subgraph) -> None:
        """Take one subgraph; every node embedding must be 1-D of the first
        one's width, and the adjacency n x n."""
        kinds, ids, triplet_rows = [], [], []
        for node in sg.nodes:
            emb = np.asarray(node.embedding, dtype=np.float64)
            if self.dim is None:
                self.dim = emb.size
            if emb.shape != (self.dim,):
                raise DataError(f"sample '{sg.sample_id}' node '{node.id}' has an embedding "
                                f"of shape {emb.shape}, expected ({self.dim},)")
            kinds.append(node.kind)
            ids.append(node.id)
            if node.kind == COMMONSENSE_KIND:
                key = (node.id, emb.tobytes())
                if key not in self.triplet_rows:
                    self.triplet_rows[key] = len(self.triplets)
                    self.triplets.append(emb.reshape(1, -1))
                triplet_rows.append(self.triplet_rows[key])
            else:
                self.rows.append(emb.reshape(1, -1))
        n = len(sg.nodes)
        if np.shape(sg.adjacency) != (n, n):
            raise DataError(f"sample '{sg.sample_id}' has an adjacency of shape "
                            f"{np.shape(sg.adjacency)} for {n} nodes")
        self.adjacency.append(np.asarray(sg.adjacency, dtype=np.float64).reshape(-1, 1))
        self.samples.append({"sample_id": sg.sample_id, "split": sg.split,
                             "group": sg.group, "label": sg.label, "kinds": kinds,
                             "ids": ids, "triplet_rows": triplet_rows})

    def write(self, path, header: dict) -> None:
        """Write the companion. A temporary name keeps a half-written
        companion from ever sitting beside the graphs file."""
        target = companion_path(path)
        metadata = {"format": COMPANION_FORMAT, "version": COMPANION_VERSION,
                    "graphs_sha256": self.digest.hexdigest(), "header": header,
                    "samples": self.samples}
        partial = Path(str(target) + ".partial")
        write_checkpoint(partial, metadata, [("triplets", self.triplets), ("rows", self.rows),
                                             ("adjacency", self.adjacency)])
        os.replace(partial, target)


def _node_json(kind: str, node_id: str, embedding: np.ndarray) -> str:
    """``canonical_json`` of one node object, keys in its sorted order."""
    return (f'{{"embedding":{canonical_json(embedding.tolist())},'
            f'"id":{canonical_json(node_id)},"kind":{canonical_json(kind)}}}')


def write_graphs(path, subgraphs: list[Subgraph], label_vocab: list[str],
                 config: dict) -> None:
    """One header line (format, vocabulary, config echo), then one record
    per sample with nodes (kind, id, embedding) and the row-major adjacency,
    each line ``canonical_json`` of its object. Then the binary companion
    (see the module docstring). Subgraphs whose embeddings are not all 1-D
    of one width, or whose adjacency is not n x n, are a ``DataError``
    before anything is written."""
    header = {
        "format": GRAPHS_FORMAT,
        "version": GRAPHS_VERSION,
        "label_vocab": list(label_vocab),
        "config": config,
    }
    companion = _CompanionWriter()
    for sg in subgraphs:
        companion.add(sg)
    # A commonsense node's JSON is formatted once per row of the triplet
    # table, that is once per distinct id and embedding.
    fragments = [_node_json(COMMONSENSE_KIND, tid, row[0])
                 for (tid, _), row in zip(companion.triplet_rows, companion.triplets)]
    with open(path, "wb") as fh:
        def emit(text: str) -> None:
            line = (text + "\n").encode("utf-8")
            companion.digest.update(line)
            fh.write(line)

        emit(canonical_json(header))
        for sg, doc in zip(subgraphs, companion.samples):
            refs = iter(doc["triplet_rows"])
            nodes = ",".join(
                fragments[next(refs)] if node.kind == COMMONSENSE_KIND
                else _node_json(node.kind, node.id, np.asarray(node.embedding, dtype=np.float64))
                for node in sg.nodes)
            adjacency = np.asarray(sg.adjacency, dtype=np.float64).reshape(-1).tolist()
            emit(f'{{"adjacency":{canonical_json(adjacency)},'
                 f'"group":{canonical_json(sg.group)},"label":{canonical_json(sg.label)},'
                 f'"nodes":[{nodes}],"sample_id":{canonical_json(sg.sample_id)},'
                 f'"split":{canonical_json(sg.split)}}}')
    companion.write(path, header)


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def _check_header(header, path) -> None:
    """The header's format and version, and a label vocabulary of one or
    more strings that UTF-8 can encode: JSON's \\u escapes can spell an
    unpaired surrogate, which no checkpoint or report could then hold."""
    if not isinstance(header, dict) or header.get("format") != GRAPHS_FORMAT:
        raise FormatError(f"{path} is not a graphs file")
    if header.get("version") != GRAPHS_VERSION:
        raise FormatError(f"unsupported graphs version {header.get('version')}")
    vocab = header.get("label_vocab")
    if not isinstance(vocab, list) or not vocab or not all(isinstance(v, str) for v in vocab):
        raise FormatError(f"graphs file {path}: label_vocab must be a non-empty list "
                          f"of strings, got {vocab!r}")
    for label in vocab:
        try:
            label.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(f"graphs file {path}: label_vocab entry {label!r} holds an "
                              f"unpaired surrogate escape") from exc


def _read_companion(path, companion: Path) -> tuple[list[Subgraph], dict] | None:
    """Subgraphs and header from the companion, or None when it was written
    for other bytes than the graphs file now holds."""
    def broken(reason: str) -> FormatError:
        return FormatError(f"graphs companion {companion} is unreadable ({reason}); "
                           f"delete it to read {path} alone")

    try:
        meta, tensors = read_checkpoint(companion)
    except FormatError as exc:
        raise broken(str(exc)) from exc
    if meta.get("format") != COMPANION_FORMAT or meta.get("version") != COMPANION_VERSION:
        raise broken(f"format {meta.get('format')!r} version {meta.get('version')!r}")
    if meta.get("graphs_sha256") != _file_sha256(path):
        return None
    header = meta.get("header")
    _check_header(header, path)
    try:
        triplets, rows = tensors["triplets"], tensors["rows"]
        adjacency = tensors["adjacency"].reshape(-1)
        triplets.flags.writeable = False
        subgraphs: list[Subgraph] = []
        next_row = next_adj = 0
        for doc in meta["samples"]:
            kinds, ids, triplet_rows = doc["kinds"], doc["ids"], doc["triplet_rows"]
            if len(kinds) != len(ids) or kinds.count(COMMONSENSE_KIND) != len(triplet_rows):
                raise ValueError(f"node lists of sample {doc['sample_id']!r} disagree")
            nodes = []
            refs = iter(triplet_rows)
            for kind, node_id in zip(kinds, ids):
                if kind == COMMONSENSE_KIND:
                    ref = next(refs)
                    if type(ref) is not int or not 0 <= ref < len(triplets):
                        raise ValueError(f"bad triplet row {ref!r}")
                    embedding = triplets[ref]
                else:
                    embedding = rows[next_row]
                    next_row += 1
                nodes.append(Node(kind, node_id, embedding))
            n = len(nodes)
            subgraphs.append(Subgraph(
                sample_id=doc["sample_id"],
                split=doc["split"],
                group=doc["group"],
                label=int(doc["label"]),
                nodes=nodes,
                adjacency=adjacency[next_adj:next_adj + n * n].reshape(n, n),
            ))
            next_adj += n * n
        if next_row != len(rows) or next_adj != adjacency.size:
            raise ValueError("tensor sizes do not match the samples")
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise broken(f"malformed metadata: {exc}") from exc
    if not subgraphs:
        raise FormatError(f"graphs file {path} contains no records")
    return subgraphs, header


def _check_strings(subgraphs: list[Subgraph], path) -> None:
    """Every record string (sample id, split, group, node kinds and ids) is a
    str that UTF-8 can encode. JSON's \\u escapes can spell an unpaired
    surrogate, which a report or checkpoint could then not hold."""
    parts: list = []
    for sg in subgraphs:
        parts += (sg.sample_id, sg.split, sg.group)
        parts += [node.kind for node in sg.nodes]
        parts += [node.id for node in sg.nodes]
    try:
        "".join(parts).encode("utf-8")
        return
    except (TypeError, UnicodeEncodeError):
        pass
    for number, sg in enumerate(subgraphs, start=1):
        fields = [("sample_id", sg.sample_id), ("split", sg.split), ("group", sg.group)]
        fields += [(f"node {i} {what}", value) for i, node in enumerate(sg.nodes)
                   for what, value in (("kind", node.kind), ("id", node.id))]
        for what, value in fields:
            where = f"graphs file {path}, record {number}: {what}"
            if not isinstance(value, str):
                raise FormatError(f"{where} must be a string, got {type(value).__name__}")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise FormatError(f"{where} {value!r} holds an unpaired surrogate "
                                  f"escape") from exc


def read_graphs(path) -> tuple[list[Subgraph], dict]:
    """Subgraphs and header of a graphs file, from its companion when that
    matches the file's bytes, else by parsing the JSON lines. Every record
    is in the train, val or test split."""
    companion = companion_path(path)
    cached = _read_companion(path, companion) if companion.is_file() else None
    subgraphs, header = cached or _parse_graphs(path)
    _check_strings(subgraphs, path)
    for number, sg in enumerate(subgraphs, start=1):
        if sg.split not in SPLITS:
            raise FormatError(f"graphs file {path}, record {number}: unknown split "
                              f"{sg.split!r}, expected one of {', '.join(SPLITS)}")
    return subgraphs, header


def _parse_graphs(path) -> tuple[list[Subgraph], dict]:
    """Parse the JSON lines one at a time. Every node embedding must be 1-D
    of the first one's width, and every value finite."""
    lines = utf8_lines(path)
    first = next(lines, "")
    if not first:
        raise FormatError(f"graphs file {path} is empty")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line 1: invalid graphs header: {exc}") from exc
    _check_header(header, path)

    subgraphs: list[Subgraph] = []
    dim = None
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"line {lineno}: invalid graph record: {exc}") from exc
        try:
            nodes = [
                Node(n["kind"], n["id"], np.asarray(n["embedding"], dtype=np.float64))
                for n in doc["nodes"]
            ]
            n = len(nodes)
            adjacency = np.asarray(doc["adjacency"], dtype=np.float64).reshape(n, n)
            subgraphs.append(Subgraph(
                sample_id=doc["sample_id"],
                split=doc["split"],
                group=doc["group"],
                label=int(doc["label"]),
                nodes=nodes,
                adjacency=adjacency,
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"line {lineno}: malformed graph record: {exc}") from exc
        if not nodes:
            raise FormatError(f"line {lineno}: graph record has no nodes")
        if dim is None:
            dim = nodes[0].embedding.size
        for node in nodes:
            if node.embedding.shape != (dim,):
                raise FormatError(f"line {lineno}: node '{node.id}' has an embedding of "
                                  f"shape {node.embedding.shape}, expected ({dim},)")
            if not np.isfinite(node.embedding).all():
                raise FormatError(f"line {lineno}: node '{node.id}' has a non-finite "
                                  f"embedding value")
        if not np.isfinite(adjacency).all():
            raise FormatError(f"line {lineno}: non-finite adjacency weight")
    if not subgraphs:
        raise FormatError(f"graphs file {path} contains no records")
    return subgraphs, header
