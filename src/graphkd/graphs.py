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

Record rule: a graphs file holds one or more records. In each, the sample
id, group and node ids are strings that UTF-8 can encode; the split is one
of ``SPLITS``; the label is an int, not a bool, below the length of the
header's label vocabulary; the nodes are the four ``CONTENT_KINDS`` in
order, then only commonsense nodes, with one id and one embedding each;
and the adjacency has n x n entries. ``_checked_subgraphs`` applies it, in
``write_graphs`` before anything is written and in both readers after
decoding. A decoder checks only what its encoding can get wrong: JSON
syntax and ragged or non-finite values; the container, its staleness and
its ``triplet_rows``.
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
from .serialization import (canonical_json, check_text, read_checkpoint, utf8_lines,
                            write_checkpoint)

CONTENT_KINDS = ("question", "language_context", "visual_context", "vl")
COMMONSENSE_KIND = "commonsense"
EDGE_MODES = ("cosine", "hybrid")
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
    Commonsense-commonsense edges: normalized PMI, in mode hybrid, read
    from ``stats.npmi_table()``.
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

    if mode == "hybrid":
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


def _node_json(kind: str, node_id: str, embedding: np.ndarray) -> str:
    """``canonical_json`` of one node object, keys in its sorted order."""
    return (f'{{"embedding":{canonical_json(embedding.tolist())},'
            f'"id":{canonical_json(node_id)},"kind":{canonical_json(kind)}}}')


def write_graphs(path, subgraphs: list[Subgraph], label_vocab: list[str],
                 config: dict) -> None:
    """One header line (format, vocabulary, config echo), then one record
    per sample with nodes (kind, id, embedding) and the row-major adjacency,
    each line ``canonical_json`` of its object. Then the binary companion
    (see the module docstring). A header or record that breaks the record
    rule, node embeddings not all 1-D of one width, or an adjacency that is
    not n x n, is a ``DataError`` before anything is written."""
    header = {
        "format": GRAPHS_FORMAT,
        "version": GRAPHS_VERSION,
        "label_vocab": list(label_vocab),
        "config": config,
    }
    _check_header(header, path, DataError)
    _checked_subgraphs(((sg.sample_id, sg.split, sg.group, sg.label,
                         [node.kind for node in sg.nodes], [node.id for node in sg.nodes],
                         [node.embedding for node in sg.nodes], sg.adjacency)
                        for sg in subgraphs), header["label_vocab"], f"graphs for {path}",
                       DataError)
    # The companion's metadata and tensor pieces. Pieces are views of the
    # subgraphs' own arrays, so nothing large is copied or concatenated.
    samples: list[dict] = []
    triplet_rows: dict[tuple[str, bytes], int] = {}
    triplets, rows, adjacency = [], [], []
    dim = None
    for sg in subgraphs:
        refs = []
        for node in sg.nodes:
            emb = np.asarray(node.embedding, dtype=np.float64)
            dim = emb.size if dim is None else dim
            if emb.shape != (dim,):
                raise DataError(f"sample '{sg.sample_id}' node '{node.id}' has an embedding "
                                f"of shape {emb.shape}, expected ({dim},)")
            if node.kind == COMMONSENSE_KIND:
                key = (node.id, emb.tobytes())
                if key not in triplet_rows:
                    triplet_rows[key] = len(triplets)
                    triplets.append(emb.reshape(1, -1))
                refs.append(triplet_rows[key])
            else:
                rows.append(emb.reshape(1, -1))
        n = len(sg.nodes)
        if np.shape(sg.adjacency) != (n, n):
            raise DataError(f"sample '{sg.sample_id}' has an adjacency of shape "
                            f"{np.shape(sg.adjacency)} for {n} nodes")
        adjacency.append(np.asarray(sg.adjacency, dtype=np.float64).reshape(-1, 1))
        samples.append({"sample_id": sg.sample_id, "split": sg.split, "group": sg.group,
                        "label": sg.label, "kinds": [node.kind for node in sg.nodes],
                        "ids": [node.id for node in sg.nodes], "triplet_rows": refs})
    # A commonsense node's JSON is formatted once per row of the triplet
    # table, that is once per distinct id and embedding.
    fragments = [_node_json(COMMONSENSE_KIND, tid, row[0])
                 for (tid, _), row in zip(triplet_rows, triplets)]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def emit(text: str) -> None:
            line = (text + "\n").encode("utf-8")
            digest.update(line)
            fh.write(line)

        emit(canonical_json(header))
        for sg, doc in zip(subgraphs, samples):
            refs = iter(doc["triplet_rows"])
            nodes = ",".join(
                fragments[next(refs)] if node.kind == COMMONSENSE_KIND
                else _node_json(node.kind, node.id, np.asarray(node.embedding, dtype=np.float64))
                for node in sg.nodes)
            flat = np.asarray(sg.adjacency, dtype=np.float64).reshape(-1).tolist()
            emit(f'{{"adjacency":{canonical_json(flat)},'
                 f'"group":{canonical_json(sg.group)},"label":{canonical_json(sg.label)},'
                 f'"nodes":[{nodes}],"sample_id":{canonical_json(sg.sample_id)},'
                 f'"split":{canonical_json(sg.split)}}}')
    # A temporary name keeps a half-written companion from ever sitting
    # beside the graphs file.
    partial = Path(str(companion_path(path)) + ".partial")
    write_checkpoint(partial, {"format": COMPANION_FORMAT, "version": COMPANION_VERSION,
                               "graphs_sha256": digest.hexdigest(), "header": header,
                               "samples": samples},
                     [("triplets", triplets), ("rows", rows), ("adjacency", adjacency)])
    os.replace(partial, companion_path(path))


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def _check_header(header, path, error: type[Exception] = FormatError) -> None:
    """The header's format and version, and a label vocabulary of one or
    more strings that UTF-8 can encode."""
    if not isinstance(header, dict) or header.get("format") != GRAPHS_FORMAT:
        raise error(f"{path} is not a graphs file")
    if header.get("version") != GRAPHS_VERSION:
        raise error(f"unsupported graphs version {header.get('version')}")
    vocab = header.get("label_vocab")
    if not isinstance(vocab, list) or not vocab:
        raise error(f"graphs file {path}: label_vocab must be a non-empty list of strings, "
                    f"got {vocab!r}")
    for label in vocab:
        check_text(label, f"graphs file {path}: label_vocab entry", error)


def _checked_subgraphs(records, label_vocab: list[str], source: str,
                       error: type[Exception]) -> list[Subgraph]:
    """The subgraphs of ``records`` (sample id, split, group, label, node
    kinds, ids and embeddings, adjacency in any shape) under the record
    rule; a record that breaks it raises ``error`` naming ``source``."""
    subgraphs: list[Subgraph] = []
    texts: list = []
    for number, (sample_id, split, group, label, kinds, ids, embeddings,
                 adjacency) in enumerate(records, start=1):
        where = f"{source}, record {number}"
        if split not in SPLITS:
            raise error(f"{where}: unknown split {split!r}, expected one of {', '.join(SPLITS)}")
        # bool is an int subclass; JSON true is not a label.
        if type(label) is not int or not 0 <= label < len(label_vocab):
            raise error(f"{where}: label {label!r} is not an index into the "
                        f"{len(label_vocab)}-entry label vocabulary")
        n = len(kinds)
        if tuple(kinds) != CONTENT_KINDS + (COMMONSENSE_KIND,) * (n - 4):
            raise error(f"{where}: node kinds must be {', '.join(CONTENT_KINDS)}, then only "
                        f"{COMMONSENSE_KIND}; got {list(kinds)!r}")
        if len(ids) != n or len(embeddings) != n:
            raise error(f"{where}: {n} kinds, {len(ids)} ids and {len(embeddings)} embeddings")
        if np.size(adjacency) != n * n:
            raise error(f"{where}: {np.size(adjacency)} adjacency entries for {n} nodes")
        texts += (sample_id, group, *ids)
        subgraphs.append(Subgraph(sample_id, split, group, label,
                                  [Node(*node) for node in zip(kinds, ids, embeddings)],
                                  np.reshape(adjacency, (n, n))))
    if not subgraphs:
        raise error(f"{source} contains no records")
    try:
        # One screen for the whole file; the loop below only names the culprit.
        "".join(texts).encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        for number, sg in enumerate(subgraphs, start=1):
            where = f"{source}, record {number}"
            check_text(sg.sample_id, f"{where}: sample_id", error)
            check_text(sg.group, f"{where}: group", error)
            for i, node in enumerate(sg.nodes):
                check_text(node.id, f"{where}: node {i} id", error)
    return subgraphs


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

    def records():
        triplets, rows = tensors["triplets"], tensors["rows"]
        adjacency = tensors["adjacency"].reshape(-1)
        triplets.flags.writeable = False
        next_row = next_adj = 0
        for doc in meta["samples"]:
            kinds, refs = doc["kinds"], doc["triplet_rows"]
            if kinds.count(COMMONSENSE_KIND) != len(refs):
                raise ValueError(f"{len(refs)} triplet rows for {kinds!r}")
            for ref in refs:
                if type(ref) is not int or not 0 <= ref < len(triplets):
                    raise ValueError(f"bad triplet row {ref!r}")
            n, content = len(kinds), len(kinds) - len(refs)
            # Content rows come first and commonsense rows after; the record
            # rule rejects any other order of kinds.
            yield (doc["sample_id"], doc["split"], doc["group"], doc["label"], kinds,
                   doc["ids"], [*rows[next_row:next_row + content],
                                *(triplets[ref] for ref in refs)],
                   adjacency[next_adj:next_adj + n * n])
            next_row += content
            next_adj += n * n
        if next_row != len(rows) or next_adj != adjacency.size:
            raise ValueError("tensor sizes do not match the samples")

    try:
        subgraphs = _checked_subgraphs(records(), header["label_vocab"],
                                       f"graphs companion {companion}", FormatError)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise broken(f"malformed metadata: {exc}") from exc
    return subgraphs, header


def read_graphs(path) -> tuple[list[Subgraph], dict]:
    """Subgraphs and header of a graphs file, from its companion when that
    matches the file's bytes, else by parsing the JSON lines."""
    companion = companion_path(path)
    cached = _read_companion(path, companion) if companion.is_file() else None
    return cached or _parse_graphs(path)


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

    def records():
        dim = None
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {lineno}: invalid graph record: {exc}") from exc
            try:
                nodes = doc["nodes"]
                ids = [node["id"] for node in nodes]
                embeddings = [np.asarray(node["embedding"], dtype=np.float64) for node in nodes]
                adjacency = np.asarray(doc["adjacency"], dtype=np.float64)
                record = (doc["sample_id"], doc["split"], doc["group"], doc["label"],
                          [node["kind"] for node in nodes], ids, embeddings, adjacency)
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"line {lineno}: malformed graph record: {exc}") from exc
            for node_id, embedding in zip(ids, embeddings):
                if dim is None:
                    dim = embedding.size
                if embedding.shape != (dim,):
                    raise FormatError(f"line {lineno}: node {node_id!r} has an embedding of "
                                      f"shape {embedding.shape}, expected ({dim},)")
                if not np.isfinite(embedding).all():
                    raise FormatError(f"line {lineno}: node {node_id!r} has a non-finite "
                                      f"embedding value")
            if not np.isfinite(adjacency).all():
                raise FormatError(f"line {lineno}: non-finite adjacency weight")
            yield record

    return _checked_subgraphs(records(), header["label_vocab"], f"graphs file {path}",
                              FormatError), header
