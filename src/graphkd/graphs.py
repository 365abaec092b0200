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

In memory, the subgraphs of one build or one read share one read-only
float64 node table. A ``Subgraph`` holds it, its node ids, ``rows`` (each
node's row of the table) and its adjacency, but no per-node objects and no
kinds: the record rule fixes the kinds by position. ``Subgraph.nodes`` is
a (kind, id, embedding) view built on access, kept for
``perfbench/checks.py``. A build's table is every sample's four content
rows, then the triplet store's t0, t1, ... rows; a read's table is laid
out as the companion (below). No row is copied per sample.

A dataset is built in three passes (see ``build_dataset_graphs``): embed
every sample's content nodes, release the token-row table, retrieve, then
add edges.

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
error. Either reader's table is the companion's ``rows``, then its
``triplets``; the JSON reader lays its records out as the writer does, so
both give bitwise-equal subgraphs.

Record rule: a graphs file holds one or more records. In each, the sample
id, group and node ids are strings that UTF-8 can encode; the split is one
of ``SPLITS``; the label is an int, not a bool, below the length of the
header's label vocabulary; the nodes are the four ``CONTENT_KINDS`` in
order, then only commonsense nodes, with one id and one table row each;
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
from collections import _count_elements, namedtuple
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


NodeView = namedtuple("NodeView", ["kind", "id", "embedding"])


@dataclass
class Subgraph:
    """One sample's graph: node i has id ``ids[i]`` and embedding
    ``table[rows[i]]`` of a table the samples of a build or read share."""

    sample_id: str
    split: str
    group: str
    label: int
    table: np.ndarray
    rows: np.ndarray
    ids: list[str]
    adjacency: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @property
    def kinds(self) -> tuple[str, ...]:
        """The four ``CONTENT_KINDS`` in order, then ``commonsense``."""
        return (CONTENT_KINDS + (COMMONSENSE_KIND,) * (self.size - 4))[:self.size]

    @property
    def nodes(self) -> list[NodeView]:
        """(kind, id, embedding) of each node, built on each access."""
        return list(map(NodeView, self.kinds, self.ids, self.features()))

    def features(self) -> np.ndarray:
        """All node embeddings stacked N x dim, in node order."""
        return self.table[self.rows]

    def content_features(self) -> np.ndarray:
        """The four content-node embeddings (the raw-feature student input)."""
        return self.table[self.rows[:4]]


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
                        rows: TokenRows | None = None) -> np.ndarray:
    """Embed one sample's four content nodes, one row each in the fixed kind
    order, with token rows from ``rows`` when given (see ``toy_embed``)."""
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
    return np.stack([question, language, visual, vl])


def attach_commonsense(content: np.ndarray, store: TripletStore,
                       k: int = 3) -> tuple[list[str], list[RetrievalHit]]:
    """Retrieve top-k triplets for each of the four content rows; returns
    the merged, index-ordered triplet ids plus the full retrieval log."""
    log: list[RetrievalHit] = []
    retrieved: set[str] = set()
    for kind, row in zip(CONTENT_KINDS, content):
        for tid, sim in top_k_triplets(row, store, k):
            log.append(RetrievalHit(kind, tid, sim))
            retrieved.add(tid)
    return sorted(retrieved, key=_triplet_index), log


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


def build_edges(content: np.ndarray, ids: list[str], log: list[RetrievalHit],
                stats: CooccurrenceStats, mode: str = "hybrid",
                tau: float = 0.0) -> np.ndarray:
    """Weighted symmetric hollow adjacency over one sample's nodes: the four
    content rows ``content`` (nodes 0-3), then the commonsense nodes
    ``ids``.

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

    n = 4 + len(ids)
    index = {tid: 4 + j for j, tid in enumerate(ids)}
    adjacency = np.zeros((n, n))

    sims = pairwise_cosine(content)
    for (a, b), sim in zip(combinations(range(4), 2), sims):
        if sim > tau and sim > 0.0:
            adjacency[a, b] = adjacency[b, a] = sim

    for hit in log:
        if hit.triplet_id not in index:
            continue
        a = CONTENT_KINDS.index(hit.content_kind)
        b = index[hit.triplet_id]
        adjacency[a, b] = adjacency[b, a] = min(max(hit.similarity, 0.0), 1.0)

    if mode == "hybrid":
        # Triplets never retrieved on the training split have no statistics
        # and therefore no PMI edges.
        adjacency[4:, 4:] = stats.npmi_table().block(ids)
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
    base = 4 * len(dataset.records)
    table = np.empty((base + len(triplet_store), dim))

    # A record with a visual_ref has no visual_text, so this is every text
    # build_content_nodes embeds.
    rows = token_rows([text for r in dataset.records
                       for text in (r.question, r.language_context, r.visual_text or "")],
                      dim, seed)
    for i, record in enumerate(dataset.records):
        table[4 * i:4 * i + 4] = build_content_nodes(record, dim, seed,
                                                     dataset.visual_store, rows)
    del rows

    built: list[tuple[list[str], list[RetrievalHit]]] = []
    stats = CooccurrenceStats()
    for i, record in enumerate(dataset.records):
        built.append(attach_commonsense(table[4 * i:4 * i + 4], triplet_store, k))
        if record.split == "train":
            stats.observe({hit.triplet_id for hit in built[-1][1]})
    table[base:] = triplet_store.scoring_matrix()[0]
    table.flags.writeable = False

    return [Subgraph(record.sample_id, record.split, record.group, label_index[record.label],
                     table, np.array([*range(4 * i, 4 * i + 4),
                                      *(base + _triplet_index(tid) for tid in ids)]),
                     [*CONTENT_KINDS, *ids],
                     build_edges(table[4 * i:4 * i + 4], ids, log, stats, mode=mode, tau=tau))
            for i, (record, (ids, log)) in enumerate(zip(dataset.records, built))]


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
    rule or does not fit the layout (see ``_companion_parts``) is a
    ``DataError`` before anything is written."""
    header = {
        "format": GRAPHS_FORMAT,
        "version": GRAPHS_VERSION,
        "label_vocab": list(label_vocab),
        "config": config,
    }
    _check_header(header, path, DataError)
    _checked_subgraphs(((sg.sample_id, sg.split, sg.group, sg.label, sg.kinds, sg.ids,
                         sg.table, sg.rows, sg.adjacency) for sg in subgraphs),
                       header["label_vocab"], f"graphs for {path}", DataError)
    samples, triplet_rows, triplets, contents, adjacency = _companion_parts(subgraphs)
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
        for sg, doc, content in zip(subgraphs, samples, contents):
            nodes = ",".join([*map(_node_json, CONTENT_KINDS, sg.ids[:4], content),
                              *(fragments[ref] for ref in doc["triplet_rows"])])
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
                     [("triplets", triplets), ("rows", contents), ("adjacency", adjacency)])
    os.replace(partial, companion_path(path))


def _companion_parts(subgraphs: list[Subgraph]):
    """The companion's sample metadata, each ``triplets`` row's (id, bytes)
    key, and its tensors as piece lists. A subgraph off this layout (tables
    2-D of one width, rows inside them, n x n adjacency) is a ``DataError``."""
    samples: list[dict] = []
    triplet_rows: dict[tuple[str, bytes], int] = {}
    triplets, rows, adjacency = [], [], []
    dim = np.shape(subgraphs[0].table)[-1]
    for sg in subgraphs:
        table, index = np.asarray(sg.table, dtype=np.float64), np.asarray(sg.rows)
        if (table.ndim != 2 or table.shape[1] != dim or np.shape(sg.adjacency) != (sg.size,) * 2
                or not ((index >= 0) & (index < len(table))).all()):
            raise DataError(f"sample '{sg.sample_id}' does not fit the layout: rows "
                            f"{index.tolist()} of a {table.shape} node table ({dim} columns "
                            f"expected), a {np.shape(sg.adjacency)} adjacency")
        refs = []
        for node_id, row in zip(sg.ids[4:], sg.rows[4:]):
            key = (node_id, table[row].tobytes())
            if key not in triplet_rows:
                triplet_rows[key] = len(triplets)
                triplets.append(table[row:row + 1])
            refs.append(triplet_rows[key])
        rows.append(table[sg.rows[:4]])
        adjacency.append(np.asarray(sg.adjacency, dtype=np.float64).reshape(-1, 1))
        samples.append({"sample_id": sg.sample_id, "split": sg.split, "group": sg.group,
                        "label": sg.label, "kinds": list(sg.kinds), "ids": list(sg.ids),
                        "triplet_rows": refs})
    return samples, triplet_rows, triplets, rows, adjacency


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
    kinds and ids, the node table and each node's row of it, adjacency in
    any shape) under the record rule; a record that breaks it raises
    ``error`` naming ``source``."""
    subgraphs: list[Subgraph] = []
    texts: list = []
    for number, (sample_id, split, group, label, kinds, ids, table, rows,
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
        if len(ids) != n or np.shape(rows) != (n,):
            raise error(f"{where}: {n} kinds, {len(ids)} ids and {np.size(rows)} rows")
        if np.size(adjacency) != n * n:
            raise error(f"{where}: {np.size(adjacency)} adjacency entries for {n} nodes")
        texts += (sample_id, group, *ids)
        subgraphs.append(Subgraph(sample_id, split, group, label, table, rows, ids,
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
            for i, node_id in enumerate(sg.ids):
                check_text(node_id, f"{where}: node {i} id", error)
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

    try:
        rows = tensors["rows"]
        table = np.concatenate((rows, tensors["triplets"].reshape(-1, rows.shape[1])))
        subgraphs = _checked_subgraphs(
            _table_records(meta["samples"], table, len(rows), tensors["adjacency"].reshape(-1)),
            header["label_vocab"], f"graphs companion {companion}", FormatError)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise broken(f"malformed metadata: {exc}") from exc
    return subgraphs, header


def _table_records(samples: list[dict], table: np.ndarray, content_rows: int,
                   adjacency: np.ndarray):
    """Records of the companion's ``samples`` over one table, made read-only:
    ``content_rows`` content rows, then the rows ``triplet_rows`` index, and
    each flattened matrix of ``adjacency`` in turn; a misfit is a ValueError."""
    table.flags.writeable = False
    next_row = next_adj = 0
    for doc in samples:
        kinds, refs = doc["kinds"], doc["triplet_rows"]
        if kinds.count(COMMONSENSE_KIND) != len(refs):
            raise ValueError(f"{len(refs)} triplet rows for {kinds!r}")
        for ref in refs:
            if type(ref) is not int or not 0 <= ref < len(table) - content_rows:
                raise ValueError(f"bad triplet row {ref!r}")
        n, content = len(kinds), len(kinds) - len(refs)
        # Content rows come first and commonsense rows after; the record
        # rule rejects any other order of kinds.
        yield (doc["sample_id"], doc["split"], doc["group"], doc["label"], kinds, doc["ids"],
               table, np.array([*range(next_row, next_row + content),
                                *(content_rows + ref for ref in refs)], dtype=np.intp),
               adjacency[next_adj:next_adj + n * n])
        next_row += content
        next_adj += n * n
    if next_row != content_rows or next_adj != adjacency.size:
        raise ValueError("tensor sizes do not match the samples")


def read_graphs(path) -> tuple[list[Subgraph], dict]:
    """Subgraphs and header of a graphs file, from its companion when that
    matches the file's bytes, else by parsing the JSON lines."""
    companion = companion_path(path)
    cached = _read_companion(path, companion) if companion.is_file() else None
    return cached or _parse_graphs(path)


def _parse_graphs(path) -> tuple[list[Subgraph], dict]:
    """Parse the JSON lines one at a time, each embedding 1-D of the first's
    width and every value finite, then lay them out as the companion."""
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
                features = np.array([node["embedding"] for node in nodes], dtype=np.float64)
                adjacency = np.asarray(doc["adjacency"], dtype=np.float64)
                record = (doc["sample_id"], doc["split"], doc["group"], doc["label"],
                          [node["kind"] for node in nodes], [node["id"] for node in nodes],
                          features, np.arange(len(nodes)), adjacency)
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"line {lineno}: malformed graph record: {exc}") from exc
            if nodes:
                dim = features.shape[-1] if dim is None else dim
                if features.shape != (len(nodes), dim):
                    raise FormatError(f"line {lineno}: node embeddings of shape "
                                      f"{features.shape}, expected ({len(nodes)}, {dim})")
            if not (np.isfinite(features).all() and np.isfinite(adjacency).all()):
                raise FormatError(f"line {lineno}: non-finite embedding or adjacency value")
            yield record

    source = f"graphs file {path}"
    samples, _, triplets, rows, adjacency = _companion_parts(
        _checked_subgraphs(records(), header["label_vocab"], source, FormatError))
    return _checked_subgraphs(
        _table_records(samples, np.concatenate(rows + triplets), 4 * len(samples),
                       np.concatenate(adjacency).reshape(-1)),
        header["label_vocab"], source, FormatError), header
