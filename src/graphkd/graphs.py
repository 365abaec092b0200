"""Per-sample heterogeneous subgraph construction.

Each sample becomes a small graph: four content nodes in a fixed kind
order (question, language context, visual context, combined V-L), then the
commonsense triplets retrieved for them, ordered by ascending triplet
index. Every graph has all three kinds of edge: positive cosine similarity
between content nodes, the retrieval similarity between a content node and
its triplets, and normalized PMI of co-retrieval between triplet pairs
(training-split statistics only). Each content node's norm is computed once.

A build works in triplet row indices throughout: ``retrieve`` gives each
content row's top-k rows of the triplet store, ``build_edges`` the sample's
distinct rows and every edge but the commonsense block, and
``npmi_table``, made once from the training samples' rows, that block.
The only id strings are the store's own t0, t1, ..., reused in each
``Subgraph.ids``.

In memory, the subgraphs of one build or one read share one read-only
float64 node table. A ``Subgraph`` holds it, its node ids, ``rows`` (each
node's row of the table) and its adjacency, but no per-node objects and no
kinds: the record rule fixes the kinds by position. ``Subgraph.nodes`` is
a (kind, id, embedding) view built on access, kept for
``perfbench/checks.py``. A build's table is every sample's four content
rows, then the triplet store's t0, t1, ... rows; a read's table is laid
out as the companion (below). No row is copied per sample.

A dataset is built in three passes (see ``build_dataset_graphs``): embed
every sample's content nodes, a chunk of records per token-row table; then
retrieve and add each sample's edges; then the commonsense blocks.

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
error. Either reader's table is the companion's ``triplets``, then its
``rows``: the companion reader's is a view of the one array it reads both
tensors into, and the JSON reader lays its records out as the writer does,
so both give bitwise-equal subgraphs. The staleness check hashes every
byte of the graphs file, since a size, time or sampled check would let a
stale companion through.

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
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations, repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import SPLITS
from .embeddings import (EmbeddingStore, TokenRows, TripletStore, pairwise_cosine,
                         token_rows, top_k_triplets, toy_embed)
from .errors import ConfigError, DataError, FormatError, NumericError
from .serialization import (canonical_json, check_text, read_checkpoint_data, utf8_lines,
                            write_checkpoint)

if TYPE_CHECKING:  # annotations only: reading graphs needs no dataset code
    from .datagen import Dataset, ManifestRecord

CONTENT_KINDS = ("question", "language_context", "visual_context", "vl")
COMMONSENSE_KIND = "commonsense"
GRAPHS_FORMAT = "graphkd-graphs"
GRAPHS_VERSION = 1
COMPANION_SUFFIX = ".gkdc"
COMPANION_FORMAT = "graphkd-graphs-companion"
COMPANION_VERSION = 1
HASH_CHUNK_BYTES = 1 << 20
# Records embedded from one token-row table: a build holds the rows of one
# such chunk's tokens at a time.
TOKEN_CHUNK_RECORDS = 128


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
        return self.table.take(self.rows, axis=0)

    def content_features(self) -> np.ndarray:
        """The four content-node embeddings (the raw-feature student input)."""
        return self.table.take(self.rows[:4], axis=0)


@dataclass(frozen=True)
class NpmiTable:
    """Normalized PMI of every triplet pair co-retrieved on the training
    split, computed once: ``weights[slots[a], slots[b]]`` for triplet rows a
    and b, 0.0 where the pair has no edge. Triplets never retrieved on the
    training split share the last row and column, which are all zeros. The
    table is (U + 1) x (U + 1) for the U triplets retrieved there."""

    slots: np.ndarray
    weights: np.ndarray

    def block(self, rows: np.ndarray) -> np.ndarray:
        """The len(rows) x len(rows) matrix of weights between ``rows``."""
        picked = self.slots[rows]
        return self.weights[np.ix_(picked, picked)]


def npmi_table(train_rows: list[np.ndarray], num_triplets: int) -> NpmiTable:
    """Sample-level co-retrieval statistics over the training split, each
    entry of ``train_rows`` one sample's distinct triplet rows in ascending
    order: in how many samples each triplet, and each unordered pair, was
    retrieved. A pair at or below independence (``c12 * n <= c1 * c2``, in
    exact integers) gets no edge; ``_npmi`` weighs each other pair once."""
    def pair_keys(rows):
        first, second = np.triu_indices(len(rows), 1)
        return rows[first] * num_triplets + rows[second]

    empty = np.zeros(0, dtype=np.intp)
    counts = np.bincount(np.concatenate([empty, *train_rows]), minlength=num_triplets)
    keys, pair_counts = np.unique(np.concatenate([empty, *map(pair_keys, train_rows)]),
                                  return_counts=True)
    first, second = np.divmod(keys, num_triplets)
    above = pair_counts * len(train_rows) > counts[first] * counts[second]
    first, second, pair_counts = first[above], second[above], pair_counts[above]
    pair_weights = np.fromiter(
        map(_npmi, pair_counts.tolist(), counts[first].tolist(), counts[second].tolist(),
            repeat(len(train_rows))), dtype=np.float64, count=len(pair_counts))
    seen = np.flatnonzero(counts)
    slots = np.full(num_triplets, len(seen))
    slots[seen] = np.arange(len(seen))
    weights = np.zeros((len(seen) + 1, len(seen) + 1))
    weights[slots[first], slots[second]] = weights[slots[second], slots[first]] = pair_weights
    return NpmiTable(slots, weights)


def build_content_nodes(record: ManifestRecord, rows: TokenRows,
                        embedding_store: EmbeddingStore | None) -> np.ndarray:
    """Embed one sample's four content nodes, one row each in the fixed kind
    order, at the dim of the token-row table ``rows`` (see ``toy_embed``).
    A visual embedding read from the store must have that dim and a norm
    above zero, since its cosines divide by it."""
    question = toy_embed(record.question, rows)
    language = toy_embed(record.language_context, rows)
    if record.visual_ref is not None:
        if embedding_store is None:
            raise DataError(
                f"sample '{record.sample_id}' references embedding id "
                f"'{record.visual_ref}' but no store was supplied")
        visual = embedding_store.row(record.visual_ref)
        if visual.size != rows.rows.shape[1]:
            raise ConfigError(f"embedding store dim {visual.size} does not match graph dim "
                              f"{rows.rows.shape[1]}")
        if not visual.any():
            raise DataError(f"sample '{record.sample_id}' references the zero-norm "
                            f"embedding '{record.visual_ref}'")
    else:
        visual = toy_embed(record.visual_text or "", rows)

    mean = 0.5 * (visual + language)
    norm = np.linalg.norm(mean)
    if norm > 1e-12:
        vl = mean / norm
    else:
        vl = np.zeros(len(mean))
        vl[0] = 1.0
    return np.stack([question, language, visual, vl])


def retrieve(content: np.ndarray, store: TripletStore,
             k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-k triplet rows of each of the four content rows and their
    similarities, as two 4 x k arrays (k capped at the store's size)."""
    hits, sims = zip(*(top_k_triplets(row, store, k) for row in content))
    return np.stack(hits), np.stack(sims)


def _npmi(c12: int, c1: int, c2: int, num_samples: int) -> float:
    """Normalized pointwise mutual information of co-retrieval, in (0, 1],
    of a pair above independence (``c12 * num_samples > c1 * c2``)."""
    pmi = math.log(c12 * num_samples / (c1 * c2))
    # min() absorbs the last-ulp rounding when the pair always co-occurs.
    return min(pmi / -math.log(c12 / num_samples), 1.0)


def build_edges(content: np.ndarray, hits: np.ndarray,
                sims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sample's distinct retrieved triplet rows, ascending, and the
    weighted symmetric hollow adjacency over its nodes: the four content
    rows ``content`` (nodes 0-3), then one node per retrieved row.

    Content-content edges: the positive cosine similarities. Content-
    commonsense edges: the similarity ``sims[a, j]`` with which content row a
    retrieved triplet row ``hits[a, j]``, clamped to [0, 1]. The commonsense
    block is left zero for ``build_dataset_graphs`` to fill from ``npmi_table``.
    """
    # Not np.unique: it imports numpy.ma (≈0.5 MB) to test for a mask.
    rows = np.array(sorted(set(hits.ravel().tolist())), dtype=np.intp)
    adjacency = np.zeros((4 + len(rows),) * 2)
    for (a, b), sim in zip(combinations(range(4), 2), pairwise_cosine(content)):
        if sim > 0.0:
            adjacency[a, b] = adjacency[b, a] = sim
    content_nodes = np.arange(4)[:, None]
    triplet_nodes = 4 + np.searchsorted(rows, hits)
    adjacency[content_nodes, triplet_nodes] = adjacency[triplet_nodes, content_nodes] = \
        np.clip(sims, 0.0, 1.0)
    return rows, adjacency


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

def check_build_flags(k: int) -> None:
    """k >= 1 triplets retrieved per content node, checked before any input is read."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def build_dataset_graphs(dataset: Dataset, triplet_store: TripletStore, seed: int,
                         k: int = 3) -> list[Subgraph]:
    """Three passes over a validated dataset: embed, retrieve and add edges,
    then the NPMI edges. Node embeddings use the triplet store's dimension.

    1. Every record's content nodes are embedded, ``TOKEN_CHUNK_RECORDS``
       records from one ``token_rows`` table at a time, made for those
       records' texts and dropped before the next. Nothing after this pass
       embeds, so retrieval and edges hold no token rows.
    2. Retrieval, in record order, and each sample's edges as soon as it is
       retrieved, except for the commonsense block. A sample's retrieval
       depends only on its own content nodes, so it does not matter that
       all samples were embedded first.
    3. Every sample's commonsense block from the ``npmi_table`` of the
       training samples' retrieved rows."""
    check_build_flags(k)
    dim = triplet_store.dim
    label_index = {label: i for i, label in enumerate(dataset.label_vocab)}
    base = 4 * len(dataset.records)
    table = np.empty((base + len(triplet_store), dim))
    _embed_content(dataset, seed, table)

    built: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(len(dataset.records)):
        content = table[4 * i:4 * i + 4]
        built.append(build_edges(content, *retrieve(content, triplet_store, k)))
    table[base:] = triplet_store.matrix
    table.flags.writeable = False
    npmi = npmi_table([rows for record, (rows, _) in zip(dataset.records, built)
                       if record.split == "train"], len(triplet_store))
    for rows, adjacency in built:
        adjacency[4:, 4:] = npmi.block(rows)

    ids = triplet_store.ids
    return [Subgraph(record.sample_id, record.split, record.group, label_index[record.label],
                     table, np.concatenate((np.arange(4 * i, 4 * i + 4), base + rows)),
                     [*CONTENT_KINDS, *(ids[row] for row in rows.tolist())], adjacency)
            for i, (record, (rows, adjacency)) in enumerate(zip(dataset.records, built))]


def _texts(records):
    # A record with a visual_ref has no visual_text, so this is every text
    # build_content_nodes embeds.
    return (text for r in records
            for text in (r.question, r.language_context, r.visual_text or ""))


def _embed_content(dataset: Dataset, seed: int, table: np.ndarray) -> None:
    """Write record i's four content rows to rows 4i..4i+3 of ``table``, at
    the table's dim."""
    for start in range(0, len(dataset.records), TOKEN_CHUNK_RECORDS):
        records = dataset.records[start:start + TOKEN_CHUNK_RECORDS]
        rows = token_rows(_texts(records), table.shape[1], seed)
        for i, record in enumerate(records, start):
            table[4 * i:4 * i + 4] = build_content_nodes(record, rows, dataset.visual_store)
        del rows  # before the next chunk's table is made


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
    key, and its tensors as piece lists of views into the subgraphs' tables
    where their rows allow it. A subgraph off this layout (tables
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
        # A build's content rows are one block of its table: write them from
        # views of it instead of copying them.
        first = int(index[0])
        content = index[:4].tolist()
        rows.append(table[first:first + 4] if content == list(range(first, first + 4))
                    else table[content])
        adjacency.append(np.asarray(sg.adjacency, dtype=np.float64).reshape(-1, 1))
        samples.append({"sample_id": sg.sample_id, "split": sg.split, "group": sg.group,
                        "label": sg.label, "kinds": list(sg.kinds), "ids": list(sg.ids),
                        "triplet_rows": refs})
    return samples, triplet_rows, triplets, rows, adjacency


def _file_sha256(path) -> str:
    """The sha256 of the whole file, read through one reused buffer. A
    memory map hashes a little faster but counts the whole file in the
    process's resident size."""
    digest = hashlib.sha256()
    buffer = bytearray(HASH_CHUNK_BYTES)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
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
    for other bytes than the graphs file now holds. The node table is a
    view of the tensor data read from it: its ``triplets``, then its
    ``rows``."""
    def broken(reason: str) -> FormatError:
        return FormatError(f"graphs companion {companion} is unreadable ({reason}); "
                           f"delete it to read {path} alone")

    try:
        meta, data = read_checkpoint_data(companion)
    except FormatError as exc:
        raise broken(str(exc)) from exc
    if meta.get("format") != COMPANION_FORMAT or meta.get("version") != COMPANION_VERSION:
        raise broken(f"format {meta.get('format')!r} version {meta.get('version')!r}")
    if meta.get("graphs_sha256") != _file_sha256(path):
        return None
    header = meta.get("header")
    _check_header(header, path)

    names = [entry["name"] for entry in meta["tensors"]]
    if names != ["triplets", "rows", "adjacency"]:
        raise broken(f"tensors {names}, expected triplets, rows and adjacency")
    triplets, rows, _ = meta["tensors"]
    nodes = triplets["rows"] * triplets["cols"] + rows["rows"] * rows["cols"]
    try:
        subgraphs = _checked_subgraphs(
            _table_records(meta["samples"], data[:nodes].reshape(-1, rows["cols"]),
                           rows["rows"], data[nodes:]),
            header["label_vocab"], f"graphs companion {companion}", FormatError)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise broken(f"malformed metadata: {exc}") from exc
    return subgraphs, header


def _table_records(samples: list[dict], table: np.ndarray, content_rows: int,
                   adjacency: np.ndarray):
    """Records of the companion's ``samples`` over one table, made read-only:
    the rows ``triplet_rows`` index, then ``content_rows`` content rows, and
    each flattened matrix of ``adjacency`` in turn; a misfit is a ValueError."""
    table.flags.writeable = False
    triplets = len(table) - content_rows
    next_row = next_adj = 0
    for doc in samples:
        kinds, refs = doc["kinds"], doc["triplet_rows"]
        if kinds.count(COMMONSENSE_KIND) != len(refs):
            raise ValueError(f"{len(refs)} triplet rows for {kinds!r}")
        for ref in refs:
            if type(ref) is not int or not 0 <= ref < triplets:
                raise ValueError(f"bad triplet row {ref!r}")
        n, content = len(kinds), len(kinds) - len(refs)
        # Content rows come first and commonsense rows after; the record
        # rule rejects any other order of kinds.
        yield (doc["sample_id"], doc["split"], doc["group"], doc["label"], kinds, doc["ids"],
               table, np.array([*range(triplets + next_row, triplets + next_row + content),
                                *refs], dtype=np.intp),
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
        _table_records(samples, np.concatenate(triplets + rows), 4 * len(samples),
                       np.concatenate(adjacency).reshape(-1)),
        header["label_vocab"], source, FormatError), header
