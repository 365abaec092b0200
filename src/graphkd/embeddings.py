"""Id-keyed embedding tables, a deterministic stand-in text embedder, and
exact top-k triplet retrieval by cosine similarity.

The on-disk embedding format (``GEMB``) stores vectors as f32 little-endian;
in memory everything is float64. Stores quantize to f32 on insertion so that
write -> read reproduces the in-memory table bitwise.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from itertools import combinations

import numpy as np

from .errors import DataError, FormatError, ShapeError
from .serialization import _Reader, utf8_lines

EMBEDDING_MAGIC = b"GEMB"
EMBEDDING_VERSION = 1

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; drops empty pieces."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@lru_cache(maxsize=65536)
def _token_row(token: str, dim: int, seed: int) -> np.ndarray:
    digest = blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    row = rng.standard_normal(dim)
    row.flags.writeable = False
    return row


def clear_token_cache() -> None:
    """Drop the embedder's cached token rows (up to 65,536 of them, about
    40 MB at dim 64), for a process that will embed nothing more."""
    _token_row.cache_clear()


def toy_embed(text: str, dim: int, seed: int) -> np.ndarray:
    """Deterministic bag-of-tokens embedding: L2-normalized sum of per-token
    Gaussian rows. Text with no tokens maps to the first basis vector e1
    (the documented empty-text sentinel)."""
    if dim < 2:
        raise DataError(f"embedding dim must be >= 2, got {dim}")
    tokens = tokenize(text)
    if not tokens:
        vec = np.zeros(dim)
        vec[0] = 1.0
        return vec
    total = np.zeros(dim)
    for token in tokens:
        total += _token_row(token, dim, seed)
    norm = np.linalg.norm(total)
    if norm == 0.0:
        vec = np.zeros(dim)
        vec[0] = 1.0
        return vec
    return total / norm


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|), clamped to [-1, 1] to absorb rounding."""
    return pairwise_cosine([u, v])[0]


def pairwise_cosine(vectors: list[np.ndarray]) -> list[float]:
    """``cosine_sim`` of every pair (i, j), i < j, in ``combinations`` order,
    with each vector's norm computed once."""
    flat = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    for v in flat[1:]:
        if v.shape != flat[0].shape:
            raise ShapeError(f"cosine_sim dimension mismatch: {flat[0].size} vs {v.size}")
    pairs = list(combinations(range(len(flat)), 2))
    if not pairs:
        return []
    norms = [np.linalg.norm(v) for v in flat]
    if min(norms) == 0.0:
        raise DataError("cosine_sim of a zero-norm vector is undefined")
    dots = np.array([np.dot(flat[a], flat[b]) for a, b in pairs])
    scales = np.array([norms[a] * norms[b] for a, b in pairs])
    return np.clip(dots / scales, -1.0, 1.0).tolist()


class EmbeddingStore:
    """Ordered, id-keyed table of fixed-dimension vectors.

    Vectors pass through f32 on insertion (matching the disk format), then
    are widened back to float64, so a store round-trips bitwise through its
    file representation.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DataError(f"store dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._vectors: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def ids(self) -> list[str]:
        return list(self._ids)

    def add(self, key: str, vector: np.ndarray) -> None:
        if key in self._index:
            raise DataError(f"duplicate embedding id '{key}'")
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vec.size != self.dim:
            raise ShapeError(f"vector for '{key}' has dim {vec.size}, store dim is {self.dim}")
        if not np.isfinite(vec).all():
            raise DataError(f"vector for '{key}' contains non-finite entries")
        self._index[key] = len(self._ids)
        self._ids.append(key)
        self._vectors.append(vec.astype(np.float32).astype(np.float64))
        self._matrix = None

    def vector(self, key: str) -> np.ndarray:
        if key not in self._index:
            raise DataError(f"missing embedding id '{key}'")
        return self._vectors[self._index[key]].copy()

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if not self._vectors:
                self._matrix = np.zeros((0, self.dim))
            else:
                self._matrix = np.vstack(self._vectors)
        return self._matrix


def write_store(path, store: EmbeddingStore) -> None:
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<I", EMBEDDING_VERSION))
        fh.write(struct.pack("<I", store.dim))
        fh.write(struct.pack("<Q", len(store)))
        for key in store.ids():
            raw = key.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(store.vector(key).astype("<f4").tobytes())


def read_store(path) -> EmbeddingStore:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), "embedding store")
    reader.expect_magic(EMBEDDING_MAGIC)
    reader.expect_version(EMBEDDING_VERSION)
    dim = reader.u32()
    count = reader.u64()
    store = EmbeddingStore(dim)
    for _ in range(count):
        id_len = reader.u16()
        at = reader.pos
        try:
            key = reader.take(id_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid UTF-8 embedding id: {exc}", offset=at) from exc
        raw = reader.take(dim * 4)
        store.add(key, np.frombuffer(raw, dtype="<f4").astype(np.float64))
    reader.done()
    return store


# ---------------------------------------------------------------------------
# Triplet stores and retrieval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Triplet:
    head: str
    relation: str
    tail: str

    def surface(self) -> str:
        """Canonical text rendering used when embedding triplets."""
        return f"{self.head} {self.relation} {self.tail}"


def triplet_id(index: int) -> str:
    return f"t{index}"


class TripletStore:
    """Knowledge triplets plus a companion embedding table keyed t0, t1, ..."""

    def __init__(self, triplets: list[Triplet], embeddings: EmbeddingStore):
        if len(triplets) != len(embeddings):
            raise DataError(
                f"{len(triplets)} triplets but {len(embeddings)} embeddings")
        for i in range(len(triplets)):
            if triplet_id(i) not in embeddings:
                raise DataError(f"companion store lacks embedding id '{triplet_id(i)}'")
        self.triplets = list(triplets)
        self.embeddings = embeddings
        self._scoring: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_texts(cls, triplets: list[Triplet], dim: int, seed: int) -> "TripletStore":
        """Embed each triplet's surface form with the stand-in embedder."""
        store = EmbeddingStore(dim)
        for i, t in enumerate(triplets):
            store.add(triplet_id(i), toy_embed(t.surface(), dim, seed))
        return cls(triplets, store)

    def __len__(self) -> int:
        return len(self.triplets)

    @property
    def dim(self) -> int:
        return self.embeddings.dim

    def scoring_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The embedding matrix and its row norms, computed and checked for
        zero norms once per matrix rather than once per query."""
        mat = self.embeddings.matrix()
        if self._scoring is None or self._scoring[0] is not mat:
            norms = np.linalg.norm(mat, axis=1)
            if (norms == 0.0).any():
                raise DataError("triplet store contains a zero-norm embedding")
            self._scoring = (mat, norms)
        return self._scoring


def top_k_triplets(query: np.ndarray, store: TripletStore, k: int) -> list[tuple[str, float]]:
    """Exact top-k triplets by cosine similarity, descending; ties break by
    ascending triplet index. Returns the whole store when it has < k entries."""
    if len(store) == 0:
        raise DataError("cannot retrieve from an empty triplet store")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.size != store.dim:
        raise ShapeError(f"query dim {q.size} does not match store dim {store.dim}")
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise DataError("cosine_sim of a zero-norm vector is undefined")
    if not np.isfinite(qn):
        raise DataError("query embedding holds non-finite values")
    mat, norms = store.scoring_matrix()
    scores = np.clip((mat @ q) / (norms * qn), -1.0, 1.0)
    # Every index scoring at least the k-th best score, ties at the boundary
    # included, in ascending index order; a stable sort of those by
    # descending score then keeps the lower index first among equal scores.
    k = min(k, len(scores))
    cut = len(scores) - k
    candidates = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
    top = candidates[np.argsort(-scores[candidates], kind="stable")[:k]]
    return [(triplet_id(i), s) for i, s in zip(top.tolist(), scores[top].tolist())]


# ---------------------------------------------------------------------------
# Triplet TSV files
# ---------------------------------------------------------------------------

def read_triplets_tsv(path) -> list[Triplet]:
    """One triplet per line: head TAB relation TAB tail. Line i maps to
    embedding id t{i}."""
    triplets: list[Triplet] = []
    for lineno, line in enumerate(utf8_lines(path), start=1):
        line = line.rstrip("\n")
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        triplets.append(Triplet(*fields))
    return triplets


def write_triplets_tsv(path, triplets: list[Triplet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triplets:
            for field_name, value in (("head", t.head), ("relation", t.relation),
                                      ("tail", t.tail)):
                if "\t" in value or "\n" in value:
                    raise DataError(f"triplet {field_name} contains a tab or newline")
            fh.write(f"{t.head}\t{t.relation}\t{t.tail}\n")
