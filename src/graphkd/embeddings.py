"""Id-keyed embedding tables, a deterministic stand-in text embedder, and
exact top-k triplet retrieval by cosine similarity.

The stand-in embedder sums one Gaussian row per token and L2-normalizes.
A token's row is derived as: the blake2b digest of ``"{seed}:{token}"`` read
as a 64-bit integer, then numpy's ``SeedSequence`` words for that integer,
then a ``PCG64`` seeded with those words, then ``standard_normal(dim)``.
``token_rows`` derives the rows of all distinct tokens of a set of texts in
one pass, with the ``SeedSequence`` words computed as arrays, one chunk of
``TOKEN_ROW_CHUNK`` tokens at a time. A row depends only on (seed, token),
so a graph build makes one table per chunk of records: a token that recurs
across chunks has its row derived again, with the same values.

The on-disk embedding format (``GEMB``) stores vectors as f32 little-endian;
in memory everything is float64. A store is made once, from all its ids and
vectors, and cannot change after; its vectors pass through f32 then, so
write -> read reproduces the in-memory table bitwise.

Retrieval works in row indices: ``top_k_triplets`` gives the rows of a
``TripletStore`` and their similarities. The ids t0, t1, ... are made once
per store, in ``TripletStore.ids``.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from hashlib import blake2b
from itertools import combinations, islice

import numpy as np

from .errors import DataError, FormatError, ShapeError
from .serialization import _Reader, utf8_lines

EMBEDDING_MAGIC = b"GEMB"
EMBEDDING_VERSION = 1
# Tokens whose digests and SeedSequence words are derived together: enough
# to amortise the array passes, few enough that the uint32 intermediates
# stay small beside the table itself.
TOKEN_ROW_CHUNK = 4096

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; drops empty pieces."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


# numpy's SeedSequence (pool size 4), whose words seed each token's PCG64.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hashing steps and after the
    last one, as a column: step j xors with row j and multiplies by row j+1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# mix_entropy hashes 4 entropy words, then 12 pool words; generate_state
# hashes 8 output words.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hashing step per row of ``values``, row i with ``consts[i]`` and
    ``consts[i + 1]``; uint32 arithmetic wraps as numpy's does."""
    hashed = (values ^ consts[:-1]) * consts[1:]
    return hashed ^ (hashed >> _XSHIFT)


def seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    uint64 seed ``s`` at once: a C-contiguous len(seeds) x 4 uint64 array.
    The entropy is each seed's low and high 32-bit words, zero-padded to
    the pool size of 4, which is what SeedSequence makes of one integer."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((4, seeds.size), dtype=np.uint32)
    entropy[0] = seeds & np.uint64(_MASK32)
    entropy[1] = seeds >> np.uint64(32)
    pool = _hashmix(entropy, _HASH_A[0:5])
    step = 4
    for src in range(4):
        # Every other pool word is mixed with a fresh hash of this one.
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(np.broadcast_to(pool[src], (3, seeds.size)), _HASH_A[step:step + 4])
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
        step += 3
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).astype(np.uint64)
    words = np.empty((seeds.size, 4), dtype=np.uint64)
    words[:] = (state[0::2] | (state[1::2] << np.uint64(32))).T
    return words


class _SeedWords:
    """Hands PCG64 one row of ``seed_sequence_words``, the words it would
    have asked of ``SeedSequence(seed)``. ``token_rows`` registers it as a
    numpy ``ISeedSequence``: subclassing that here would import
    ``numpy.random`` with this module, in commands that embed nothing."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise NotImplementedError(
                f"token rows need PCG64 to be seeded with 4 uint64 words, "
                f"not {n_words} of {dtype}")
        return self.words


@dataclass(frozen=True)
class TokenRows:
    """One Gaussian row per distinct token of some texts, for one (dim,
    seed), numbered in order of first occurrence. ``picks`` holds each of
    those texts with its tokens' row numbers in token order, so embedding
    one of them does not tokenize it again. The dim is ``rows.shape[1]``,
    which an empty table keeps too."""

    rows: np.ndarray
    picks: dict[str, list[int]]


def _derive_rows(tokens, seed: int, out) -> None:
    """Write the row of the i-th of ``tokens`` into the i-th row of ``out``.
    The ``SeedSequence`` words are derived as arrays for ``TOKEN_ROW_CHUNK``
    tokens at a time, so the intermediates scale with the chunk."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    tokens, out = iter(tokens), iter(out)
    while digests := b"".join(blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
                              for token in islice(tokens, TOKEN_ROW_CHUNK)):
        words = seed_sequence_words(np.frombuffer(digests, dtype="<u8"))
        for row_words, row in zip(words, out):
            np.random.Generator(np.random.PCG64(_SeedWords(row_words))).standard_normal(
                len(row), out=row)


def token_rows(texts, dim: int, seed: int) -> TokenRows:
    """The row of every distinct token in ``texts``, each computed once, in
    one table that embeds exactly those texts.

    A token's row is ``Generator(PCG64(s)).standard_normal(dim)``, where
    ``s`` is the little-endian 64-bit blake2b digest of ``"{seed}:{token}"``.
    The PCG64 is seeded with ``SeedSequence(s)``'s words, derived by
    ``seed_sequence_words``."""
    if dim < 2:
        raise DataError(f"embedding dim must be >= 2, got {dim}")
    index: dict[str, int] = {}
    picks: dict[str, list[int]] = {}
    for text in texts:
        if text not in picks:
            picks[text] = [index.setdefault(token, len(index)) for token in tokenize(text)]
    rows = np.empty((len(index), dim))
    _derive_rows(index, seed, rows)
    rows.flags.writeable = False
    return TokenRows(rows, picks)


def toy_embed(text: str, rows: TokenRows) -> np.ndarray:
    """Deterministic bag-of-tokens embedding: the L2-normalized sum of one
    Gaussian row per token, added one by one in token order. A token's row
    is blake2b of ``"{seed}:{token}"`` -> ``SeedSequence`` words -> ``PCG64``
    -> ``standard_normal(dim)`` (see ``token_rows``). Text with no tokens
    maps to the first basis vector e1 (the documented empty-text sentinel).

    ``rows`` is a ``token_rows`` table that was made for ``text``, among
    others, and gives the dim and seed; a graph build passes one table per
    chunk of records."""
    picked = rows.picks.get(text)
    if picked is None:
        raise DataError(f"the token-row table was not made for the text {text!r}")
    total = np.zeros(rows.rows.shape[1])
    for i in picked:
        total += rows.rows[i]
    norm = np.linalg.norm(total)
    if norm == 0.0:
        total[0] = 1.0
        return total
    return total / norm


def pairwise_cosine(vectors: list[np.ndarray]) -> list[float]:
    """u.v / (|u||v|) of every pair (u, v) = (i, j), i < j, in
    ``combinations`` order, clamped to [-1, 1] to absorb rounding, with each
    vector's norm computed once."""
    flat = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    for v in flat[1:]:
        if v.shape != flat[0].shape:
            raise ShapeError(f"cosine of vectors of unequal dims: {flat[0].size} vs {v.size}")
    pairs = list(combinations(range(len(flat)), 2))
    if not pairs:
        return []
    norms = [np.linalg.norm(v) for v in flat]
    if min(norms) == 0.0:
        raise DataError("the cosine of a zero-norm vector is undefined")
    dots = np.array([np.dot(flat[a], flat[b]) for a, b in pairs])
    scales = np.array([norms[a] * norms[b] for a, b in pairs])
    return np.clip(dots / scales, -1.0, 1.0).tolist()


class EmbeddingStore:
    """Ordered, id-keyed table of fixed-dimension vectors, fixed when made.

    ``ids`` names row i of the read-only float64 ``matrix``; ``index`` maps
    each id to its row. Vectors pass through f32 once, when the store is
    made (matching the disk format), then are widened back to float64, so a
    store round-trips bitwise through its file representation. ``dim`` is
    needed only when there are no vectors to take it from.
    """

    def __init__(self, ids, vectors, dim: int | None = None):
        self.ids = tuple(ids)
        try:
            with np.errstate(over="ignore"):  # a value beyond f32 is refused below
                rounded = np.asarray(vectors, dtype=np.float32)
        except ValueError as exc:
            raise ShapeError(f"embedding vectors of unequal dims: {exc}") from exc
        self.dim = int(rounded.shape[-1] if dim is None else dim)
        if self.dim < 1:
            raise DataError(f"store dim must be >= 1, got {self.dim}")
        if not self.ids and not rounded.size:
            rounded = rounded.reshape(0, self.dim)
        if rounded.shape != (len(self.ids), self.dim):
            raise ShapeError(f"{len(self.ids)} embedding ids of dim {self.dim}, but vectors "
                             f"of shape {rounded.shape}")
        self.index = {key: i for i, key in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise DataError(f"duplicate embedding id "
                            f"'{next(k for i, k in enumerate(self.ids) if self.index[k] != i)}'")
        self.matrix = rounded.astype(np.float64)
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            raise DataError(f"vector for '{self.ids[int(np.argmin(finite))]}' contains "
                            f"non-finite entries")
        self.matrix.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, key: str) -> bool:
        return key in self.index

    def row(self, key: str) -> np.ndarray:
        """The vector stored under ``key``: a read-only view of ``matrix``."""
        if key not in self.index:
            raise DataError(f"missing embedding id '{key}'")
        return self.matrix[self.index[key]]


def write_store(path, store: EmbeddingStore) -> None:
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<I", EMBEDDING_VERSION))
        fh.write(struct.pack("<I", store.dim))
        fh.write(struct.pack("<Q", len(store)))
        for key, row in zip(store.ids, store.matrix):
            raw = key.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(row.astype("<f4").tobytes())


def read_store(path) -> EmbeddingStore:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), "embedding store")
    reader.expect_magic(EMBEDDING_MAGIC)
    reader.expect_version(EMBEDDING_VERSION)
    dim = reader.u32()
    count = reader.u64()
    ids, starts = [], []
    for _ in range(count):
        id_len = reader.u16()
        at = reader.pos
        try:
            ids.append(reader.take(id_len).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid UTF-8 embedding id: {exc}", offset=at) from exc
        starts.append(reader.pos)
        reader.take(dim * 4)
    reader.done()
    # The framing holds, so the count is real: copy each vector once, into
    # one f32 table.
    vectors = np.empty((count, dim), dtype="<f4")
    for row, start in zip(vectors, starts):
        row[:] = np.frombuffer(reader.data, dtype="<f4", count=dim, offset=start)
    return EmbeddingStore(ids, vectors, dim)


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
    """The embeddings of some knowledge triplets, keyed t0, t1, ... in
    triplet order.

    ``ids`` are those keys, ``matrix`` their rows in that order and
    ``norms`` the rows' norms, all fixed when the store is made. A companion
    that lists the ids in that order is used in place; one that does not (a
    GEMB file may order its ids freely) is gathered by id. A zero-norm row
    is refused, since retrieval divides by it."""

    def __init__(self, triplets: list[Triplet], embeddings: EmbeddingStore):
        if len(triplets) != len(embeddings):
            raise DataError(
                f"{len(triplets)} triplets but {len(embeddings)} embeddings")
        self.ids = [triplet_id(i) for i in range(len(triplets))]
        if list(embeddings.ids) == self.ids:
            self.matrix = embeddings.matrix
        else:
            for tid in self.ids:
                if tid not in embeddings:
                    raise DataError(f"companion store lacks embedding id '{tid}'")
            self.matrix = embeddings.matrix[[embeddings.index[tid] for tid in self.ids]]
            self.matrix.flags.writeable = False
        self.norms = np.linalg.norm(self.matrix, axis=1)
        if (self.norms == 0.0).any():
            raise DataError(f"triplet store contains a zero-norm embedding, "
                            f"'{self.ids[int(np.argmin(self.norms))]}'")

    @classmethod
    def from_texts(cls, triplets: list[Triplet], dim: int, seed: int) -> "TripletStore":
        """Embed each triplet's surface form with the stand-in embedder."""
        rows = token_rows([t.surface() for t in triplets], dim, seed)
        vectors = [toy_embed(t.surface(), rows) for t in triplets]
        return cls(triplets, EmbeddingStore(map(triplet_id, range(len(triplets))), vectors, dim))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def top_k_triplets(query: np.ndarray, store: TripletStore,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k triplets by cosine similarity: their row indices into
    the store and their similarities, descending; ties break by ascending
    row. Returns the whole store when it has < k entries."""
    if len(store) == 0:
        raise DataError("cannot retrieve from an empty triplet store")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.size != store.dim:
        raise ShapeError(f"query dim {q.size} does not match store dim {store.dim}")
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise DataError("cannot retrieve by the cosine of a zero-norm query")
    if not np.isfinite(qn):
        raise DataError("query embedding holds non-finite values")
    scores = np.clip((store.matrix @ q) / (store.norms * qn), -1.0, 1.0)
    # Every index scoring at least the k-th best score, ties at the boundary
    # included, in ascending index order; a stable sort of those by
    # descending score then keeps the lower index first among equal scores.
    k = min(k, len(scores))
    cut = len(scores) - k
    candidates = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
    top = candidates[np.argsort(-scores[candidates], kind="stable")[:k]]
    return top, scores[top]


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
