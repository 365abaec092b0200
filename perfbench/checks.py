"""Correctness checks on what a workload's CLI commands wrote.

Each check either recomputes a result independently (retrieval, graph
edges, content embeddings, report arithmetic) or tests a property the
method must have (symmetric hollow adjacency, soft labels that sum to 1,
teachers above the majority-class rate). None compares against a stored
copy of earlier output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import json
import math
import re
import struct
from hashlib import blake2b
from pathlib import Path

import numpy as np

WEIGHT_TOLERANCE = 1e-12
GRADCHECK_TOLERANCE = 1e-4
EMBED_SEED = 7  # build-graphs --seed default, which the workloads keep
EMBED_SAMPLES = 12  # content embeddings recomputed per graphs file
BOOTSTRAP_RESAMPLES = 2000


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent readers and the reference embedder
# ---------------------------------------------------------------------------

def read_gemb(path: Path) -> tuple[list[str], np.ndarray]:
    """GEMB: magic, u32 version, u32 dim, u64 count, then per row a u16
    id length, the id and dim f32 LE values."""
    raw = Path(path).read_bytes()
    require(raw[:4] == b"GEMB", f"{path}: bad magic")
    dim, count = struct.unpack_from("<IQ", raw, 8)
    pos, ids, rows = 20, [], []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", raw, pos)
        ids.append(raw[pos + 2:pos + 2 + n].decode("utf-8"))
        pos += 2 + n
        rows.append(np.frombuffer(raw, dtype="<f4", count=dim, offset=pos))
        pos += 4 * dim
    require(pos == len(raw), f"{path}: trailing bytes")
    return ids, np.vstack(rows).astype(np.float64)


def reference_embed(text: str, dim: int, seed: int) -> np.ndarray:
    """The documented bag-of-tokens embedder, written out again: one
    PCG64-seeded Gaussian row per token, summed and L2-normalized; no
    tokens gives e1."""
    tokens = [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]
    total = np.zeros(dim)
    for token in tokens:
        digest = blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
        total += np.random.Generator(
            np.random.PCG64(int.from_bytes(digest, "little"))).standard_normal(dim)
    norm = np.linalg.norm(total)
    if norm == 0.0:
        total = np.zeros(dim)
        total[0] = 1.0
        return total
    return total / norm


def read_manifest(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Graphs file
# ---------------------------------------------------------------------------

def top_k(content: np.ndarray, store: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force cosine top-k for each row of `content`; a stable sort of
    the negated scores sends ties to the lower triplet index."""
    scores = (content @ store.T) / np.outer(np.linalg.norm(content, axis=1),
                                            np.linalg.norm(store, axis=1))
    scores = np.clip(scores, -1.0, 1.0)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


def _npmi(c12: int, c1: int, c2: int, n: int) -> float | None:
    if c12 == 0:
        return None
    pmi = math.log(c12 * n / (c1 * c2))
    if pmi <= 0.0:
        return None
    return min(pmi / -math.log(c12 / n), 1.0)


def expected_adjacency(content: np.ndarray, hits: np.ndarray, sims: np.ndarray,
                       ids: list[int], counts: dict, pairs: dict, n_train: int) -> np.ndarray:
    """Hybrid edges for one sample: content cosine (> 0), clamped retrieval
    similarity to each content node's own hits, NPMI of train-split
    co-retrieval between triplet nodes."""
    pos = {t: 4 + i for i, t in enumerate(ids)}
    adj = np.zeros((4 + len(ids),) * 2)
    unit = content / np.linalg.norm(content, axis=1, keepdims=True)
    for a in range(4):
        for b in range(a + 1, 4):
            sim = float(np.clip(unit[a] @ unit[b], -1.0, 1.0))
            if sim > 0.0:
                adj[a, b] = adj[b, a] = sim
        for t, sim in zip(hits[a], sims[a]):
            adj[a, pos[int(t)]] = adj[pos[int(t)], a] = min(max(float(sim), 0.0), 1.0)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if a in counts and b in counts:
                w = _npmi(pairs.get((a, b), 0), counts[a], counts[b], n_train)
                if w is not None:
                    adj[pos[a], pos[b]] = adj[pos[b], pos[a]] = w
    return adj


def check_graphs(graphs_path: Path, data: Path, k: int, program_graphs) -> None:
    """The graphs file against an independent rebuild from the synthetic
    inputs, and the program's reader against a plain JSON parse."""
    with open(graphs_path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        records = [json.loads(line) for line in fh if line.strip()]
    manifest = read_manifest(data / "manifest.jsonl")
    vocab = sorted({m["label"] for m in manifest})
    require(header["label_vocab"] == vocab, "label vocabulary differs from the manifest")
    require([r["sample_id"] for r in records] == [m["sample_id"] for m in manifest],
            "graph records are not one per manifest line, in order")
    _, store = read_gemb(data / "triplets.gemb")
    visual_ids, visual = read_gemb(data / "visual.gemb")
    visual_row = {v: i for i, v in enumerate(visual_ids)}

    content = np.stack([np.array([n["embedding"] for n in r["nodes"][:4]]) for r in records])
    hits, sims = top_k(content.reshape(-1, store.shape[1]), store, k)
    hits = hits.reshape(len(records), 4, -1)
    sims = sims.reshape(len(records), 4, -1)

    counts: dict[int, int] = {}
    pairs: dict[tuple[int, int], int] = {}
    retrieved = []
    for r, h in zip(records, hits):
        ids = sorted({int(t) for t in h.reshape(-1)})
        retrieved.append(ids)
        if r["split"] == "train":
            for i, a in enumerate(ids):
                counts[a] = counts.get(a, 0) + 1
                for b in ids[i + 1:]:
                    pairs[(a, b)] = pairs.get((a, b), 0) + 1
    n_train = sum(r["split"] == "train" for r in records)

    picked = set(range(min(EMBED_SAMPLES // 2, len(records))))
    picked |= set(np.random.Generator(np.random.PCG64(len(records))).choice(
        len(records), size=min(EMBED_SAMPLES // 2, len(records)), replace=False).tolist())
    for i, (r, m, ids) in enumerate(zip(records, manifest, retrieved)):
        sid = r["sample_id"]
        require(r["label"] == vocab.index(m["label"]) and r["split"] == m["split"]
                and r["group"] == m["group"], f"{sid}: label, split or group differs")
        nodes = r["nodes"]
        require([n["kind"] for n in nodes[:4]] == ["question", "language_context",
                                                    "visual_context", "vl"],
                f"{sid}: content nodes out of order")
        got = [int(n["id"][1:]) for n in nodes[4:]]
        require(got == ids and all(n["kind"] == "commonsense" for n in nodes[4:]),
                f"{sid}: commonsense nodes {got} != brute-force top-{k} union {ids}")
        require(np.array_equal(np.array([n["embedding"] for n in nodes[4:]]).reshape(-1),
                               store[ids].reshape(-1)),
                f"{sid}: commonsense embeddings differ from triplets.gemb")
        v = visual[visual_row[m["visual_ref"]]]
        require(np.array_equal(content[i, 2], v), f"{sid}: visual node differs from the store")
        mean = 0.5 * (v + content[i, 1])
        require(np.allclose(content[i, 3], mean / np.linalg.norm(mean), rtol=0,
                            atol=WEIGHT_TOLERANCE), f"{sid}: vl node is not the V-L mean")
        if i in picked:
            for row, text in ((0, m["question"]), (1, m["language_context"])):
                require(np.allclose(content[i, row],
                                    reference_embed(text, store.shape[1], EMBED_SEED),
                                    rtol=0, atol=WEIGHT_TOLERANCE),
                        f"{sid}: content embedding {row} differs from the reference embedder")
        n = len(nodes)
        adj = np.array(r["adjacency"], dtype=np.float64).reshape(n, n)
        require(np.array_equal(adj, adj.T), f"{sid}: adjacency is not symmetric")
        require(not np.diagonal(adj).any(), f"{sid}: adjacency diagonal is not zero")
        require(bool(((adj >= 0.0) & (adj <= 1.0)).all()), f"{sid}: weight outside [0, 1]")
        want = expected_adjacency(content[i], hits[i], sims[i], ids, counts, pairs, n_train)
        require(np.allclose(adj, want, rtol=0, atol=WEIGHT_TOLERANCE),
                f"{sid}: adjacency differs from the independent rebuild by "
                f"{np.abs(adj - want).max():.3g}")

    require(len(program_graphs) == len(records), "reader returns a different sample count")
    for sg, r in zip(program_graphs, records):
        same = (sg.sample_id == r["sample_id"] and sg.split == r["split"]
                and sg.group == r["group"] and sg.label == r["label"]
                and [(n.kind, n.id) for n in sg.nodes] == [(n["kind"], n["id"]) for n in r["nodes"]]
                and np.array_equal(sg.features(), np.array([n["embedding"] for n in r["nodes"]]))
                and np.array_equal(sg.adjacency.reshape(-1), np.array(r["adjacency"])))
        require(same, f"{r['sample_id']}: read_graphs differs from the file's contents")


# ---------------------------------------------------------------------------
# Models and reports
# ---------------------------------------------------------------------------

def correct_vector(predict, subgraphs) -> np.ndarray:
    return np.array([int(np.argmax(predict(sg))) == sg.label for sg in subgraphs])


def check_report(path: Path, accuracy: float) -> None:
    """Report arithmetic, and its score against the benchmark's own count."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    n = doc["num_samples"]
    confusion = np.array(doc["confusion"])
    trace = float(np.trace(confusion)) / n
    require(int(confusion.sum()) == n, f"{path}: confusion sums to {confusion.sum()}, not {n}")
    for key in ("micro_f1", "accuracy"):
        require(abs(doc[key] - trace) <= WEIGHT_TOLERANCE,
                f"{path}: {key} {doc[key]} != confusion trace / n {trace}")
    require(sum(g["num_samples"] for g in doc["per_group"].values()) == n,
            f"{path}: per-group counts do not sum to {n}")
    require(abs(doc["micro_f1"] - accuracy) <= WEIGHT_TOLERANCE,
            f"{path}: micro_f1 {doc['micro_f1']} != recomputed accuracy {accuracy}")


def check_soft_labels(rows) -> None:
    for sample_id, row in rows:
        require(bool((row >= 0).all()) and abs(row.sum() - 1.0) <= WEIGHT_TOLERANCE,
                f"{sample_id}: soft labels sum to {row.sum()!r}")


def check_gradients(verification) -> float:
    worst = max(verification.run_all(seed=0).values())
    require(worst <= GRADCHECK_TOLERANCE, f"gradient check error {worst:.3e} > 1e-4")
    return worst


def paired_bootstrap(kd: list[np.ndarray], plain: list[np.ndarray],
                     seed: int) -> tuple[float, float, float]:
    """Mean KD minus kd=0 accuracy over seed pairs, with a 95% percentile CI
    from resampling test samples jointly across pairs (paired bootstrap)."""
    delta = np.mean([a.astype(float) - b.astype(float) for a, b in zip(kd, plain)], axis=0)
    rng = np.random.Generator(np.random.PCG64(seed))
    means = delta[rng.integers(0, delta.size, (BOOTSTRAP_RESAMPLES, delta.size))].mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5])
    return float(delta.mean()), float(low), float(high)
