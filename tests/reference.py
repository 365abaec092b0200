"""Per-sample, per-tensor reference implementations for bitwise tests.

These are the training and prediction loops as they were written before
parameters moved into one flat vector and untracked passes were stacked:
one 2-D forward per sample, one optimizer update per parameter matrix.
``kd_chain_reference`` is the distillation term as it was computed before
it became one tape op: a chain of six elementwise and reduction steps.
``kd_step_reference`` is the term as each training step computed it before
teacher rows were checked once per run: the row checked and its entropy
taken again at every step. ``build_graphs_reference`` is the graph build as
it was before it ran in three passes: embed and retrieve one record at a
time with the token-row table alive throughout, each commonsense node a
copy of its store vector in a table of the sample's own. Its edges are
``edges_reference``: one ``pairwise_cosine`` per content pair, a retrieval log of
(content kind, triplet id, similarity) hits, and one NPMI per commonsense
pair from the string-keyed training-split counts of ``CooccurrenceCounts``.
The package must reproduce them bit for bit. ``make_subgraph`` is how the
tests build a ``Subgraph`` by hand.
"""

import math
from itertools import combinations

import numpy as np

from graphkd.autodiff import (Tape, Tensor, add, affine, backward, cross_entropy, kl_to_target,
                              split_flat)
from graphkd.distill import init_student, student_forward
from graphkd.embeddings import pairwise_cosine, token_rows, top_k_triplets
from graphkd.graphs import CONTENT_KINDS, Subgraph, build_content_nodes, normalize_adjacency
from graphkd.teacher import init_teacher, resolved_learning_rate, teacher_forward


class PerTensorOptimizer:
    """SGD or Adam with the package's ufunc sequence, one matrix at a time."""

    def __init__(self, kind, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.kind, self.lr = kind, learning_rate
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.step, self.m, self.v = 0, [], []

    def update(self, params, grads):
        """New arrays for ``params`` after one step with ``grads``."""
        self.step += 1
        lr = self.lr
        if self.kind == "sgd":
            return [p - lr * g for p, g in zip(params, grads)]
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        c1 = 1.0 - self.beta1 ** self.step
        c2 = 1.0 - self.beta2 ** self.step
        updated = []
        for p, g, m, v in zip(params, grads, self.m, self.v):
            work = np.empty_like(p)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=work)
            m += work
            v *= self.beta2
            np.multiply(g, g, out=work)
            work *= 1.0 - self.beta2
            v += work
            np.divide(v, c2, out=work)
            np.sqrt(work, out=work)
            work += self.epsilon
            np.divide(m, work, out=work)
            work *= lr / c1
            updated.append(p - work)
        return updated


def kd_chain_reference(p_teacher, logits, temperature, upstream):
    """(loss, logit gradient) of T^2 * KL(p || softmax(z / T)) for a 1 x C
    logit row, in numpy, with the ufunc sequence of the old tape: scale by
    1/T, row log-softmax, multiply by the teacher row, sum, then scale by
    -T^2 and shift by T^2 * entropy. The gradient runs those five backward
    rules in reverse from a 1x1 upstream gradient ``upstream``."""
    p = np.asarray(p_teacher, dtype=np.float64).reshape(1, -1)
    positive = p[p > 0]
    entropy = float(np.sum(positive * np.log(positive)))
    inv_t = 1.0 / temperature
    t_sq = temperature * temperature

    scaled = np.asarray(logits, dtype=np.float64) * inv_t + 0.0
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    log_student = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    cross = (log_student * p).sum(axis=(-2, -1), keepdims=True)
    loss = cross * -t_sq + t_sq * entropy

    g = upstream * -t_sq                                  # affine(-T^2, T^2 * entropy)
    g = np.full(p.shape, g[0, 0])                         # sum
    g = g * p                                             # multiply by the teacher row
    g = g - np.exp(log_student) * g.sum(axis=1, keepdims=True)  # log-softmax
    g = g * inv_t                                         # affine(1/T)
    return loss, g


def kd_step_reference(p_teacher, logits, temperature):
    """The KD term of one step, with the teacher row's sum checked and its
    entropy computed at that step."""
    p = np.asarray(p_teacher, dtype=np.float64).reshape(-1)
    assert abs(p.sum() - 1.0) <= 1e-6
    positive = p[p > 0]
    return kl_to_target(logits, p, temperature, float(np.sum(positive * np.log(positive))))


def teacher_row(params, sg):
    """One sample's 1-D teacher logit row from a 2-D forward pass."""
    tensors = [Tensor(a) for a in params.tensors]
    _, logits = teacher_forward(tensors, Tensor(normalize_adjacency(sg.adjacency)),
                                Tensor(sg.features()))
    return logits.data[0].copy()


def student_row(params, sg):
    """One sample's 1-D student logit row from a 2-D forward pass."""
    tensors = [Tensor(a) for a in params.tensors]
    logits = student_forward(params.kind.removeprefix("student-"), tensors,
                             Tensor(sg.content_features()))
    return logits.data[0].copy()


def soft_label_row(teachers, sg, temperature=1.0):
    """Mean over teachers of softmax(logits / temperature) for one sample."""
    rows = []
    for params in teachers:
        row = teacher_row(params, sg) / temperature
        e = np.exp(row - row.max())
        rows.append(e / e.sum())
    return np.mean(rows, axis=0)


def _train(arrays, samples, epochs, seed_rng, kind, learning_rate, loss_of):
    optimizer = PerTensorOptimizer(kind, learning_rate)
    for _ in range(epochs):
        for idx in seed_rng.permutation(samples):
            tape = Tape()
            tracked = [tape.watch(Tensor(a)) for a in arrays]
            loss = loss_of(tracked, idx)
            grads = split_flat(backward(tape, loss), [a.shape for a in arrays])
            arrays = optimizer.update(arrays, grads)
    return arrays


def train_teacher_reference(train, config):
    """Final teacher parameter arrays of the per-sample, per-tensor loop."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    arrays = init_teacher(config, rng).tensors
    a_hats = [normalize_adjacency(sg.adjacency) for sg in train]

    def loss_of(tracked, idx):
        _, logits = teacher_forward(tracked, Tensor(a_hats[idx]), Tensor(train[idx].features()))
        return cross_entropy(logits, train[idx].label)

    return _train(arrays, len(train), config.epochs, rng, config.optimizer,
                  resolved_learning_rate(config), loss_of)


def train_student_reference(train, config, teachers):
    """Final student parameter arrays of the per-sample, per-tensor loop."""
    soft = [soft_label_row(teachers, sg, config.temperature)
            for sg in train] if config.kd_weight > 0 else []
    rng = np.random.Generator(np.random.PCG64(config.seed))
    arrays = init_student(config, rng).tensors

    def loss_of(tracked, idx):
        logits = student_forward(config.student, tracked,
                                 Tensor(train[idx].content_features()))
        sce = cross_entropy(logits, train[idx].label)
        if config.kd_weight == 0:
            return sce
        return add(sce, affine(kd_step_reference(soft[idx], logits, config.temperature),
                               config.kd_weight))

    return _train(arrays, len(train), config.epochs, rng, config.optimizer,
                  resolved_learning_rate(config), loss_of)


def make_subgraph(ids, features, adjacency, label=0, sample_id="s0", split="train",
                  group="g0"):
    """A subgraph whose node i has id ``ids[i]`` and, as its embedding, row
    i of its own table: a float64 copy of the N x dim ``features``."""
    return Subgraph(sample_id=sample_id, split=split, group=group, label=label,
                    table=np.array(features, dtype=np.float64), rows=np.arange(len(ids)),
                    ids=list(ids), adjacency=np.asarray(adjacency))


def _index(triplet_id):
    return int(triplet_id[1:])


class CooccurrenceCounts:
    """Sample-level retrieval counts over the training split: in how many
    samples was each triplet id (and each unordered pair of ids, keyed in
    ascending triplet index) retrieved."""

    def __init__(self):
        self.num_samples = 0
        self.counts = {}
        self.pair_counts = {}

    def observe(self, retrieved_ids):
        self.num_samples += 1
        for tid in retrieved_ids:
            self.counts[tid] = self.counts.get(tid, 0) + 1
        for pair in combinations(sorted(retrieved_ids, key=_index), 2):
            self.pair_counts[pair] = self.pair_counts.get(pair, 0) + 1

    def npmi(self, id1, id2):
        """Normalized PMI of co-retrieval in (0, 1], or None when either id
        has no counts, the pair never co-occurs or is at/below independence."""
        if id1 not in self.counts or id2 not in self.counts:
            return None
        c12 = self.pair_counts.get(tuple(sorted((id1, id2), key=_index)), 0)
        if c12 == 0:
            return None
        pmi = math.log(c12 * self.num_samples / (self.counts[id1] * self.counts[id2]))
        if pmi <= 0.0:
            return None
        return min(pmi / -math.log(c12 / self.num_samples), 1.0)


def edges_reference(content, ids, log, stats):
    """One sample's adjacency over its four content rows and the triplets
    ``ids``: one cosine per content pair, each (kind, id, similarity)
    hit of ``log`` clamped, and one NPMI per id pair."""
    ids = [*CONTENT_KINDS, *ids]
    n = len(ids)
    adjacency = np.zeros((n, n))
    for a, b in combinations(range(4), 2):
        sim = pairwise_cosine([content[a], content[b]])[0]
        if sim > 0.0:
            adjacency[a, b] = adjacency[b, a] = sim
    for kind, tid, sim in log:
        a, b = ids.index(kind), ids.index(tid, 4)
        adjacency[a, b] = adjacency[b, a] = min(max(sim, 0.0), 1.0)
    for a, b in combinations(range(4, n), 2):
        weight = stats.npmi(ids[a], ids[b])
        if weight is not None:
            adjacency[a, b] = adjacency[b, a] = weight
    return adjacency


def build_graphs_reference(dataset, triplet_store, seed, k=3):
    """Subgraphs of the interleaved build loop."""
    dim = triplet_store.dim
    rows = token_rows([text for r in dataset.records
                       for text in (r.question, r.language_context, r.visual_text or "")],
                      dim, seed)
    built = []
    stats = CooccurrenceCounts()
    for record in dataset.records:
        content = build_content_nodes(record, rows, dataset.visual_store)
        log = [(kind, f"t{row}", sim) for kind, query in zip(CONTENT_KINDS, content)
               for row, sim in zip(*(a.tolist() for a in top_k_triplets(query, triplet_store, k)))]
        ids = sorted({tid for _, tid, _ in log}, key=_index)
        commonsense = [triplet_store.matrix[_index(tid)] for tid in ids]
        built.append((record, content, ids, commonsense, log))
        if record.split == "train":
            stats.observe(set(ids))
    label_index = {label: i for i, label in enumerate(dataset.label_vocab)}
    return [make_subgraph([*CONTENT_KINDS, *ids], [*content, *commonsense],
                          edges_reference(content, ids, log, stats),
                          label=label_index[record.label], sample_id=record.sample_id,
                          split=record.split, group=record.group)
            for record, content, ids, commonsense, log in built]
