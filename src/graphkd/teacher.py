"""Two-layer GCN teacher: degree-normalized propagation, average pooling,
an MLP head, and per-sample cross-entropy training. ``teacher_loss`` is
the one teacher loss: training minimizes it and the ``gradcheck`` command
checks it.

What the teacher shares with the students of ``distill`` lives here too:
the parameter holder ``Params`` of every model kind, with ``PARAM_NAMES``
naming each kind's tensors; the training loop ``fit``, which runs a
``config.TrainConfig``; and the checkpoint reader ``model_from_checkpoint``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (OptimizerState, ParameterVector, Tape, Tensor, add, backward,
                       cross_entropy, glorot_uniform, matmul, mean_rows, optimizer_step,
                       relu)
from .config import TeacherConfig, TrainConfig, resolved_learning_rate
from .errors import ConfigError, DataError
from .evaluate import micro_f1
from .graphs import Subgraph, normalize_adjacency
from .serialization import read_checkpoint, write_checkpoint

TEACHER_MODEL_KIND = "gcn-teacher"
# Each model kind, the "model" string of its checkpoints, and its tensors in
# the order its forward pass takes them.
PARAM_NAMES = {
    TEACHER_MODEL_KIND: ("w0", "w1", "head_w1", "head_b1", "head_w2", "head_b2"),
    "student-mlp": ("w1", "b1", "w2", "b2"),
    "student-transformer": ("kind_embed", "wq", "wk", "wv", "ff_w1", "ff_b1", "ff_w2",
                            "ff_b2", "out_w", "out_b"),
}
# The most graphs one untracked forward pass stacks: enough to amortise the
# per-call cost, few enough that a stack's intermediates stay a few MB.
MAX_STACK = 128


@dataclass
class Params:
    """One model's weights: ``kind`` is the "model" string of its
    checkpoints, ``tensors`` its arrays in the order of ``PARAM_NAMES[kind]``."""

    kind: str
    tensors: list[np.ndarray]


def init_teacher(config: TeacherConfig, rng: np.random.Generator) -> Params:
    """Seeded Glorot-uniform weights, zero biases. Draw order is fixed so
    identical seeds give identical parameters."""
    return Params(TEACHER_MODEL_KIND, [
        glorot_uniform(rng, config.dim, config.hidden),
        glorot_uniform(rng, config.hidden, config.hidden),
        glorot_uniform(rng, config.hidden, config.head_hidden),
        np.zeros((1, config.head_hidden)),
        glorot_uniform(rng, config.head_hidden, config.num_classes),
        np.zeros((1, config.num_classes)),
    ])


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def teacher_forward(params: list[Tensor], a_hat: Tensor,
                    features: Tensor) -> tuple[Tensor, Tensor]:
    """(pooled embedding, logits) of one graph: h1 = relu(a_hat @ features @
    w0), h2 = a_hat @ h1 @ w1, pooled = the mean of h2's rows, logits =
    relu(pooled @ head_w1 + head_b1) @ head_w2 + head_b2. Untracked inputs
    may be stacks of same-size graphs, giving stacked outputs."""
    w0, w1, head_w1, head_b1, head_w2, head_b2 = params
    h1 = relu(matmul(matmul(a_hat, features), w0))
    h2 = matmul(matmul(a_hat, h1), w1)
    pooled = mean_rows(h2)
    hidden = relu(add(matmul(pooled, head_w1), head_b1))
    return pooled, add(matmul(hidden, head_w2), head_b2)


def graph_stacks(subgraphs: list[Subgraph]) -> list[list[int]]:
    """The indices of ``subgraphs`` in stacks for untracked forward passes:
    graphs of one node count in sample order, at most ``MAX_STACK`` of them
    per stack."""
    groups: dict[tuple, list[int]] = {}
    for i, sg in enumerate(subgraphs):
        groups.setdefault((np.shape(sg.adjacency), sg.size), []).append(i)
    return [members[start:start + MAX_STACK] for members in groups.values()
            for start in range(0, len(members), MAX_STACK)]


def teacher_logits(params: Params, subgraphs: list[Subgraph],
                   a_hats: list[np.ndarray] | None = None) -> np.ndarray:
    """Untracked forward passes for prediction; returns the n x C logits in
    sample order. The graphs go through the network in the stacks of
    ``graph_stacks``, each stack's Â (normalized here unless ``a_hats`` are
    given) and features built only when it runs, so the memory a call adds
    is bounded by ``MAX_STACK`` graphs rather than by the dataset. A stacked
    forward is exact slice by slice, so the logits do not depend on how the
    graphs are stacked."""
    tensors = [Tensor(a) for a in params.tensors]
    out = np.empty((len(subgraphs), tensors[-1].cols))
    for members in graph_stacks(subgraphs):
        if a_hats is None:
            stacked = np.stack([normalize_adjacency(subgraphs[i].adjacency) for i in members])
        else:
            stacked = np.stack([a_hats[i] for i in members])
        features = np.stack([subgraphs[i].features() for i in members])
        _, logits = teacher_forward(tensors, Tensor(stacked), Tensor(features))
        out[members] = logits.data[:, 0, :]
    return out


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def teacher_loss(graphs: list[Subgraph], a_hats: list[Tensor]):
    """The teacher's training loss, which ``train_teacher`` minimizes and
    ``verification`` gradchecks: ``loss(params, i)`` is the cross-entropy
    of graph i, whose Â is ``a_hats[i]``, as a 1 x 1 tensor."""

    def loss(params: list[Tensor], i: int) -> Tensor:
        # Rows gathered per call, so a split is never copied as a whole. The
        # first matmul checks its product for non-finite values, so the
        # gathered rows need no check of their own.
        features = Tensor._wrap(graphs[i].features(), None, None)
        _, logits = teacher_forward(params, a_hats[i], features)
        return cross_entropy(logits, graphs[i].label)

    return loss


def check_dataset(subgraphs: list[Subgraph], config: TrainConfig,
                  what: str = "sample") -> None:
    """Every sample has the config's dim and a label below its class count."""
    for sg in subgraphs:
        if sg.dim != config.dim:
            raise ConfigError(f"{what} '{sg.sample_id}' has dim {sg.dim}, expected {config.dim}")
        if not 0 <= sg.label < config.num_classes:
            raise DataError(
                f"{what} '{sg.sample_id}' has label {sg.label}, "
                f"but the model has {config.num_classes} classes")


def fit(config: TrainConfig, params: Params, rng: np.random.Generator, n: int, step,
        val_logits, val_labels: list[int]) -> tuple[Params, list[dict]]:
    """The training loop of every model: ``config.epochs`` passes over ``n``
    samples, each pass in the order of a fresh ``rng.permutation``.
    ``step(state, vector, i)`` trains on sample i, updating the
    ``ParameterVector`` that holds ``params`` with the ``OptimizerState``,
    and returns the sample's loss. Each epoch records the mean train loss
    and, unless ``val_labels`` is empty, the micro-F1 of
    ``val_logits(current params)`` against them. Returns copies of the final
    parameters and the per-epoch metrics."""
    vector = ParameterVector(params.tensors)
    state = OptimizerState(kind=config.optimizer,
                           learning_rate=resolved_learning_rate(config))
    metrics: list[dict] = []
    for epoch in range(config.epochs):
        total_loss = 0.0
        for idx in rng.permutation(n):
            total_loss += step(state, vector, idx)
        entry = {"epoch": epoch + 1, "train_loss": total_loss / n}
        if val_labels:
            current = Params(params.kind, [p.data for p in vector.tensors])
            entry["val_micro_f1"] = micro_f1(val_logits(current).argmax(axis=1), val_labels)
        metrics.append(entry)
    return Params(params.kind, vector.copies()), metrics


def train_teacher(train: list[Subgraph], val: list[Subgraph],
                  config: TeacherConfig) -> tuple[Params, dict, list[dict]]:
    """Per-sample cross-entropy training through ``fit``; returns the
    final-epoch parameters, the checkpoint metadata (config echo), and
    per-epoch metrics (mean train loss, validation micro-F1)."""
    config.validate()
    if not train:
        raise ConfigError("training split is empty")
    check_dataset(train, config, "train sample")
    check_dataset(val, config, "val sample")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = init_teacher(config, rng)
    loss_of = teacher_loss(train, [Tensor(normalize_adjacency(sg.adjacency)) for sg in train])
    val_a_hats = [normalize_adjacency(sg.adjacency) for sg in val]

    def step(state, vector, idx):
        tape = Tape()
        loss = loss_of([tape.watch(p) for p in vector.tensors], idx)
        optimizer_step(state, vector, backward(tape, loss))
        return loss.item()

    final, metrics = fit(config, params, rng, len(train), step,
                         lambda current: teacher_logits(current, val, val_a_hats),
                         [sg.label for sg in val])
    return final, {"model": TEACHER_MODEL_KIND, "config": config.to_dict()}, metrics


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_teacher(path, params: Params, metadata: dict) -> None:
    write_checkpoint(path, metadata, list(zip(PARAM_NAMES[params.kind], params.tensors)))


def model_from_checkpoint(path, metadata: dict, tensors: dict, kinds,
                          expected: str) -> Params:
    """The model in a checkpoint already read from ``path``. Its "model"
    string must be one of ``kinds`` (else the ``ConfigError`` says what was
    ``expected``, and names the metadata's "format" if the file records no
    model), and it must hold every tensor that kind has."""
    kind = metadata.get("model")
    if kind is None:
        fmt = metadata.get("format")
        what = f"a {fmt!r} file" if isinstance(fmt, str) else "the file"
        raise ConfigError(f"{path} records no model kind ({what}), expected {expected}")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path} holds a '{kind}' model, expected {expected}")
    missing = [name for name in PARAM_NAMES[kind] if name not in tensors]
    if missing:
        raise ConfigError(f"{kind} checkpoint {path} lacks tensors: {missing}")
    return Params(kind, [tensors[name] for name in PARAM_NAMES[kind]])


def load_teacher(path) -> tuple[Params, dict]:
    metadata, tensors = read_checkpoint(path)
    return (model_from_checkpoint(path, metadata, tensors, (TEACHER_MODEL_KIND,), "a teacher"),
            metadata)
