"""Two-layer GCN teacher: degree-normalized propagation, average pooling,
an MLP head, and per-sample cross-entropy training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (OptimizerState, ParameterVector, Tape, Tensor, add, backward,
                       cross_entropy, glorot_uniform, matmul, mean_rows, optimizer_step,
                       relu)
from .errors import ConfigError, DataError, check_finite
from .evaluate import micro_f1
from .graphs import Subgraph, normalize_adjacency
from .serialization import read_checkpoint, write_checkpoint

DEFAULT_LEARNING_RATE = {"adam": 0.001, "sgd": 0.01}
TEACHER_MODEL_KIND = "gcn-teacher"
PARAM_NAMES = ("w0", "w1", "head_w1", "head_b1", "head_w2", "head_b2")


def resolved_learning_rate(config) -> float:
    """The configured learning rate, else the optimizer's default. Takes a
    ``TeacherConfig`` or a ``distill.DistillConfig``."""
    if config.learning_rate is not None:
        return config.learning_rate
    if config.optimizer not in DEFAULT_LEARNING_RATE:
        raise ConfigError(f"unknown optimizer '{config.optimizer}'")
    return DEFAULT_LEARNING_RATE[config.optimizer]


@dataclass
class TeacherConfig:
    dim: int
    num_classes: int
    hidden: int = 64
    head_hidden: int = 64
    epochs: int = 30
    optimizer: str = "adam"
    learning_rate: float | None = None
    seed: int = 0

    def validate(self) -> None:
        """Sizes a training run needs; ``train_teacher`` checks them first."""
        check_finite(self, "learning_rate")
        for name in ("hidden", "head_hidden", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "num_classes": self.num_classes,
            "hidden": self.hidden,
            "head_hidden": self.head_hidden,
            "epochs": self.epochs,
            "optimizer": self.optimizer,
            "learning_rate": resolved_learning_rate(self),
            "seed": self.seed,
        }


@dataclass
class TeacherParams:
    """GCN weights plus the two-layer classification head."""

    w0: np.ndarray
    w1: np.ndarray
    head_w1: np.ndarray
    head_b1: np.ndarray
    head_w2: np.ndarray
    head_b2: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [self.w0, self.w1, self.head_w1, self.head_b1, self.head_w2, self.head_b2]

    @classmethod
    def from_list(cls, arrays: list[np.ndarray]) -> "TeacherParams":
        return cls(*arrays)


def init_teacher(config: TeacherConfig, rng: np.random.Generator) -> TeacherParams:
    """Seeded Glorot-uniform weights, zero biases. Draw order is fixed so
    identical seeds give identical parameters."""
    return TeacherParams(
        w0=glorot_uniform(rng, config.dim, config.hidden),
        w1=glorot_uniform(rng, config.hidden, config.hidden),
        head_w1=glorot_uniform(rng, config.hidden, config.head_hidden),
        head_b1=np.zeros((1, config.head_hidden)),
        head_w2=glorot_uniform(rng, config.head_hidden, config.num_classes),
        head_b2=np.zeros((1, config.num_classes)),
    )


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


def teacher_logits(params: TeacherParams, subgraphs: list[Subgraph],
                   a_hats: list[np.ndarray] | None = None) -> np.ndarray:
    """Untracked forward passes for prediction; returns the n x C logits in
    sample order. Graphs of one node count go through the network as one
    stack. A group's stacked Â (normalized here unless ``a_hats`` are given)
    and features are built only when that group runs, so at most one
    group's stacks are alive at a time."""
    groups: dict[tuple, list[int]] = {}
    for i, sg in enumerate(subgraphs):
        shape = np.shape(sg.adjacency if a_hats is None else a_hats[i])
        groups.setdefault((shape, sg.size), []).append(i)
    tensors = [Tensor(a) for a in params.as_list()]
    out = np.empty((len(subgraphs), params.head_b2.shape[1]))
    for members in groups.values():
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

def check_dataset(subgraphs: list[Subgraph], config, what: str = "sample") -> None:
    """Every sample has the config's dim and a label below its class count.
    Takes a ``TeacherConfig`` or a ``distill.DistillConfig``."""
    for sg in subgraphs:
        if sg.dim != config.dim:
            raise ConfigError(f"{what} '{sg.sample_id}' has dim {sg.dim}, expected {config.dim}")
        if not 0 <= sg.label < config.num_classes:
            raise DataError(
                f"{what} '{sg.sample_id}' has label {sg.label}, "
                f"but the model has {config.num_classes} classes")


def train_teacher(train: list[Subgraph], val: list[Subgraph], config: TeacherConfig,
                  graph_config: dict | None = None,
                  ) -> tuple[TeacherParams, dict, list[dict]]:
    """Per-sample training in seeded-shuffled order; returns the final-epoch
    parameters, the checkpoint metadata (config echo), and per-epoch metrics
    (mean train loss, validation micro-F1)."""
    config.validate()
    if not train:
        raise ConfigError("training split is empty")
    check_dataset(train, config, "train sample")
    check_dataset(val, config, "val sample")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = ParameterVector(init_teacher(config, rng).as_list())
    state = OptimizerState(kind=config.optimizer,
                           learning_rate=resolved_learning_rate(config))

    a_hats = [Tensor(normalize_adjacency(sg.adjacency)) for sg in train]
    features = [Tensor(sg.features()) for sg in train]
    labels = [sg.label for sg in train]
    val_a_hats = [normalize_adjacency(sg.adjacency) for sg in val]
    val_labels = [sg.label for sg in val]

    metrics: list[dict] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train))
        total_loss = 0.0
        for idx in order:
            tape = Tape()
            tracked = [tape.watch(p) for p in params.tensors]
            _, logits = teacher_forward(tracked, a_hats[idx], features[idx])
            loss = cross_entropy(logits, labels[idx])
            optimizer_step(state, params, backward(tape, loss))
            total_loss += loss.item()

        entry = {"epoch": epoch + 1, "train_loss": total_loss / len(train)}
        if val:
            current = TeacherParams.from_list([p.data for p in params.tensors])
            preds = teacher_logits(current, val, val_a_hats).argmax(axis=1)
            entry["val_micro_f1"] = micro_f1(preds, val_labels)
        metrics.append(entry)

    final = TeacherParams.from_list(params.copies())
    metadata = {"model": TEACHER_MODEL_KIND, "config": config.to_dict()}
    if graph_config is not None:
        metadata["graph_config"] = graph_config
    return final, metadata, metrics


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_teacher(path, params: TeacherParams, metadata: dict) -> None:
    write_checkpoint(path, metadata, list(zip(PARAM_NAMES, params.as_list())))


def checkpoint_arrays(tensors: dict, names, what: str) -> list[np.ndarray]:
    """The checkpoint tensors ``names``, in that order; a missing one is a
    ``ConfigError`` naming the ``what`` checkpoint."""
    missing = [n for n in names if n not in tensors]
    if missing:
        raise ConfigError(f"{what} checkpoint lacks tensors: {missing}")
    return [tensors[n] for n in names]


def teacher_from_checkpoint(path, metadata: dict, tensors: dict) -> TeacherParams:
    """The teacher in a checkpoint already read from ``path``."""
    if metadata.get("model") != TEACHER_MODEL_KIND:
        raise ConfigError(
            f"{path} holds a '{metadata.get('model')}' model, expected teacher")
    return TeacherParams.from_list(checkpoint_arrays(tensors, PARAM_NAMES, "teacher"))


def load_teacher(path) -> tuple[TeacherParams, dict]:
    metadata, tensors = read_checkpoint(path)
    return teacher_from_checkpoint(path, metadata, tensors), metadata
