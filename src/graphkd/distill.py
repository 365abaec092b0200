"""Soft-label distillation from frozen graph teachers into small students.

Students see only the four content-node embeddings -- no commonsense nodes
and no adjacency. Whatever the retrieval-augmented teacher learned reaches
them exclusively through its averaged softmax outputs, which is the point
of the transfer. Two student bodies are provided: a two-layer perceptron
over the concatenated embeddings and a minimal single-head transformer
block over the four embeddings as a token sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (OptimizerState, ParameterVector, Tape, Tensor, add, affine,
                       backward, cross_entropy, glorot_uniform, kl_to_target, matmul,
                       mean_rows, optimizer_step, relu, reshape, row_softmax, transpose)
from .errors import ConfigError, DataError, NumericError, ShapeError, check_finite
from .evaluate import micro_f1
from .graphs import Subgraph, normalize_adjacency
from .serialization import read_checkpoint, write_checkpoint
from .teacher import (TEACHER_MODEL_KIND, TeacherParams, check_dataset, checkpoint_arrays,
                      graph_stacks, resolved_learning_rate, teacher_from_checkpoint,
                      teacher_logits)

STUDENT_KINDS = ("mlp", "transformer")
MLP_PARAM_NAMES = ("w1", "b1", "w2", "b2")
TRANSFORMER_PARAM_NAMES = ("kind_embed", "wq", "wk", "wv", "ff_w1", "ff_b1",
                           "ff_w2", "ff_b2", "out_w", "out_b")


@dataclass
class DistillConfig:
    student: str
    dim: int
    num_classes: int
    hidden: int = 64
    kd_weight: float = 1.0
    temperature: float = 1.0
    epochs: int = 30
    optimizer: str = "adam"
    learning_rate: float | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.student not in STUDENT_KINDS:
            raise ConfigError(f"unknown student kind '{self.student}'")
        check_finite(self, "kd_weight", "temperature", "learning_rate")
        if self.kd_weight < 0:
            raise ConfigError(f"kd weight must be >= 0, got {self.kd_weight}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        for name in ("hidden", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return {
            "student": self.student,
            "dim": self.dim,
            "num_classes": self.num_classes,
            "hidden": self.hidden,
            "kd_weight": self.kd_weight,
            "temperature": self.temperature,
            "epochs": self.epochs,
            "optimizer": self.optimizer,
            "learning_rate": resolved_learning_rate(self),
            "seed": self.seed,
        }


@dataclass
class StudentParams:
    kind: str
    tensors: list[np.ndarray]

    @property
    def names(self) -> tuple[str, ...]:
        return MLP_PARAM_NAMES if self.kind == "mlp" else TRANSFORMER_PARAM_NAMES


def init_student(config: DistillConfig, rng: np.random.Generator) -> StudentParams:
    """Seeded Glorot weights, zero biases; the transformer's kind embeddings
    start at zero so the block is initially permutation-symmetric."""
    d, h, c = config.dim, config.hidden, config.num_classes
    if config.student == "mlp":
        return StudentParams("mlp", [
            glorot_uniform(rng, 4 * d, h),
            np.zeros((1, h)),
            glorot_uniform(rng, h, c),
            np.zeros((1, c)),
        ])
    return StudentParams("transformer", [
        np.zeros((4, d)),
        glorot_uniform(rng, d, d),
        glorot_uniform(rng, d, d),
        glorot_uniform(rng, d, d),
        glorot_uniform(rng, d, h),
        np.zeros((1, h)),
        glorot_uniform(rng, h, d),
        np.zeros((1, d)),
        glorot_uniform(rng, d, c),
        np.zeros((1, c)),
    ])


# ---------------------------------------------------------------------------
# Student forward passes
# ---------------------------------------------------------------------------

def student_forward(kind: str, params: list[Tensor], content: Tensor,
                    internals: dict | None = None) -> Tensor:
    """Logits for one sample from its 4 x dim content embeddings (fixed kind
    order), or for an untracked stack of samples. Pass a dict as
    ``internals`` to capture the attention weights."""
    if content.rows != 4:
        raise ShapeError(f"students take exactly 4 content rows, got {content.rows}")
    if kind == "mlp":
        w1, b1, w2, b2 = params
        flat = reshape(content, 1, 4 * content.cols)
        hidden = relu(add(matmul(flat, w1), b1))
        return add(matmul(hidden, w2), b2)
    if kind == "transformer":
        kind_embed, wq, wk, wv, ff_w1, ff_b1, ff_w2, ff_b2, out_w, out_b = params
        x = add(content, kind_embed)
        q = matmul(x, wq)
        k = matmul(x, wk)
        v = matmul(x, wv)
        attn = row_softmax(affine(matmul(q, transpose(k)), 1.0 / math.sqrt(content.cols)))
        if internals is not None:
            internals["attention"] = attn.data
        mixed = matmul(attn, v)
        ff = add(matmul(relu(add(matmul(mixed, ff_w1), ff_b1)), ff_w2), ff_b2)
        pooled = mean_rows(ff)
        return add(matmul(pooled, out_w), out_b)
    raise ConfigError(f"unknown student kind '{kind}'")


def student_logits(params: StudentParams, subgraphs: list[Subgraph]) -> np.ndarray:
    """Untracked predictions from the subgraphs' content embeddings, as one
    forward pass over their stack; returns the n x C logits in sample order."""
    tensors = [Tensor(a) for a in params.tensors]
    if not subgraphs:
        return np.empty((0, tensors[-1].cols))
    content = Tensor(np.stack([sg.content_features() for sg in subgraphs]))
    logits = student_forward(params.kind, tensors, content)
    return logits.data.reshape(len(subgraphs), -1).copy()


# ---------------------------------------------------------------------------
# Distillation losses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoftTarget:
    """One sample's fixed teacher distribution, checked once: ``probs`` sums
    to 1, and ``entropy`` is sum_j p_j log p_j over its positive entries
    (classes given no mass add nothing)."""

    probs: np.ndarray
    entropy: float


def soft_target(p_teacher: np.ndarray) -> SoftTarget:
    """Check a teacher row and compute its entropy term once, for every
    ``kd_loss`` step that distils towards it. A row that does not sum to 1
    is a ``DataError``; one with a non-finite entry is a ``NumericError``."""
    p = np.asarray(p_teacher, dtype=np.float64).reshape(-1)
    if not np.isfinite(p).all():
        raise NumericError("teacher distribution holds a non-finite value")
    if abs(p.sum() - 1.0) > 1e-6:
        raise DataError(f"teacher distribution sums to {p.sum()!r}, not 1")
    positive = p[p > 0]
    return SoftTarget(p, float(np.sum(positive * np.log(positive))))


def kd_loss(target: SoftTarget, student_logits_t: Tensor,
            temperature: float = 1.0) -> Tensor:
    """KL(teacher distribution || student softmax at the same temperature),
    scaled by temperature^2 (a no-op at the default temperature 1), the
    soft-target loss of Hinton et al. 2015. ``target`` comes from
    ``soft_target`` and must have one entry per student logit. One
    ``kl_to_target`` record on the tape."""
    return kl_to_target(student_logits_t, target.probs, temperature, target.entropy)


def combined_loss(l_sce: Tensor, l_kd: Tensor | None, kd_weight: float) -> Tensor:
    """l_sce + kd_weight * l_kd; with weight 0 the supervised loss passes
    through untouched (the "without framework" baseline)."""
    if kd_weight < 0:
        raise ConfigError(f"kd weight must be >= 0, got {kd_weight}")
    if kd_weight == 0.0 or l_kd is None:
        return l_sce
    return add(l_sce, affine(l_kd, kd_weight))


# ---------------------------------------------------------------------------
# Student training
# ---------------------------------------------------------------------------

def compute_soft_labels(teachers: list[TeacherParams], subgraphs: list[Subgraph],
                        temperature: float = 1.0) -> list[tuple[str, np.ndarray]]:
    """Soft labels for a whole dataset in sample order: the mean over the
    ensemble of softmax(teacher logits / temperature). Teachers are frozen,
    so this is computed once and reused across epochs."""
    if not teachers:
        raise ConfigError("need at least one teacher")
    logits = [np.empty((len(subgraphs), params.head_b2.shape[1])) for params in teachers]
    # One stack's Â at a time, normalized once for every teacher.
    for members in graph_stacks(subgraphs):
        stack = [subgraphs[i] for i in members]
        a_hats = [normalize_adjacency(sg.adjacency) for sg in stack]
        for params, out in zip(teachers, logits):
            out[members] = teacher_logits(params, stack, a_hats)
    probs = []
    for out in logits:
        scaled = out / temperature
        e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        probs.append(e / e.sum(axis=1, keepdims=True))
    widths = sorted({p.shape[1] for p in probs})
    if len(widths) != 1:
        raise ConfigError(f"teachers disagree on class count: {widths}")
    mean = np.mean(probs, axis=0)
    return [(sg.sample_id, row) for sg, row in zip(subgraphs, mean)]


def train_student(train: list[Subgraph], val: list[Subgraph], config: DistillConfig,
                  teachers: list[TeacherParams],
                  teacher_names: list[str] | None = None,
                  ) -> tuple[StudentParams, dict, list[dict]]:
    """Per-sample distillation training. The teacher ensemble is only
    consulted when kd_weight > 0; a zero weight reproduces the plain
    supervised baseline bit for bit."""
    config.validate()
    if not train:
        raise ConfigError("training split is empty")
    check_dataset(train + val, config)

    use_kd = config.kd_weight > 0
    targets: list[SoftTarget] = []
    if use_kd:
        if not teachers:
            raise ConfigError("kd_weight > 0 requires at least one teacher")
        targets = [soft_target(row) for _, row in
                   compute_soft_labels(teachers, train, config.temperature)]
        if targets[0].probs.size != config.num_classes:
            raise ConfigError(
                f"teacher produces {targets[0].probs.size} classes, student expects "
                f"{config.num_classes}")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = ParameterVector(init_student(config, rng).tensors)
    state = OptimizerState(kind=config.optimizer,
                           learning_rate=resolved_learning_rate(config))

    content = [Tensor(sg.content_features()) for sg in train]
    labels = [sg.label for sg in train]
    val_labels = [sg.label for sg in val]

    metrics: list[dict] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train))
        total_loss = 0.0
        for idx in order:
            tape = Tape()
            tracked = [tape.watch(p) for p in params.tensors]
            logits = student_forward(config.student, tracked, content[idx])
            sce = cross_entropy(logits, labels[idx])
            if use_kd:
                kd = kd_loss(targets[idx], logits, config.temperature)
                loss = combined_loss(sce, kd, config.kd_weight)
            else:
                loss = sce
            optimizer_step(state, params, backward(tape, loss))
            total_loss += loss.item()

        entry = {"epoch": epoch + 1, "train_loss": total_loss / len(train)}
        if val:
            current = StudentParams(config.student, [p.data for p in params.tensors])
            preds = student_logits(current, val).argmax(axis=1)
            entry["val_micro_f1"] = micro_f1(preds, val_labels)
        metrics.append(entry)

    final = StudentParams(config.student, params.copies())
    metadata = {
        "model": f"student-{config.student}",
        "config": config.to_dict(),
        "teachers": list(teacher_names or []),
    }
    return final, metadata, metrics


# ---------------------------------------------------------------------------
# Checkpoints and model loading
# ---------------------------------------------------------------------------

def save_student(path, params: StudentParams, metadata: dict) -> None:
    write_checkpoint(path, metadata, list(zip(params.names, params.tensors)))


def student_from_checkpoint(path, metadata: dict, tensors: dict) -> StudentParams:
    """The student in a checkpoint already read from ``path``."""
    model = metadata.get("model", "")
    if not isinstance(model, str) or not model.startswith("student-"):
        raise ConfigError(f"{path} holds a '{model}' model, expected a student")
    kind = model.removeprefix("student-")
    if kind not in STUDENT_KINDS:
        raise ConfigError(f"unknown student kind '{kind}' in {path}")
    params = StudentParams(kind, [])
    params.tensors = checkpoint_arrays(tensors, params.names, "student")
    return params


def load_student(path) -> tuple[StudentParams, dict]:
    metadata, tensors = read_checkpoint(path)
    return student_from_checkpoint(path, metadata, tensors), metadata


def load_model(path):
    """Open any checkpoint, reading it once, and return (logits(subgraphs)
    -> n x C array, metadata). Teachers consume the full subgraphs,
    students only the content embeddings."""
    metadata, tensors = read_checkpoint(path)
    model = metadata.get("model")
    if model == TEACHER_MODEL_KIND:
        params = teacher_from_checkpoint(path, metadata, tensors)
        return (lambda subgraphs: teacher_logits(params, subgraphs)), metadata
    if isinstance(model, str) and model.startswith("student-"):
        sparams = student_from_checkpoint(path, metadata, tensors)
        return (lambda subgraphs: student_logits(sparams, subgraphs)), metadata
    raise ConfigError(f"{path} holds an unknown model kind '{model}'")


def load_predictor(path):
    """Like :func:`load_model`, but predict(subgraph) -> its logit row."""
    logits, metadata = load_model(path)
    return (lambda sg: logits([sg])[0]), metadata
