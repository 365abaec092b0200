"""Soft-label distillation from frozen graph teachers into small students.

Students see only the four content-node embeddings -- no commonsense nodes
and no adjacency. Whatever the retrieval-augmented teacher learned reaches
them exclusively through its averaged softmax outputs, which is the point
of the transfer. Two student bodies are provided: a two-layer perceptron
over the concatenated embeddings and a minimal single-head transformer
block over the four embeddings as a token sequence.

A student is trained like the teacher: its weights are a ``teacher.Params``
of kind ``student-mlp`` or ``student-transformer``, its config extends
``config.TrainConfig``, ``teacher.fit`` runs its epochs and
``teacher.model_from_checkpoint`` reads it back. This module adds the
student bodies, the soft labels, the distillation term and
``student_loss``, the one student loss that training minimizes and the
``gradcheck`` command checks. Training calls this module's own
``backward``, ``optimizer_step`` and ``normalize_adjacency``, and the loss
its ``student_forward`` and ``kd_loss``, so that rebinding these names
here times every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tape, Tensor, add, affine, backward, cross_entropy, glorot_uniform,
                       kl_to_target, matmul, mean_rows, optimizer_step, relu, row_softmax,
                       transpose)
from .config import DistillConfig
from .errors import ConfigError, DataError, NumericError, ShapeError
from .graphs import Subgraph, normalize_adjacency
from .serialization import read_checkpoint, write_checkpoint
from .teacher import (PARAM_NAMES, TEACHER_MODEL_KIND, Params, check_dataset, fit,
                      graph_stacks, model_from_checkpoint, teacher_logits)


def init_student(config: DistillConfig, rng: np.random.Generator) -> Params:
    """Seeded Glorot weights, zero biases; the transformer's kind embeddings
    start at zero so the block is initially permutation-symmetric."""
    d, h, c = config.dim, config.hidden, config.num_classes
    if config.student == "mlp":
        return Params("student-mlp", [
            glorot_uniform(rng, 4 * d, h),
            np.zeros((1, h)),
            glorot_uniform(rng, h, c),
            np.zeros((1, c)),
        ])
    return Params("student-transformer", [
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

def student_forward(kind: str, params: list[Tensor], content: Tensor) -> Tensor:
    """Logits for one sample from its 4 x dim content embeddings (fixed kind
    order), or for an untracked stack of samples. ``content`` is never
    tracked."""
    if content.rows != 4:
        raise ShapeError(f"students take exactly 4 content rows, got {content.rows}")
    if kind == "mlp":
        w1, b1, w2, b2 = params
        # The content is data, so its rows are flattened outside the tape.
        flat = Tensor._wrap(content.data.reshape(content.data.shape[:-2] + (1, -1)), None, None)
        hidden = relu(add(matmul(flat, w1), b1))
        return add(matmul(hidden, w2), b2)
    if kind == "transformer":
        kind_embed, wq, wk, wv, ff_w1, ff_b1, ff_w2, ff_b2, out_w, out_b = params
        x = add(content, kind_embed)
        q = matmul(x, wq)
        k = matmul(x, wk)
        v = matmul(x, wv)
        attn = row_softmax(affine(matmul(q, transpose(k)), 1.0 / math.sqrt(content.cols)))
        mixed = matmul(attn, v)
        ff = add(matmul(relu(add(matmul(mixed, ff_w1), ff_b1)), ff_w2), ff_b2)
        pooled = mean_rows(ff)
        return add(matmul(pooled, out_w), out_b)
    raise ConfigError(f"unknown student kind '{kind}'")


def student_logits(params: Params, subgraphs: list[Subgraph]) -> np.ndarray:
    """Untracked predictions from the subgraphs' content embeddings, as one
    forward pass over their stack; returns the n x C logits in sample order."""
    tensors = [Tensor(a) for a in params.tensors]
    if not subgraphs:
        return np.empty((0, tensors[-1].cols))
    content = Tensor(np.stack([sg.content_features() for sg in subgraphs]))
    logits = student_forward(params.kind.removeprefix("student-"), tensors, content)
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


def student_loss(config: DistillConfig, graphs: list[Subgraph], targets: list[SoftTarget]):
    """A student's training loss, which ``train_student`` minimizes and
    ``verification`` gradchecks: ``loss(params, i)`` is the cross-entropy
    of graph i, plus ``config.kd_weight`` times its distillation term
    towards ``targets[i]`` when there are targets, as a 1 x 1 tensor.
    ``train_student`` passes targets exactly when the weight is above 0, so
    with weight 0 the loss is the supervised one alone (the "without
    framework" baseline)."""
    content = [Tensor(sg.content_features()) for sg in graphs]

    def loss(params: list[Tensor], i: int) -> Tensor:
        logits = student_forward(config.student, params, content[i])
        out = cross_entropy(logits, graphs[i].label)
        if targets:
            out = add(out, affine(kd_loss(targets[i], logits, config.temperature),
                                  config.kd_weight))
        return out

    return loss


# ---------------------------------------------------------------------------
# Student training
# ---------------------------------------------------------------------------

def compute_soft_labels(teachers: list[Params], subgraphs: list[Subgraph],
                        temperature: float = 1.0) -> list[tuple[str, np.ndarray]]:
    """Soft labels for a whole dataset in sample order: the mean over the
    ensemble of softmax(teacher logits / temperature). Teachers are frozen,
    so this is computed once and reused across epochs."""
    if not teachers:
        raise ConfigError("need at least one teacher")
    logits = [np.empty((len(subgraphs), params.tensors[-1].shape[1])) for params in teachers]
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
                  teachers: list[Params], teacher_names: list[str] | None = None,
                  ) -> tuple[Params, dict, list[dict]]:
    """Per-sample distillation training through ``teacher.fit``. The teacher
    ensemble is only consulted when kd_weight > 0; a zero weight reproduces
    the plain supervised baseline bit for bit."""
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
    params = init_student(config, rng)
    loss_of = student_loss(config, train, targets)

    def step(state, vector, idx):
        tape = Tape()
        loss = loss_of([tape.watch(p) for p in vector.tensors], idx)
        optimizer_step(state, vector, backward(tape, loss))
        return loss.item()

    final, metrics = fit(config, params, rng, len(train), step,
                         lambda current: student_logits(current, val),
                         [sg.label for sg in val])
    metadata = {"model": params.kind, "config": config.to_dict(),
                "teachers": list(teacher_names or [])}
    return final, metadata, metrics


# ---------------------------------------------------------------------------
# Checkpoints and model loading
# ---------------------------------------------------------------------------

def save_student(path, params: Params, metadata: dict) -> None:
    write_checkpoint(path, metadata, list(zip(PARAM_NAMES[params.kind], params.tensors)))


def load_model(path):
    """Open any checkpoint, reading it once, and return (logits(subgraphs)
    -> n x C array, metadata). Teachers consume the full subgraphs,
    students only the content embeddings."""
    metadata, tensors = read_checkpoint(path)
    params = model_from_checkpoint(path, metadata, tensors, PARAM_NAMES,
                                   "a teacher or a student")
    logits = teacher_logits if params.kind == TEACHER_MODEL_KIND else student_logits
    return (lambda subgraphs: logits(params, subgraphs)), metadata


def load_predictor(path):
    """Like :func:`load_model`, but predict(subgraph) -> its logit row."""
    logits, metadata = load_model(path)
    return (lambda sg: logits([sg])[0]), metadata
