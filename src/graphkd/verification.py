"""Finite-difference verification of the full training losses.

Builds a small fixed subgraph fixture and checks analytic gradients of the
teacher loss and of both student losses (supervised + distillation term)
against central differences. Backs the ``gradcheck`` CLI subcommand; the
test suite reuses the same fixtures.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, cross_entropy, gradcheck
from .distill import (DistillConfig, combined_loss, init_student, kd_loss, soft_target,
                      student_forward)
from .errors import ConfigError
from .graphs import CONTENT_KINDS, Subgraph, normalize_adjacency
from .teacher import TeacherConfig, init_teacher, teacher_forward

FIXTURE_DIM = 6
FIXTURE_CLASSES = 3


def fixture_subgraph(seed: int = 0, dim: int = FIXTURE_DIM,
                     commonsense: int = 2) -> Subgraph:
    """A deterministic small subgraph: 4 content nodes plus a few
    commonsense nodes with random unit embeddings, one row each of its own
    table, and random sparse symmetric edge weights in [0, 1]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = [*CONTENT_KINDS, *(f"t{i}" for i in range(commonsense))]
    n = len(ids)
    table = np.array([vec / np.linalg.norm(vec) for vec in rng.standard_normal((n, dim))])

    adjacency = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                adjacency[i, j] = adjacency[j, i] = rng.uniform(0.05, 1.0)
    return Subgraph(sample_id="fixture", split="train", group="g0", label=1, table=table,
                    rows=np.arange(n), ids=ids, adjacency=adjacency)


def teacher_loss_error(seed: int = 0, eps: float = 1e-5) -> float:
    """Max relative gradient error of the full teacher loss on the fixture."""
    sg = fixture_subgraph(seed)
    config = TeacherConfig(dim=FIXTURE_DIM, num_classes=FIXTURE_CLASSES,
                           hidden=5, head_hidden=4, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    params = init_teacher(config, rng)
    a_hat = Tensor(normalize_adjacency(sg.adjacency))
    features = Tensor(sg.features())

    def loss(tracked):
        _, logits = teacher_forward(tracked, a_hat, features)
        return cross_entropy(logits, sg.label)

    return gradcheck(loss, [Tensor(a) for a in params.as_list()], eps=eps)


def student_loss_error(kind: str, seed: int = 0, eps: float = 1e-5) -> float:
    """Max relative gradient error of the combined student loss (supervised
    cross-entropy plus the distillation term) on the fixture."""
    if kind not in ("mlp", "transformer"):
        raise ConfigError(f"unknown student kind '{kind}'")
    sg = fixture_subgraph(seed)
    config = DistillConfig(student=kind, dim=FIXTURE_DIM,
                           num_classes=FIXTURE_CLASSES, hidden=4, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed + 2))
    params = init_student(config, rng)
    content = Tensor(sg.content_features())
    soft = soft_target(rng.dirichlet(np.ones(FIXTURE_CLASSES)))

    def loss(tracked):
        logits = student_forward(kind, tracked, content)
        sce = cross_entropy(logits, sg.label)
        kd = kd_loss(soft, logits, temperature=1.0)
        return combined_loss(sce, kd, 1.0)

    return gradcheck(loss, [Tensor(a) for a in params.tensors], eps=eps)


def run_all(seed: int = 0, eps: float = 1e-5) -> dict[str, float]:
    return {
        "teacher": teacher_loss_error(seed, eps),
        "student-mlp": student_loss_error("mlp", seed, eps),
        "student-transformer": student_loss_error("transformer", seed, eps),
    }
