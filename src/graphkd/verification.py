"""Finite-difference verification of the training losses.

Builds a small fixed subgraph fixture and checks the analytic gradients of
the losses that training minimizes -- ``teacher.teacher_loss`` and, for
both student kinds, ``distill.student_loss`` with its distillation term --
against central differences. Backs the ``gradcheck`` CLI subcommand; the
test suite reuses the same fixtures.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, gradcheck
from .config import DistillConfig, TeacherConfig, check_seed
from .distill import init_student, soft_target, student_loss
from .graphs import CONTENT_KINDS, Subgraph, normalize_adjacency
from .teacher import init_teacher, teacher_loss

FIXTURE_DIM = 6
FIXTURE_CLASSES = 3
FIXTURE_COMMONSENSE = 2


def fixture_subgraph(seed: int = 0) -> Subgraph:
    """A deterministic small subgraph: 4 content nodes plus
    ``FIXTURE_COMMONSENSE`` commonsense nodes with random unit embeddings,
    one row each of its own table, and random sparse symmetric edge weights
    in [0, 1]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = [*CONTENT_KINDS, *(f"t{i}" for i in range(FIXTURE_COMMONSENSE))]
    n = len(ids)
    table = np.array([vec / np.linalg.norm(vec)
                      for vec in rng.standard_normal((n, FIXTURE_DIM))])

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
    loss = teacher_loss([sg], [Tensor(normalize_adjacency(sg.adjacency))])
    return gradcheck(lambda t: loss(t, 0), [Tensor(a) for a in params.tensors], eps=eps)


def student_loss_error(kind: str, seed: int = 0, eps: float = 1e-5) -> float:
    """Max relative gradient error of the student loss at kd weight 1
    (supervised cross-entropy plus the distillation term) on the fixture."""
    config = DistillConfig(student=kind, dim=FIXTURE_DIM,
                           num_classes=FIXTURE_CLASSES, hidden=4, seed=seed)
    config.validate()
    sg = fixture_subgraph(seed)
    rng = np.random.Generator(np.random.PCG64(seed + 2))
    params = init_student(config, rng)
    loss = student_loss(config, [sg], [soft_target(rng.dirichlet(np.ones(FIXTURE_CLASSES)))])
    return gradcheck(lambda t: loss(t, 0), [Tensor(a) for a in params.tensors], eps=eps)


def run_all(seed: int = 0, eps: float = 1e-5) -> dict[str, float]:
    check_seed(seed)
    return {
        "teacher": teacher_loss_error(seed, eps),
        "student-mlp": student_loss_error("mlp", seed, eps),
        "student-transformer": student_loss_error("transformer", seed, eps),
    }
