"""The traced benchmark rebinds package functions by name; every name it
lists must still resolve, or a rename would only show in a traced run. A
refactor that routes work around a wrapped name would leave its span empty,
so a traced graph build must still record each build layer."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import graphkd
from graphkd import graphs
from graphkd.datagen import SynthConfig, generate_synthetic, ingest_manifest
from graphkd.embeddings import TripletStore, read_store, read_triplets_tsv
from graphkd.graphs import CONTENT_KINDS
from reference import make_subgraph

TRACECLI = Path(__file__).resolve().parents[1] / "perfbench" / "tracecli.py"


def _tracecli():
    spec = importlib.util.spec_from_file_location("tracecli", TRACECLI)
    tracecli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracecli)
    return tracecli


def test_every_wrapped_attribute_resolves():
    tracecli = _tracecli()
    assert tracecli.WRAPPED
    missing = [f"graphkd.{module}.{attr}" for module, attr, _ in tracecli.WRAPPED
               if not callable(getattr(importlib.import_module(f"graphkd.{module}"),
                                       attr, None))]
    assert missing == []


def test_traced_build_records_every_build_layer(tmp_path, monkeypatch):
    tracecli = _tracecli()
    for module, attr, _ in tracecli.WRAPPED:
        # Registers the original for restoring once the test ends.
        module = importlib.import_module(f"graphkd.{module}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracecli.Tracer()
    tracer.install(graphkd)

    config = SynthConfig(samples=30, classes=3, dim=8, triplets_per_class=2, seed=4)
    paths = generate_synthetic(config, tmp_path / "d")
    dataset = ingest_manifest(paths["manifest"], read_store(paths["visual_embeddings"]))
    store = TripletStore(read_triplets_tsv(paths["triplets"]),
                         read_store(paths["triplet_embeddings"]))
    graphs.build_dataset_graphs(dataset, store, seed=4, k=2)

    calls = {}
    for key, (_, count) in tracer.spans.items():
        name = key.split("|")[0]
        calls[name] = calls.get(name, 0) + count
    # Visual channels are store references here: two texts per sample.
    assert calls["embeddings.embed"] == 2 * config.samples
    assert calls["embeddings.retrieve"] == 4 * config.samples
    assert calls["graphs.edges"] == config.samples


def test_traced_training_records_every_training_span(monkeypatch):
    """perfbench's per-layer training metrics read these spans; a renamed or
    bypassed function would leave one empty."""
    tracecli = _tracecli()
    for module, attr, _ in tracecli.WRAPPED:
        module = importlib.import_module(f"graphkd.{module}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracecli.Tracer()
    tracer.install(graphkd)
    from graphkd import distill, teacher

    # Graphs of 4, 5 and 6 nodes, with random features and edge weights.
    rng = np.random.Generator(np.random.PCG64(0))
    samples = []
    for s in range(6):
        n = 4 + s % 3
        weights = np.triu(rng.uniform(0.05, 1.0, (n, n)), 1)
        samples.append(make_subgraph([*CONTENT_KINDS, *(f"t{i}" for i in range(n - 4))],
                                     rng.standard_normal((n, 6)), weights + weights.T,
                                     label=s % 3))
    train, val = samples[:4], samples[4:]
    t_config = teacher.TeacherConfig(dim=6, num_classes=3, hidden=4, head_hidden=4,
                                     epochs=2, seed=0)
    params, _, _ = teacher.train_teacher(train, val, t_config)
    s_config = distill.DistillConfig(student="mlp", dim=6, num_classes=3, hidden=4,
                                     kd_weight=1.0, epochs=2, seed=0)
    distill.train_student(train, val, s_config, [params])

    names = set()
    for key in tracer.spans:
        name, parent = key.split("|")
        names |= {name, f"{name}@{parent}"}
    wanted = {"autodiff.backward", "autodiff.optimizer", "teacher.forward",
              "teacher.logits", "distill.forward", "distill.kd_loss",
              "distill.soft_labels", "distill.logits@distill.train"}
    assert wanted - names == set()
    # One backward per sample-step, with 11 tape records for the teacher and
    # 9 for the KD MLP student.
    steps = 2 * len(train)
    assert tracer.tape_steps == 2 * steps
    assert tracer.tape_records == steps * (11 + 9)
    for name in ("autodiff.backward", "autodiff.optimizer"):
        for parent in ("teacher.train", "distill.train"):
            assert tracer.spans[f"{name}|{parent}"][1] == steps
