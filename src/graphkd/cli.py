"""Command-line entry point.

Every subcommand is seeded and rerunnable: identical flags produce
byte-identical output files. Exit codes: 0 success, 1 usage error, 2
data/format error or an allocation that failed, 3 numeric invariant
violation. Flags are checked before any input file is read. Diagnostics go
to stderr; results go to files and stdout.

A command loads only the modules it runs: each handler imports its own,
and the parser takes its defaults from the numpy-free ``config``, so
``compare`` and ``--help`` never import numpy, the model commands skip
``datagen`` and ``verification``, and ``gen-synth`` and ``build-graphs``
skip the models and ``evaluate``. Handlers call into a module through its
name (``graphs.read_graphs``), so a function rebound on the module is the
one that runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import STUDENT_KINDS, DistillConfig, SynthConfig, TeacherConfig
from .errors import (ConfigError, DataError, FormatError, GraphKDError,
                     NumericError)

GRADCHECK_TOLERANCE = 1e-4


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    from . import datagen

    config = SynthConfig(
        samples=args.samples, classes=args.classes, dim=args.dim,
        noise=args.noise, mask_prob=args.mask_prob,
        triplets_per_class=args.triplets_per_class, seed=args.seed)
    paths = datagen.generate_synthetic(config, args.out)
    _log(f"generated {args.samples} samples in {args.out}")
    print(str(paths["manifest"]))
    return 0


def cmd_build_graphs(args) -> int:
    from . import datagen, graphs
    from .embeddings import TripletStore, read_store, read_triplets_tsv

    graphs.check_build_flags(args.k)
    if not args.triplet_embeddings and args.dim < 2:
        raise ConfigError(f"dim must be >= 2 to embed triplet texts, got {args.dim}")
    visual_store = read_store(args.embeddings) if args.embeddings else None
    triplets = read_triplets_tsv(args.triplets)
    if args.triplet_embeddings:
        triplet_store = TripletStore(triplets, read_store(args.triplet_embeddings))
    else:
        triplet_store = TripletStore.from_texts(triplets, args.dim, args.seed)

    dim = triplet_store.dim
    if visual_store is not None and visual_store.dim != dim:
        raise ConfigError(
            f"visual store dim {visual_store.dim} != triplet store dim {dim}")

    dataset = datagen.ingest_manifest(args.manifest, embedding_store=visual_store)
    subgraphs = graphs.build_dataset_graphs(dataset, triplet_store, seed=args.seed, k=args.k)
    config = {
        "command": "build-graphs", "manifest": str(args.manifest),
        "embeddings": str(args.embeddings) if args.embeddings else None,
        "triplets": str(args.triplets),
        "triplet_embeddings": (str(args.triplet_embeddings)
                               if args.triplet_embeddings else None),
        "dim": dim, "seed": args.seed, "k": args.k,
        # The edges every build makes, named as before so the bytes stay.
        "edge_mode": "hybrid", "tau": 0.0,
    }
    graphs.write_graphs(args.out, subgraphs, dataset.label_vocab, config)
    sizes = [sg.size for sg in subgraphs]
    _log(f"built {len(subgraphs)} subgraphs (node counts {min(sizes)}-{max(sizes)})")
    print(str(args.out))
    return 0


def _load_graphs(path):
    from . import graphs

    subgraphs, header = graphs.read_graphs(path)
    return subgraphs, header, header["label_vocab"], subgraphs[0].dim


def _log_epochs(metrics: list[dict]) -> None:
    for entry in metrics:
        val_part = (f" val_micro_f1={entry['val_micro_f1']:.4f}"
                    if "val_micro_f1" in entry else "")
        _log(f"epoch {entry['epoch']:3d} train_loss={entry['train_loss']:.4f}{val_part}")


def _checked_config(path, metadata: dict, label_vocab: list[str], dim: int) -> dict:
    """The ``config`` object of the checkpoint at ``path``, checked against
    the graphs it is to be used with: the same dim, and the same label
    vocabulary in the same order. A checkpoint that records no vocabulary
    (one written by the library) must have as many classes."""
    config = metadata.get("config", {})
    if not isinstance(config, dict):
        raise ConfigError(f"checkpoint {path}: metadata config must be an object, "
                          f"got {type(config).__name__}")
    vocab = metadata.get("label_vocab")
    if vocab is not None and vocab != label_vocab:
        raise ConfigError(f"checkpoint {path} was trained on the label vocabulary {vocab!r}, "
                          f"the graphs have {label_vocab!r}")
    if vocab is None and config.get("num_classes") != len(label_vocab):
        raise ConfigError(f"checkpoint {path} has {config.get('num_classes')} classes, "
                          f"the graphs have {len(label_vocab)}")
    if config.get("dim") != dim:
        raise ConfigError(f"checkpoint {path} has dim {config.get('dim')}, "
                          f"the graphs have {dim}")
    return config


def _echo_graphs(metadata: dict, header: dict) -> None:
    """Record the graphs' label vocabulary, and their header's config if any."""
    metadata["label_vocab"] = header["label_vocab"]
    if header.get("config") is not None:
        metadata["graph_config"] = header["config"]


def _splits(subgraphs):
    train = [sg for sg in subgraphs if sg.split == "train"]
    val = [sg for sg in subgraphs if sg.split == "val"]
    return train, val


def cmd_train_teacher(args) -> int:
    from . import teacher

    # The flags are checked before the graphs file is read; the dim and the
    # class count come from it.
    config = TeacherConfig(
        dim=0, num_classes=0, hidden=args.hidden, head_hidden=args.head_hidden,
        epochs=args.epochs, optimizer=args.optimizer, learning_rate=args.lr, seed=args.seed)
    config.validate()
    subgraphs, header, label_vocab, dim = _load_graphs(args.graphs)
    train, val = _splits(subgraphs)
    params, metadata, metrics = teacher.train_teacher(
        train, val, replace(config, dim=dim, num_classes=len(label_vocab)))
    _log_epochs(metrics)
    _echo_graphs(metadata, header)
    teacher.save_teacher(args.out, params, metadata)
    print(str(args.out))
    return 0


def cmd_distill(args) -> int:
    from . import distill, teacher

    # The flags are checked before the graphs file or any teacher is read.
    config = DistillConfig(
        student=args.student, dim=0, num_classes=0, hidden=args.hidden,
        kd_weight=args.kd_weight, temperature=args.temperature, epochs=args.epochs,
        optimizer=args.optimizer, learning_rate=args.lr, seed=args.seed)
    config.validate()
    teacher_paths = [p for p in args.teacher.split(",") if p]
    if not teacher_paths:
        raise ConfigError("at least one teacher checkpoint is required")
    subgraphs, header, label_vocab, dim = _load_graphs(args.graphs)
    train, val = _splits(subgraphs)
    teachers = []
    for path in teacher_paths:
        params, metadata = teacher.load_teacher(path)
        _checked_config(path, metadata, label_vocab, dim)
        teachers.append(params)

    params, metadata, metrics = distill.train_student(
        train, val, replace(config, dim=dim, num_classes=len(label_vocab)), teachers,
        teacher_names=teacher_paths)
    _log_epochs(metrics)
    _echo_graphs(metadata, header)
    distill.save_student(args.out, params, metadata)
    print(str(args.out))
    return 0


def cmd_eval(args) -> int:
    from . import distill, evaluate

    subgraphs, header, label_vocab, dim = _load_graphs(args.graphs)
    predict, metadata = distill.load_model(args.model)
    model_config = _checked_config(args.model, metadata, label_vocab, dim)
    config_echo = {
        "command": "eval", "model": str(args.model), "graphs": str(args.graphs),
        "split": args.split, "model_kind": metadata.get("model"),
        "model_config": model_config,
    }
    report = evaluate.evaluate_model(
        predict, subgraphs, args.split, label_vocab, config=config_echo,
        seed=model_config.get("seed"))
    evaluate.write_report(args.report, report)
    print(f"split={report.split} n={report.num_samples} "
          f"micro_f1={report.micro_f1:.4f}")
    return 0


def cmd_compare(args) -> int:
    from . import evaluate

    baseline = evaluate.read_report(args.baseline)
    treated = evaluate.read_report(args.treated)
    baseline_name = Path(args.baseline).stem
    treated_name = Path(args.treated).stem
    if baseline_name == treated_name:
        baseline_name += " (baseline)"
        treated_name += " (treated)"
    report = evaluate.comparison_report(
        [(baseline_name, baseline), (treated_name, treated)],
        [(baseline_name, treated_name)])
    evaluate.write_comparison(args.out, report)
    sys.stdout.write(evaluate.render_comparison_text(report))
    return 0


def cmd_gradcheck(args) -> int:
    from . import verification

    results = verification.run_all(seed=args.seed, eps=args.eps)
    worst = max(results.values())
    for name, err in results.items():
        print(f"{name}: max relative gradient error {err:.3e}")
    if worst > GRADCHECK_TOLERANCE:
        _log(f"gradient check failed: {worst:.3e} > {GRADCHECK_TOLERANCE:.0e}")
        return 3
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphkd",
        description="Graph teacher training and soft-label distillation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SynthConfig
    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=defaults.samples)
    p.add_argument("--classes", type=int, default=defaults.classes)
    p.add_argument("--dim", type=int, default=defaults.dim)
    p.add_argument("--noise", type=float, default=defaults.noise)
    p.add_argument("--mask-prob", type=float, default=defaults.mask_prob)
    p.add_argument("--triplets-per-class", type=int, default=defaults.triplets_per_class)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.set_defaults(func=cmd_gen_synth, parser=p)

    p = sub.add_parser("build-graphs", help="build per-sample graphs (cosine, retrieval, NPMI)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", default=None,
                   help="visual embedding store (.gemb)")
    p.add_argument("--triplets", required=True, help="triplet TSV file")
    p.add_argument("--triplet-embeddings", default=None,
                   help="companion store; omitted = embed surface texts")
    p.add_argument("--dim", type=int, default=64,
                   help="embedding dim when no store supplies one")
    p.add_argument("--k", type=int, default=3, help="triplets retrieved per content node")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graphs, parser=p)

    defaults = TeacherConfig
    p = sub.add_parser("train-teacher", help="train the GCN teacher")
    p.add_argument("--graphs", required=True)
    p.add_argument("--hidden", type=int, default=defaults.hidden)
    p.add_argument("--head-hidden", type=int, default=defaults.head_hidden)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=defaults.optimizer)
    p.add_argument("--lr", type=float, default=defaults.learning_rate,
                   help="default 0.001 for adam, 0.01 for sgd")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_teacher, parser=p)

    defaults = DistillConfig
    p = sub.add_parser("distill", help="distill teachers into a student")
    p.add_argument("--graphs", required=True)
    p.add_argument("--teacher", required=True,
                   help="comma-separated teacher checkpoints")
    p.add_argument("--student", choices=STUDENT_KINDS, required=True)
    p.add_argument("--kd-weight", type=float, default=defaults.kd_weight)
    p.add_argument("--temperature", type=float, default=defaults.temperature)
    p.add_argument("--hidden", type=int, default=defaults.hidden)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=defaults.optimizer)
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill, parser=p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--model", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"),
                   default="test")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("compare", help="baseline-vs-treated comparison report")
    p.add_argument("--baseline", required=True)
    p.add_argument("--treated", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare, parser=p)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck, parser=p)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = parser.parse_known_args(argv)
        # The top-level parser takes nothing but -h before the subcommand's
        # name, so each argument there is a leftover of its own; the rest are
        # reported by the subcommand's parser, whose usage lists its flags.
        if before := argv.index(args.command):
            parser.error(f"unrecognized arguments: {' '.join(extra[:before])}")
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NumericError as exc:
        _log(f"error: {exc}")
        return 3
    except (FormatError, DataError, ConfigError, GraphKDError) as exc:
        _log(f"error: {exc}")
        return 2
    except OSError as exc:
        _log(f"error: {exc}")
        return 2
    except MemoryError as exc:
        # numpy's message names the size it could not allocate.
        _log(f"error: out of memory: {exc}" if str(exc) else "error: out of memory")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
