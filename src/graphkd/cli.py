"""Command-line entry point.

Every subcommand is seeded and rerunnable: identical flags produce
byte-identical output files. Exit codes: 0 success, 1 usage error, 2
data/format error, 3 numeric invariant violation. Diagnostics go to
stderr; results go to files and stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import datagen, distill, evaluate, graphs, teacher, verification
from .embeddings import TripletStore, read_store, read_triplets_tsv
from .errors import (ConfigError, DataError, FormatError, GraphKDError,
                     NumericError)

GRADCHECK_TOLERANCE = 1e-4


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    config = datagen.SynthConfig(
        samples=args.samples, classes=args.classes, dim=args.dim,
        noise=args.noise, mask_prob=args.mask_prob,
        triplets_per_class=args.triplets_per_class, seed=args.seed)
    paths = datagen.generate_synthetic(config, args.out)
    _log(f"generated {args.samples} samples in {args.out}")
    print(str(paths["manifest"]))
    return 0


def cmd_build_graphs(args) -> int:
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
    subgraphs = graphs.build_dataset_graphs(
        dataset, triplet_store, seed=args.seed, k=args.k,
        mode=args.edge_mode, tau=args.tau)
    config = {
        "command": "build-graphs", "manifest": str(args.manifest),
        "embeddings": str(args.embeddings) if args.embeddings else None,
        "triplets": str(args.triplets),
        "triplet_embeddings": (str(args.triplet_embeddings)
                               if args.triplet_embeddings else None),
        "dim": dim, "seed": args.seed, "k": args.k,
        "edge_mode": args.edge_mode, "tau": args.tau,
    }
    graphs.write_graphs(args.out, subgraphs, dataset.label_vocab, config)
    sizes = [sg.size for sg in subgraphs]
    _log(f"built {len(subgraphs)} subgraphs (node counts {min(sizes)}-{max(sizes)})")
    print(str(args.out))
    return 0


def _load_graphs(path):
    subgraphs, header = graphs.read_graphs(path)
    return subgraphs, header, header["label_vocab"], subgraphs[0].dim


def _log_epochs(metrics: list[dict]) -> None:
    for entry in metrics:
        val_part = (f" val_micro_f1={entry['val_micro_f1']:.4f}"
                    if "val_micro_f1" in entry else "")
        _log(f"epoch {entry['epoch']:3d} train_loss={entry['train_loss']:.4f}{val_part}")


def _checkpoint_config(path, metadata: dict) -> dict:
    """The ``config`` object of a checkpoint's metadata, {} when it has none."""
    config = metadata.get("config", {})
    if not isinstance(config, dict):
        raise ConfigError(f"checkpoint {path}: metadata config must be an object, "
                          f"got {type(config).__name__}")
    return config


def _splits(subgraphs):
    train = [sg for sg in subgraphs if sg.split == "train"]
    val = [sg for sg in subgraphs if sg.split == "val"]
    return train, val


def cmd_train_teacher(args) -> int:
    subgraphs, header, label_vocab, dim = _load_graphs(args.graphs)
    train, val = _splits(subgraphs)
    config = teacher.TeacherConfig(
        dim=dim, num_classes=len(label_vocab), hidden=args.hidden,
        head_hidden=args.head_hidden, epochs=args.epochs,
        optimizer=args.optimizer, learning_rate=args.lr, seed=args.seed)
    params, metadata, metrics = teacher.train_teacher(
        train, val, config, graph_config=header.get("config"))
    _log_epochs(metrics)
    metadata["label_vocab"] = label_vocab
    teacher.save_teacher(args.out, params, metadata)
    print(str(args.out))
    return 0


def cmd_distill(args) -> int:
    subgraphs, header, label_vocab, dim = _load_graphs(args.graphs)
    train, val = _splits(subgraphs)
    teacher_paths = [p for p in args.teacher.split(",") if p]
    if not teacher_paths:
        raise ConfigError("at least one teacher checkpoint is required")
    teachers = []
    for path in teacher_paths:
        params, metadata = teacher.load_teacher(path)
        t_config = _checkpoint_config(path, metadata)
        if t_config.get("num_classes") != len(label_vocab):
            raise ConfigError(
                f"teacher {path} has {t_config.get('num_classes')} classes, "
                f"graphs have {len(label_vocab)}")
        if t_config.get("dim") != dim:
            raise ConfigError(
                f"teacher {path} has dim {t_config.get('dim')}, graphs have {dim}")
        teachers.append(params)

    config = distill.DistillConfig(
        student=args.student, dim=dim, num_classes=len(label_vocab),
        hidden=args.hidden, kd_weight=args.kd_weight,
        temperature=args.temperature, epochs=args.epochs,
        optimizer=args.optimizer, learning_rate=args.lr, seed=args.seed)
    params, metadata, metrics = distill.train_student(
        train, val, config, teachers, teacher_names=teacher_paths)
    _log_epochs(metrics)
    metadata["label_vocab"] = label_vocab
    metadata["graph_config"] = header.get("config")
    distill.save_student(args.out, params, metadata)
    print(str(args.out))
    return 0


def cmd_eval(args) -> int:
    subgraphs, header, label_vocab, dim = _load_graphs(args.graphs)
    predict, metadata = distill.load_model(args.model)
    model_config = _checkpoint_config(args.model, metadata)
    if model_config.get("dim") not in (None, dim):
        raise ConfigError(
            f"model dim {model_config.get('dim')} does not match graphs dim {dim}")
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

    defaults = datagen.SynthConfig
    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=defaults.samples)
    p.add_argument("--classes", type=int, default=defaults.classes)
    p.add_argument("--dim", type=int, default=defaults.dim)
    p.add_argument("--noise", type=float, default=defaults.noise)
    p.add_argument("--mask-prob", type=float, default=defaults.mask_prob)
    p.add_argument("--triplets-per-class", type=int, default=defaults.triplets_per_class)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("build-graphs", help="build per-sample subgraphs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", default=None,
                   help="visual embedding store (.gemb)")
    p.add_argument("--triplets", required=True, help="triplet TSV file")
    p.add_argument("--triplet-embeddings", default=None,
                   help="companion store; omitted = embed surface texts")
    p.add_argument("--dim", type=int, default=64,
                   help="embedding dim when no store supplies one")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--edge-mode", choices=graphs.EDGE_MODES, default="hybrid")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graphs)

    defaults = teacher.TeacherConfig
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
    p.set_defaults(func=cmd_train_teacher)

    defaults = distill.DistillConfig
    p = sub.add_parser("distill", help="distill teachers into a student")
    p.add_argument("--graphs", required=True)
    p.add_argument("--teacher", required=True,
                   help="comma-separated teacher checkpoints")
    p.add_argument("--student", choices=distill.STUDENT_KINDS, required=True)
    p.add_argument("--kd-weight", type=float, default=defaults.kd_weight)
    p.add_argument("--temperature", type=float, default=defaults.temperature)
    p.add_argument("--hidden", type=int, default=defaults.hidden)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=defaults.optimizer)
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--model", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"),
                   default="test")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="baseline-vs-treated comparison report")
    p.add_argument("--baseline", required=True)
    p.add_argument("--treated", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
