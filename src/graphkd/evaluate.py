"""Micro-F1 metrics, split evaluation, and baseline-vs-treated comparison
reports.

This module knows nothing about specific model kinds: evaluation takes a
``predict(subgraphs) -> n x C logits`` callable, so teachers and students
share one code path. It imports neither numpy nor the graph code, so
``compare`` reads and compares reports without loading them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DataError, FormatError, NumericError
from .serialization import check_text, utf8_lines

if TYPE_CHECKING:  # annotations only
    import numpy as np

    from .graphs import Subgraph


def micro_f1(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """Micro-averaged F1 from globally pooled counts. For single-label
    multiclass predictions this equals accuracy."""
    if len(predictions) != len(labels):
        raise DataError(
            f"{len(predictions)} predictions but {len(labels)} labels")
    if len(labels) == 0:
        raise DataError("micro_f1 of an empty prediction list is undefined")
    # Single-label pooling: every correct prediction is a true positive of
    # its class, every wrong one a false positive of the predicted class and
    # a false negative of the true one.
    tp = _correct(predictions, labels)
    fp = fn = len(labels) - tp
    return 2 * tp / (2 * tp + fp + fn)


def accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    if len(predictions) != len(labels) or len(labels) == 0:
        raise DataError("accuracy needs equal-length, non-empty inputs")
    return _correct(predictions, labels) / len(labels)


def _correct(predictions: Sequence[int], labels: Sequence[int]) -> int:
    """How many predictions equal their labels, counted in plain ints."""
    return sum(int(p == l) for p, l in zip(predictions, labels))


@dataclass
class EvalReport:
    split: str
    num_samples: int
    accuracy: float
    micro_f1: float
    per_class: dict = field(default_factory=dict)
    per_group: dict = field(default_factory=dict)
    confusion: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seed: int | None = None


def build_report(predictions: Sequence[int], labels: Sequence[int],
                 groups: Sequence[str], label_vocab: Sequence[str], split: str,
                 config: dict | None = None, seed: int | None = None) -> EvalReport:
    """Assemble an evaluation report from predictions. Verifies the
    single-label identity micro-F1 == accuracy at report time."""
    score = micro_f1(predictions, labels)
    acc = accuracy(predictions, labels)
    if score != acc:
        raise NumericError(
            f"micro-F1 {score!r} != accuracy {acc!r} for single-label predictions")

    num_classes = len(label_vocab)
    for what, values in (("label", labels), ("prediction", predictions)):
        outside = [v for v in values if not 0 <= v < num_classes]
        if outside:
            raise DataError(f"{what} {outside[0]} lies outside the {num_classes}-entry "
                            f"label vocabulary")
    confusion = [[0] * num_classes for _ in range(num_classes)]
    for p, l in zip(predictions, labels):
        confusion[l][p] += 1

    # Class c's counts from the confusion matrix: its row holds the samples
    # labelled c, its column those predicted c, its diagonal both.
    per_class = {}
    for c, name in enumerate(label_vocab):
        support = sum(confusion[c])
        tp = confusion[c][c]
        fp = sum(row[c] for row in confusion) - tp
        fn = support - tp
        per_class[name] = {
            "precision": tp / (tp + fp) if tp + fp else 0.0,
            "recall": tp / (tp + fn) if tp + fn else 0.0,
            "f1": 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0,
            "support": support,
        }

    per_group = {}
    for g in sorted(set(groups)):
        mask = [i for i, gi in enumerate(groups) if gi == g]
        per_group[g] = {
            "micro_f1": micro_f1([predictions[i] for i in mask],
                                 [labels[i] for i in mask]),
            "num_samples": len(mask),
        }

    return EvalReport(split=split, num_samples=len(labels), accuracy=acc,
                      micro_f1=score, per_class=per_class, per_group=per_group,
                      confusion=confusion, config=dict(config or {}), seed=seed)


def evaluate_model(predict: Callable[[list[Subgraph]], np.ndarray],
                   subgraphs: list[Subgraph], split: str, label_vocab: Sequence[str],
                   config: dict | None = None, seed: int | None = None) -> EvalReport:
    """Run a model over one split and report. ``predict`` maps the split's
    subgraphs to their n x C logits in one call. Predictions are argmax of
    each logit row (ties resolve to the lowest class index)."""
    chosen = [sg for sg in subgraphs if split == "all" or sg.split == split]
    if not chosen:
        raise DataError(f"no samples in split '{split}'")
    logits = predict(chosen)
    if logits.shape[1] > len(label_vocab):
        raise DataError(f"the model scores {logits.shape[1]} classes but the label "
                        f"vocabulary has only {len(label_vocab)}")
    predictions = logits.argmax(axis=1).tolist()
    labels = [sg.label for sg in chosen]
    groups = [sg.group for sg in chosen]
    return build_report(predictions, labels, groups, label_vocab, split,
                        config=config, seed=seed)


def write_report(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(report), sort_keys=True, indent=2,
                            ensure_ascii=False) + "\n")


def read_report(path) -> EvalReport:
    """A report written by ``write_report``. The scores ``compare`` reads
    must be numbers in [0, 1]: ``micro_f1``, and the ``micro_f1`` of each
    ``per_group`` entry that has one. Group names, which ``compare`` writes,
    must be encodable as UTF-8."""
    text = "".join(utf8_lines(path))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not a report file: {exc}") from exc
    if not isinstance(doc, dict) or "micro_f1" not in doc:
        raise DataError(f"{path} is not a report file")
    _check_score(doc["micro_f1"], "micro_f1", path)
    per_group = doc.get("per_group")
    if per_group is not None:
        if not isinstance(per_group, dict):
            raise FormatError(f"report {path}: per_group must be an object, "
                              f"got {type(per_group).__name__}")
        for group, entry in per_group.items():
            check_text(group, f"report {path}: per_group name")
            if not isinstance(entry, dict):
                raise FormatError(f"report {path}: per_group entry {group!r} must be an "
                                  f"object, got {type(entry).__name__}")
            if entry.get("micro_f1") is not None:
                _check_score(entry["micro_f1"], f"per_group {group!r} micro_f1", path)
    return EvalReport(**{f.name: doc.get(f.name) for f in fields(EvalReport)})


def _check_score(value, what: str, path) -> None:
    # bool is an int subclass; JSON true is not a score.
    if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
        raise FormatError(f"report {path}: {what} must be a number in [0, 1], "
                          f"got {value!r}")


# ---------------------------------------------------------------------------
# Baseline-vs-treated comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    groups: list[str]
    rows: list[dict]


def comparison_report(runs: list[tuple[str, EvalReport]],
                      pairs: list[tuple[str, str]]) -> ComparisonReport:
    """Pair up named runs; each pair is (baseline name, treated name).
    Deltas are exactly treated - baseline on every column."""
    by_name = dict(runs)
    if len(by_name) != len(runs):
        raise DataError("duplicate run names in comparison input")
    groups: list[str] = sorted({g for _, rep in runs for g in (rep.per_group or {})})

    rows = []
    for baseline_name, treated_name in pairs:
        for name in (baseline_name, treated_name):
            if name not in by_name:
                raise DataError(f"comparison references unknown run '{name}'")
        base = by_name[baseline_name]
        treat = by_name[treated_name]

        def group_scores(rep: EvalReport) -> dict:
            return {g: (rep.per_group or {}).get(g, {}).get("micro_f1")
                    for g in groups}

        base_scores = group_scores(base)
        treat_scores = group_scores(treat)
        deltas = {
            g: (treat_scores[g] - base_scores[g]
                if base_scores[g] is not None and treat_scores[g] is not None
                else None)
            for g in groups
        }
        rows.append({
            "baseline": baseline_name,
            "treated": treated_name,
            "baseline_groups": base_scores,
            "treated_groups": treat_scores,
            "baseline_avg": base.micro_f1,
            "treated_avg": treat.micro_f1,
            "delta_groups": deltas,
            "delta_avg": treat.micro_f1 - base.micro_f1,
        })
    return ComparisonReport(groups=groups, rows=rows)


def render_comparison_text(report: ComparisonReport) -> str:
    """Aligned plain-text table, one baseline / treated / delta block per pair.
    Scores print as percentage points."""
    columns = report.groups + ["AVG"]
    name_width = max([len("model")] + [
        len(r[key]) for r in report.rows for key in ("baseline", "treated")])
    header = "model".ljust(name_width) + "".join(c.rjust(10) for c in columns)
    lines = [header, "-" * len(header)]

    def fmt(value, signed=False) -> str:
        if value is None:
            return "-".rjust(10)
        text = f"{value * 100:+.2f}" if signed else f"{value * 100:.2f}"
        return text.rjust(10)

    for row in report.rows:
        for which, scores, avg in (
            ("baseline", row["baseline_groups"], row["baseline_avg"]),
            ("treated", row["treated_groups"], row["treated_avg"]),
        ):
            cells = "".join(fmt(scores[g]) for g in report.groups) + fmt(avg)
            lines.append(row[which].ljust(name_width) + cells)
        cells = "".join(fmt(row["delta_groups"][g], signed=True)
                        for g in report.groups) + fmt(row["delta_avg"], signed=True)
        lines.append("delta".ljust(name_width) + cells)
        lines.append("-" * len(header))
    return "\n".join(lines) + "\n"


def write_comparison(path, report: ComparisonReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(report), sort_keys=True, indent=2,
                            ensure_ascii=False) + "\n")
