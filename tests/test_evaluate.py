"""Metrics, evaluation reports, and baseline-vs-treated comparisons."""

import numpy as np
import pytest

from graphkd.errors import DataError
from graphkd.evaluate import (EvalReport, accuracy, build_report, comparison_report,
                              evaluate_model, micro_f1, read_report,
                              render_comparison_text, write_comparison, write_report)
from graphkd.graphs import CONTENT_KINDS
from reference import make_subgraph


class TestMicroF1:
    def test_perfect(self):
        assert micro_f1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_worked_two_thirds(self):
        got = micro_f1([0, 1, 1], [0, 1, 0])
        assert abs(got - 2.0 / 3.0) <= 1e-12

    def test_all_wrong(self):
        assert micro_f1([1, 1, 1], [0, 0, 0]) == 0.0

    def test_equals_accuracy_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            classes = int(rng.integers(2, 7))
            preds = rng.integers(0, classes, n).tolist()
            labels = rng.integers(0, classes, n).tolist()
            assert micro_f1(preds, labels) == accuracy(preds, labels)

    def test_matches_per_class_pooling(self):
        def reference(preds, labels):
            tp = fp = fn = 0
            for c in set(preds) | set(labels):
                tp += sum(p == c and l == c for p, l in zip(preds, labels))
                fp += sum(p == c and l != c for p, l in zip(preds, labels))
                fn += sum(p != c and l == c for p, l in zip(preds, labels))
            return 2 * tp / (2 * tp + fp + fn)

        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 5, n).tolist()
            labels = rng.integers(0, 5, n).tolist()
            assert micro_f1(preds, labels) == reference(preds, labels)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(23)
        preds = rng.integers(0, 4, 40).tolist()
        labels = rng.integers(0, 4, 40).tolist()
        perm = rng.permutation(40)
        assert micro_f1(preds, labels) == micro_f1(
            [preds[i] for i in perm], [labels[i] for i in perm])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            micro_f1([0, 1], [0])

    def test_empty(self):
        with pytest.raises(DataError):
            micro_f1([], [])


class TestBuildReport:
    def _report(self):
        preds = [0, 1, 1, 2, 0, 2]
        labels = [0, 1, 0, 2, 1, 2]
        groups = ["g0", "g1", "g0", "g1", "g0", "g1"]
        return build_report(preds, labels, groups, ["a", "b", "c"], "test",
                            config={"who": "unit"}, seed=5)

    def test_confusion_sums_to_sample_count(self):
        report = self._report()
        assert sum(sum(row) for row in report.confusion) == report.num_samples

    def test_micro_f1_equals_accuracy(self):
        report = self._report()
        assert report.micro_f1 == report.accuracy

    def test_per_class_support(self):
        report = self._report()
        assert report.per_class["a"]["support"] == 2
        assert report.per_class["b"]["support"] == 2

    def test_per_group_scores(self):
        report = self._report()
        assert report.per_group["g0"]["num_samples"] == 3
        assert report.per_group["g1"]["micro_f1"] == 1.0

    @pytest.mark.parametrize("preds,labels", [([0, 3], [0, 1]), ([0, 1], [0, 3]),
                                              ([0, -1], [0, 1])])
    def test_indices_outside_vocab_rejected(self, preds, labels):
        with pytest.raises(DataError, match="label vocabulary"):
            build_report(preds, labels, ["g0", "g0"], ["a", "b", "c"], "test")

    def test_config_echo_and_seed(self):
        report = self._report()
        assert report.config == {"who": "unit"}
        assert report.seed == 5


def _graphs():
    rng = np.random.default_rng(2)
    out = []
    for i in range(10):
        out.append(make_subgraph(CONTENT_KINDS, rng.normal(0, 1, (4, 4)), np.zeros((4, 4)),
                                 label=i % 3, sample_id=f"s{i}",
                                 split="test" if i % 2 else "train", group=f"g{i % 2}"))
    return out


def _predict(subgraphs):
    # Deterministic pseudo-model keyed on the sample index.
    rows = np.zeros((len(subgraphs), 3))
    for row, sg in zip(rows, subgraphs):
        row[(int(sg.sample_id[1:]) * 2) % 3] = 1.0
    return rows


class TestEvaluateModel:
    def test_filters_split(self):
        report = evaluate_model(_predict, _graphs(), "test", ["a", "b", "c"])
        assert report.num_samples == 5
        assert report.split == "test"

    def test_all_split(self):
        report = evaluate_model(_predict, _graphs(), "all", ["a", "b", "c"])
        assert report.num_samples == 10

    def test_empty_split_rejected(self):
        with pytest.raises(DataError):
            evaluate_model(_predict, _graphs(), "val", ["a", "b", "c"])

    def test_deterministic(self):
        a = evaluate_model(_predict, _graphs(), "test", ["a", "b", "c"])
        b = evaluate_model(_predict, _graphs(), "test", ["a", "b", "c"])
        assert a.to_dict() == b.to_dict()

    def test_model_wider_than_vocab_rejected(self):
        # Even when every prediction would land inside the vocabulary.
        with pytest.raises(DataError, match="4 classes"):
            evaluate_model(lambda sgs: np.tile([1.0, 0, 0, 0], (len(sgs), 1)), _graphs(),
                           "all", ["a", "b", "c"])

    def test_argmax_tie_takes_lowest_class(self):
        report = evaluate_model(lambda sgs: np.zeros((len(sgs), 3)), _graphs(), "all",
                                ["a", "b", "c"])
        # All-zero logits predict class 0 everywhere.
        assert sum(report.confusion[i][0] for i in range(3)) == report.num_samples


class TestReportFile:
    def test_round_trip(self, tmp_path):
        report = evaluate_model(_predict, _graphs(), "test", ["a", "b", "c"],
                                config={"cmd": "eval"}, seed=3)
        path = tmp_path / "r.json"
        write_report(path, report)
        loaded = read_report(path)
        assert loaded.to_dict() == report.to_dict()

    def test_write_twice_identical(self, tmp_path):
        report = evaluate_model(_predict, _graphs(), "test", ["a", "b", "c"])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(p1, report)
        write_report(p2, report)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_non_report(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"something": 1}')
        with pytest.raises(DataError):
            read_report(path)


def _named_report(avg, groups=None):
    return EvalReport(split="test", num_samples=100, accuracy=avg, micro_f1=avg,
                      per_group={g: {"micro_f1": s, "num_samples": 10}
                                 for g, s in (groups or {}).items()})


class TestComparison:
    def test_worked_delta(self):
        # The documented average-score pair: 42.71 vs 53.92 -> +11.21.
        runs = [("base", _named_report(0.4271)), ("treated", _named_report(0.5392))]
        report = comparison_report(runs, [("base", "treated")])
        assert report.rows[0]["delta_avg"] * 100 == pytest.approx(11.21, abs=1e-9)

    def test_equal_runs_zero_delta(self):
        runs = [("a", _named_report(0.5)), ("b", _named_report(0.5))]
        report = comparison_report(runs, [("a", "b")])
        assert report.rows[0]["delta_avg"] == 0.0

    def test_three_pairs_three_rows(self):
        runs = [(f"r{i}", _named_report(0.1 * i)) for i in range(6)]
        pairs = [("r0", "r1"), ("r2", "r3"), ("r4", "r5")]
        assert len(comparison_report(runs, pairs).rows) == 3

    def test_group_columns_and_deltas(self):
        runs = [("b", _named_report(0.5, {"g0": 0.4, "g1": 0.6})),
                ("t", _named_report(0.7, {"g0": 0.65, "g1": 0.75}))]
        report = comparison_report(runs, [("b", "t")])
        assert report.groups == ["g0", "g1"]
        row = report.rows[0]
        assert row["delta_groups"]["g0"] == pytest.approx(0.25, abs=1e-12)

    def test_dangling_reference(self):
        runs = [("a", _named_report(0.5))]
        with pytest.raises(DataError, match="ghost"):
            comparison_report(runs, [("a", "ghost")])

    def test_duplicate_names(self):
        runs = [("a", _named_report(0.5)), ("a", _named_report(0.6))]
        with pytest.raises(DataError):
            comparison_report(runs, [("a", "a")])

    def test_render_text_alignment(self):
        runs = [("baseline", _named_report(0.4271, {"g0": 0.41})),
                ("treated", _named_report(0.5392, {"g0": 0.54}))]
        text = render_comparison_text(comparison_report(runs, [("baseline", "treated")]))
        lines = text.splitlines()
        assert "AVG" in lines[0]
        assert any("+11.21" in line for line in lines)
        widths = {len(line) for line in lines if line and not line.startswith("-")}
        assert len(widths) == 1

    def test_comparison_file_deterministic(self, tmp_path):
        runs = [("b", _named_report(0.5)), ("t", _named_report(0.6))]
        report = comparison_report(runs, [("b", "t")])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_comparison(p1, report)
        write_comparison(p2, report)
        assert p1.read_bytes() == p2.read_bytes()
