"""Distillation: soft labels, KD loss, student models, and training."""

import math

import numpy as np
import pytest

from graphkd import autodiff
from graphkd.autodiff import Tape, Tensor, cross_entropy
from graphkd.distill import (STUDENT_KINDS, DistillConfig, StudentParams, combined_loss,
                             compute_soft_labels, init_student, kd_loss, load_model,
                             load_predictor, load_student, save_student, soft_target,
                             student_forward, student_logits, train_student)
from graphkd.errors import ConfigError, DataError, NumericError, ShapeError
from graphkd.graphs import CONTENT_KINDS, normalize_adjacency
from graphkd.teacher import (TeacherConfig, TeacherParams, init_teacher, save_teacher,
                             teacher_forward, teacher_logits, train_teacher)
from graphkd.verification import student_loss_error
from reference import (kd_chain_reference, make_subgraph, soft_label_row, student_row,
                       teacher_row, train_student_reference)


def _subgraphs(count, dim=8, classes=3, seed=0, split="train"):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        features = rng.normal(0, 1, (5, dim))
        upper = np.triu(rng.uniform(0, 1, (5, 5)), 1)
        out.append(make_subgraph([*CONTENT_KINDS, "t0"], features, upper + upper.T,
                                 label=int(rng.integers(classes)), sample_id=f"s{i}",
                                 split=split, group=f"g{i % 3}"))
    return out


def _teacher(dim=8, classes=3, seed=2, bias_row=None):
    config = TeacherConfig(dim=dim, num_classes=classes, hidden=4, head_hidden=4,
                           seed=seed)
    params = init_teacher(config, np.random.Generator(np.random.PCG64(seed)))
    if bias_row is not None:
        # Zero the network so logits equal the output bias exactly.
        params = TeacherParams(
            w0=np.zeros_like(params.w0), w1=np.zeros_like(params.w1),
            head_w1=np.zeros_like(params.head_w1), head_b1=np.zeros_like(params.head_b1),
            head_w2=np.zeros_like(params.head_w2),
            head_b2=np.asarray(bias_row, dtype=np.float64).reshape(1, -1))
    return params


def _np_softmax(row):
    e = np.exp(row - row.max())
    return e / e.sum()


def teacher_soft_labels(teachers, sg, temperature=1.0):
    """Soft-label row of one sample."""
    [(_, row)] = compute_soft_labels(teachers, [sg], temperature)
    return row


class TestSoftLabels:
    def test_single_teacher_is_softmax(self):
        sg = _subgraphs(1)[0]
        teacher = _teacher()
        got = teacher_soft_labels([teacher], sg)
        want = _np_softmax(teacher_logits(teacher, [sg])[0])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_opposed_teachers_average_to_half(self):
        sg = _subgraphs(1, classes=2)[0]
        t1 = _teacher(classes=2, bias_row=[4.0, -1.0])
        t2 = _teacher(classes=2, bias_row=[-1.0, 4.0])
        got = teacher_soft_labels([t1, t2], sg)
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-12)

    def test_three_teacher_mean_matches_bruteforce(self):
        sg = _subgraphs(1)[0]
        teachers = [_teacher(seed=s) for s in (3, 4, 5)]
        got = teacher_soft_labels(teachers, sg)
        rows = [_np_softmax(teacher_logits(t, [sg])[0]) for t in teachers]
        want = (rows[0] + rows[1] + rows[2]) / 3.0
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rows_sum_to_one_for_all_ensemble_sizes(self):
        sg = _subgraphs(1)[0]
        for n in (1, 2, 3):
            row = teacher_soft_labels([_teacher(seed=s) for s in range(n)], sg)
            assert abs(row.sum() - 1.0) <= 1e-9

    def test_temperature_softens(self):
        sg = _subgraphs(1)[0]
        teacher = _teacher()
        sharp = teacher_soft_labels([teacher], sg, temperature=1.0)
        soft = teacher_soft_labels([teacher], sg, temperature=5.0)
        assert soft.max() < sharp.max()

    def test_requires_a_teacher(self):
        with pytest.raises(ConfigError):
            teacher_soft_labels([], _subgraphs(1)[0])

    def test_class_count_mismatch(self):
        sg = _subgraphs(1)[0]
        with pytest.raises(ConfigError):
            teacher_soft_labels([_teacher(classes=3), _teacher(classes=4)], sg)


class TestKdLoss:
    def test_zero_when_distributions_match(self):
        logits = np.array([[0.4, -1.2, 2.0]])
        p = _np_softmax(logits[0])
        loss = kd_loss(soft_target(p), Tensor(logits))
        assert 0.0 <= loss.item() <= 1e-12

    def test_hand_value_ln2(self):
        loss = kd_loss(soft_target(np.array([1.0, 0.0])), Tensor([[0.0, 0.0]]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-6)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            c = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(c))
            loss = kd_loss(soft_target(p), Tensor(rng.normal(0, 3, (1, c))))
            assert loss.item() >= 0.0

    def test_zero_teacher_mass_contributes_nothing(self):
        p = np.array([0.5, 0.5, 0.0])
        loss = kd_loss(soft_target(p), Tensor([[1.0, 1.0, -40.0]]))
        assert math.isfinite(loss.item())

    def test_temperature_scaling_matches_reference(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(4))
        logits = rng.normal(0, 2, (1, 4))
        tau = 2.5
        student = _np_softmax(logits[0] / tau)
        mask = p > 0
        want = tau * tau * float(np.sum(p[mask] * (np.log(p[mask]) - np.log(student[mask]))))
        got = kd_loss(soft_target(p), Tensor(logits), temperature=tau)
        assert got.item() == pytest.approx(want, abs=1e-9)

    def test_rejects_unnormalized_teacher_row(self):
        with pytest.raises(DataError):
            soft_target(np.array([0.7, 0.7]))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ShapeError):
            kd_loss(soft_target(np.array([0.5, 0.5])), Tensor([[0.0, 0.0, 0.0]]))

    def test_non_finite_teacher_row_raises(self):
        # A NaN entry would pass the sum check (NaN compares false).
        with pytest.raises(NumericError):
            soft_target(np.array([float("nan"), 1.0]))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            soft_target(np.array([float("inf"), -float("inf"), 1.0]))

    def test_one_tape_record(self):
        tape = Tape()
        kd_loss(soft_target(np.array([0.25, 0.75])), tape.parameter([[0.5, -0.5]]),
                temperature=2.0)
        assert [rec.op for rec in tape.records] == ["kl_to_target"]

    def test_entropy_term_matches_the_per_step_computation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5)) * (rng.random(5) < 0.8)
            p = p / p.sum() if p.sum() > 0 else np.eye(5)[0]
            logits = rng.normal(0, 2, (1, 5))
            want, _ = kd_chain_reference(p, logits, 1.5, np.ones((1, 1)))
            got = kd_loss(soft_target(p), Tensor(logits), temperature=1.5)
            assert got.data.tobytes() == want.tobytes()


class TestSoftTargetsOncePerRun:
    @staticmethod
    def _counted(monkeypatch):
        """Count ``soft_target``, ``kd_loss`` and optimizer steps in ``distill``."""
        from graphkd import distill
        calls = {"soft_target": 0, "kd_loss": 0, "optimizer_step": 0}
        for name in calls:
            real = getattr(distill, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(distill, name, counted)
        return distill, calls

    CONFIG = DistillConfig(student="mlp", dim=8, num_classes=3, hidden=4, epochs=3)

    def test_each_row_checked_once_and_one_kd_loss_per_step(self, monkeypatch):
        distill, calls = self._counted(monkeypatch)
        distill.train_student(_subgraphs(5), [], self.CONFIG, [_teacher()])
        assert calls == {"soft_target": 5, "kd_loss": 15, "optimizer_step": 15}

    def test_bad_row_rejected_before_the_first_step(self, monkeypatch):
        distill, calls = self._counted(monkeypatch)
        rows = [(f"s{i}", np.array([0.2, 0.3, 0.5])) for i in range(5)]
        rows[3] = ("s3", np.array([0.2, 0.3, 0.6]))
        monkeypatch.setattr(distill, "compute_soft_labels", lambda *args: rows)
        with pytest.raises(DataError, match="sums to"):
            distill.train_student(_subgraphs(5), [], self.CONFIG, [_teacher()])
        assert calls["optimizer_step"] == 0 and calls["kd_loss"] == 0


class TestCombinedLoss:
    def test_weighted_sum(self):
        out = combined_loss(Tensor([[0.5]]), Tensor([[0.25]]), 1.0)
        assert out.item() == pytest.approx(0.75, abs=1e-12)

    def test_zero_weight_passes_supervised_loss_through(self):
        sce = Tensor([[0.5]])
        assert combined_loss(sce, Tensor([[0.25]]), 0.0) is sce

    def test_zero_kd_term(self):
        out = combined_loss(Tensor([[0.5]]), Tensor([[0.0]]), 1.0)
        assert out.item() == pytest.approx(0.5, abs=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss(Tensor([[0.5]]), Tensor([[0.25]]), -0.1)


class TestStudentForward:
    def test_mlp_zero_weights(self):
        params = [Tensor(np.zeros((8, 4))), Tensor(np.zeros((1, 4))),
                  Tensor(np.zeros((4, 3))), Tensor(np.zeros((1, 3)))]
        out = student_forward("mlp", params, Tensor(np.ones((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_mlp_hand_fixture(self):
        content = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        w1 = np.zeros((8, 2))
        w1[0, 0] = w1[4, 0] = 1.0
        w1[1, 1] = w1[5, 1] = 1.0
        params = [Tensor(w1), Tensor([[0.5, -0.5]]),
                  Tensor([[1.0, -1.0], [1.0, 1.0]]), Tensor([[0.0, 0.5]])]
        out = student_forward("mlp", params, content)
        np.testing.assert_allclose(out.data, [[3.0, -1.5]], atol=1e-12)

    def test_transformer_equal_rows_uniform_attention(self):
        rng = np.random.default_rng(3)
        config = DistillConfig(student="transformer", dim=6, num_classes=3, hidden=4)
        params = init_student(config, rng)
        row = rng.normal(0, 1, 6)
        internals = {}
        student_forward("transformer", [Tensor(a) for a in params.tensors],
                        Tensor(np.tile(row, (4, 1))), internals=internals)
        np.testing.assert_allclose(internals["attention"], np.full((4, 4), 0.25),
                                   atol=1e-12)

    def test_wrong_row_count(self):
        config = DistillConfig(student="mlp", dim=4, num_classes=2)
        params = init_student(config, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            student_forward("mlp", [Tensor(a) for a in params.tensors],
                            Tensor(np.ones((3, 4))))

    def test_transformer_output_width(self):
        config = DistillConfig(student="transformer", dim=5, num_classes=4, hidden=3)
        params = init_student(config, np.random.default_rng(1))
        out = student_forward("transformer", [Tensor(a) for a in params.tensors],
                              Tensor(np.random.default_rng(2).normal(0, 1, (4, 5))))
        assert out.data.shape == (1, 4)

    def test_gradcheck_both_kinds(self):
        assert student_loss_error("mlp", seed=0, eps=1e-5) <= 1e-4
        assert student_loss_error("transformer", seed=0, eps=1e-5) <= 1e-4

    def test_training_steps_record_every_op_with_a_backward_rule(self):
        """The kernel keeps only the ops the models record. ``reshape`` is
        the exception: the MLP student applies it to untracked input."""
        sg = _subgraphs(1)[0]
        recorded = set()
        tape = Tape()
        tracked = [tape.watch(Tensor(a)) for a in _teacher().as_list()]
        _, logits = teacher_forward(tracked, Tensor(normalize_adjacency(sg.adjacency)),
                                    Tensor(sg.features()))
        cross_entropy(logits, sg.label)
        recorded |= {rec.op for rec in tape.records}
        for kind in STUDENT_KINDS:
            config = DistillConfig(student=kind, dim=8, num_classes=3, hidden=4)
            tape = Tape()
            tracked = [tape.watch(Tensor(a)) for a in
                       init_student(config, np.random.default_rng(0)).tensors]
            logits = student_forward(kind, tracked, Tensor(sg.content_features()))
            combined_loss(cross_entropy(logits, sg.label),
                          kd_loss(soft_target(np.array([0.2, 0.3, 0.5])), logits), 0.5)
            recorded |= {rec.op for rec in tape.records}
        assert recorded == set(autodiff._BACKWARD) - {"reshape"}


class TestTrainStudent:
    def _config(self, **kw):
        base = dict(student="mlp", dim=8, num_classes=3, hidden=4, epochs=2, seed=1)
        base.update(kw)
        return DistillConfig(**base)

    @pytest.mark.parametrize("field", ["hidden", "epochs"])
    def test_sizes_below_one_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            train_student(_subgraphs(4), [], self._config(**{field: 0}), [])

    def test_zero_weight_matches_reference_supervised_loop(self):
        train = _subgraphs(12)
        config = self._config(kd_weight=0.0)
        got, _, _ = train_student(train, [], config, [])
        # The plain supervised per-sample, per-tensor loop of tests/reference.py.
        want = train_student_reference(train, config, [])
        assert len(got.tensors) == len(want)
        for a, b in zip(got.tensors, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("student,kd_weight,optimizer", [
        ("mlp", 1.0, "adam"), ("transformer", 1.0, "adam"), ("transformer", 0.0, "adam"),
        ("mlp", 0.5, "sgd")])
    def test_training_matches_per_sample_reference(self, student, kd_weight, optimizer):
        train = _subgraphs(12)
        teachers = [_teacher(seed=2), _teacher(seed=5)]
        config = self._config(student=student, kd_weight=kd_weight, optimizer=optimizer,
                              temperature=2.0 if kd_weight else 1.0)
        got, _, _ = train_student(train, _subgraphs(3, seed=4), config, teachers)
        want = train_student_reference(train, config, teachers)
        assert len(got.tensors) == len(want)
        for a, b in zip(got.tensors, want):
            assert a.tobytes() == b.tobytes()

    def test_same_seed_bitwise(self, tmp_path):
        train = _subgraphs(10)
        teacher = _teacher()
        blobs = []
        for name in ("a", "b"):
            params, meta, _ = train_student(train, [], self._config(), [teacher])
            path = tmp_path / f"{name}.ckpt"
            save_student(path, params, meta)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_teacher_parameters_untouched(self):
        train = _subgraphs(8)
        teacher = _teacher()
        before = [a.tobytes() for a in teacher.as_list()]
        train_student(train, [], self._config(), [teacher])
        after = [a.tobytes() for a in teacher.as_list()]
        assert before == after

    def test_kd_needs_teachers(self):
        with pytest.raises(ConfigError):
            train_student(_subgraphs(4), [], self._config(kd_weight=1.0), [])

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigError):
            train_student([], [], self._config(), [])

    def test_val_metrics(self):
        _, _, metrics = train_student(_subgraphs(8), _subgraphs(4, seed=9),
                                      self._config(kd_weight=0.0), [])
        assert all("val_micro_f1" in m for m in metrics)

    def test_transformer_trains(self):
        params, meta, _ = train_student(
            _subgraphs(6), [], self._config(student="transformer"), [_teacher()])
        assert meta["model"] == "student-transformer"
        assert params.kind == "transformer"

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            self._config(student="cnn").validate()
        with pytest.raises(ConfigError):
            self._config(temperature=0.0).validate()
        with pytest.raises(ConfigError):
            self._config(kd_weight=-1.0).validate()


class TestStudentCheckpoint:
    def test_round_trip(self, tmp_path):
        params, meta, _ = train_student(
            _subgraphs(5), [], DistillConfig(student="mlp", dim=8, num_classes=3,
                                             hidden=4, kd_weight=0.0, epochs=1,
                                             seed=0), [])
        path = tmp_path / "s.ckpt"
        save_student(path, params, meta)
        loaded, loaded_meta = load_student(path)
        assert loaded.kind == "mlp"
        for a, b in zip(loaded.tensors, params.tensors):
            assert (a == b).all()
        # write -> read -> write gives identical bytes
        path2 = tmp_path / "s2.ckpt"
        save_student(path2, loaded, loaded_meta)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_rejects_teacher_checkpoint(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_teacher(path, _teacher(), {"model": "gcn-teacher", "config": {}})
        with pytest.raises(ConfigError):
            load_student(path)

    @pytest.mark.parametrize("model", [7, None, ["student-mlp"]])
    def test_load_rejects_non_string_model_kind(self, tmp_path, model):
        params = init_student(DistillConfig(student="mlp", dim=8, num_classes=3),
                              np.random.default_rng(1))
        path = tmp_path / "s.ckpt"
        save_student(path, params, {"model": model, "config": {}})
        with pytest.raises(ConfigError, match="expected a student"):
            load_student(path)

    def test_predictor_dispatch(self, tmp_path):
        sg = _subgraphs(1)[0]
        t_path = tmp_path / "t.ckpt"
        save_teacher(t_path, _teacher(), {"model": "gcn-teacher", "config": {}})
        predict, meta = load_predictor(t_path)
        assert meta["model"] == "gcn-teacher"
        assert predict(sg).shape == (3,)

        params, smeta, _ = train_student(
            _subgraphs(5), [], DistillConfig(student="mlp", dim=8, num_classes=3,
                                             hidden=4, kd_weight=0.0, epochs=1,
                                             seed=0), [])
        s_path = tmp_path / "s.ckpt"
        save_student(s_path, params, smeta)
        predict, meta = load_predictor(s_path)
        assert meta["model"] == "student-mlp"
        np.testing.assert_array_equal(predict(sg), student_logits(params, [sg])[0])

    def test_load_model_reads_each_checkpoint_once(self, tmp_path, monkeypatch):
        from graphkd import distill, serialization, teacher
        reads = []

        def counted(path):
            reads.append(path)
            return serialization.read_checkpoint(path)

        for module in (distill, teacher):
            monkeypatch.setattr(module, "read_checkpoint", counted)
        t_path = tmp_path / "t.ckpt"
        save_teacher(t_path, _teacher(), {"model": "gcn-teacher", "config": {}})
        params, smeta, _ = train_student(
            _subgraphs(5), [], DistillConfig(student="transformer", dim=8, num_classes=3,
                                             hidden=4, kd_weight=0.0, epochs=1,
                                             seed=0), [])
        s_path = tmp_path / "s.ckpt"
        save_student(s_path, params, smeta)
        for path, model in ((t_path, "gcn-teacher"), (s_path, "student-transformer")):
            reads.clear()
            logits, meta = load_model(path)
            assert reads == [path] and meta["model"] == model
            assert logits(_subgraphs(2)).shape == (2, 3)

    def test_model_logits_match_per_sample_predictor(self, tmp_path):
        graphs = _subgraphs(6)
        path = tmp_path / "t.ckpt"
        save_teacher(path, _teacher(), {"model": "gcn-teacher", "config": {}})
        logits, _ = load_model(path)
        predict, _ = load_predictor(path)
        got = logits(graphs)
        assert got.shape == (6, 3)
        for row, sg in zip(got, graphs):
            assert row.tobytes() == predict(sg).tobytes()


class TestSoftLabelCache:
    def test_cached_rows_match_direct_computation(self):
        self._check_against_reference(temperature=1.0, classes=5)

    def test_rows_match_reference_at_a_temperature_with_nine_classes(self):
        self._check_against_reference(temperature=3.0, classes=9)

    def _check_against_reference(self, temperature, classes):
        graphs = _mixed_sizes(9, classes=classes)
        teachers = [_teacher(classes=classes, seed=s) for s in (2, 3, 4)]
        entries = compute_soft_labels(teachers, graphs, temperature)
        assert [sample_id for sample_id, _ in entries] == [sg.sample_id for sg in graphs]
        for sg, (_, row) in zip(graphs, entries):
            assert row.tobytes() == soft_label_row(teachers, sg, temperature).tobytes()

    def test_no_samples(self):
        assert compute_soft_labels([_teacher()], []) == []


def _mixed_sizes(count, dim=8, classes=3, seed=0):
    """Subgraphs with 4, 5, 6 or 7 nodes in an interleaved order."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 4 + i % 4
        features = rng.normal(0, 1, (n, dim))
        upper = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.7), 1)
        out.append(make_subgraph([*CONTENT_KINDS, *(f"t{j}" for j in range(i % 4))],
                                 features, upper + upper.T, label=int(rng.integers(classes)),
                                 sample_id=f"m{i}", split="test"))
    return out


class TestStackedLogits:
    """The stacked untracked forward against one 2-D forward per sample."""

    def test_teacher_logits_match_per_sample_forward(self):
        graphs = _mixed_sizes(11, classes=4)
        teacher = _teacher(classes=4)
        got = teacher_logits(teacher, graphs)
        assert got.shape == (11, 4)
        for row, sg in zip(got, graphs):
            assert row.tobytes() == teacher_row(teacher, sg).tobytes()

    @pytest.mark.parametrize("given_a_hats", [False, True])
    @pytest.mark.parametrize("count", [1, 3])
    def test_teachers_and_soft_labels_match_per_sample_on_mixed_sizes(self, given_a_hats,
                                                                      count):
        graphs = _mixed_sizes(13, classes=4, seed=5)
        teachers = [_teacher(classes=4, seed=s) for s in range(2, 2 + count)]
        a_hats = [normalize_adjacency(sg.adjacency) for sg in graphs] if given_a_hats else None
        for params in teachers:
            got = teacher_logits(params, graphs, a_hats)
            for row, sg in zip(got, graphs):
                assert row.tobytes() == teacher_row(params, sg).tobytes()
        entries = compute_soft_labels(teachers, graphs, temperature=2.0)
        for (sample_id, row), sg in zip(entries, graphs):
            assert sample_id == sg.sample_id
            assert row.tobytes() == soft_label_row(teachers, sg, 2.0).tobytes()

    def test_group_inputs_are_built_when_the_group_runs(self, monkeypatch):
        from graphkd import teacher as teacher_module
        normalized, forwards = [], []
        real_normalize = teacher_module.normalize_adjacency
        real_forward = teacher_module.teacher_forward

        def normalize(adjacency):
            normalized.append(adjacency.shape[0])
            return real_normalize(adjacency)

        def forward(params, a_hat, features):
            forwards.append((len(normalized), a_hat.data.shape[0]))
            return real_forward(params, a_hat, features)

        monkeypatch.setattr(teacher_module, "normalize_adjacency", normalize)
        monkeypatch.setattr(teacher_module, "teacher_forward", forward)
        teacher_logits(_teacher(), _mixed_sizes(12))
        # Each group's adjacencies are normalized just before its forward pass.
        assert len(forwards) == 4
        assert [done for done, _ in forwards] == list(np.cumsum([n for _, n in forwards]))

    @pytest.mark.parametrize("kind", ["mlp", "transformer"])
    def test_student_logits_match_per_sample_forward(self, kind):
        graphs = _mixed_sizes(11)
        config = DistillConfig(student=kind, dim=8, num_classes=3, hidden=5)
        params = init_student(config, np.random.default_rng(6))
        # Non-zero kind embeddings and biases, as after training.
        params.tensors = [a + np.random.default_rng(i).normal(0, 0.1, a.shape)
                          for i, a in enumerate(params.tensors)]
        got = student_logits(params, graphs)
        assert got.shape == (11, 3)
        for row, sg in zip(got, graphs):
            assert row.tobytes() == student_row(params, sg).tobytes()

    def test_every_model_kind_on_a_built_graphs_file(self, tmp_path):
        from graphkd.datagen import SynthConfig, generate_synthetic, ingest_manifest
        from graphkd.embeddings import TripletStore, read_store, read_triplets_tsv
        from graphkd.graphs import build_dataset_graphs, read_graphs, write_graphs

        paths = generate_synthetic(SynthConfig(samples=60, classes=3, dim=8,
                                               triplets_per_class=3, seed=11), tmp_path)
        dataset = ingest_manifest(paths["manifest"], read_store(paths["visual_embeddings"]))
        store = TripletStore(read_triplets_tsv(paths["triplets"]),
                             read_store(paths["triplet_embeddings"]))
        write_graphs(tmp_path / "g.jsonl", build_dataset_graphs(dataset, store, seed=11, k=2),
                     dataset.label_vocab, {})
        graphs, _ = read_graphs(tmp_path / "g.jsonl")
        assert len({sg.size for sg in graphs}) >= 3

        teacher, _, _ = train_teacher(graphs[:20], [], TeacherConfig(
            dim=8, num_classes=3, hidden=5, head_hidden=4, epochs=1, seed=0))
        for row, sg in zip(teacher_logits(teacher, graphs), graphs):
            assert row.tobytes() == teacher_row(teacher, sg).tobytes()
        for kind in ("mlp", "transformer"):
            student, _, _ = train_student(graphs[:20], [], DistillConfig(
                student=kind, dim=8, num_classes=3, hidden=5, epochs=1, seed=0),
                [teacher])
            for row, sg in zip(student_logits(student, graphs), graphs):
                assert row.tobytes() == student_row(student, sg).tobytes()

    def test_a_stack_of_one(self):
        sg = _mixed_sizes(1)[0]
        teacher = _teacher()
        assert teacher_logits(teacher, [sg])[0].tobytes() == teacher_row(teacher, sg).tobytes()
        params = init_student(DistillConfig(student="transformer", dim=8, num_classes=3),
                              np.random.default_rng(1))
        assert (student_logits(params, [sg])[0].tobytes()
                == student_row(params, sg).tobytes())

    def test_no_samples(self):
        assert teacher_logits(_teacher(), []).shape == (0, 3)
        params = init_student(DistillConfig(student="mlp", dim=8, num_classes=3),
                              np.random.default_rng(1))
        assert student_logits(params, []).shape == (0, 3)
