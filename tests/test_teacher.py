"""GCN teacher: layer math, training loop contracts, checkpoints."""

import math

import numpy as np
import pytest

from graphkd.autodiff import Tensor
from graphkd.errors import ConfigError, DataError
from graphkd.graphs import CONTENT_KINDS, normalize_adjacency
from graphkd.teacher import (TeacherConfig, TeacherParams, init_teacher, load_teacher,
                             save_teacher, teacher_forward, teacher_logits, train_teacher)
from graphkd.verification import teacher_loss_error
from reference import make_subgraph, teacher_row, train_teacher_reference


def _forward(features, a_hat=None, w0=None, w1=None, head=None):
    """teacher_forward with identity propagation weights and an identity
    head unless given; ``a_hat`` defaults to the identity."""
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    eye = np.eye(d)
    if head is None:
        head = (eye, np.zeros((1, d)), eye, np.zeros((1, d)))
    params = [eye if w0 is None else w0, eye if w1 is None else w1, *head]
    a_hat = np.eye(n) if a_hat is None else a_hat
    return teacher_forward([Tensor(p) for p in params], Tensor(a_hat), Tensor(features))


class TestGcnLayer:
    def test_identity_propagation(self):
        h = np.abs(np.random.default_rng(0).normal(1, 0.5, (3, 4)))
        pooled, _ = _forward(h)
        np.testing.assert_allclose(pooled.data, h.mean(axis=0, keepdims=True), atol=1e-12)

    def test_hand_mixing(self):
        # relu(a_hat @ F) = [[1, 1], [0, 2]]; a_hat @ that = [[0.5, 1.5], [0, 2]].
        a_hat = np.array([[0.5, 0.5], [0.0, 1.0]])
        pooled, _ = _forward([[2.0, 0.0], [0.0, 2.0]], a_hat=a_hat)
        np.testing.assert_allclose(pooled.data, [[0.25, 1.75]], atol=1e-12)

    def test_relu_clamps_negative_preactivations(self):
        pooled, _ = _forward([[-1.0, -2.0], [-3.0, -4.0]])
        np.testing.assert_array_equal(pooled.data, np.zeros((1, 2)))
        # The second propagation step has no activation.
        pooled, _ = _forward([[1.0, 2.0], [3.0, 4.0]], w1=-np.eye(2))
        np.testing.assert_array_equal(pooled.data, [[-2.0, -3.0]])


class TestPoolAndHead:
    def test_pool_equal_rows(self):
        row = np.array([1.0, -2.0, 3.0])
        pooled, _ = _forward(np.tile(np.abs(row), (5, 1)), w1=np.diag(np.sign(row)))
        np.testing.assert_allclose(pooled.data, row.reshape(1, -1), atol=1e-12)

    def test_pool_hand_mean(self):
        pooled, _ = _forward([[0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(pooled.data, [[1.0, 1.0]])

    def test_pool_single_row(self):
        pooled, _ = _forward([[4.0, 5.0]])
        np.testing.assert_array_equal(pooled.data, [[4.0, 5.0]])

    def test_head_zero_weights_zero_logits(self):
        head = (np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((3, 2)), np.zeros((1, 2)))
        _, logits = _forward([[1.0, 2.0]], head=head)
        np.testing.assert_array_equal(logits.data, np.zeros((1, 2)))

    def test_head_hand_fixture(self):
        # pooled [1, 2] -> identity W1 + bias [0.5, -3] -> relu [1.5, 0]
        # -> W2 [[1, -1], [2, 0.5]] + bias [0.25, 0] -> [1.75, -1.5]
        head = (np.eye(2), np.array([[0.5, -3.0]]), np.array([[1.0, -1.0], [2.0, 0.5]]),
                np.array([[0.25, 0.0]]))
        _, logits = _forward([[1.0, 2.0]], head=head)
        np.testing.assert_allclose(logits.data, [[1.75, -1.5]], atol=1e-12)

    def test_head_output_width(self):
        rng = np.random.default_rng(1)
        for classes in (2, 5):
            head = (rng.normal(0, 1, (4, 3)), np.zeros((1, 3)),
                    rng.normal(0, 1, (3, classes)), np.zeros((1, classes)))
            _, logits = _forward(rng.normal(0, 1, (1, 4)), head=head)
            assert logits.cols == classes


def _random_subgraphs(count, dim=8, classes=3, commonsense=2, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 4 + commonsense
        features = rng.normal(0, 1, (n, dim))
        upper = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        out.append(make_subgraph([*CONTENT_KINDS, *(f"t{j}" for j in range(commonsense))],
                                 features, upper + upper.T, label=int(rng.integers(classes)),
                                 sample_id=f"s{i}", group=f"g{i % 3}"))
    return out


class TestTrainTeacher:
    def _config(self, **kw):
        base = dict(dim=8, num_classes=3, hidden=6, head_hidden=5, epochs=2, seed=1)
        base.update(kw)
        return TeacherConfig(**base)

    def test_same_seed_bitwise_identical(self, tmp_path):
        train = _random_subgraphs(20)
        paths = []
        for name in ("a.ckpt", "b.ckpt"):
            params, meta, _ = train_teacher(train, [], self._config())
            path = tmp_path / name
            save_teacher(path, params, meta)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            train_teacher(_random_subgraphs(5), [], self._config(epochs=0))

    def test_init_teacher_is_seeded(self):
        config = self._config()

        def init(seed):
            return init_teacher(config, np.random.Generator(np.random.PCG64(seed))).as_list()

        for got, want in zip(init(1), init(1)):
            assert got.tobytes() == want.tobytes()
        assert any((a != b).any() for a, b in zip(init(1), init(2)))

    @pytest.mark.parametrize("field", ["hidden", "head_hidden", "epochs"])
    def test_validate_rejects_sizes_below_one(self, field):
        self._config().validate()
        with pytest.raises(ConfigError, match=field):
            self._config(**{field: 0}).validate()

    def test_empty_train_split_rejected(self):
        with pytest.raises(ConfigError):
            train_teacher([], [], self._config())

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            train_teacher(_random_subgraphs(4, dim=9), [], self._config())

    def test_label_out_of_range_rejected(self):
        graphs = _random_subgraphs(4)
        graphs[2].label = 7
        with pytest.raises(DataError):
            train_teacher(graphs, [], self._config())

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_training_matches_per_sample_reference(self, optimizer):
        # Graphs of 4 to 7 nodes: the parameters must equal, bit for bit, those
        # of the per-sample, per-tensor loop in tests/reference.py.
        train = [sg for c in range(4) for sg in _random_subgraphs(3, commonsense=c, seed=c)]
        config = self._config(optimizer=optimizer)
        got, _, _ = train_teacher(train, _random_subgraphs(4, seed=8), config)
        want = train_teacher_reference(train, config)
        for a, b in zip(got.as_list(), want):
            assert a.tobytes() == b.tobytes()

    def test_val_metrics_reported(self):
        params, _, metrics = train_teacher(
            _random_subgraphs(12), _random_subgraphs(6, seed=5), self._config())
        assert len(metrics) == 2
        for entry in metrics:
            assert 0.0 <= entry["val_micro_f1"] <= 1.0
            assert math.isfinite(entry["train_loss"])

    def test_first_epoch_beats_uniform_on_synthetic_data(self, tmp_path):
        from graphkd.datagen import SynthConfig, generate_synthetic, ingest_manifest
        from graphkd.embeddings import TripletStore, read_store, read_triplets_tsv
        from graphkd.graphs import build_dataset_graphs

        paths = generate_synthetic(
            SynthConfig(samples=200, dim=16, noise=0.3, mask_prob=0.4,
                        triplets_per_class=4, seed=3),
            tmp_path / "data")
        store = read_store(paths["visual_embeddings"])
        tstore = TripletStore(read_triplets_tsv(paths["triplets"]),
                              read_store(paths["triplet_embeddings"]))
        dataset = ingest_manifest(paths["manifest"], embedding_store=store)
        graphs = build_dataset_graphs(dataset, tstore, seed=3)
        train = [g for g in graphs if g.split == "train"]
        _, _, metrics = train_teacher(
            train, [], TeacherConfig(dim=16, num_classes=4, hidden=16, epochs=1, seed=0))
        assert metrics[0]["train_loss"] < math.log(4.0)


class TestForwardInvariants:
    def _params(self, dim=8, hidden=6, classes=3, seed=2):
        config = TeacherConfig(dim=dim, num_classes=classes, hidden=hidden,
                               head_hidden=5, seed=seed)
        return init_teacher(config, np.random.Generator(np.random.PCG64(seed)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        sg = _random_subgraphs(1, seed=9)[0]
        params = self._params()
        a_hat = normalize_adjacency(sg.adjacency)
        feats = sg.features()
        tensors = [Tensor(a) for a in params.as_list()]
        pooled, logits = teacher_forward(tensors, Tensor(a_hat), Tensor(feats))

        perm = rng.permutation(sg.size)
        p_a_hat = a_hat[np.ix_(perm, perm)]
        p_feats = feats[perm]
        p_pooled, p_logits = teacher_forward(tensors, Tensor(p_a_hat), Tensor(p_feats))
        np.testing.assert_allclose(p_pooled.data, pooled.data, atol=1e-9)
        np.testing.assert_allclose(p_logits.data, logits.data, atol=1e-9)

    def test_identity_adjacency_matches_single_node(self):
        rng = np.random.default_rng(5)
        params = self._params()
        row = rng.normal(0, 1, 8)
        tensors = [Tensor(a) for a in params.as_list()]
        pooled_many, _ = teacher_forward(
            tensors, Tensor(np.eye(5)), Tensor(np.tile(row, (5, 1))))
        pooled_one, _ = teacher_forward(
            tensors, Tensor(np.eye(1)), Tensor(row.reshape(1, -1)))
        np.testing.assert_allclose(pooled_many.data, pooled_one.data, atol=1e-12)

    def test_loss_finite_for_extreme_inputs(self):
        from graphkd.autodiff import cross_entropy
        params = self._params()
        sg = _random_subgraphs(1, seed=11)[0]
        big = [Tensor(a * 50.0) for a in params.as_list()]
        _, logits = teacher_forward(big, Tensor(normalize_adjacency(sg.adjacency)),
                                    Tensor(sg.features()))
        loss = cross_entropy(logits, 0)
        assert math.isfinite(loss.item())

    def test_full_loss_gradcheck(self):
        assert teacher_loss_error(seed=0, eps=1e-5) <= 1e-4


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        train = _random_subgraphs(8)
        config = TeacherConfig(dim=8, num_classes=3, hidden=6, head_hidden=5,
                               epochs=1, seed=3)
        params, meta, _ = train_teacher(train, [], config, graph_config={"k": 3})
        path = tmp_path / "t.ckpt"
        save_teacher(path, params, meta)
        loaded, loaded_meta = load_teacher(path)
        for got, want in zip(loaded.as_list(), params.as_list()):
            assert (got == want).all()
        assert loaded_meta["config"]["seed"] == 3
        assert loaded_meta["graph_config"] == {"k": 3}

    def test_write_read_write_bytes_identical(self, tmp_path):
        params, meta, _ = train_teacher(
            _random_subgraphs(5),
            [], TeacherConfig(dim=8, num_classes=3, hidden=4, head_hidden=4,
                              epochs=1, seed=0))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_teacher(p1, params, meta)
        loaded, loaded_meta = load_teacher(p1)
        save_teacher(p2, loaded, loaded_meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_model_kind_rejected(self, tmp_path):
        from graphkd.serialization import write_checkpoint
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, {"model": "student-mlp"}, [("w", np.zeros((1, 1)))])
        with pytest.raises(ConfigError):
            load_teacher(path)

    def test_predict_deterministic(self):
        sg = _random_subgraphs(1)[0]
        config = TeacherConfig(dim=8, num_classes=3, hidden=4, head_hidden=4, seed=0)
        params = init_teacher(config, np.random.Generator(np.random.PCG64(0)))
        a = teacher_logits(params, [sg])
        b = teacher_logits(params, [sg])
        assert (a == b).all()
        assert a.shape == (1, 3)
        assert a[0].tobytes() == teacher_row(params, sg).tobytes()
