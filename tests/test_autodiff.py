"""Tensor kernel: operations, backward pass, gradcheck, optimizers."""

import math

import numpy as np
import pytest

from graphkd import autodiff
from graphkd.autodiff import (OptimizerState, ParameterVector, Tape, Tensor, add, affine,
                              backward, cross_entropy, gradcheck, kl_to_target, matmul,
                              mean_rows, optimizer_step, relu, row_softmax, split_flat,
                              transpose)
from graphkd.errors import (DataError, DeterminismError, NumericError, ShapeError)
from reference import PerTensorOptimizer, kd_chain_reference


def total(t):
    """Sum of every entry of a matrix as a 1x1 tensor: untracked ones on
    both sides, so the gradient of each entry is 1."""
    return matmul(matmul(Tensor(np.ones((1, t.rows))), t), Tensor(np.ones((t.cols, 1))))


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_zeros_annihilate(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.arange(6.0).reshape(3, 2)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match="2x3 @ 2x2"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_associative_within_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (Tensor(rng.uniform(-1, 1, (8, 8))) for _ in range(3))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_records_only_when_tracked(self):
        tape = Tape()
        w = tape.watch(Tensor([[1.0, 2.0]]))
        matmul(Tensor([[1.0], [1.0]]), Tensor([[2.0, 2.0]]))
        assert len(tape.records) == 0
        matmul(w, Tensor([[1.0], [1.0]]))
        assert len(tape.records) == 1


class TestRowSoftmax:
    def test_symmetric_pair(self):
        out = row_softmax(Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_hand_value(self):
        out = row_softmax(Tensor([[1.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.7310585786, 0.2689414214]], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = row_softmax(Tensor(rng.normal(0, 10, (6, 9))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_shift_invariance_bitwise_on_exact_arithmetic(self):
        # Integer-valued rows shifted by an integer keep the subtraction
        # x - max(x) bit-identical, so the output must match bitwise.
        base = np.array([[1.0, 2.0, 0.0], [4.0, -3.0, 2.0]])
        for c in (1.0, 3.0, -7.0, 128.0):
            a = row_softmax(Tensor(base)).data
            b = row_softmax(Tensor(base + c)).data
            assert (a == b).all()

    def test_shift_invariance_random_shifts(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (4, 5))
        shifted = row_softmax(Tensor(x + rng.normal())).data
        np.testing.assert_allclose(shifted, row_softmax(Tensor(x)).data, atol=1e-12)


class TestBackward:
    def test_sum_loss_gives_ones(self):
        tape = Tape()
        w = tape.watch(Tensor(np.arange(4.0).reshape(2, 2)))
        grads = backward(tape, total(w))
        np.testing.assert_array_equal(grads, np.ones(4))

    def test_untouched_parameter_gets_zeros(self):
        tape = Tape()
        w = tape.watch(Tensor(np.ones((2, 2))))
        unused = tape.watch(Tensor(np.ones((3, 1))))
        grads = backward(tape, total(w))
        np.testing.assert_array_equal(grads, [1.0] * 4 + [0.0] * 3)

    def test_loss_must_be_scalar(self):
        tape = Tape()
        w = tape.watch(Tensor(np.ones((2, 2))))
        with pytest.raises(ShapeError):
            backward(tape, relu(w))

    def test_loss_must_be_tracked(self):
        with pytest.raises(ShapeError):
            backward(Tape(), Tensor([[1.0]]))

    def test_gradient_accumulates_over_consumers(self):
        tape = Tape()
        w = tape.watch(Tensor([[2.0]]))
        loss = add(matmul(w, w), affine(w, 3.0))  # w^2 + 3w -> d/dw = 2w + 3
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads, [7.0])

    def test_tape_is_topological(self):
        tape = Tape()
        w = tape.watch(Tensor(np.ones((2, 2))))
        x = relu(matmul(w, Tensor(np.ones((2, 2)))))
        total(matmul(x, x))
        seen = {node for node, _ in tape.parameters}
        for rec in tape.records:
            for node in rec.inputs:
                if node is not None:
                    assert node in seen
            seen.add(rec.out)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a_hat = Tensor(rng.uniform(0.1, 1.0, (3, 3)))
        feats = Tensor(rng.normal(0, 1, (3, 4)))

        def loss(params):
            w, b = params
            h = relu(add(matmul(matmul(a_hat, feats), w), b))
            sm = row_softmax(mean_rows(h))
            return affine(matmul(sm, transpose(sm)), 0.5)

        params = [Tensor(rng.normal(0, 0.5, (4, 3))), Tensor(rng.normal(0, 0.5, (1, 3)))]
        assert gradcheck(loss, params, eps=1e-5) <= 1e-4


class TestGradcheck:
    def test_quadratic_is_nearly_exact(self):
        def f(params):
            return matmul(params[0], params[0])

        assert gradcheck(f, [Tensor([[3.0]])], eps=1e-5) <= 1e-8

    def test_constant_function_has_zero_error(self):
        def f(params):
            return affine(total(params[0]), 0.0)

        assert gradcheck(f, [Tensor([[1.0, 2.0]])], eps=1e-5) == 0.0

    def test_rejects_nondeterministic_function(self):
        state = {"n": 0}

        def f(params):
            state["n"] += 1
            return affine(total(params[0]), float(state["n"]))

        with pytest.raises(DeterminismError):
            gradcheck(f, [Tensor([[1.0]])], eps=1e-5)

    def test_rejects_bad_eps(self):
        with pytest.raises(DataError):
            gradcheck(lambda p: total(p[0]), [Tensor([[1.0]])], eps=0.0)


class TestOps:
    def test_add_broadcasts_row_bias(self):
        out = add(Tensor(np.zeros((3, 2))), Tensor([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]] * 3)

    def test_add_rejects_other_broadcasts(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((1, 2))), Tensor(np.zeros((3, 2))))

    def test_bias_gradient_sums_over_rows(self):
        tape = Tape()
        b = tape.watch(Tensor([[1.0, 1.0]]))
        grads = backward(tape, total(add(Tensor(np.zeros((4, 2))), b)))
        np.testing.assert_array_equal(grads, [4.0, 4.0])

    def test_transpose(self):
        x = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(transpose(x).data, x.data.T)

    def test_mean_rows(self):
        np.testing.assert_array_equal(
            mean_rows(Tensor([[0.0, 2.0], [2.0, 0.0]])).data, [[1.0, 1.0]])

    def test_cross_entropy_uniform(self):
        loss = cross_entropy(Tensor([[0.0, 0.0, 0.0, 0.0]]), 2)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-6)

    def test_cross_entropy_hand_value(self):
        loss = cross_entropy(Tensor([[math.log(3.0), 0.0]]), 0)
        assert loss.item() == pytest.approx(0.2876820724, abs=1e-4)

    def test_cross_entropy_label_range(self):
        with pytest.raises(DataError):
            cross_entropy(Tensor([[0.0, 0.0]]), 2)

    def test_cross_entropy_large_margin_tends_to_zero(self):
        loss = cross_entropy(Tensor([[60.0, 0.0]]), 0)
        assert 0.0 <= loss.item() < 1e-20

    def test_non_finite_output_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            matmul(Tensor([[1e308]]), Tensor([[10.0]]))
        with pytest.raises(NumericError):
            Tensor([[float("nan")]])


def _step(state, params, grads):
    """One optimizer_step on fresh parameters; returns their new values."""
    vector = ParameterVector(params)
    optimizer_step(state, vector, np.concatenate([np.asarray(g).reshape(-1) for g in grads]))
    return vector.copies()


class TestOptimizer:
    def test_sgd_hand_value(self):
        state = OptimizerState(kind="sgd", learning_rate=0.1)
        (new,) = _step(state, [[[1.0]]], [[[0.5]]])
        assert new[0, 0] == pytest.approx(0.95, abs=1e-12)

    def test_zero_learning_rate_is_identity(self):
        state = OptimizerState(kind="adam", learning_rate=0.0)
        (new,) = _step(state, [[[1.0, -2.0]]], [[[0.3, 0.4]]])
        np.testing.assert_array_equal(new, [[1.0, -2.0]])

    def test_adam_first_step_magnitude(self):
        # Bias correction makes the first update ~ lr * sign(g).
        state = OptimizerState(kind="adam", learning_rate=0.01)
        (new,) = _step(state, [[[1.0]]], [[[0.37]]])
        delta = abs(new[0, 0] - 1.0)
        assert abs(delta - 0.01) <= 0.001

    def test_step_counter_and_moments(self):
        state = OptimizerState(kind="adam", learning_rate=0.01)
        params = ParameterVector([np.ones((2, 3)), np.ones((1, 3))])
        for expected in (1, 2, 3):
            optimizer_step(state, params, np.full(9, 0.1))
            assert state.step == expected
        assert state.m.shape == (9,) and state.v.shape == (9,)

    def test_shape_mismatch(self):
        state = OptimizerState(kind="sgd", learning_rate=0.1)
        with pytest.raises(ShapeError):
            optimizer_step(state, ParameterVector([np.ones((2, 2))]), np.ones(6))

    def test_moments_of_another_vector_rejected(self):
        state = OptimizerState(kind="adam", learning_rate=0.1)
        optimizer_step(state, ParameterVector([np.ones((2, 2))]), np.ones(4))
        with pytest.raises(ShapeError):
            optimizer_step(state, ParameterVector([np.ones((2, 3))]), np.ones(6))

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            OptimizerState(kind="rmsprop")

    def test_adam_matches_reference_formula(self):
        rng = np.random.default_rng(9)
        state = OptimizerState(kind="adam", learning_rate=0.02)
        w = rng.normal(0, 1, (3, 2))
        params = ParameterVector([w])
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        for t in range(1, 6):
            g = rng.normal(0, 1, (3, 2))
            optimizer_step(state, params, g.reshape(-1))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w = w - 0.02 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            np.testing.assert_allclose(params.tensors[0].data, w, atol=1e-12)

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_flat_update_bitwise_equals_per_tensor_reference(self, kind):
        # Shapes of a small transformer student, odd sizes included, so the
        # blocks sit at unaligned offsets of the flat vector.
        rng = np.random.default_rng(21)
        shapes = [(4, 5), (5, 5), (5, 3), (1, 3), (3, 7), (1, 7), (1, 1)]
        arrays = [rng.normal(0, 1, s) for s in shapes]
        vector = ParameterVector(arrays)
        state = OptimizerState(kind=kind, learning_rate=0.01)
        reference = [a.copy() for a in arrays]
        per_tensor = PerTensorOptimizer(kind, 0.01)
        for _ in range(60):
            grads = [rng.normal(0, 1, s) * rng.choice([1e-6, 1.0, 30.0]) for s in shapes]
            optimizer_step(state, vector, np.concatenate([g.reshape(-1) for g in grads]))
            reference = per_tensor.update(reference, grads)
            for got, want in zip(vector.tensors, reference):
                assert got.data.tobytes() == want.tobytes()
        assert state.step == per_tensor.step == 60

    def test_non_finite_update_leaves_parameters_unchanged(self):
        state = OptimizerState(kind="sgd", learning_rate=1.0)
        params = ParameterVector([[[1e308, 2.0]]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            optimizer_step(state, params, np.array([-1e308, 0.0]))
        np.testing.assert_array_equal(params.flat, [1e308, 2.0])


class TestParameterVector:
    def test_tensors_are_read_only_views_of_the_flat_vector(self):
        params = ParameterVector([np.arange(6.0).reshape(2, 3), [[7.0]]])
        np.testing.assert_array_equal(params.flat, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
        assert [t.data.shape for t in params.tensors] == [(2, 3), (1, 1)]
        with pytest.raises(ValueError):
            params.tensors[0].data[0, 0] = 1.0
        optimizer_step(OptimizerState(kind="sgd", learning_rate=1.0), params, np.ones(7))
        assert params.tensors[1].item() == 6.0

    def test_copies_are_detached(self):
        params = ParameterVector([[[1.0, 2.0]]])
        (copy,) = params.copies()
        optimizer_step(OptimizerState(kind="sgd", learning_rate=1.0), params, np.ones(2))
        np.testing.assert_array_equal(copy, [[1.0, 2.0]])

    def test_inputs_are_validated(self):
        with pytest.raises(NumericError):
            ParameterVector([[[float("nan")]]])
        with pytest.raises(ShapeError):
            ParameterVector([np.zeros((2, 2, 2))])

    def test_split_flat_rejects_a_size_mismatch(self):
        with pytest.raises(ShapeError):
            split_flat(np.zeros(5), [(2, 2)])


class TestTensor:
    def test_shape_fields(self):
        t = Tensor([[1.0, 2.0, 3.0]])
        assert (t.rows, t.cols) == (1, 3)
        assert not t.tracked

    def test_data_is_read_only(self):
        t = Tensor([[1.0]])
        with pytest.raises(ValueError):
            t.data[0, 0] = 2.0

    def test_rejects_higher_rank(self):
        # One leading stack axis is allowed; a second is not.
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2)))


class TestStacks:
    """Untracked tensors with a leading stack axis: each op acts on every
    slice exactly as on the matrix alone."""

    def _slices(self, stacked, op, *matrices_per_slice):
        out = op(*stacked).data
        for i, operands in enumerate(zip(*matrices_per_slice)):
            assert out[i].tobytes() == op(*operands).data.tobytes()

    def test_every_op_matches_slice_by_slice_bitwise(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, (5, 3, 4))
        b = rng.normal(0, 1, (5, 4, 6))
        w = rng.normal(0, 1, (4, 2))
        row = rng.normal(0, 1, (1, 4))
        same = rng.normal(0, 1, (3, 4))
        stack_a, stack_b = Tensor(a), Tensor(b)
        mats_a = [Tensor(x) for x in a]
        mats_b = [Tensor(x) for x in b]
        self._slices((stack_a, stack_b), matmul, mats_a, mats_b)
        self._slices((stack_a, Tensor(w)), matmul, mats_a, [Tensor(w)] * 5)
        self._slices((stack_a, Tensor(row)), add, mats_a, [Tensor(row)] * 5)
        self._slices((stack_a, Tensor(same)), add, mats_a, [Tensor(same)] * 5)
        self._slices((stack_a, stack_a), add, mats_a, mats_a)
        for op in (transpose, relu, mean_rows, row_softmax, lambda t: affine(t, 0.3)):
            self._slices((stack_a,), op, mats_a)

    def test_shapes_report_the_stack(self):
        t = Tensor(np.zeros((5, 3, 4)))
        assert (t.rows, t.cols) == (3, 4)
        assert repr(t) == "Tensor(5x3x4)"
        assert mean_rows(t).data.shape == (5, 1, 4)

    def test_non_finite_entry_anywhere_raises(self):
        for where in ((0, 0, 0), (2, 1, 3), (4, 2, 3)):
            for bad in (float("nan"), float("inf")):
                x = np.zeros((5, 3, 4))
                x[where] = bad
                with pytest.raises(NumericError):
                    Tensor(x)
        x = np.ones((3, 2, 2))
        x[2, 1, 1] = 1e308
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            matmul(Tensor(x), Tensor([[1.0, 0.0], [0.0, 10.0]]))

    def test_stack_on_a_tape_raises(self):
        tape = Tape()
        with pytest.raises(ShapeError, match="stack"):
            tape.watch(Tensor(np.zeros((2, 3, 3))))
        w = tape.watch(Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError, match="stack"):
            matmul(Tensor(np.ones((2, 3, 3))), w)
        with pytest.raises(ShapeError, match="stack"):
            add(Tensor(np.ones((2, 3, 2))), w)
        assert tape.records == []

    def test_mismatched_stacks_raise(self):
        with pytest.raises(ShapeError, match="2x3x4 @ 3x4x2"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 2))))
        with pytest.raises(ShapeError, match="2x3x4 @ 2x3x2"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 2))))
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 3, 4))))
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 3, 4))))

    def test_cross_entropy_refuses_a_stack(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 1, 3))), 0)


class TestKlToTarget:
    @staticmethod
    def _target(rng, classes):
        # One class gets no teacher mass.
        p = rng.dirichlet(np.ones(classes))
        p[int(rng.integers(classes))] = 0.0
        return p / p.sum()

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("classes", [2, 4, 9])
    @pytest.mark.parametrize("weight", [1.0, 0.7])
    def test_loss_and_gradient_bitwise_equal_the_six_op_chain(self, temperature, classes,
                                                              weight):
        rng = np.random.default_rng(classes * 100 + int(temperature * 10))
        for _ in range(5):
            p = self._target(rng, classes)
            z = rng.normal(0, 3, (1, classes))
            positive = p[p > 0]
            entropy = float(np.sum(positive * np.log(positive)))
            tape = Tape()
            kd = kl_to_target(tape.watch(Tensor(z)), p, temperature, entropy)
            grad = backward(tape, affine(kd, weight))
            want_loss, want_grad = kd_chain_reference(p, z, temperature,
                                                      np.ones((1, 1)) * weight)
            assert kd.data.tobytes() == want_loss.tobytes()
            assert grad.tobytes() == want_grad.reshape(-1).tobytes()

    def test_gradient_is_temperature_times_softmax_minus_target(self):
        z = np.array([[1.0, -0.5, 2.0]])
        p = np.array([0.2, 0.0, 0.8])
        tape = Tape()
        grad = backward(tape, kl_to_target(tape.watch(Tensor(z)), p, 2.0, 0.0))
        q = row_softmax(Tensor(z / 2.0)).data[0]
        np.testing.assert_allclose(grad, 2.0 * (q - p), atol=1e-12)

    def test_non_finite_target_raises(self):
        for p in ([float("nan"), 1.0], [float("inf"), -float("inf")]):
            with np.errstate(invalid="ignore"), pytest.raises(NumericError):
                kl_to_target(Tensor([[0.0, 1.0]]), np.array(p), 1.0, 0.0)

    def test_shapes_are_checked(self):
        with pytest.raises(ShapeError):
            kl_to_target(Tensor(np.zeros((2, 3))), np.ones(3) / 3, 1.0, 0.0)
        with pytest.raises(ShapeError):
            kl_to_target(Tensor(np.zeros((1, 3))), np.ones(2) / 2, 1.0, 0.0)
        with pytest.raises(ShapeError):
            kl_to_target(Tensor(np.zeros((2, 1, 3))), np.ones(3) / 3, 1.0, 0.0)


def _weighted(t, seed=0):
    """A 1x1 tensor u @ t @ v with fixed untracked u, v, so that no two
    entries of ``t`` share a gradient."""
    rng = np.random.default_rng(seed)
    return matmul(matmul(Tensor(rng.uniform(0.5, 1.5, (1, t.rows))), t),
                  Tensor(rng.uniform(0.5, 1.5, (t.cols, 1))))


def _away_from_zero(rng, shape):
    return rng.uniform(0.2, 1.0, shape) * rng.choice([-1.0, 1.0], shape)


def _kl_case(temperature):
    p = np.array([0.3, 0.0, 0.5, 0.2])
    positive = p[p > 0]
    entropy = float(np.sum(positive * np.log(positive)))
    return (lambda q: kl_to_target(q[0], p, temperature, entropy), [(1, 4)])


# One or more (loss of the parameters, parameter shapes) per recorded op.
# Every op with a backward rule needs an entry.
GRADCHECK_CASES = {
    "matmul": [(lambda q: _weighted(matmul(q[0], q[1])), [(3, 4), (4, 2)])],
    "transpose": [(lambda q: _weighted(transpose(q[0])), [(3, 4)])],
    "add": [(lambda q: _weighted(add(q[0], q[1])), [(3, 4), (3, 4)]),
            (lambda q: _weighted(add(q[0], q[1])), [(3, 4), (1, 4)])],
    "affine": [(lambda q: _weighted(affine(q[0], 0.3)), [(3, 4)])],
    "relu": [(lambda q: _weighted(relu(q[0])), [(3, 4)])],
    "mean_rows": [(lambda q: _weighted(mean_rows(q[0])), [(3, 4)])],
    "row_softmax": [(lambda q: _weighted(row_softmax(q[0])), [(3, 4)])],
    "cross_entropy": [(lambda q: cross_entropy(q[0], 2), [(1, 5)])],
    "kl_to_target": [_kl_case(t) for t in (0.5, 1.0, 2.5)],
}


class TestGradcheckTable:
    def test_every_op_with_a_backward_rule_has_a_case(self):
        assert sorted(GRADCHECK_CASES) == sorted(autodiff._BACKWARD)

    @pytest.mark.parametrize("op", sorted(autodiff._BACKWARD))
    def test_op_matches_finite_differences(self, op):
        rng = np.random.default_rng(13)
        for loss, shapes in GRADCHECK_CASES[op]:
            params = [Tensor(_away_from_zero(rng, s)) for s in shapes]
            tape = Tape()
            loss([tape.watch(Tensor(p.data)) for p in params])
            assert op in {rec.op for rec in tape.records}
            assert gradcheck(loss, params, eps=1e-5) <= 1e-8
