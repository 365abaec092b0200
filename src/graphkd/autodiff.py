"""Dense float64 tensors with reverse-mode differentiation.

The engine is deliberately small: tensors are immutable matrices, every
differentiable operation appends one record to an explicit :class:`Tape`,
and :func:`backward` replays the records once in reverse. Gradients
accumulate additively when a node feeds several consumers. There is no
broadcasting beyond row-vector bias addition and no dtype other than
float64, which keeps the finite-difference checker meaningful.

The operations are the ones the models record, and no others: ``matmul``,
``transpose``, ``add``, ``affine``, ``relu``, ``mean_rows``, ``row_softmax``
and ``cross_entropy``; ``reshape``, which the MLP student applies to its
untracked input; and ``kl_to_target``, the distillation term. Given a 1 x C
logit row z, a fixed target distribution p, a temperature T and the
caller's entropy sum_j p_j log p_j, ``kl_to_target`` records one tape entry
for T^2 * KL(p || softmax(z / T)), and its backward rule passes
T * (softmax(z / T) - p) times the upstream gradient to z.

An untracked tensor may carry one leading stack axis (S x rows x cols).
Every operation then acts on the last two axes of each slice, so a forward
pass written for one sample runs unchanged over a stack of same-shape
samples, slice for slice with the same arithmetic. A matrix operand is
shared by every slice. Tracked tensors stay 2-D: a stack never goes on a
tape.

Trainable matrices live end to end in one flat vector
(:class:`ParameterVector`); the model sees them as views of it.
:func:`backward` returns the gradient of the registered parameters only,
flattened in registration order, and :func:`optimizer_step` updates the
whole vector in place with one sequence of array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DeterminismError, DataError, NumericError, ShapeError

Array = np.ndarray


def _as_matrix(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim > 3:
        raise ShapeError(f"tensors are matrices or one stack of them, got array of "
                         f"ndim {arr.ndim}")
    return np.ascontiguousarray(arr)


def _shape(arr: Array) -> str:
    return "x".join(str(n) for n in arr.shape)


def _require_finite(arr: Array, op: str) -> None:
    # Fast screen: the sum is non-finite whenever any entry is. A sum that
    # overflows on huge-but-finite entries would trip the screen, so the
    # precise elementwise check delivers the verdict.
    if not math.isfinite(float(arr.sum())) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by '{op}'")


class Tensor:
    """Immutable (rows x cols) float64 matrix, optionally tracked on a tape,
    or an untracked stack of such matrices (S x rows x cols)."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, values, tape: "Tape | None" = None, node: int | None = None):
        data = _as_matrix(values)
        _require_finite(data, "tensor construction")
        data.flags.writeable = False
        self.data = data
        self.tape = tape
        self.node = node

    @classmethod
    def _wrap(cls, data: Array, tape: "Tape | None", node: int | None) -> "Tensor":
        # Fast path for op results: `data` is a fresh, already-validated array.
        out = object.__new__(cls)
        data.flags.writeable = False
        out.data = data
        out.tape = tape
        out.node = node
        return out

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    @property
    def tracked(self) -> bool:
        return self.node is not None

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() requires a 1x1 tensor, got {_shape(self.data)}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f", node={self.node}" if self.tracked else ""
        return f"Tensor({_shape(self.data)}{tag})"


class ParameterVector:
    """Trainable matrices stored end to end, row-major, in one flat float64
    vector. ``tensors`` are read-only views of ``flat``; ``optimizer_step``
    rewrites ``flat`` in place, so they always hold the current values."""

    __slots__ = ("flat", "tensors")

    def __init__(self, arrays: Sequence[Array]):
        matrices = [_as_matrix(a) for a in arrays]
        for m in matrices:
            if m.ndim != 2:
                raise ShapeError(f"parameters are matrices, got shape {_shape(m)}")
        self.flat = np.concatenate([m.reshape(-1) for m in matrices] or [np.zeros(0)])
        _require_finite(self.flat, "parameters")
        self.tensors = [Tensor._wrap(view, None, None) for view in
                        split_flat(self.flat, [m.shape for m in matrices])]

    def copies(self) -> list[Array]:
        """Each parameter matrix as a new array, detached from the vector."""
        return [t.data.copy() for t in self.tensors]


def split_flat(flat: Array, shapes: Sequence[tuple[int, int]]) -> list[Array]:
    """Views of consecutive row-major blocks of ``flat``, one per shape."""
    views, offset = [], 0
    for rows, cols in shapes:
        views.append(flat[offset:offset + rows * cols].reshape(rows, cols))
        offset += rows * cols
    if offset != flat.size:
        raise ShapeError(f"{flat.size} values do not fill the shapes {list(shapes)}")
    return views


@dataclass
class Record:
    """One tape entry: operation kind, input node ids (None = untracked
    constant), output node id, and values saved for the backward rule."""

    op: str
    inputs: tuple[int | None, ...]
    out: int
    saved: tuple


class Tape:
    """Ordered operation log for one forward pass.

    Records are appended in execution order, so every record's inputs
    precede it; the backward pass walks the list once in reverse.
    """

    def __init__(self):
        self.records: list[Record] = []
        self.num_nodes = 0
        self.parameters: list[int] = []
        self._shapes: dict[int, tuple[int, int]] = {}

    def _new_node(self, shape: tuple[int, ...]) -> int:
        if len(shape) != 2:
            raise ShapeError(f"a stack of {shape[0]} matrices cannot be tracked on a tape")
        node = self.num_nodes
        self.num_nodes += 1
        self._shapes[node] = shape
        return node

    def parameter(self, values) -> Tensor:
        """Register a trainable leaf. Untouched parameters still receive a
        (zero) entry in the gradient vector."""
        t = Tensor(values)
        t.tape = self
        t.node = self._new_node(t.data.shape)
        self.parameters.append(t.node)
        return t

    def watch(self, t: Tensor) -> Tensor:
        """Like :meth:`parameter` but for an existing (already validated)
        tensor; shares its storage instead of re-checking it."""
        out = Tensor._wrap(t.data, self, self._new_node(t.data.shape))
        self.parameters.append(out.node)
        return out


def _result(tape: Tape | None, op: str, inputs: tuple[int | None, ...],
            data: Array, saved: tuple) -> Tensor:
    _require_finite(data, op)
    if tape is None:
        return Tensor._wrap(data, None, None)
    node = tape._new_node(data.shape)
    tape.records.append(Record(op, inputs, node, saved))
    return Tensor._wrap(data, tape, node)


def _common_tape(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ShapeError("operands belong to different tapes")
            tape = t.tape
    return tape


# ---------------------------------------------------------------------------
# Differentiable operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    # A matrix pairs with every slice of a stack; two stacks pair slice by slice.
    stacks = a.data.ndim == 3 and b.data.ndim == 3
    if a.cols != b.rows or (stacks and a.data.shape[0] != b.data.shape[0]):
        raise ShapeError(f"matmul shape mismatch: {_shape(a.data)} @ {_shape(b.data)}")
    out = a.data @ b.data
    return _result(_common_tape(a, b), "matmul", (a.node, b.node), out,
                   (a.data, b.data))


def transpose(a: Tensor) -> Tensor:
    return _result(a.tape, "transpose", (a.node,),
                   np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), ())


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; `b` may be a 1 x n row vector broadcast over a's rows,
    or one matrix added to every slice of a stack."""
    if a.data.shape == b.data.shape:
        broadcast = False
    elif b.data.ndim == 2 and b.cols == a.cols and b.rows in (1, a.rows):
        broadcast = True
    else:
        raise ShapeError(f"add shape mismatch: {_shape(a.data)} + {_shape(b.data)}")
    out = a.data + b.data
    return _result(_common_tape(a, b), "add", (a.node, b.node), out, (broadcast,))


def affine(a: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """scale * a + shift, elementwise with python scalars."""
    out = a.data * scale + shift
    return _result(a.tape, "affine", (a.node,), out, (scale,))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _result(a.tape, "relu", (a.node,), out, (a.data,))


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.rows * a.cols:
        raise ShapeError(f"cannot reshape {_shape(a.data)} to {rows}x{cols}")
    out = a.data.reshape(a.data.shape[:-2] + (rows, cols)).copy()
    return _result(a.tape, "reshape", (a.node,), out, (a.data.shape,))


def mean_rows(a: Tensor) -> Tensor:
    """Column-wise mean over rows: N x d -> 1 x d."""
    if a.rows < 1:
        raise ShapeError("mean_rows requires at least one row")
    out = a.data.mean(axis=-2, keepdims=True)
    return _result(a.tape, "mean_rows", (a.node,), out, (a.rows,))


def row_softmax(a: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction; each row sums to 1."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return _result(a.tape, "row_softmax", (a.node,), out, (out,))


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label] for a 1 x C logit row, stable log-sum-exp."""
    if logits.data.ndim != 2 or logits.rows != 1:
        raise ShapeError(f"cross_entropy expects a 1xC logit row, got {_shape(logits.data)}")
    if not 0 <= label < logits.cols:
        raise DataError(f"label {label} out of range for {logits.cols} classes")
    x = logits.data[0]
    m = x.max()
    lse = m + np.log(np.exp(x - m).sum())
    out = np.array([[lse - x[label]]])
    p = np.exp(x - lse)
    return _result(logits.tape, "cross_entropy", (logits.node,), out, (p, label))


def kl_to_target(logits: Tensor, p: Array, temperature: float, entropy: float) -> Tensor:
    """T^2 * (entropy - sum_j p_j log softmax(logits / T)_j) for a 1 x C
    logit row and a fixed target row ``p`` whose sum_j p_j log p_j is
    ``entropy``: T^2 * KL(p || softmax(logits / T)). ``p`` is not
    differentiated."""
    if logits.data.ndim != 2 or logits.rows != 1:
        raise ShapeError(f"kl_to_target expects a 1xC logit row, got {_shape(logits.data)}")
    p = np.asarray(p, dtype=np.float64).reshape(1, -1)
    if p.shape != logits.data.shape:
        raise ShapeError(f"target has {p.size} classes, logits are {_shape(logits.data)}")
    inv_t = 1.0 / temperature
    t_sq = temperature * temperature
    scaled = logits.data * inv_t
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    log_q = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = (log_q * p).sum(axis=(-2, -1), keepdims=True) * -t_sq + t_sq * entropy
    return _result(logits.tape, "kl_to_target", (logits.node,), out,
                   (p, np.exp(log_q), inv_t, t_sq))


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _bw_matmul(rec: Record, g: Array, out: list):
    a, b = rec.saved
    if rec.inputs[0] is not None:
        out.append((rec.inputs[0], g @ b.T))
    if rec.inputs[1] is not None:
        out.append((rec.inputs[1], a.T @ g))


def _bw_transpose(rec: Record, g: Array, out: list):
    out.append((rec.inputs[0], np.ascontiguousarray(g.T)))


def _bw_add(rec: Record, g: Array, out: list):
    (broadcast,) = rec.saved
    # `g` is shared, not copied: accumulation never writes into a gradient.
    if rec.inputs[0] is not None:
        out.append((rec.inputs[0], g))
    if rec.inputs[1] is not None:
        out.append((rec.inputs[1], g.sum(axis=0, keepdims=True) if broadcast else g))


def _bw_affine(rec: Record, g: Array, out: list):
    (scale,) = rec.saved
    out.append((rec.inputs[0], g * scale))


def _bw_relu(rec: Record, g: Array, out: list):
    (x,) = rec.saved
    out.append((rec.inputs[0], g * (x > 0.0)))


def _bw_reshape(rec: Record, g: Array, out: list):
    (shape,) = rec.saved
    out.append((rec.inputs[0], g.reshape(shape).copy()))


def _bw_mean_rows(rec: Record, g: Array, out: list):
    (n,) = rec.saved
    out.append((rec.inputs[0], np.repeat(g / n, n, axis=0)))


def _bw_row_softmax(rec: Record, g: Array, out: list):
    (y,) = rec.saved
    out.append((rec.inputs[0], y * (g - (g * y).sum(axis=1, keepdims=True))))


def _bw_cross_entropy(rec: Record, g: Array, out: list):
    p, label = rec.saved
    grad = p.copy()
    grad[label] -= 1.0
    out.append((rec.inputs[0], g[0, 0] * grad.reshape(1, -1)))


def _bw_kl_to_target(rec: Record, g: Array, out: list):
    p, softmax, inv_t, t_sq = rec.saved
    weighted = p * (g[0, 0] * -t_sq)
    out.append((rec.inputs[0],
                (weighted - softmax * weighted.sum(axis=1, keepdims=True)) * inv_t))


_BACKWARD: dict[str, Callable[[Record, Array, list], None]] = {
    "matmul": _bw_matmul,
    "transpose": _bw_transpose,
    "add": _bw_add,
    "affine": _bw_affine,
    "relu": _bw_relu,
    "reshape": _bw_reshape,
    "mean_rows": _bw_mean_rows,
    "row_softmax": _bw_row_softmax,
    "cross_entropy": _bw_cross_entropy,
    "kl_to_target": _bw_kl_to_target,
}


def backward(tape: Tape, loss: Tensor) -> Array:
    """Reverse-accumulate gradients of a scalar loss over the tape.

    Returns the gradients of the registered parameters, each flattened
    row-major and concatenated in registration order: the layout of a
    :class:`ParameterVector` whose tensors were watched in order. Parameters
    the loss never touched get zeros.
    """
    if loss.tape is not tape or loss.node is None:
        raise ShapeError("loss tensor is not tracked on this tape")
    if loss.data.shape != (1, 1):
        raise ShapeError(f"loss must be a 1x1 scalar, got {_shape(loss.data)}")

    grads: list[Array | None] = [None] * tape.num_nodes
    grads[loss.node] = np.ones((1, 1))
    contributions: list = []
    for rec in reversed(tape.records):
        g = grads[rec.out]
        if g is None:
            continue
        contributions.clear()
        _BACKWARD[rec.op](rec, g, contributions)
        for node, delta in contributions:
            if grads[node] is None:
                grads[node] = delta
            else:
                grads[node] = grads[node] + delta

    blocks = []
    for node in tape.parameters:
        g = grads[node]
        if g is None:
            rows, cols = tape._shapes[node]
            g = np.zeros(rows * cols)
        blocks.append(g.reshape(-1))
    return np.concatenate(blocks or [np.zeros(0)])


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def gradcheck(f: Callable[[Sequence[Tensor]], Tensor], params: Sequence[Tensor],
              eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` takes a list of tensors and returns a 1x1 loss; it must be
    deterministic and must build its result from the operations in this
    module so the tape can track it. Returns the maximum over all
    coordinates of ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.
    """
    if not 0 < eps < math.inf:
        raise DataError(f"eps must be positive and finite, got {eps}")

    arrays = [np.array(p.data) for p in params]

    def evaluate(values: list[Array]) -> float:
        out = f([Tensor(v) for v in values])
        return out.item()

    if evaluate(arrays) != evaluate(arrays):
        raise DeterminismError("function returned different values for identical inputs")

    tape = Tape()
    tracked = [tape.parameter(a) for a in arrays]
    loss = f(tracked)
    analytic = split_flat(backward(tape, loss), [t.data.shape for t in tracked])

    def perturbed(i: int, idx, value: float) -> list[Array]:
        out = list(arrays)
        changed = arrays[i].copy()
        changed[idx] = value
        out[i] = changed
        return out

    worst = 0.0
    for i, base in enumerate(arrays):
        for idx in np.ndindex(base.shape):
            hi = evaluate(perturbed(i, idx, base[idx] + eps))
            lo = evaluate(perturbed(i, idx, base[idx] - eps))
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic[i][idx]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """SGD or Adam state; Adam's moment vectors are allocated on first use."""

    kind: str = "adam"
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: Array | None = None
    v: Array | None = None
    _scratch: Array | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise DataError(f"unknown optimizer kind '{self.kind}'")
        if self.learning_rate < 0:
            raise DataError(f"learning rate must be non-negative, got {self.learning_rate}")


def optimizer_step(state: OptimizerState, params: ParameterVector, grad: Array) -> None:
    """One update of the whole parameter vector, in place. ``grad`` is the
    flat gradient :func:`backward` returns. A non-finite result raises
    :class:`NumericError` and leaves the parameters unchanged."""
    flat = params.flat
    if grad.shape != flat.shape:
        raise ShapeError(f"{flat.size} parameters but a gradient of shape {grad.shape}")

    state.step += 1
    lr = state.learning_rate
    if state.kind == "sgd":
        new = flat - lr * grad
        _require_finite(new, "optimizer_step")
        np.copyto(flat, new)
        return

    if state.m is None:
        state.m = np.zeros_like(flat)
        state.v = np.zeros_like(flat)
        state._scratch = np.empty_like(flat)
    elif state.m.shape != flat.shape:
        raise ShapeError(f"moment shape {state.m.shape} does not match {flat.size} parameters")
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    m = state.m
    v = state.v
    work = state._scratch
    m *= state.beta1
    np.multiply(grad, 1.0 - state.beta1, out=work)
    m += work
    v *= state.beta2
    np.multiply(grad, grad, out=work)
    work *= 1.0 - state.beta2
    v += work
    np.divide(v, c2, out=work)
    np.sqrt(work, out=work)
    work += state.epsilon
    np.divide(m, work, out=work)
    work *= lr / c1
    np.subtract(flat, work, out=work)
    _require_finite(work, "optimizer_step")
    np.copyto(flat, work)


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))
