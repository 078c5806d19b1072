"""Small tanh MLP classifier with manual backpropagation and mini-batch SGD.

Training early-stops once the full-dataset cross entropy drops to the
configured threshold; models that never get there within the epoch budget are
flagged unconverged. Everything is deterministic given the config seed.

A training step works in place on one parameter buffer and one gradient
buffer, and every bit it computes is what the per-array version kept in the
tests computes: each reduction keeps its order and operands, and only buffers
and the number of numpy calls change (``x.mean()``, for one, is
``add.reduce(x) / n`` without numpy's Python-level wrapper).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ..errors import DivergenceError
from .domains import Dataset


@dataclass(frozen=True)
class TrainConfig:
    depth: int
    width: int
    weight_decay: float
    label_noise: float
    batch_size: int
    learning_rate: float
    ce_stop: float
    max_epochs: int
    seed: int

    def __post_init__(self):
        if self.depth < 1 or self.width < 1:
            raise ValueError("depth and width must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")
        if self.batch_size < 1 or self.learning_rate <= 0 or self.ce_stop <= 0:
            raise ValueError("batch_size, learning_rate and ce_stop must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")

    def hyperparams(self) -> dict:
        return asdict(self)


@dataclass
class MlpModel:
    weights: list  # np.ndarray (fan_in, fan_out) per layer
    biases: list  # np.ndarray (fan_out,) per layer
    num_classes: int
    final_ce: float = math.nan
    epochs_run: int = 0
    converged: bool = False
    # The buffer that init_model lays every weight matrix, then every bias
    # vector, out in, as views; sgd_step updates all of it at once. None for
    # a model built from loose arrays.
    params: Optional[np.ndarray] = field(default=None, repr=False)

    def __getstate__(self):
        # Pickling copies each view into an array of its own, so the buffer
        # would no longer back them; a pickled model leaves it behind.
        return {**self.__dict__, "params": None}


def _zeros(dims) -> MlpModel:
    """A zero model with the given layer widths, laid out in one buffer."""
    pairs = list(zip(dims, dims[1:]))
    sizes = [fan_in * fan_out for fan_in, fan_out in pairs] + list(dims[1:])
    params = np.zeros(sum(sizes))
    parts = np.split(params, np.cumsum(sizes)[:-1])
    weights = [part.reshape(shape) for part, shape in zip(parts, pairs)]
    return MlpModel(weights=weights, biases=parts[len(pairs):], num_classes=dims[-1],
                    params=params)


def _zeros_like(model: MlpModel) -> MlpModel:
    return _zeros([w.shape[0] for w in model.weights] + [model.num_classes])


def init_model(num_classes: int, config: TrainConfig) -> MlpModel:
    rng = np.random.default_rng(config.seed)
    model = _zeros([2] + [config.width] * config.depth + [num_classes])
    for w in model.weights:
        w[...] = rng.standard_normal(w.shape) / math.sqrt(w.shape[0])
    return model


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs, each layer computed in place.

    The batch size is part of the output bits: BLAS chooses its matmul kernel
    by row count, so predicting the same rows in other chunks can change the
    last bits of the logits and, on a near tie, a predicted class. Callers
    must not split or merge predict batches. The one subset batch is tier 2 of
    ``predict_classes``, whose error bound shows that there the batch cannot
    change a class.
    """
    return _layers(model.weights, model.biases, np.asarray(x, dtype=float))


def _layers(weights, biases, h: np.ndarray, acts: Optional[list] = None) -> np.ndarray:
    """The logits of the layers on the rows of ``h``; each hidden layer's tanh
    output is appended to ``acts``, if given."""
    for w, b in zip(weights[:-1], biases[:-1]):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        if acts is not None:
            acts.append(h)
    h = h @ weights[-1]
    h += biases[-1]
    return h


def _row_max(logits: np.ndarray) -> np.ndarray:
    # A column-wise running max is exact in any order and much faster than a
    # row reduce over a handful of classes.
    row_max = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, j], out=row_max)
    return row_max[:, None]


def _softmax(logits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # The row sum stays a reduce: its pairwise order matches column-wise adds
    # only below 8 classes. ``out=logits`` computes it in place.
    e = np.subtract(logits, _row_max(logits), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


# A row whose top two logits are closer than this, or whose top is not finite,
# takes its class from the softmax; see predict_classes.
_CLASS_GAP = 1e-9

# Per precision: unit roundoff, an allowance for np.tanh's absolute error (the
# tests check it holds with a factor of 4 to spare), an upper bound on the
# absolute error one operation can add on underflow, and an overflow limit
# with a factor of 2 to spare.
_FLOAT32 = (2.0**-24, 2.0**-20, 2.0**-149, 2.0**126)
_FLOAT64 = (2.0**-53, 2.0**-49, 2.0**-1022, 2.0**1022)
# Widens every threshold built from the bounds: it covers the bounds' own
# float64 roundings, the rounding of a float32 gap and the step from a gap
# above _CLASS_GAP to one whose float64 difference rounds above it.
_MARGIN = 1.0 + 2.0**-20


def _logit_error_bounds(model: MlpModel, x_max: float) -> tuple[float, float]:
    """``(E32, E64)``: bounds on the absolute error of every logit that
    ``_layers`` computes in float32 (parameters and inputs rounded to it) and
    in float64, against exact arithmetic on the float64 parameters and
    inputs, for inputs of at most ``x_max`` in magnitude; inf where a value
    could overflow (or x_max is NaN).

    A layer of fan-in K with inputs of error e and magnitude at most A is
    off by at most e*C + gamma_{K+3}*(A*C + B) + slack, where C is the
    largest column sum of |W| and B = max|b|: the error carried through W,
    then the rounding of the inputs and W (2), of the K-term dot product in
    any order (K) and of the bias and its add (1), all as relative errors of
    the terms of |a|.|W| + |b|. The slack bounds what underflow can add. tanh
    adds at most tau and shrinks no error, as it is 1-Lipschitz, and leaves
    |h| <= 1 + tau.
    """
    layers = [(w.shape[0], float(np.abs(w).sum(axis=0).max()), float(np.abs(b).max()))
              for w, b in zip(model.weights, model.biases)]
    return tuple(_error_bound(layers, x_max, *precision) for precision in (_FLOAT32, _FLOAT64))


def _error_bound(layers, x_max, u, tau, eta, limit) -> float:
    err, a = 0.0, x_max
    for layer, (k, c, b) in enumerate(layers):
        gamma = (k + 3) * u / (1 - (k + 3) * u)
        size = a * c + b
        if not max(a, c, size) < limit:
            return math.inf
        err = err * c + gamma * size + 2 * eta * (k * (a + 1) + c + 1)
        if layer < len(layers) - 1:
            err, a = err + tau, 1.0 + tau
    return err


def _top_two(z: np.ndarray):
    """Each row's top column (the first of a tie), top logit and second
    largest logit, in one column-wise pass (exact in any order, like
    ``_row_max``)."""
    top = z[:, 0].copy()
    second = np.full(len(z), -np.inf, dtype=z.dtype)
    classes = np.zeros(len(z), dtype=np.intp)
    for j in range(1, z.shape[1]):
        column = z[:, j]
        np.maximum(second, np.minimum(top, column), out=second)
        classes[column > top] = j
        np.maximum(top, column, out=top)
    return classes, top, second


def _undecided(top, second, gap) -> np.ndarray:
    """Rows whose top is not finite or not above the second by more than
    ``gap``; a float64 ``gap`` compares float32 rows exactly, in float64."""
    return np.flatnonzero(~((top - second > np.float64(gap)) & (top < np.inf)))


def predict_classes(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predicted classes: the classes ``model_predict`` gives, and nothing else.

    Over the full batch, each row's class is the column of its top float64
    logit whenever that top is finite and above the second by more than
    ``_CLASS_GAP``: the softmax subtracts the top, so the top column gets
    ``exp(0) == 1`` and every other column ``exp`` of an argument at most
    ``-_CLASS_GAP`` (the subtraction rounds monotonically and the bound is a
    double), which is below 1 by far more than ``exp``'s error. The row sum is
    then in [1, k], and dividing by it keeps each other value below the top's
    by a relative 1e-9, far more than the division's rounding, so the top
    column is the first maximum. Any other row (a gap of at most the bound, a
    NaN or an infinity) takes ``_softmax`` of its own logits, which reads only
    that row, so it gets the bits the full batch would give it.

    Rows are decided in up to three tiers, each giving that class:

    1. A float32 pass over the whole batch. ``E32`` and ``E64`` bound every
       logit's error in float32 and in float64, for any batch, against exact
       arithmetic (``_logit_error_bounds``), so a float32 logit is within
       ``E32 + E64`` of the full-batch float64 one. A row whose float32 top is
       finite and above its second by more than ``2(E32 + E64) + _CLASS_GAP``
       (times ``_MARGIN``) keeps the same top in float64 with a gap above
       ``_CLASS_GAP``: it takes its float32 top column.
    2. ``forward`` of the rows left, as their own batch. Its logits are within
       ``2 E64`` of the full batch's, so a row whose top is finite and above
       its second by more than ``4 E64 + _CLASS_GAP`` (times ``_MARGIN``)
       takes its top column.
    3. Any row still left takes the rule above from ``forward`` of the full
       batch.

    A bound that could overflow is inf and decides no row.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_max = float(np.max(np.abs(x), initial=0.0))
    e32, e64 = _logit_error_bounds(model, x_max)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are left undecided
        classes, top, second = _top_two(_layers(
            [w.astype(np.float32) for w in model.weights],
            [b.astype(np.float32) for b in model.biases], x.astype(np.float32)))
        rows = _undecided(top, second, _MARGIN * (2 * (e32 + e64) + _CLASS_GAP))
    if len(rows):
        classes[rows], top, second = _top_two(forward(model, x[rows]))
        rows = rows[_undecided(top, second, _MARGIN * (4 * e64 + _CLASS_GAP))]
    if len(rows):
        z = forward(model, x)[rows]
        classes[rows], top, second = _top_two(z)
        soft = _undecided(top, second, _CLASS_GAP)
        classes[rows[soft]] = _softmax(z[soft]).argmax(axis=1)
    return classes


def model_predict(model: MlpModel, x: np.ndarray):
    """Predicted classes, softmax max-confidences and negative entropies."""
    probs = _softmax(forward(model, np.atleast_2d(x)))
    classes = probs.argmax(axis=1)
    max_conf = probs.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log(probs), 0.0)
    return classes, max_conf, terms.sum(axis=1)


def cross_entropy(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    z = forward(model, x)
    z -= _row_max(z)
    picked = z[np.arange(len(y)), y]
    np.exp(z, out=z)
    log_sum = np.add.reduce(z, axis=1)
    np.log(log_sum, out=log_sum)
    picked -= log_sum
    return -float(np.add.reduce(picked)) / len(y)


def loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray,
                   grads: Optional[MlpModel] = None):
    """Mean cross entropy of a batch, and its gradient w.r.t. every weight and
    bias written into ``grads`` (a model of the same layout; new if None).
    Returns ``(loss, grads)``."""
    if grads is None:
        grads = _zeros_like(model)
    x = np.asarray(x, dtype=float)
    acts = [x]
    probs = _layers(model.weights, model.biases, x, acts)
    _softmax(probs, out=probs)
    n = len(y)
    rows = np.arange(n)
    picked = probs[rows, y]
    np.log(picked, out=picked)
    loss = -float(np.add.reduce(picked)) / n
    delta = probs  # the output layer's error, in place
    delta[rows, y] -= 1.0
    delta /= n
    for layer in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[layer].T, delta, out=grads.weights[layer])
        np.add.reduce(delta, axis=0, out=grads.biases[layer])
        if layer > 0:
            a = acts[layer]  # 1 - a**2, the derivative of tanh
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            delta = delta @ model.weights[layer].T
            delta *= a
    return loss, grads


def sgd_step(model: MlpModel, grads: MlpModel, lr: float, weight_decay: float):
    """One SGD update over the parameter buffer; weight decay shrinks the
    weight matrices multiplicatively. Scales ``grads`` by ``lr`` in place."""
    decay = 1.0 - lr * weight_decay
    if decay != 1.0:
        model.params[: model.params.size - sum(b.size for b in model.biases)] *= decay
    grads.params *= lr
    model.params -= grads.params


def train_model(dataset: Dataset, config: TrainConfig) -> MlpModel:
    """Mini-batch SGD until the dataset cross entropy reaches ce_stop."""
    if len(dataset.labels) == 0:
        raise ValueError("empty training dataset")
    model = init_model(dataset.num_classes, config)
    grads = _zeros_like(model)
    x, y = dataset.points, dataset.labels
    m, size = len(y), config.batch_size
    shuffle_rng = np.random.default_rng([config.seed, 1])
    epoch, ce = 0, None
    for epoch in range(1, config.max_epochs + 1):
        perm = shuffle_rng.permutation(m)
        xs, ys = x[perm], y[perm]
        for start in range(0, m, size):
            stop = start + size
            loss, _ = loss_and_grads(model, xs[start:stop], ys[start:stop], grads)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}", epoch=epoch
                )
            sgd_step(model, grads, config.learning_rate, config.weight_decay)
        ce = cross_entropy(model, x, y)
        if not math.isfinite(ce):
            raise DivergenceError(
                f"non-finite training loss at epoch {epoch}", epoch=epoch
            )
        if ce <= config.ce_stop:
            model.converged = True
            break
    # The last epoch's ce is that of the final weights.
    model.final_ce = cross_entropy(model, x, y) if ce is None else ce
    model.epochs_run = epoch
    return model
