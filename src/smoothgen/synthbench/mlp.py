"""Small tanh MLP classifier with manual backpropagation and mini-batch SGD.

Training early-stops once the full-dataset cross entropy drops to the
configured threshold; models that never get there within the epoch budget are
flagged unconverged. Everything is deterministic given the config seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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


def init_model(num_classes: int, config: TrainConfig) -> MlpModel:
    rng = np.random.default_rng(config.seed)
    dims = [2] + [config.width] * config.depth + [num_classes]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, num_classes=num_classes)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs, each layer computed in place.

    The batch size is part of the output bits: BLAS chooses its matmul kernel
    by row count, so predicting the same rows in other chunks can change the
    last bits of the logits and, on a near tie, a predicted class. Callers
    must not split or merge predict batches.
    """
    h = np.asarray(x, dtype=float)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w
        h += b
        np.tanh(h, out=h)
    h = h @ model.weights[-1]
    h += model.biases[-1]
    return h


def _softmax(logits: np.ndarray) -> np.ndarray:
    # A column-wise running max is exact in any order and much faster than a
    # row reduce over a handful of classes; the row sum stays a reduce, whose
    # pairwise order column-wise adds match only below 8 classes.
    row_max = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, j], out=row_max)
    e = logits - row_max[:, None]
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def predict_classes(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predicted classes: the classes ``model_predict`` gives, and nothing else."""
    return _softmax(forward(model, np.atleast_2d(x))).argmax(axis=1)


def model_predict(model: MlpModel, x: np.ndarray):
    """Predicted classes, softmax max-confidences and negative entropies."""
    probs = _softmax(forward(model, np.atleast_2d(x)))
    classes = probs.argmax(axis=1)
    max_conf = probs.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log(probs), 0.0)
    return classes, max_conf, terms.sum(axis=1)


def cross_entropy(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    logits = forward(model, x)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(y)), y].mean())


def loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean cross entropy and its gradients w.r.t. all weights and biases."""
    x = np.asarray(x, dtype=float)
    acts = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w + b)
        acts.append(h)
    logits = h @ model.weights[-1] + model.biases[-1]
    z = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(z)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(y)
    loss = float(-np.log(probs[np.arange(n), y]).mean())
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (1.0 - acts[layer] ** 2)
    return loss, grads_w, grads_b


def sgd_step(model: MlpModel, grads_w, grads_b, lr: float, weight_decay: float):
    """One SGD update; weight decay shrinks weight matrices multiplicatively."""
    decay = 1.0 - lr * weight_decay
    for w, gw in zip(model.weights, grads_w):
        w *= decay
        w -= lr * gw
    for b, gb in zip(model.biases, grads_b):
        b -= lr * gb


def train_model(
    dataset: Dataset, config: TrainConfig, num_classes: Optional[int] = None
) -> MlpModel:
    """Mini-batch SGD until the dataset cross entropy reaches ce_stop."""
    if len(dataset.labels) == 0:
        raise ValueError("empty training dataset")
    k = num_classes if num_classes is not None else dataset.num_classes
    model = init_model(k, config)
    x, y = dataset.points, dataset.labels
    m = len(y)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    epoch, ce = 0, None
    for epoch in range(1, config.max_epochs + 1):
        perm = shuffle_rng.permutation(m)
        for start in range(0, m, config.batch_size):
            batch = perm[start : start + config.batch_size]
            loss, gw, gb = loss_and_grads(model, x[batch], y[batch])
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}", epoch=epoch
                )
            sgd_step(model, gw, gb, config.learning_rate, config.weight_decay)
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
