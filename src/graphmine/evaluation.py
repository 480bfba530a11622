"""Downstream evaluation: clustering agreement, seeded splits, a
deterministic softmax classifier, and rank-based AUC.

Everything here is a pure function of its inputs (plus the explicit seed of
the split), so evaluation pipelines are reproducible end to end.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSplit,
    DimensionMismatch,
    InputContractError,
    LengthMismatch,
    NotFitted,
    SingleClassTest,
)
from .graph_core import Estimator, RandomSource, _require, _require_labels

__all__ = [
    "SplitIndices",
    "SoftmaxModel",
    "nmi",
    "train_test_split",
    "softmax_fit",
    "softmax_predict",
    "softmax_loss_and_gradient",
    "auc",
]


def nmi(a, b) -> float:
    """Normalized mutual information with arithmetic-mean normalization:
    2*I(A;B) / (H(A)+H(B)), natural logs.

    Both partitions trivial (zero entropy) gives 1.0 by convention; exactly
    one trivial gives 0.0.  Symmetric and invariant under relabeling either
    argument.
    """
    a = _require_labels("a", a)
    b = _require_labels("b", b)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise LengthMismatch(f"label vectors must match in length, got {a.shape} vs {b.shape}")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ca, cb = int(ai.max()) + 1, int(bi.max()) + 1
    pij = np.bincount(ai * cb + bi, minlength=ca * cb).reshape(ca, cb) / n
    pa = pij.sum(axis=1)
    pb = pij.sum(axis=0)
    # every label np.unique returns occurs, so pa and pb are positive
    ha = float(-np.sum(pa * np.log(pa)))
    hb = float(-np.sum(pb * np.log(pb)))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mask = pij > 0
    outer = np.outer(pa, pb)
    info = float(np.sum(pij[mask] * np.log(pij[mask] / outer[mask])))
    return 2.0 * info / (ha + hb)


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/test index arrays covering 0..n-1."""

    train: np.ndarray
    test: np.ndarray


def train_test_split(n: int, ratio: float = 0.8, seed: int = 42) -> SplitIndices:
    """Seeded uniform shuffle of 0..n-1; the first round(ratio*n) indices
    (half-up rounding) are the training side."""
    _require("n", n, int)
    _require("seed", seed, int)
    if not isinstance(ratio, numbers.Real):
        _require("ratio", ratio, float)  # raises; a ratio outside (0, 1) is DegenerateSplit below
    if n < 2 or not (0.0 < ratio < 1.0):
        raise DegenerateSplit(f"cannot split {n} items at ratio {ratio}")
    n_train = int(np.floor(ratio * n + 0.5))
    if n_train == 0 or n_train == n:
        raise DegenerateSplit(f"ratio {ratio} empties one side for n={n}")
    perm = RandomSource(seed, 0).generator().permutation(n)
    return SplitIndices(train=perm[:n_train], test=perm[n_train:])


@dataclass(eq=False, repr=False)
class SoftmaxModel:
    """L2-regularized multinomial logistic regression, trained by
    deterministic full-batch gradient descent from zero weights.

    The learning rate halves automatically whenever a step would increase
    the regularized loss (the step is undone first), so the recorded loss
    sequence never increases.  The bias row is excluded from the penalty.
    Hyperparameters are the constructor's fields; :func:`softmax_fit` sets
    the rest.  Equality is by identity.
    """

    l2: float = 1e-4
    learning_rate: float = 0.1
    epochs: int = 500
    weights: np.ndarray | None = field(default=None, init=False)  # (d+1) x c, bias first row
    loss_history_: list | None = field(default=None, init=False)

    _minimums = {"epochs": 0}


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((x.shape[0], 1)), x])


def softmax_loss_and_gradient(
    weights: np.ndarray, xb: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy plus (l2/2)*||non-bias weights||^2, with its
    gradient.  ``xb`` already carries the bias column."""
    s = xb.shape[0]
    probs = _softmax_rows(xb @ weights)
    loss = float(-np.mean(np.log(probs[np.arange(s), y] + 1e-300)))
    penalized = weights.copy()
    penalized[0] = 0.0  # the bias row
    loss += 0.5 * l2 * float(np.sum(penalized ** 2))
    probs[np.arange(s), y] -= 1.0  # probs minus the one-hot labels
    grad = xb.T @ probs / s + l2 * penalized
    return loss, grad


def softmax_fit(x: np.ndarray, y, model: SoftmaxModel | None = None) -> SoftmaxModel:
    """Fit the classifier on rows of ``x`` with integer labels ``y``.

    Labels must be 0..c-1 with c >= 2; probability column j of
    :func:`softmax_predict` corresponds to class j.
    """
    if model is None:
        model = SoftmaxModel()
    Estimator._require_at_least(model)
    x = np.asarray(x, dtype=np.float64)
    y = _require_labels("y", y)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise DimensionMismatch(
            f"x rows must pair with y entries, got {x.shape} vs {y.shape}"
        )
    if not np.isfinite(x).all():
        raise InputContractError("x must be finite")
    if y.min() < 0:
        raise InputContractError("labels must be nonnegative")
    c = int(y.max()) + 1
    if c < 2:
        raise SingleClassTest("need at least two classes to fit")
    xb = _with_bias(x)
    weights = np.zeros((xb.shape[1], c))
    lr = model.learning_rate
    loss, grad = softmax_loss_and_gradient(weights, xb, y, model.l2)
    losses = [loss]
    for _ in range(model.epochs):
        proposal = weights - lr * grad
        new_loss, new_grad = softmax_loss_and_gradient(proposal, xb, y, model.l2)
        if new_loss > loss:
            lr *= 0.5  # undo by not accepting; retry smaller next epoch
            continue
        weights, loss, grad = proposal, new_loss, new_grad
        losses.append(loss)
    model.weights = weights
    model.loss_history_ = losses
    return model


def softmax_predict(model: SoftmaxModel, x: np.ndarray) -> np.ndarray:
    """Per-row class probabilities; rows sum to 1."""
    if model.weights is None:
        raise NotFitted("call softmax_fit before softmax_predict")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] + 1 != model.weights.shape[0]:
        raise DimensionMismatch(
            f"expected width {model.weights.shape[0] - 1}, got {x.shape}"
        )
    return _softmax_rows(_with_bias(x) @ model.weights)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their mean rank; all NaN if any is NaN."""
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _binary_auc(y: np.ndarray, scores: np.ndarray) -> float:
    # Mann-Whitney with midrank tie correction
    ranks = _midranks(scores)
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(y_true, scores: np.ndarray) -> float:
    """Area under the ROC curve from class-probability columns.

    Two columns: rank statistic of column 1 against label 1.  More columns:
    unweighted mean of one-vs-rest AUCs over the classes present in
    ``y_true``.  Invariant under strictly monotone transformations of the
    scores.
    """
    y = _require_labels("y_true", y_true)
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or y.ndim != 1 or s.shape[0] != y.size:
        raise DimensionMismatch(f"scores {s.shape} do not pair with labels {y.shape}")
    present = np.unique(y)
    if present.size < 2:
        raise SingleClassTest("test labels contain a single class")
    if np.any(present < 0) or np.any(present >= s.shape[1]):
        raise DimensionMismatch("labels index outside the score columns")
    if s.shape[1] == 2:
        return _binary_auc((y == 1).astype(np.int64), s[:, 1])
    vals = [
        _binary_auc((y == cls).astype(np.int64), s[:, cls]) for cls in present
    ]
    return float(np.mean(vals))
