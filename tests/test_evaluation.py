import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from graphmine import (
    DegenerateSplit,
    DimensionMismatch,
    InputContractError,
    LengthMismatch,
    NotFitted,
    RandomSource,
    SingleClassTest,
    SoftmaxModel,
    auc,
    nmi,
    softmax_fit,
    softmax_loss_and_gradient,
    softmax_predict,
    build_graph,
    modularity,
    train_test_split,
)
from graphmine import evaluation
from frozen_softmax import softmax_loss_and_gradient_by_masks
from oracles import auc_pairwise, central_difference, gradient_gap, nmi_reference


# --- clustering agreement ---

def test_nmi_matches_probability_reference():
    gen = RandomSource(0, 0).generator()
    for _ in range(50):
        n = int(gen.integers(4, 40))
        a = gen.integers(0, int(gen.integers(1, 6)), size=n)
        b = gen.integers(0, int(gen.integers(1, 6)), size=n)
        assert abs(nmi(a, b) - nmi_reference(a, b)) < 1e-12


def test_nmi_known_values():
    assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert abs(nmi([0, 0, 1, 1], [0, 1, 0, 1])) < 1e-15


def test_nmi_trivial_partition_conventions():
    assert nmi([0, 0, 0], [5, 5, 5]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [7, 7, 7]) == 0.0


def test_nmi_is_symmetric_and_label_blind():
    gen = RandomSource(3, 0).generator()
    a = gen.integers(0, 3, size=30)
    b = gen.integers(0, 4, size=30)
    assert abs(nmi(a, b) - nmi(b, a)) < 1e-14
    remapped = np.array([10, 20, 30])[a]
    assert abs(nmi(a, b) - nmi(remapped, b)) < 1e-14


def test_nmi_rejects_mismatched_lengths():
    with pytest.raises(LengthMismatch):
        nmi([0, 1], [0, 1, 1])
    with pytest.raises(LengthMismatch):
        nmi([], [])


# --- labels under the integer rule ---

_BAD_LABELS = [[0.2, 0.7], [0.0, 1.0], [True, False], ["a", "b"], [2**63, 0], [-1, 2**63],
               [2**64, 0], [[0], [1, 2]]]
_LABEL_TAKERS = {
    "nmi-a": ("a", lambda bad: nmi(bad, [0, 1])),
    "nmi-b": ("b", lambda bad: nmi([0, 1], bad)),
    "auc": ("y_true", lambda bad: auc(bad, np.array([[0.3, 0.7], [0.6, 0.4]]))),
    "softmax_fit": ("y", lambda bad: softmax_fit(np.eye(2), bad)),
    "modularity": ("memberships", lambda bad: modularity(build_graph(2, [(0, 1)]), dict(enumerate(bad)))),
}


@pytest.mark.parametrize("taker", list(_LABEL_TAKERS))
@pytest.mark.parametrize("bad", _BAD_LABELS, ids=repr)
def test_labels_must_be_integers_within_int64(taker, bad):
    name, call = _LABEL_TAKERS[taker]
    with pytest.raises(InputContractError, match=f"^{name} must hold integers, got "):
        call(bad)


@pytest.mark.parametrize(
    "memberships, kind", [([0] * 6, "list"), (None, "NoneType"), (np.zeros(6, dtype=int), "ndarray")],
    ids=["list", "none", "array"],
)
def test_modularity_takes_memberships_as_a_dict(memberships, kind):
    with pytest.raises(InputContractError, match=f"^memberships must be a dict, got {kind}$"):
        modularity(build_graph(6, [(i, i + 1) for i in range(5)]), memberships)


def test_labels_of_every_integer_width_are_taken_and_empty_ones_keep_their_error():
    assert nmi(np.array([0, 1], dtype=np.uint64), np.array([1, 0], dtype=np.int8)) == 1.0
    # three singletons on the path 0-1-2, which truncating 0.5 would have merged
    path = build_graph(3, [(0, 1), (1, 2)])
    assert modularity(path, {0: 0, 1: np.uint8(1), 2: 2}) == -0.375
    with pytest.raises(InputContractError, match="^memberships must hold integers"):
        modularity(path, {0: 0, 1: 0.5, 2: 1})
    with pytest.raises(LengthMismatch):
        nmi([], np.array([], dtype=np.float64))


# --- splits ---

def test_split_sizes_use_half_up_rounding():
    s = train_test_split(10, ratio=0.8, seed=0)
    assert len(s.train) == 8 and len(s.test) == 2
    s = train_test_split(5, ratio=0.5, seed=0)
    assert len(s.train) == 3 and len(s.test) == 2
    s = train_test_split(32, ratio=0.8, seed=42)
    assert len(s.train) == 26 and len(s.test) == 6


def test_split_is_a_disjoint_cover():
    s = train_test_split(20, ratio=0.7, seed=9)
    joined = np.concatenate([s.train, s.test])
    assert sorted(joined) == list(range(20))
    # the split holds its two index arrays and does not echo its inputs
    assert [f.name for f in fields(s)] == ["train", "test"]


def test_split_determinism_and_seed_sensitivity():
    a = train_test_split(15, ratio=0.6, seed=4)
    b = train_test_split(15, ratio=0.6, seed=4)
    c = train_test_split(15, ratio=0.6, seed=5)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.test, b.test)
    assert not np.array_equal(a.train, c.train)


def test_split_rejects_degenerate_requests():
    with pytest.raises(DegenerateSplit):
        train_test_split(1, ratio=0.5)
    with pytest.raises(DegenerateSplit):
        train_test_split(10, ratio=0.0)
    with pytest.raises(DegenerateSplit):
        train_test_split(10, ratio=1.0)
    with pytest.raises(DegenerateSplit):
        train_test_split(10, ratio=0.99)  # rounds to an empty test side
    with pytest.raises(DegenerateSplit):
        train_test_split(4, ratio=0.01)  # rounds to an empty train side
    for ratio in (-0.5, float("nan"), float("inf"), 1.5):
        with pytest.raises(DegenerateSplit, match=f"^cannot split 10 items at ratio {ratio}$"):
            train_test_split(10, ratio=ratio)


# --- softmax classifier ---

def test_softmax_gradient_matches_finite_differences():
    gen = RandomSource(1, 0).generator()
    for _ in range(10):
        s, d, c = 12, 4, 3
        xb = np.hstack([np.ones((s, 1)), gen.standard_normal((s, d))])
        y = gen.integers(0, c, size=s)
        w = gen.standard_normal((d + 1, c))
        _, grad = softmax_loss_and_gradient(w, xb, y, l2=1e-3)
        fd = central_difference(
            lambda z: softmax_loss_and_gradient(z, xb, y, 1e-3)[0], w
        )
        assert gradient_gap(grad, fd) < 1e-7


def test_softmax_penalty_skips_the_bias_row():
    xb = np.array([[1.0, 2.0], [1.0, -2.0]])
    y = np.array([0, 1])
    w = np.zeros((2, 2))
    loss_no_l2, _ = softmax_loss_and_gradient(w, xb, y, l2=0.0)
    loss_l2, _ = softmax_loss_and_gradient(w, xb, y, l2=10.0)
    assert loss_no_l2 == loss_l2  # zero weights carry no penalty either way
    w_bias_only = np.array([[3.0, -3.0], [0.0, 0.0]])
    a, _ = softmax_loss_and_gradient(w_bias_only, xb, y, l2=0.0)
    b, _ = softmax_loss_and_gradient(w_bias_only, xb, y, l2=10.0)
    assert a == b


@pytest.mark.parametrize(
    "rows, width, classes, scale, learning_rate, halvings",
    [(6554, 32, 8, 1.0, 0.1, 0), (6554, 32, 8, 64.0, 50.0, 6), (400, 128, 3, 1.0, 0.1, 0),
     (3000, 16, 100, 1.0, 0.1, 0)],
)
def test_softmax_fit_bytes_match_the_frozen_mask_copy(
    monkeypatch, rows, width, classes, scale, learning_rate, halvings
):
    gen = RandomSource(11, 0).generator()
    y = gen.integers(0, classes, size=rows)
    x = scale * (gen.standard_normal((rows, width)) + gen.standard_normal((classes, width))[y])
    got = softmax_fit(x, y, SoftmaxModel(learning_rate=learning_rate, epochs=100))
    monkeypatch.setattr(evaluation, "softmax_loss_and_gradient", softmax_loss_and_gradient_by_masks)
    want = softmax_fit(x, y, SoftmaxModel(learning_rate=learning_rate, epochs=100))
    assert len(got.loss_history_) == 101 - halvings  # each halving skips one epoch's loss
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.loss_history_ == want.loss_history_


def test_softmax_fit_separable_data():
    gen = RandomSource(7, 0).generator()
    x = np.vstack([
        gen.standard_normal((20, 2)) + [4.0, 0.0],
        gen.standard_normal((20, 2)) - [4.0, 0.0],
    ])
    y = np.array([0] * 20 + [1] * 20)
    model = softmax_fit(x, y)
    predicted = softmax_predict(model, x).argmax(axis=1)
    assert np.array_equal(predicted, y)
    assert model.weights.shape[1] == 2


def test_softmax_loss_history_never_increases():
    gen = RandomSource(2, 0).generator()
    x = gen.standard_normal((30, 3))
    y = gen.integers(0, 3, size=30)
    model = softmax_fit(x, y, SoftmaxModel(epochs=100))
    diffs = np.diff(model.loss_history_)
    assert np.all(diffs <= 0)


def test_softmax_predictions_are_probability_rows():
    gen = RandomSource(5, 0).generator()
    x = gen.standard_normal((12, 4))
    y = gen.integers(0, 2, size=12)
    y[0], y[1] = 0, 1
    model = softmax_fit(x, y)
    p = softmax_predict(model, x)
    assert p.shape == (12, 2)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0)


def test_softmax_rejects_bad_labels_and_shapes():
    x = np.zeros((4, 2))
    with pytest.raises(SingleClassTest, match="^need at least two classes to fit$"):
        softmax_fit(x, [0, 0, 0, 0])  # a single class is unlearnable
    with pytest.raises(InputContractError, match="^labels must be nonnegative$") as bad_label:
        softmax_fit(x, [0, 1, -1, 0])
    assert type(bad_label.value) is InputContractError
    with pytest.raises(DimensionMismatch):
        softmax_fit(x, [0, 1, 1])
    with pytest.raises(DimensionMismatch, match=re.escape("got (0, 2) vs (0,)")):
        softmax_fit(np.zeros((0, 2)), [])
    with pytest.raises(NotFitted, match="^call softmax_fit before softmax_predict$"):
        softmax_predict(SoftmaxModel(), x)
    model = softmax_fit(np.random.default_rng(0).standard_normal((6, 2)), [0, 1, 0, 1, 0, 1])
    with pytest.raises(DimensionMismatch):
        softmax_predict(model, np.zeros((3, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_refuses_a_non_finite_x(bad):
    x = np.random.default_rng(0).standard_normal((6, 2))
    x[4, 1] = bad
    with pytest.raises(InputContractError, match="^x must be finite$") as info:
        softmax_fit(x, [0, 1, 0, 1, 0, 1])
    assert type(info.value) is InputContractError


@pytest.mark.parametrize(
    "change, message",
    [
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"epochs": -3}, "epochs must be >= 0, got -3"),
        ({"l2": None}, "l2 must be a number, got None"),
        ({"l2": -1e-4}, "l2 must be a nonnegative finite number, got -0.0001"),
        ({"l2": float("inf")}, "l2 must be a nonnegative finite number, got inf"),
        ({"l2": float("nan")}, "l2 must be a nonnegative finite number, got nan"),
        ({"learning_rate": -1.0}, "learning_rate must be a positive finite number, got -1.0"),
        ({"learning_rate": 0.0}, "learning_rate must be a positive finite number, got 0.0"),
        ({"learning_rate": float("nan")}, "learning_rate must be a positive finite number, got nan"),
    ],
    ids=["epochs-float", "epochs-bool", "epochs-negative", "l2-none", "l2-negative", "l2-inf",
         "l2-nan", "rate-negative", "rate-zero", "rate-nan"],
)
def test_softmax_checks_its_hyperparameters(change, message):
    x = np.random.default_rng(0).standard_normal((6, 2))
    with pytest.raises(InputContractError, match=f"^{message}$"):
        softmax_fit(x, [0, 1, 0, 1, 0, 1], SoftmaxModel(**change))


def test_softmax_fits_at_zero_epochs_and_zero_penalty():
    x = np.random.default_rng(0).standard_normal((6, 2))
    model = softmax_fit(x, [0, 1, 0, 1, 0, 1], SoftmaxModel(epochs=0, l2=0.0))
    assert np.array_equal(model.weights, np.zeros((3, 2)))
    assert len(model.loss_history_) == 1


# --- ranking quality ---

def test_auc_matches_pair_counting_reference():
    gen = RandomSource(4, 0).generator()
    for _ in range(50):
        n = int(gen.integers(4, 30))
        y = gen.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        p1 = gen.random(n)
        scores = np.column_stack([1.0 - p1, p1])
        assert abs(auc(y, scores) - auc_pairwise(y, p1)) < 1e-12


def test_auc_known_orderings():
    y = np.array([0, 0, 1, 1])
    perfect = np.column_stack([1 - np.array([0.1, 0.2, 0.8, 0.9]), [0.1, 0.2, 0.8, 0.9]])
    assert auc(y, perfect) == 1.0
    reversed_ = perfect[::-1]
    assert auc(y, reversed_) == 0.0
    flat = np.full((4, 2), 0.5)
    assert auc(y, flat) == 0.5


def test_auc_multiclass_is_macro_averaged_one_vs_rest():
    y = np.array([0, 0, 1, 1, 2, 2])
    gen = RandomSource(8, 0).generator()
    scores = gen.random((6, 3))
    expected = np.mean(
        [auc_pairwise((y == c).astype(int), scores[:, c]) for c in range(3)]
    )
    assert abs(auc(y, scores) - expected) < 1e-12


def test_auc_ignores_monotone_score_transforms():
    y = np.array([0, 1, 0, 1, 1, 0])
    gen = RandomSource(6, 0).generator()
    scores = gen.random((6, 2))
    assert auc(y, scores) == auc(y, np.exp(scores) * 3.0 + 1.0)


def test_auc_midranks_match_scipy_rankdata():
    from scipy.stats import rankdata

    from graphmine.evaluation import _midranks

    gen = RandomSource(4, 0).generator()
    for _ in range(200):
        n = int(gen.integers(1, 50))
        x = gen.integers(0, int(gen.integers(1, 8)), n) * float(gen.choice([0.1, -3.0]))
        assert np.array_equal(_midranks(x), rankdata(x, method="average"))
    assert np.all(np.isnan(_midranks(np.array([0.2, np.nan, 0.1]))))


def test_import_does_not_load_scipy_stats():
    res = subprocess.run(
        [sys.executable, "-c",
         "import graphmine, sys; assert 'scipy.stats' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr


def test_auc_rejects_degenerate_inputs():
    with pytest.raises(SingleClassTest):
        auc([1, 1, 1], np.random.default_rng(0).random((3, 2)))
    with pytest.raises(DimensionMismatch):
        auc([0, 1, 2], np.random.default_rng(0).random((3, 2)))
    with pytest.raises(DimensionMismatch):
        auc([0, 1], np.random.default_rng(0).random((3, 2)))
    with pytest.raises(DimensionMismatch):
        auc([0, 1, 0], np.array([0.1, 0.5, 0.9]))
