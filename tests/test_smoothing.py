import numpy as np
import pytest

from softact import (MethodSpec, PriorMatrix, SoftLabel, build_uniform_prior,
                     build_verb_noun_prior, one_hot, smooth_label,
                     smooth_label_matrix, soft_cross_entropy, softmax)

from conftest import random_vocab


# ---------------------------------------------------------------- configs


def test_smoothing_config():
    # a method's smoothing is its (kind, alpha) pair, checked by MethodSpec
    assert MethodSpec("m", "verb_noun", 0.45).alpha == 0.45
    # onehot means no smoothing, so any other alpha is an error
    with pytest.raises(ValueError, match="onehot runs must use alpha 0"):
        MethodSpec("m", "onehot", 0.3)
    assert MethodSpec("m", "onehot", 0.0).alpha == 0.0
    for alpha in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            MethodSpec("m", "uniform", alpha)
    with pytest.raises(ValueError, match="kind must be one of"):
        MethodSpec("m", "gaussian", 0.5)


def test_soft_label_validation():
    lab = SoftLabel(np.array([0.25, 0.75]))
    assert lab.K == 2
    with pytest.raises(ValueError):
        lab.values[0] = 1.0  # read-only
    with pytest.raises(ValueError):
        SoftLabel(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SoftLabel(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        SoftLabel(np.eye(2))


def test_one_hot():
    np.testing.assert_array_equal(one_hot(2, 4).values, [0, 0, 1, 0])
    with pytest.raises(IndexError):
        one_hot(4, 4)
    with pytest.raises(IndexError):
        one_hot(-1, 4)


# -------------------------------------------------------------- smoothing


def test_smooth_label_uniform_example():
    prior = build_uniform_prior(4)
    lab = smooth_label(0, prior, 0.1)
    np.testing.assert_allclose(lab.values, [0.925, 0.025, 0.025, 0.025],
                               rtol=0, atol=1e-15)


def test_smooth_label_verb_noun_example(toy_vocab):
    prior = build_verb_noun_prior(toy_vocab)
    lab = smooth_label(0, prior, 0.45)
    np.testing.assert_allclose(lab.values, [0.70, 0.15, 0.15, 0.0],
                               rtol=0, atol=1e-15)


def test_smooth_label_alpha_zero_exact(toy_vocab):
    prior = build_verb_noun_prior(toy_vocab)
    for k in range(4):
        np.testing.assert_array_equal(smooth_label(k, prior, 0.0).values,
                                      one_hot(k, 4).values)


def test_smooth_label_alpha_one_is_prior_row(toy_vocab):
    prior = build_verb_noun_prior(toy_vocab)
    for k in range(4):
        np.testing.assert_array_equal(smooth_label(k, prior, 1.0).values,
                                      prior.row(k))


def test_smooth_label_affine_midpoint():
    # alpha = 0.5 lands exactly halfway between one-hot and the prior row
    prior = PriorMatrix(np.array([[0.125, 0.5, 0.375], [0.25, 0.25, 0.5],
                                  [0.375, 0.375, 0.25]]))
    lab = smooth_label(1, prior, 0.5)
    want = 0.5 * (one_hot(1, 3).values + prior.row(1))
    np.testing.assert_array_equal(lab.values, want)


def test_smooth_label_errors(toy_vocab):
    prior = build_verb_noun_prior(toy_vocab)
    with pytest.raises(ValueError):
        smooth_label(0, prior, 1.2)
    with pytest.raises(IndexError):
        smooth_label(7, prior, 0.5)


def test_smooth_label_matrix_matches_single(toy_vocab):
    prior = build_verb_noun_prior(toy_vocab)
    labels = np.array([2, 0, 3, 0, 1])
    mat = smooth_label_matrix(labels, prior, 0.45)
    assert mat.shape == (5, 4)
    for i, k in enumerate(labels):
        np.testing.assert_array_equal(mat[i], smooth_label(int(k), prior,
                                                           0.45).values)


def test_smooth_label_matrix_onehot_paths():
    labels = np.array([0, 2, 1])
    want = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float)
    np.testing.assert_array_equal(
        smooth_label_matrix(labels, None, 0.0, num_classes=4), want)
    np.testing.assert_array_equal(
        smooth_label_matrix(labels, build_uniform_prior(4), 0.0), want)
    assert smooth_label_matrix(np.array([], dtype=int), None, 0.0,
                               num_classes=5).shape == (0, 5)


def test_smooth_label_matrix_errors():
    with pytest.raises(ValueError):
        smooth_label_matrix(np.array([0]), None, 1.5, num_classes=2)
    with pytest.raises(ValueError):
        smooth_label_matrix(np.array([0]), build_uniform_prior(3), 0.1,
                            num_classes=4)
    with pytest.raises(IndexError):
        smooth_label_matrix(np.array([4]), build_uniform_prior(3), 0.1)
    with pytest.raises(IndexError):
        smooth_label_matrix(np.array([-1]), None, 0.0, num_classes=3)
    # K comes from the prior or num_classes, never from the labels
    with pytest.raises(ValueError, match="num_classes"):
        smooth_label_matrix(np.array([0, 2]), None, 0.0)


# ---------------------------------------------------------------- softmax


def test_softmax_examples():
    np.testing.assert_array_equal(softmax(np.zeros(2)), [0.5, 0.5])
    z = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(softmax(z + 100.0), softmax(z), rtol=0,
                               atol=1e-15)
    # large logits must not overflow
    p = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p, [1.0, 0.0], rtol=0, atol=1e-300)
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        softmax(np.array([np.nan, 0.0]))
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        softmax(np.array([np.inf, 0.0]))
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        softmax(np.array([-np.inf, -np.inf]))
    assert np.isfinite(softmax(np.array([np.finfo(np.float64).max, 0.0]))
                       ).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0, 0), (2, 3, 8), (1, 4, 0)])
def test_softmax_raises_for_any_non_finite_logit(value, where):
    # the check reads only the row max and min, and must refuse exactly
    # what a whole-array isfinite refuses, leaving ``out`` untouched
    z = np.random.default_rng(1).normal(scale=300.0, size=(3, 5, 9))
    z[where] = value
    out = np.zeros_like(z)
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        softmax(z, out=out)
    assert not out.any()


def test_softmax_batched_rows_sum_to_one():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 5, 9))
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert np.all(p > 0)


# ---------------------------------------------------------- cross-entropy


def test_soft_cross_entropy_examples():
    uniform = np.full(4, 0.25)
    assert soft_cross_entropy(uniform, uniform) == pytest.approx(np.log(4),
                                                                 rel=1e-15)
    onehot = one_hot(1, 2)
    assert soft_cross_entropy(onehot, np.array([0.5, 0.5])) == pytest.approx(
        np.log(2), rel=1e-15)
    with pytest.raises(ValueError):
        soft_cross_entropy(onehot, np.full(3, 1 / 3))


def test_soft_cross_entropy_clamps_zero_probs():
    loss = soft_cross_entropy(one_hot(0, 2), np.array([0.0, 1.0]))
    assert loss == pytest.approx(-np.log(1e-12), rel=1e-15)
    assert np.isfinite(loss)


def test_cross_entropy_linear_decomposition():
    # CE[(1-a) y + a pi, p] == (1-a) CE[y, p] + a CE[pi, p]
    rng = np.random.default_rng(17)
    for _ in range(200):
        vocab = random_vocab(rng)
        K = vocab.K
        prior = build_verb_noun_prior(vocab)
        k = int(rng.integers(K))
        alpha = float(rng.uniform(0, 1))
        probs = softmax(rng.normal(size=K))
        lhs = soft_cross_entropy(smooth_label(k, prior, alpha), probs)
        rhs = ((1 - alpha) * soft_cross_entropy(one_hot(k, K), probs)
               + alpha * soft_cross_entropy(prior.row(k), probs))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
