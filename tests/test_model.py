"""Softmax model: predictions, losses, gradients, regularity constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasamp import (
    Dataset,
    Example,
    accuracy,
    bounded_loss,
    default_domain_radius,
    mean_bounded_loss,
    objective_grad,
    objective_value,
    predict_proba,
    predict_proba_batch,
    project,
    regularity_constants,
    softmax,
    surrogate_loss,
    zeros_hypothesis,
)
from adasamp.model import batch_objective_grads


def _random_dataset(rng, n=20, d=3, classes=2):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, classes, size=n)
    return Dataset.from_arrays(X, y, classes)


def test_softmax_zero_scores_uniform():
    for C in (2, 3, 7):
        assert np.allclose(softmax(np.zeros(C)), 1.0 / C, atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(5)
    assert np.all(np.abs(softmax(s) - softmax(s + 123.456)) < 1e-12)


def test_softmax_two_class_example():
    # scores (ln 3, 0) split 3:1
    p = softmax(np.array([math.log(3.0), 0.0]))
    assert p == pytest.approx([0.75, 0.25], abs=1e-12)


def test_predict_proba_at_zero_hypothesis():
    h = zeros_hypothesis(2, 4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.allclose(predict_proba(h, x), 0.5, atol=1e-15)


def test_predict_proba_batch_matches_rowwise():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((3, 4))
    X = rng.standard_normal((10, 4))
    P = predict_proba_batch(h, X)
    for r in range(10):
        assert np.allclose(P[r], predict_proba(h, X[r]), atol=1e-14)


def test_surrogate_loss_examples():
    x = np.array([1.0, 0.0])
    assert surrogate_loss(zeros_hypothesis(2, 2), Example(x, 0)) == pytest.approx(
        math.log(2.0), abs=1e-12)
    # scores (ln 3, 0): p = (0.75, 0.25); label 1 costs ln 4
    h = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
    assert surrogate_loss(h, Example(x, 1)) == pytest.approx(math.log(4.0), abs=1e-12)
    # near-certain prediction costs about nothing
    h_sure = np.array([[50.0, 0.0], [0.0, 0.0]])
    assert surrogate_loss(h_sure, Example(x, 0)) == pytest.approx(0.0, abs=1e-12)


def test_bounded_loss_clamps():
    x = np.array([1.0, 0.0])
    h = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
    # surrogate ln 4 under M = 1 clamps; under M = 10 passes through
    assert bounded_loss(h, Example(x, 1), 1.0) == 1.0
    assert bounded_loss(h, Example(x, 1), 10.0) == pytest.approx(math.log(4.0), abs=1e-12)
    assert bounded_loss(zeros_hypothesis(2, 2), Example(x, 0), 10.0) == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_gradient_at_zero_is_half_x():
    x = np.array([2.0, -1.0, 0.5])
    g = objective_grad(zeros_hypothesis(2, 3), Example(x, 0), 0.0)
    assert np.allclose(g[0], -0.5 * x, atol=1e-15)
    assert np.allclose(g[1], +0.5 * x, atol=1e-15)


def test_regularizer_gradient_is_additive():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((3, 4))
    z = Example(rng.standard_normal(4), 1)
    diff = objective_grad(h, z, 0.7) - objective_grad(h, z, 0.0)
    assert np.allclose(diff, 0.7 * h, rtol=1e-12, atol=1e-15)


def test_finite_difference_gradient():
    rng = np.random.default_rng(3)
    for _ in range(100):
        C, d = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        h = rng.standard_normal((C, d))
        z = Example(rng.standard_normal(d), int(rng.integers(0, C)))
        mu = float(rng.uniform(0.0, 1.0))
        g = objective_grad(h, z, mu)
        eps = 1e-6 * (1.0 + np.linalg.norm(h))
        fd = np.zeros_like(h)
        for i in range(C):
            for j in range(d):
                hp, hm = h.copy(), h.copy()
                hp[i, j] += eps
                hm[i, j] -= eps
                fd[i, j] = (objective_value(hp, z, mu) - objective_value(hm, z, mu)) / (2 * eps)
        assert np.linalg.norm(fd - g) < 1e-5 * max(1.0, np.linalg.norm(g))


def test_batch_gradient_matches_mean_of_singles():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((2, 3))
    X = rng.standard_normal((6, 3))
    y = rng.integers(0, 2, size=6)
    gbar = batch_objective_grads(h[None], X[None], y[None], 0.3)[0]
    singles_g = np.mean([objective_grad(h, Example(X[r], int(y[r])), 0.3) for r in range(6)], axis=0)
    assert np.allclose(gbar, singles_g, atol=1e-12)


def test_strong_convexity_inequality():
    # F(b) >= F(a) + <g(a), b-a> + (mu/2)||b-a||^2, within 1e-9
    rng = np.random.default_rng(5)
    mu = 0.4
    for _ in range(100):
        z = Example(rng.standard_normal(3), int(rng.integers(0, 2)))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        lhs = objective_value(b, z, mu)
        rhs = (objective_value(a, z, mu)
               + float(np.sum(objective_grad(a, z, mu) * (b - a)))
               + 0.5 * mu * float(np.sum((b - a) ** 2)))
        assert lhs >= rhs - 1e-9


def test_smoothness_inequality():
    # ||g(a) - g(b)|| <= beta ||a - b||, within 1e-9
    rng = np.random.default_rng(6)
    mu = 0.2
    ds = _random_dataset(rng, n=30, d=3)
    consts = regularity_constants(ds, mu, 5.0)
    for _ in range(100):
        z = ds.example(int(rng.integers(0, ds.n)))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        gap = np.linalg.norm(objective_grad(a, z, mu) - objective_grad(b, z, mu))
        assert gap <= consts.smoothness * np.linalg.norm(a - b) + 1e-9


def test_constants_examples():
    X = np.array([[1.0, 0.0], [0.6, 0.8]])
    ds = Dataset.from_arrays(X, np.array([0, 1]), 2)
    assert ds.feature_radius == pytest.approx(1.0, abs=1e-12)
    c0 = regularity_constants(ds, 0.0, 5.0)
    assert c0.lipschitz == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert c0.smoothness == pytest.approx(0.5, abs=1e-12)
    assert c0.strong_convexity == 0.0
    assert c0.loss_bound == 5.0
    # adding mu shifts smoothness/strong convexity by exactly mu
    r = default_domain_radius(ds, 0.1)
    c1 = regularity_constants(ds, 0.1, 5.0, domain_radius=r)
    assert c1.smoothness == pytest.approx(c0.smoothness + 0.1, abs=1e-12)
    assert c1.strong_convexity == pytest.approx(0.1, abs=1e-12)
    assert c1.lipschitz == pytest.approx(math.sqrt(2.0) + 0.1 * r, abs=1e-12)


def test_gradient_norm_never_exceeds_lipschitz():
    rng = np.random.default_rng(7)
    mu = 0.1
    ds = _random_dataset(rng, n=50, d=4)
    radius = default_domain_radius(ds, mu)
    consts = regularity_constants(ds, mu, 5.0, domain_radius=radius)
    worst = 0.0
    for _ in range(10000):
        h = rng.standard_normal((2, 4))
        h *= rng.uniform(0.0, radius) / np.linalg.norm(h)
        z = ds.example(int(rng.integers(0, ds.n)))
        worst = max(worst, float(np.linalg.norm(objective_grad(h, z, mu))))
    assert worst <= consts.lipschitz


def test_hessian_norm_bound_is_tight_at_zero():
    # curvature probe: ||g(h + eps v) - g(h - eps v)|| / (2 eps ||v||) <= smoothness,
    # and the h = 0 / aligned-x configuration gets within a percent of 0.5 R^2
    rng = np.random.default_rng(8)
    R = 1.0
    X = np.array([[R, 0.0]])
    ds = Dataset.from_arrays(X, np.array([0]), 2)
    consts = regularity_constants(ds, 0.0, 5.0)
    z = ds.example(0)
    eps = 1e-5

    def curvature(h, v):
        gp = objective_grad(h + eps * v, z, 0.0)
        gm = objective_grad(h - eps * v, z, 0.0)
        return float(np.linalg.norm(gp - gm) / (2 * eps * np.linalg.norm(v)))

    probes = [curvature(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
              for _ in range(200)]
    v_star = np.array([[1.0, 0.0], [-1.0, 0.0]])
    probes.append(curvature(np.zeros((2, 2)), v_star))
    assert max(probes) <= consts.smoothness + 1e-6
    assert max(probes) >= 0.5 * R * R - 1e-4


def test_project_examples():
    h = np.array([[3.0, 4.0]])
    assert np.allclose(project(h, 2.5), [[1.5, 2.0]], atol=1e-12)
    assert np.array_equal(project(h, 10.0), h)
    assert project(h, None) is h


@pytest.mark.parametrize("batch", [1, 2, 5, 16, 100])
@pytest.mark.parametrize("classes,dim", [(2, 8), (3, 5)])
def test_stacked_products_and_gradients_equal_per_run_calls_bitwise(batch, classes, dim):
    # the stacked (R, b, d) @ (R, d, C) product makes each run's 2-d BLAS call
    rng = np.random.default_rng(batch * classes)
    R = 6
    H = rng.standard_normal((R, classes, dim))
    X = rng.standard_normal((R, batch, dim))
    y = rng.integers(0, classes, size=(R, batch))
    scores = X @ H.transpose(0, 2, 1)
    P = rng.random((R, batch, classes))
    back = P.transpose(0, 2, 1) @ X
    G = batch_objective_grads(H, X, y, 0.3)
    for r in range(R):
        assert scores[r].tobytes() == (X[r] @ H[r].T).tobytes()
        assert back[r].tobytes() == (P[r].T @ X[r]).tobytes()
        one = batch_objective_grads(H[r:r + 1], X[r:r + 1], y[r:r + 1], 0.3)
        assert G[r].tobytes() == one[0].tobytes()


@pytest.mark.parametrize("k", [1, 7, 8, 9, 127, 128, 129, 300, 1000])
def test_last_axis_sums_equal_per_row_sums_bitwise(k):
    # every reduction the stacked paths make runs along the contiguous last axis
    x = np.random.default_rng(k).standard_normal((64, k)) * np.logspace(-8, 8, k)
    sums = x.sum(axis=1)
    for r in range(64):
        assert sums[r] == x[r].sum()


def test_stacked_projection_equals_per_run_projection_bitwise():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((20, 3, 4)) * rng.uniform(0.1, 3.0, size=(20, 1, 1))
    radius = float(np.median(np.sqrt((H * H).sum(axis=(1, 2)))))
    out = project(H, radius)
    moved = 0
    for r in range(20):
        alone = project(H[r], radius)
        assert out[r].tobytes() == alone.tobytes()
        moved += not np.array_equal(alone, H[r])
    assert 0 < moved < 20
    inside = H[: 1] * (0.5 * radius / np.sqrt((H[0] * H[0]).sum()))
    assert project(inside, radius) is inside
    assert project(H, None) is H


def test_accuracy_and_mean_loss():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ds = Dataset.from_arrays(X, np.array([0, 1]), 2)
    h = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert accuracy(h, ds) == 1.0
    assert 0.0 <= mean_bounded_loss(h, ds, 1.0) <= 1.0


def test_dataset_validation_and_split():
    X = np.ones((4, 2))
    with pytest.raises(ValueError):
        Dataset.from_arrays(X, np.array([0, 1, 2, 0]), 2)  # label out of range
    with pytest.raises(ValueError):
        Dataset.from_arrays(X, np.array([0, 1, 0]), 2)  # length mismatch
    with pytest.raises(ValueError):
        Dataset.from_arrays(X * np.nan, np.zeros(4, dtype=int), 2)
    ds = Dataset.from_arrays(np.arange(8.0).reshape(4, 2), np.array([0, 1, 1, 0]), 2)
    left, right = ds.split(3)
    assert left.n == 3 and right.n == 1
    assert np.array_equal(right.features, ds.features[3:])
    # each split recomputes its radius from its own rows
    assert left.feature_radius == np.linalg.norm(ds.features[:3], axis=1).max()


@given(seed=st.integers(0, 2**31), m=st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_bounded_loss_stays_in_range(seed, m):
    rng = np.random.default_rng(seed)
    C = int(rng.integers(2, 5))
    h = 3.0 * rng.standard_normal((C, 3))
    z = Example(3.0 * rng.standard_normal(3), int(rng.integers(0, C)))
    v = bounded_loss(h, z, m)
    assert 0.0 <= v <= m
