"""Softmax model: predictions, losses, gradients, regularity constants."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adasamp.model as model
from adasamp import (
    Dataset,
    default_domain_radius,
    project,
    regularity_constants,
    softmax,
    zeros_hypothesis,
)
from adasamp.data import save_csv
from adasamp.harness import ExperimentConfig, build_datasets
from adasamp.model import (
    PROB_FLOOR,
    RegularityConstants,
    _bounded_losses,
    _class_max,
    _last_axis_sum,
    _pairwise_sum,
    _risk_and_accuracy,
    batch_objective_grads,
)
from oracles import (
    Example,
    example,
    naive_accuracy,
    naive_mean_bounded_loss,
    naive_softmax,
    objective_grad,
    objective_value,
    predict_proba,
)


def _bounded_loss(h, z, M):
    """min(CE, M) of one example, through the batched loss."""
    return float(_bounded_losses((h @ z.features)[None], np.array([z.label]), M)[0])


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
    P = softmax(X @ h.T)
    for r in range(10):
        assert np.allclose(P[r], predict_proba(h, X[r]), atol=1e-14)


def test_surrogate_loss_examples():
    x = np.array([1.0, 0.0])
    # the cross-entropy is the objective without its ridge
    assert objective_value(zeros_hypothesis(2, 2), Example(x, 0), 0.0) == pytest.approx(
        math.log(2.0), abs=1e-12)
    # scores (ln 3, 0): p = (0.75, 0.25); label 1 costs ln 4
    h = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
    assert objective_value(h, Example(x, 1), 0.0) == pytest.approx(math.log(4.0), abs=1e-12)
    # near-certain prediction costs about nothing
    h_sure = np.array([[50.0, 0.0], [0.0, 0.0]])
    assert objective_value(h_sure, Example(x, 0), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_bounded_loss_clamps():
    x = np.array([1.0, 0.0])
    h = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
    # surrogate ln 4 under M = 1 clamps; under M = 10 passes through
    assert _bounded_loss(h, Example(x, 1), 1.0) == 1.0
    assert _bounded_loss(h, Example(x, 1), 10.0) == pytest.approx(math.log(4.0), abs=1e-12)
    assert _bounded_loss(zeros_hypothesis(2, 2), Example(x, 0), 10.0) == pytest.approx(
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
        z = example(ds, int(rng.integers(0, ds.n)))
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


def test_overflowing_constants_are_rejected_naming_the_cause():
    wide = Dataset.from_arrays([[1e160, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ValueError, match="^the feature radius R = inf is too large"):
        regularity_constants(wide, 0.01, 5.0)
    ds = Dataset.from_arrays([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ValueError, match="^mu \\* domain_radius = 2 \\* 1e\\+308 is too large"):
        regularity_constants(ds, 2.0, 5.0, domain_radius=1e308)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            RegularityConstants(bad, 1.0, 0.0, 5.0)
        with pytest.raises(ValueError, match="positive and finite"):
            RegularityConstants(1.0, bad, 0.0, 5.0)


@pytest.mark.parametrize("args,message", [
    ((math.nan, 5.0, None), "^mu must be nonnegative and finite, got nan$"),
    ((math.inf, 5.0, None), "^mu must be nonnegative and finite, got inf$"),
    ((0.1, math.nan, None), "^M must be positive and finite$"),
    ((0.0, 5.0, math.inf), "^domain_radius must be nonnegative and finite, got inf$"),
    ((0.1, 5.0, math.nan), "^domain_radius must be nonnegative and finite, got nan$"),
])
def test_constants_name_the_input_they_reject(args, message):
    # each message names the input at fault, not a constant computed from it
    ds = Dataset.from_arrays([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ValueError, match=message):
        regularity_constants(ds, *args)


def _nan_blind_bytes(x):
    """Bytes of x with every NaN made np.nan: numpy's own add gives a NaN
    either sign, depending on where the element falls in the array."""
    x = np.array(x, dtype=np.float64)
    x[np.isnan(x)] = np.nan
    return x.tobytes()


def test_last_axis_sum_follows_numpys_summation_order():
    # numpy's pairwise order, on the installed numpy: a change of order fails here
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.2e-308,
               1e-300, -1e-300, 1e300, -1e300]
    rng = np.random.default_rng(41)

    def draw(shape):
        # each row near one magnitude, so the order of its additions shows
        scale = rng.choice([-300, -150, 0, 150, 300], size=shape[:-1] + (1,))
        a = rng.standard_normal(shape) * 10.0 ** (scale + rng.integers(-4, 5, size=shape))
        picked = rng.random(shape)
        a[picked < 0.05] = rng.choice(special, size=int((picked < 0.05).sum()))
        zeros = picked > 0.8
        a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        return a

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 301):
            for shape in [(k,), (5, k), (2, 3, k)]:
                a = draw(shape)
                want = _nan_blind_bytes(a.sum(axis=-1))
                assert _nan_blind_bytes(_last_axis_sum(a)) == want, shape
                # the same values as a transposed view: columns sum in contiguous runs
                view = np.moveaxis(np.moveaxis(a, -1, 0).copy(), 0, -1)
                assert _nan_blind_bytes(_last_axis_sum(view)) == want, shape
                assert not view.flags.c_contiguous or view.ndim == 1 or k == 1
            zeros = np.full((3, k), -0.0)
            assert _last_axis_sum(zeros).tobytes() == zeros.sum(axis=-1).tobytes()
    assert _last_axis_sum(np.array([[-0.0, -0.0]])).tobytes() == np.zeros(1).tobytes()


# lengths on each side of every recursion boundary of numpy's pairwise sum
# (8 accumulators, runs of 128) and of the default 8192-entry leaves
_PAIRWISE_LENGTHS = [1, 7, 8, 127, 128, 129, 255, 8191, 8192, 8193, 3 * 8192 + 5, 2**17 + 3]


@pytest.mark.parametrize("block_rows", [None, 37, 129])
def test_pairwise_sum_is_numpys_sum_of_the_whole_array_bitwise(block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(model, "_BLOCK_ROWS", block_rows)
    limit = max(model._BLOCK_ROWS, 128)
    rng = np.random.default_rng(43)
    left_to_right_differs = False
    for n in _PAIRWISE_LENGTHS:
        # 1e300, 1 and 1e-300 scales, and -0.0, so the order of the additions shows
        a = rng.standard_normal(n) * 10.0 ** rng.choice([-300, 0, 300], size=n)
        a[rng.random(n) < 0.1] = -0.0
        for values in (a, np.full(n, -0.0)):
            leaves = []

            def leaf(lo, hi):
                leaves.append((lo, hi))
                return values[lo:hi].copy()

            got = _pairwise_sum(leaf, 0, n)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.add.reduce(values).tobytes(), n
            # the leaves tile the array in order, none longer than the limit
            assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]]
            assert leaves[-1][1] == n and max(hi - lo for lo, hi in leaves) <= limit
        blocks = 0.0
        for lo in range(0, n, model._BLOCK_ROWS):
            blocks += np.add.reduce(a[lo:lo + model._BLOCK_ROWS])
        left_to_right_differs |= blocks != np.add.reduce(a)
    # a left-to-right sum of block sums is not numpy's order
    assert left_to_right_differs


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
        z = example(ds, int(rng.integers(0, ds.n)))
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
    z = example(ds, 0)
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


@pytest.mark.parametrize("radius", [-1.0, -0.5, math.nan, math.inf, -math.inf])
def test_project_rejects_a_radius_outside_zero_to_infinity(radius):
    # scaling by radius / norm would flip h's sign at a negative radius, and a
    # NaN or infinite radius would leave h unprojected
    for h in (np.array([[3.0, 4.0]]), np.ones((2, 2, 3))):
        with pytest.raises(ValueError, match="domain_radius must be nonnegative and finite"):
            project(h, radius)
    assert np.array_equal(project(np.array([[3.0, 4.0]]), 0.0), [[0.0, 0.0]])


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


@pytest.mark.parametrize("mu", [0.0, 0.3])
@pytest.mark.parametrize("classes,dim", [(2, 3), (3, 5), (10, 64)])
def test_one_draw_gradients_are_objective_grads_bitwise_signed_zeros_included(classes, dim, mu):
    # a zero feature makes each entry of its column a signed zero: the label's
    # row is -0 where h is negative at mu 0, which a k = 1 matmul turns into +0
    rng = np.random.default_rng(classes * dim)
    R = 40
    H = rng.standard_normal((R, classes, dim))
    X = rng.standard_normal((R, 1, dim))
    X[:, :, 0] = 0.0
    X[::3, :, dim // 2] = 0.0
    y = rng.integers(0, classes, size=(R, 1))
    G = batch_objective_grads(H, X, y, mu)
    expect = [objective_grad(H[r], Example(X[r, 0], int(y[r, 0])), mu) for r in range(R)]
    for r in range(R):
        assert G[r].tobytes() == expect[r].tobytes()
    if mu == 0:
        assert any(np.signbit(g[:, 0]).any() for g in expect)


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


def test_projection_scales_a_run_outside_the_ball_beside_a_nan_run():
    # a NaN norm is not outside the ball, so only run 1 is scaled
    rng = np.random.default_rng(6)
    H = rng.standard_normal((3, 2, 4))
    H[0, 1, 2] = np.nan
    H[1] *= 10.0
    H[2] *= 0.01
    radius = 2.0
    out = project(H, radius)
    norm = np.sqrt((H[1] * H[1]).reshape(-1).sum())
    assert norm > radius
    assert out[1].tobytes() == (H[1] * (radius / norm)).tobytes()
    assert out[1].tobytes() == project(H[1], radius).tobytes()
    for r in (0, 2):
        assert out[r].tobytes() == (H[r] * 1.0).tobytes()


def test_accuracy_and_mean_loss():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ds = Dataset.from_arrays(X, np.array([0, 1]), 2)
    h = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert _risk_and_accuracy(h, ds, 1.0)[1] == 1.0
    assert 0.0 <= _risk_and_accuracy(h, ds, 1.0)[0] <= 1.0


def test_column_max_equals_numpy_bitwise():
    # every row over these values: ties, signed zeros, +-inf and NaN anywhere
    values = [0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan]
    grids = [np.array(np.meshgrid(*[values] * C, indexing="ij")).reshape(C, -1).T
             for C in (1, 2, 3, 4)]
    rng = np.random.default_rng(11)
    stacked = [rng.integers(-2, 3, size=(3, 50, C)) * 0.5 for C in range(2, 10)]
    for S in grids + stacked + [np.array([1.0, 3.0, 3.0, -1.0])]:
        assert _class_max(S).tobytes() == S.max(axis=-1).tobytes()


@pytest.mark.parametrize("C", range(2, 10))
def test_softmax_equals_the_first_written_formula_bitwise(C):
    rng = np.random.default_rng(C)
    for scale in (1e-3, 1.0, 30.0, 800.0):
        S = scale * rng.standard_normal((4, 37, C))
        S[0, :5] = S[0, :5, :1]  # rows of ties
        S[1, :5, -1] = -np.inf
        assert softmax(S).tobytes() == naive_softmax(S).tobytes()
        assert softmax(S[2, 7]).tobytes() == naive_softmax(S[2, 7]).tobytes()


@pytest.mark.parametrize("C", [2, 3, 5])
def test_one_scoring_gives_the_risk_and_accuracy_of_the_first_written_formulas(C, monkeypatch):
    # small row blocks, so several blocks and a ragged last one are hit
    monkeypatch.setattr(model, "_BLOCK_ROWS", 37)
    rng = np.random.default_rng(C)
    ds = _random_dataset(rng, n=400, d=4, classes=C)
    floored = clamped = 0
    for scale in (0.0, 0.01, 1.0, 10.0, 1e3):
        h = scale * rng.standard_normal((C, 4))
        scores = ds.features @ h.T
        py = naive_softmax(scores)[np.arange(ds.n), ds.labels]
        floored += int((py < PROB_FLOOR).sum())
        for M in (0.5, 5.0, 100.0):
            clamped += int((-np.log(np.maximum(py, PROB_FLOOR)) > M).sum())
            want = (naive_mean_bounded_loss(h, ds, M), naive_accuracy(h, ds))
            assert _risk_and_accuracy(h, ds, M) == want
            assert all(type(v) is float for v in _risk_and_accuracy(h, ds, M))
    assert floored and clamped  # the large h saturates both the floor and the clamp


@pytest.mark.parametrize("n", [1, 36, 37, 38, 111, 400])
def test_blocked_risk_and_accuracy_keep_ties_and_infinite_scores_bitwise(n, monkeypatch):
    monkeypatch.setattr(model, "_BLOCK_ROWS", 37)
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 4))
    X[:, 0] = np.abs(X[:, 0]) + 0.5  # so a -inf weight on it scores -inf
    ds = Dataset.from_arrays(X, rng.integers(0, 3, size=n), 3)
    tied = np.repeat(rng.standard_normal((1, 4)), 3, axis=0)  # every row a three-way tie
    for h in (tied, 1e3 * tied, np.vstack([tied[:2], [-np.inf, 0.0, 0.0, 0.0]]),
              np.array([[-np.inf, 1.0, 0.0, 0.0], [0.0] * 4, [2.0, -1.0, 0.5, 0.0]]),
              300.0 * rng.standard_normal((3, 4))):
        scores = X @ h.T
        assert not np.isnan(scores).any()
        for M in (0.5, 100.0):
            got = _risk_and_accuracy(h, ds, M)
            want = (naive_mean_bounded_loss(h, ds, M), naive_accuracy(h, ds))
            assert np.array(got).tobytes() == np.array(want).tobytes(), (h, M)


def test_a_metrics_tick_adds_less_than_two_and_a_half_floats_a_row():
    # the (n, 2) scores and block-sized temporaries, in 200000 rows
    rng = np.random.default_rng(12)
    n = 200_000
    ds = Dataset.from_arrays(rng.standard_normal((n, 8)), rng.integers(0, 2, size=n), 2)
    h = rng.standard_normal((2, 8))
    want = _risk_and_accuracy(h, ds, 5.0)
    tracemalloc.start()
    try:
        got = _risk_and_accuracy(h, ds, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2.5 * n * 8, peak / (n * 8)


def test_dataset_validation_and_split(tmp_path):
    X = np.ones((4, 2))
    with pytest.raises(ValueError):
        Dataset.from_arrays(X, np.array([0, 1, 2, 0]), 2)  # label out of range
    with pytest.raises(ValueError):
        Dataset.from_arrays(X, np.array([0, 1, 0]), 2)  # length mismatch
    with pytest.raises(ValueError):
        Dataset.from_arrays(X * np.nan, np.zeros(4, dtype=int), 2)
    for bad in (np.nan, np.inf):  # one bad cell makes the radius non-finite, so the scan runs
        X_bad = X.copy()
        X_bad[2, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            Dataset.from_arrays(X_bad, np.zeros(4, dtype=int), 2)
    ds = Dataset.from_arrays(np.arange(8.0).reshape(4, 2), np.array([0, 1, 1, 0]), 2)
    save_csv(ds, tmp_path / "d.csv")
    left, right = build_datasets(ExperimentConfig(csv=str(tmp_path / "d.csv"), test_n=1))
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
    v = _bounded_loss(h, z, m)
    assert 0.0 <= v <= m
