"""Independent test oracles shared by several test modules."""

import numpy as np

from adasamp.data import _class_counts, _class_means
from adasamp.model import PROB_FLOOR, Dataset, objective_grad
from adasamp.optim import UpdateRuleState, apply_update


def naive_descend(weights, uniforms):
    """The weight tree's draw for one row of uniforms, recomputing every
    interval sum from the leaves; no maintained structure."""
    cap = 1
    while cap < len(weights):
        cap *= 2
    padded = np.zeros(cap)
    padded[:len(weights)] = weights
    lo, width = 0, cap
    for u in uniforms:
        width //= 2
        left = padded[lo:lo + width].sum()
        right = padded[lo + width:lo + 2 * width].sum()
        if not u * (left + right) < left:
            lo += width
    return lo


def naive_run_indexed(ds, indices, sched, mu, h0, radius):
    """Plain SGD driven by a forced index sequence (the coupled runs of the
    stability definitions). Always batch 1, sgd rule, no reweighting."""
    h = h0.copy()
    state = UpdateRuleState.sgd()
    for t, i in enumerate(indices, start=1):
        g = objective_grad(h, ds.example(int(i)), mu)
        h = apply_update(h, g, t, sched, state, radius)
    return h


def naive_synth_data(n, dim, classes, imbalance, noise, seed, separation=4.0):
    """The synthetic task as first written: means gathered per row, every
    squared distance in one (n, classes, dim) temporary, a copy for the
    other-class distances, and a full stable sort to pick the flipped labels.
    Arguments are not validated."""
    rng = np.random.default_rng(seed)
    means = _class_means(classes, dim, separation)
    counts = _class_counts(n, classes, imbalance)
    y = np.repeat(np.arange(classes, dtype=np.int64), counts)
    X = means[y] + rng.standard_normal((n, dim))
    perm = rng.permutation(n)
    X, y = X[perm], y[perm]
    flips = int(round(n * noise))
    if flips:
        d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        own = d2[np.arange(n), y]
        d2_other = d2.copy()
        d2_other[np.arange(n), y] = np.inf
        nearest_other = d2_other.argmin(axis=1)
        margin = d2_other[np.arange(n), nearest_other] - own
        hard = np.argsort(margin, kind="stable")[:flips]
        y = y.copy()
        y[hard] = nearest_other[hard]
    return Dataset.from_arrays(X, y, classes)


def naive_feature_radius(X):
    """The feature radius as first written: every squared norm from one
    (n, d) temporary of squares."""
    return float(np.sqrt((X * X).sum(axis=1).max()))


def naive_softmax(scores):
    """Softmax as first written: the max and the sum as numpy reductions over
    the last axis, then one division per entry."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def naive_mean_bounded_loss(h, ds, M):
    """The empirical risk as first written: the full softmax matrix, then the
    label's column of it."""
    P = naive_softmax(ds.features @ h.T)
    py = np.maximum(P[np.arange(ds.n), ds.labels], PROB_FLOOR)
    return float(np.minimum(-np.log(py), M).mean())


def naive_accuracy(h, ds):
    scores = ds.features @ h.T
    return float((scores.argmax(axis=1) == ds.labels).mean())
