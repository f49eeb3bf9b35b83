"""Independent test oracles shared by several test modules: scalar and
first-written forms of what the package computes batched, or does not need
at all, for the tests to check the package against. The one-example
gradient, utility and class probabilities pin the trainer's stacked kernels
bitwise, and through them the enumeration oracle that steps with those
kernels. The test instances that several modules build alike live here too,
so every module gets the same instance from the same seed."""

import itertools
import math
from typing import NamedTuple

import numpy as np

from adasamp.adaptive import SamplerConfig
from adasamp.data import _class_counts, _class_means
from adasamp.model import PROB_FLOOR, Dataset, softmax
from adasamp.optim import StepSchedule, UpdateRuleState, apply_update


class Example(NamedTuple):
    features: np.ndarray
    label: int


def example(ds: Dataset, i: int) -> Example:
    return Example(ds.features[i], int(ds.labels[i]))


def predict_proba(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities softmax(h @ x); entries in (0, 1], summing to 1."""
    if h.ndim != 2 or x.ndim != 1 or h.shape[1] != x.shape[0]:
        raise ValueError("hypothesis and features disagree on dimension")
    return softmax(h @ x)


def objective_grad(h: np.ndarray, z: Example, mu: float) -> np.ndarray:
    """Gradient of F at h for one example: (softmax - onehot) outer x + mu * h."""
    p = predict_proba(h, z.features)
    p[z.label] -= 1.0
    return np.outer(p, z.features) + mu * h


def utility(kind: str, z: Example, h: np.ndarray) -> float:
    """Per-example utility in [0, 1].

    zero_one: 1 if the predicted class differs from the label, else 0.
    l1:       1 - p_label(h, x).
    """
    if kind == "zero_one":
        scores = h @ z.features
        return float(scores.argmax() != z.label)
    if kind == "l1":
        p = predict_proba(h, z.features)
        return float(min(max(1.0 - p[z.label], 0.0), 1.0))
    raise ValueError(f"unknown utility kind {kind!r}")


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


class CountingLabels(np.ndarray):
    """A view of a weight tree's label array that records the position, in
    the whole array, of every label read or written through an index: an
    integer, an index array or `np.add.at`. A slice is a counting view that
    adds to the same record; an index gives plain values."""

    def __array_finalize__(self, base):
        self.record = getattr(base, "record", [])
        self.origin = getattr(base, "origin", 0)
        if base is not None:  # a slice starts this many labels into its base
            self.origin += (self.ctypes.data - base.ctypes.data) // self.itemsize

    def _note(self, key):
        if not isinstance(key, slice):
            self.record.append(np.asarray(key).ravel() + self.origin)

    def __getitem__(self, key):
        self._note(key)
        got = super().__getitem__(key)
        if isinstance(got, CountingLabels) and not isinstance(key, slice):
            return got.view(np.ndarray)
        return got

    def __setitem__(self, key, value):
        self._note(key)
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "at":
            inputs[0]._note(inputs[1])
        plain = (x.view(np.ndarray) if isinstance(x, CountingLabels) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


def touched_labels(tree, operation):
    """operation(tree)'s result, and the positions of the labels it read or
    wrote through an index, one entry per access, as counted by CountingLabels."""
    plain = tree._nodes
    tree._nodes = plain.view(CountingLabels)
    try:
        result = operation(tree)
    finally:
        record, tree._nodes = tree._nodes.record, plain
    return result, np.concatenate(record) if record else np.empty(0, dtype=np.int64)


def fixed_utility_batch_kl(u, batch: int, T: int, amplitude: float, decay: float):
    """Exact (KL(Q || P), E[utility-sum statistic]) of a T-iteration sampler
    run at any batch size, when example i's utility is u[i] at every
    iteration (a run whose steps never change a prediction). Q is the law of
    the whole draw sequence and P that of uniform draws.

    Iteration t draws `batch` indices i.i.d. from Q_t(i) = exp(amplitude *
    A_i) / sum_j exp(amplitude * A_j), normalized naively, and then each
    distinct drawn index takes A_i <- decay * A_i + u[i]. The KL is
    sum_t batch * E[KL(Q_t || uniform)], by the chain rule over the i.i.d.
    draws; the statistic is amplitude/(1-decay) times the sum of u over the
    distinct drawn indices of iterations 1..T-1. Every history of drawn index
    sets is walked: a set's probability is the multinomial mass of the count
    vectors with exactly that support, and histories that reach the same
    accumulators are merged. Shares no code with the trainer or the tree."""
    n = len(u)
    by_support = {}
    for counts in itertools.product(range(batch + 1), repeat=n):
        if sum(counts) == batch:
            coef = math.factorial(batch) / math.prod(math.factorial(c) for c in counts)
            support = tuple(i for i, c in enumerate(counts) if c)
            by_support.setdefault(support, []).append((coef, counts))
    scale = amplitude / (1.0 - decay)
    kl = stat = 0.0
    states = {(0.0,) * n: 1.0}  # accumulators -> probability of reaching them
    for t in range(1, T + 1):
        reached = {}
        for acc, p in states.items():
            e = [math.exp(amplitude * a) for a in acc]
            q = [x / sum(e) for x in e]
            kl += p * batch * sum(qi * math.log(n * qi) for qi in q)
            if t == T:
                continue
            for support, terms in by_support.items():
                p_set = p * sum(coef * math.prod(qi**c for qi, c in zip(q, counts))
                                for coef, counts in terms)
                stat += p_set * scale * sum(u[i] for i in support)
                nxt = list(acc)
                for i in support:
                    nxt[i] = decay * acc[i] + u[i]
                reached[tuple(nxt)] = reached.get(tuple(nxt), 0.0) + p_set
        states = reached
    return kl, stat


def naive_run_indexed(ds, indices, sched, mu, h0, radius):
    """Plain SGD driven by a forced index sequence (the coupled runs of the
    stability definitions). Always batch 1, sgd rule, no reweighting."""
    h = h0.copy()
    state = UpdateRuleState.sgd()
    for t, i in enumerate(indices, start=1):
        g = objective_grad(h, example(ds, int(i)), mu)
        h = apply_update(h, g, t, sched, state, radius)
    return h


def naive_synth_data(n, dim, classes, imbalance, noise, seed, separation):
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


def objective_value(h: np.ndarray, z: Example, mu: float) -> float:
    """F(h, z) = CE(h, z) + (mu/2) * ||h||^2, what SGD descends: CE = -ln p_y
    with p_y clamped below at PROB_FLOOR, and not clamped at M."""
    ce = float(-np.log(max(predict_proba(h, z.features)[z.label], PROB_FLOOR)))
    return ce + 0.5 * mu * float((h * h).sum())


def weight_update(w: float, u: float, amplitude: float, decay: float) -> float:
    """The multiplicative reweighting w^decay * exp(amplitude * u)."""
    if w <= 0:
        raise ValueError("weight must be positive")
    return w**decay * math.exp(amplitude * u)


def posterior_objective(q_next, utils, q_ref, amplitude: float, decay: float) -> float:
    """Expected utility minus KL penalty that the multiplicative update maximizes:

        sum_i q_next(i) * U_i  -  (1/amplitude) * KL(q_next || ref)

    where ref is q_ref^decay renormalized. The maximizer over the simplex is
    q*(i) proportional to q_ref(i)^decay * exp(amplitude * U_i), i.e. one
    `weight_update` sweep followed by normalization.
    """
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    q = np.asarray(q_next, dtype=np.float64)
    u = np.asarray(utils, dtype=np.float64)
    ref = np.asarray(q_ref, dtype=np.float64)
    if q.shape != u.shape or q.shape != ref.shape:
        raise ValueError("q_next, utils, q_ref must share a shape")
    if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("q_next must be a distribution")
    if np.any(ref <= 0):
        raise ValueError("q_ref must be strictly positive")
    ref_pow = ref**decay
    ref_pow /= ref_pow.sum()
    pos = q > 0
    kl = float((q[pos] * np.log(q[pos] / ref_pow[pos])).sum())
    return float((q * u).sum()) - kl / amplitude


def _check_distribution_pair(q, p):
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape or q.ndim != 1:
        raise ValueError("q and p must be 1-d with the same length")
    if np.any(q < 0) or np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(q.sum() - 1.0) > 1e-9 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("q and p must each sum to 1 within 1e-9")
    if np.any((q > 0) & (p == 0)):
        raise ValueError("q is not absolutely continuous w.r.t. p")
    return q, p


def kl_divergence(q, p) -> float:
    """KL(q || p) = sum_{q_i > 0} q_i ln(q_i / p_i)."""
    q, p = _check_distribution_pair(q, p)
    pos = q > 0
    return float((q[pos] * np.log(q[pos] / p[pos])).sum())


def chisq_divergence(q, p) -> float:
    """chi^2(q || p) = sum_{p_i > 0} q_i^2 / p_i - 1."""
    q, p = _check_distribution_pair(q, p)
    pos = p > 0
    return float((q[pos] * q[pos] / p[pos]).sum() - 1.0)


# ---- instances several test modules build alike ----

def constant_utility_dataset(n=2):
    # zero features freeze the hypothesis; label 1 loses every argmax tie,
    # so the zero_one utility is exactly 1 forever
    return Dataset.from_arrays(np.zeros((n, 1)), np.ones(n, dtype=int), 2)


def random_tiny_instance(seed):
    """A random instance small enough to enumerate every sample path (n <= 4,
    T <= 5, dimension <= 3, two classes): (dataset, sampler config, schedule,
    update rule, mu), all drawn from `seed`."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    T = int(rng.integers(2, 6))
    d = int(rng.integers(1, 4))
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, size=n)
    if len(set(map(int, y))) < 2:
        y[0] = 1 - y[0]
    ds = Dataset.from_arrays(X, y, 2)
    cfg = SamplerConfig(amplitude=float(rng.uniform(0.2, 2.5)),
                        decay=float(rng.uniform(0.1, 0.9)),
                        utility="l1" if rng.random() < 0.5 else "zero_one",
                        iterations=T)
    rule = (UpdateRuleState.adagrad((2, d)) if rng.random() < 0.3
            else UpdateRuleState.sgd())
    mu = float(rng.uniform(0.0, 0.5))
    sched = StepSchedule.inverse_decay(float(rng.uniform(0.05, 0.3)), 0.01)
    return ds, cfg, sched, rule, mu
