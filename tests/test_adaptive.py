"""Adaptive trainer: utilities, reweighting, trace bookkeeping, the
tree-based sampler against a straight-line reimplementation, and lockstep
runs against separate calls."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from adasamp import (
    Dataset,
    DivergenceError,
    SamplerConfig,
    StepSchedule,
    UpdateRuleState,
    WeightTree,
    conditional_kl,
    project,
    step_size,
    train,
    train_many,
    utilities,
    synth_data,
    zeros_hypothesis,
)
import adasamp.adaptive as adaptive
import adasamp.weight_tree as weight_tree
from adasamp.harness import ExperimentConfig, run_comparison
from adasamp.model import batch_objective_grads
from adasamp.optim import ADAGRAD_EPS
from oracles import (
    Example,
    constant_utility_dataset,
    example,
    naive_descend,
    naive_softmax,
    objective_grad,
    posterior_objective,
    utility,
    weight_update,
)


def _random_dataset(seed, n=10, d=3, classes=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, classes, size=n)
    return Dataset.from_arrays(X, y, classes)


# ---- utilities ----

def test_zero_one_utility():
    h = np.array([[5.0, 0.0], [0.0, 5.0]])
    x = np.array([1.0, 0.0])
    assert utility("zero_one", Example(x, 0), h) == 0.0
    assert utility("zero_one", Example(x, 1), h) == 1.0


def test_l1_utility_examples():
    # scores (ln 4, 0) give p = (0.8, 0.2)
    h = np.array([[math.log(4.0), 0.0], [0.0, 0.0]])
    x = np.array([1.0, 0.0])
    assert utility("l1", Example(x, 0), h) == pytest.approx(0.2, abs=1e-12)
    assert utility("l1", Example(x, 1), zeros_hypothesis(2, 2)) == 0.5


@pytest.mark.parametrize("classes", range(2, 12))
def test_l1_utilities_stay_in_the_unit_interval_unclamped(classes):
    # softmax divides each entry by a row sum that includes it, so 1 - p_label
    # lies in [0, 1] at any finite logits; the identity h makes X the scores
    rng = np.random.default_rng(classes)
    rows = 400
    scales = 10.0 ** rng.uniform(-3, 300, size=(rows, 1))
    scores = scales * rng.standard_normal((rows, classes))
    tied = rng.random(rows) < 0.5
    scores[tied, 1:] = scores[tied, :1]  # every column of these rows ties with column 0
    scores[:10] = 0.0
    y = rng.integers(0, classes, size=rows)
    # the label's score far above (p = 1) or far below (p = 0) the rest
    scores[10:20, :] = -1e300
    scores[np.arange(10, 20), y[10:20]] = 1e300
    scores[20:30, :] = 1e300
    scores[np.arange(20, 30), y[20:30]] = -1e300
    u = utilities("l1", np.eye(classes), scores, y)
    assert ((0.0 <= u) & (u <= 1.0)).all()
    assert not np.signbit(u[10:20]).any() and (u[10:20] == 0.0).all()
    assert (u[20:30] == 1.0).all()
    assert (u[:10] == 1.0 - 1.0 / classes).all()


def test_vectorized_utilities_match_scalar():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 4))
    X = rng.standard_normal((20, 4))
    y = rng.integers(0, 3, size=20)
    vec01 = utilities("zero_one", h, X, y)
    vecl1 = utilities("l1", h, X, y)
    for r in range(20):
        assert vec01[r] == utility("zero_one", Example(X[r], int(y[r])), h)
        # matmul and per-row dot differ in summation order; allow a few ulps
        assert vecl1[r] == pytest.approx(utility("l1", Example(X[r], int(y[r])), h),
                                         abs=1e-14)


@pytest.mark.parametrize("kind", ["l1", "zero_one"])
@pytest.mark.parametrize("classes", [2, 3, 11])
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 64])
def test_one_row_utilities_are_the_scalar_oracle_bitwise(kind, classes, dim):
    # a stack of one-row batches scores each row by a 1-row product, as the
    # scalar form's matrix-vector product does: the enumeration oracle relies on it
    rng = np.random.default_rng(classes * 100 + dim)
    R = 50
    H = rng.standard_normal((R, classes, dim)) * rng.uniform(0.1, 5.0, size=(R, 1, 1))
    X = rng.standard_normal((R, 1, dim))
    y = rng.integers(0, classes, size=(R, 1))
    got = utilities(kind, H, X, y)
    assert got.shape == (R, 1)
    for r in range(R):
        assert got[r, 0] == utility(kind, Example(X[r, 0], int(y[r, 0])), H[r])


def test_unknown_utility_kind_rejected():
    with pytest.raises(ValueError):
        utility("hinge", Example(np.zeros(2), 0), zeros_hypothesis(2, 2))


# ---- multiplicative reweighting ----

def test_weight_update_example():
    assert weight_update(1.0, 0.5, 2.0, 0.5) == pytest.approx(math.e, rel=1e-12)


def test_weight_update_identity_at_zero_amplitude():
    for u in (0.0, 0.3, 1.0):
        assert weight_update(1.0, u, 0.0, 0.5) == 1.0


def test_weight_update_fixed_point():
    # ln w = decay ln w + amplitude * u  =>  w* = e^2 for u=1, amplitude=1, decay=0.5
    w = 1.0
    for _ in range(200):
        w = weight_update(w, 1.0, 1.0, 0.5)
    assert w == pytest.approx(math.e**2, rel=1e-9)


def test_weight_update_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        weight_update(0.0, 1.0, 1.0, 0.5)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(amplitude=-1.0, decay=0.5)
    with pytest.raises(ValueError):
        SamplerConfig(amplitude=1.0, decay=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(amplitude=1.0, decay=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(amplitude=1.0, decay=0.5, batch_size=0)
    with pytest.raises(ValueError):
        SamplerConfig(amplitude=1.0, decay=0.5, iterations=0)
    with pytest.raises(ValueError):
        SamplerConfig(amplitude=1.0, decay=0.5, utility="hinge")
    # ln-weight cap amplitude/(1-decay) guards the precision of the tree's sums
    with pytest.raises(ValueError, match="lose precision"):
        SamplerConfig(amplitude=13.0, decay=0.5)
    SamplerConfig(amplitude=12.5, decay=0.5)  # 25 <= 25 is fine


def test_a_negative_zero_amplitude_is_stored_as_zero():
    cfg = SamplerConfig(amplitude=-0.0, decay=0.5)
    assert cfg.amplitude == 0.0 and math.copysign(1.0, cfg.amplitude) == 1.0


def test_conditional_kl_examples():
    assert conditional_kl(WeightTree([1, 1, 1, 1])) == 0.0
    assert conditional_kl(WeightTree([1, 0])) == pytest.approx(math.log(2.0), abs=1e-12)
    assert conditional_kl(WeightTree([1, 3])) == pytest.approx(0.13081203594113696, abs=1e-12)


def test_conditional_kl_of_a_flat_tree_is_never_negative():
    # n * (1/n) rounds below 1 for some n (49 is the first): the sum can round below 0
    for n in range(1, 4097):
        kl = conditional_kl(WeightTree(np.ones(n)))
        assert kl >= 0 and math.copysign(1.0, kl) == 1.0, n


def test_conditional_kl_is_the_masked_sum_bitwise():
    # the scan filters zero leaves only when there are some; the sum is the same
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 3000))
        weights = rng.uniform(1.0, 50.0, size=(2, n)) ** rng.uniform(0.0, 4.0)
        if rng.random() < 0.5:
            weights[:, rng.random(n) < 0.3] = 0.0
            weights[:, 0] = 1.0
        tree = WeightTree(weights)
        for run in (0, 1):
            q = tree.distribution(run)
            pos = q > 0
            want = float((q[pos] * np.log(n * q[pos])).sum())
            assert conditional_kl(tree, run) == want
        with pytest.raises(IndexError):
            conditional_kl(tree, 2)  # a run the tree does not hold


def test_conditional_kl_adds_less_than_two_and_a_half_floats_a_leaf():
    # Q and the terms, in 200000 leaves: ln(n * Q) and its product with Q are taken in place
    n = 200_000
    tree = WeightTree(np.exp(np.random.default_rng(22).random(n)))
    want = conditional_kl(tree)
    tracemalloc.start()
    try:
        got = conditional_kl(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q = tree.distribution()
    assert got == want == float((q * np.log(n * q)).sum())
    assert peak < 2.5 * n * 8, peak / (n * 8)


# ---- training loop ----

@pytest.mark.parametrize("decay", [0.1, 0.5])
def test_tree_labels_stay_accurate_at_the_ln_weight_cap(monkeypatch, decay):
    # a weight of e^L that drops leaves its ancestors' labels an error of about
    # e^L * 2**-53; at L = 30 this instance's labels read 1e-2 off their sums
    worst, peak = [0.0], [0.0]
    write = WeightTree._write

    def checked(tree, idx, w, runs):
        write(tree, idx, w, runs)
        exact = WeightTree(tree._leaves())._rows[:, 1:tree.capacity]  # relabelled bottom-up
        worst[0] = max(worst[0], (np.abs(tree._rows[:, 1:tree.capacity] - exact) / exact).max())
        peak[0] = max(peak[0], tree._leaves().max())

    monkeypatch.setattr(WeightTree, "_write", checked)
    cfg = SamplerConfig(amplitude=adaptive.MAX_LOG_WEIGHT * (1 - decay), decay=decay,
                        utility="zero_one", batch_size=4, iterations=1000)
    ds = synth_data(16, 2, 2, 0.0, 0.2, seed=0, separation=1.0)  # noisy: weights rise and drop
    train(ds, cfg, StepSchedule.constant(0.5), UpdateRuleState.sgd(), 0.0, 5.0,
          zeros_hypothesis(2, 2), np.random.default_rng(0))
    assert math.log(peak[0]) > 24.9  # a weight came within 0.1 of the cap
    assert worst[0] < 1e-3, worst[0]


def test_single_iteration_is_one_sgd_step():
    ds = _random_dataset(1)
    cfg = SamplerConfig(amplitude=2.0, decay=0.5, iterations=1)
    sched = StepSchedule.constant(0.1)
    h0 = zeros_hypothesis(2, 3)
    h, trace = train(ds, cfg, sched, UpdateRuleState.sgd(), 0.0, 5.0, h0,
                     np.random.default_rng(0))
    i = int(trace.indices[0][0])
    expected = -0.1 * objective_grad(h0, example(ds, i), 0.0)
    assert np.allclose(h, expected, atol=1e-15)
    assert np.array_equal(h0, zeros_hypothesis(2, 3))  # caller's h0 untouched


def test_train_rejects_bad_inputs():
    ds = _random_dataset(2)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, iterations=2)
    sched = StepSchedule.constant(0.1)
    with pytest.raises(ValueError):
        train(ds, cfg, sched, UpdateRuleState.sgd(), -0.1, 5.0,
              zeros_hypothesis(2, 3), np.random.default_rng(0))
    with pytest.raises(ValueError):
        train(ds, cfg, sched, UpdateRuleState.sgd(), 0.0, 0.0,
              zeros_hypothesis(2, 3), np.random.default_rng(0))
    with pytest.raises(ValueError):
        train(ds, cfg, sched, UpdateRuleState.sgd(), 0.0, 5.0,
              zeros_hypothesis(3, 3), np.random.default_rng(0))


@pytest.mark.parametrize("bad", [
    dict(domain_radius=-1.0), dict(domain_radius=math.nan), dict(domain_radius=math.inf),
    dict(h0=np.full((2, 3), math.inf)), dict(h0=np.full((2, 3), math.nan)),
    dict(metric_every=-1), dict(mu=math.nan), dict(M=math.nan),
    dict(mu=math.inf), dict(M=math.inf),
])
def test_train_rejects_an_input_before_any_draw(bad):
    # a negative radius would flip h's sign, a NaN one skip the projection,
    # a non-finite h0 or mu would read as a divergence at iteration 1, an
    # infinite M would clamp no loss, and a negative metric_every would tick
    # at every iteration (t % -1 == 0)
    ds = _random_dataset(2)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, iterations=3)
    sched, rule = StepSchedule.constant(0.1), UpdateRuleState.sgd()
    args = dict(mu=0.0, M=5.0, h0=zeros_hypothesis(2, 3), domain_radius=None, metric_every=0)
    args.update(bad)
    mu, M, h0, radius, every = args.values()
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    with pytest.raises(ValueError):
        train(ds, cfg, sched, rule, mu, M, h0, rng, radius, every, lambda *a: None)
    with pytest.raises(ValueError):
        train_many(ds, [cfg], sched, rule, mu, M, [h0], [rng], radius, every, lambda *a: None)
    assert rng.bit_generator.state == start


@pytest.mark.parametrize("kind", ["l1", "zero_one"])
def test_train_reports_divergence_with_its_iteration(kind):
    ds = _random_dataset(2)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, utility=kind, iterations=5)
    with pytest.raises(DivergenceError) as exc:
        train(ds, cfg, StepSchedule.constant(1e308), UpdateRuleState.sgd(), 0.0, 5.0,
              zeros_hypothesis(2, 3), np.random.default_rng(0))
    assert not isinstance(exc.value, ValueError)  # not a rejected input
    assert 1 <= exc.value.iteration <= 5
    assert str(exc.value) == f"diverged at iteration {exc.value.iteration}"


def test_zero_amplitude_reduces_to_uniform_sampling():
    ds = _random_dataset(3, n=8)
    cfg = SamplerConfig(amplitude=0.0, decay=0.5, batch_size=2, iterations=25)
    _, trace = train(ds, cfg, StepSchedule.constant(0.05), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 3), np.random.default_rng(42))
    # every prefix sums to 0.0, so every iteration's equal log ratios are 0
    for prefix in _prefix_traces(ds, cfg, StepSchedule.constant(0.05), 0.0,
                                 zeros_hypothesis(2, 3), 42):
        assert prefix.total_log_ratio() == 0.0
    # same stream on equal weights reproduces the index sequence
    rng = np.random.default_rng(42)
    for idx in trace.indices:
        uni = rng.random((2, 3))  # depth 3 for n = 8
        for r in range(2):
            assert naive_descend(np.ones(8), uni[r]) == idx[r]


def _naive_train(ds, cfg, sched, mu, h0, seed):
    """Straight-line trainer: plain weight array, direct multiplicative updates."""
    n = ds.n
    depth = max(0, math.ceil(math.log2(n)))
    w = np.ones(n)
    h = h0.copy()
    rng = np.random.default_rng(seed)
    all_idx, all_probs, all_h = [], [], []
    for t in range(1, cfg.iterations + 1):
        uni = rng.random((cfg.batch_size, depth))
        idx = np.array([naive_descend(w, uni[r]) for r in range(cfg.batch_size)])
        all_idx.append(idx)
        all_probs.append(w[idx] / w.sum())
        X, y = ds.features[idx], ds.labels[idx]
        gbar = batch_objective_grads(h[None], X[None], y[None], mu)[0]
        h = h - step_size(sched, t) * gbar
        seen = []
        for i in idx:
            if i in seen:
                continue
            seen.append(i)
            u = utility(cfg.utility, example(ds, int(i)), h)
            w[i] = weight_update(w[i], u, cfg.amplitude, cfg.decay)
        all_h.append(h.copy())
    return all_idx, all_probs, all_h


# the largest |trainer - naive| log-ratio prefix sum over the cases below is
# 3.4e-15; the bound leaves 30x room for another libm or BLAS
NAIVE_LOG_RATIO_TOL = 1e-13


def _prefix_traces(ds, cfg, sched, mu, h0, seed):
    """The traces of training T' = 1..T iterations on the same rng seed: each is
    a prefix of the full run, so prefix t's statistics sum iterations 1..t."""
    return [train(ds, dataclasses.replace(cfg, iterations=t), sched, UpdateRuleState.sgd(),
                  mu, 5.0, h0, np.random.default_rng(seed))[1]
            for t in range(1, cfg.iterations + 1)]


@pytest.mark.parametrize("seed,n,T,batch,kind", [
    (0, 3, 3, 1, "l1"),
    (1, 3, 3, 1, "zero_one"),
    (2, 5, 10, 1, "l1"),
    (3, 8, 16, 1, "l1"),
    (4, 6, 12, 3, "l1"),
    (5, 16, 8, 4, "zero_one"),
    (6, 2, 16, 2, "l1"),
    (7, 11, 9, 2, "l1"),
])
def test_tree_trainer_matches_naive_reimplementation(seed, n, T, batch, kind):
    ds = _random_dataset(seed + 100, n=n)
    cfg = SamplerConfig(amplitude=1.5, decay=0.4, utility=kind,
                        batch_size=batch, iterations=T)
    sched = StepSchedule.inverse_decay(0.2, 0.05)
    h0 = zeros_hypothesis(2, 3)
    _, trace = train(ds, cfg, sched, UpdateRuleState.sgd(), 0.05, 5.0, h0,
                     np.random.default_rng(seed))
    idx2, probs2, _ = _naive_train(ds, cfg, sched, 0.05, h0, seed)
    for t in range(T):
        assert np.array_equal(trace.indices[t], idx2[t])
    naive = itertools.accumulate(float(np.log(n * p).sum()) for p in probs2)
    for prefix, expect in zip(_prefix_traces(ds, cfg, sched, 0.05, h0, seed), naive):
        assert abs(prefix.total_log_ratio() - expect) <= NAIVE_LOG_RATIO_TOL


def _scalar_train(ds, cfg, sched, rule, mu, h0, rng, domain_radius=None):
    """The trainer as one draw and one reweighting per Python step: a one-row
    `descend_many` per draw, a one-row `_write` per unique index, and the
    per-iteration numpy calls the batched trainer replaced (np.unique, np.mean,
    np.clip, copies), keeping the trace's three running sums itself."""
    n = ds.n
    amp, dec = cfg.amplitude, cfg.decay
    tree = WeightTree(np.ones(n))
    acc = np.zeros(n)
    acc_total = 0.0
    h = h0.copy()
    out = {"indices": [], "log_ratio_sum": 0.0, "advantage_sum": 0.0, "utility_sum": 0.0}
    for t in range(1, cfg.iterations + 1):
        uni = rng.random((cfg.batch_size, tree.depth))
        idx = np.array([tree.descend_many(uni[r:r + 1])[0] for r in range(cfg.batch_size)],
                       dtype=np.int64)
        root = tree.totals[0]
        out["indices"].append(idx)
        out["log_ratio_sum"] += float((amp * acc[idx] - (math.log(root) - math.log(n))).sum())
        out["advantage_sum"] += float((acc[idx] - acc_total / n).sum())
        X, y = ds.features[idx], ds.labels[idx]
        P = naive_softmax(X @ h.T)
        b = X.shape[0]
        P[np.arange(b), y] -= 1.0
        gbar = P.T @ X
        gbar /= b
        gbar += mu * h
        gbar = np.mean([gbar], axis=0)
        eta = step_size(sched, t)
        if rule.kind == "sgd":
            h = h - eta * gbar
        else:
            rule.accumulator += gbar * gbar
            h = h - eta * gbar / np.sqrt(rule.accumulator + ADAGRAD_EPS)
        h = project(h, domain_radius)
        _, first = np.unique(idx, return_index=True)
        uniq = idx[np.sort(first)]
        Xu, yu = ds.features[uniq], ds.labels[uniq]
        if cfg.utility == "l1":
            u = np.clip(1.0 - naive_softmax(Xu @ h.T)[np.arange(len(uniq)), yu], 0.0, 1.0)
        else:
            u = ((Xu @ h.T).argmax(axis=1) != yu).astype(np.float64)
        for j, i in enumerate(uniq):
            old = acc[i]
            acc[i] = dec * old + u[j]
            acc_total += acc[i] - old
            tree._write(np.array([i]), np.array([math.exp(amp * acc[i])]), None)
        if t < cfg.iterations:
            out["utility_sum"] += float(u.sum())
    return h, out, acc


@pytest.mark.parametrize("n,batch,T,amp,kind,rule", [
    (5, 16, 40, 1.5, "l1", "sgd"),  # nearly every draw repeats an index
    (2000, 100, 30, 2.0, "l1", "sgd"),  # the default compare run's shape
    (37, 3, 60, 0.0, "zero_one", "adagrad"),
    (9, 4, 50, 0.8, "zero_one", "adagrad"),
])
def test_batched_trainer_replays_the_scalar_loop_bitwise(n, batch, T, amp, kind, rule):
    ds = synth_data(n, 8, 2, 0.7, 0.05, seed=n, separation=4.0)
    cfg = SamplerConfig(amplitude=amp, decay=0.5, utility=kind, batch_size=batch, iterations=T)
    sched = StepSchedule.inverse_decay(0.5, 0.01)
    rules = [UpdateRuleState.sgd() if rule == "sgd" else UpdateRuleState.adagrad((2, 8))
             for _ in range(2)]
    h0 = zeros_hypothesis(2, 8)
    h, trace = train(ds, cfg, sched, rules[0], 0.01, 5.0, h0, np.random.default_rng(3),
                     domain_radius=30.0)
    h_ref, ref, acc = _scalar_train(ds, cfg, sched, rules[1], 0.01, h0,
                                    np.random.default_rng(3), domain_radius=30.0)
    assert h.tobytes() == h_ref.tobytes()
    assert len(trace.indices) == len(ref["indices"]) == T
    for a, b in zip(trace.indices, ref["indices"]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for key in ("log_ratio_sum", "advantage_sum", "utility_sum"):
        assert getattr(trace, key).hex() == ref[key].hex(), key
    assert trace.final_acc.tobytes() == acc.tobytes()
    if amp == 0.0:
        assert trace.log_ratio_sum == 0.0


def _bitwise_equal(a, b) -> bool:
    if isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(b, float):
        return isinstance(a, float) and a.hex() == b.hex()
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and all(map(_bitwise_equal, a, b))
    return a == b


def _assert_same_run(got, expect):
    """Two (h, trace) results are bitwise equal, every trace field included."""
    (h, trace), (h_ref, ref) = got, expect
    assert _bitwise_equal(h, h_ref)
    for field in dataclasses.fields(ref):
        assert _bitwise_equal(getattr(trace, field.name), getattr(ref, field.name)), field.name


@pytest.mark.parametrize("n,classes,batch,T,kind,rule,radius,track", [
    (5, 2, 1, 40, "l1", "sgd", None, False),
    (7, 3, 1, 30, "zero_one", "adagrad", 0.9, True),
    (6, 2, 4, 25, "zero_one", "adagrad", None, False),
    (40, 3, 16, 20, "l1", "adagrad", 1.2, True),
    (300, 2, 100, 12, "l1", "sgd", 1.5, False),  # desk-shaped: unequal unique counts
    (9, 2, 3, 40, "zero_one", "sgd", 0.8, False),
    (1, 2, 3, 10, "l1", "sgd", None, True),  # depth 0: every draw is index 0
])
def test_lockstep_runs_equal_separate_train_calls_bitwise(monkeypatch, n, classes, batch, T,
                                                          kind, rule, radius, track):
    # a relabel every few leaf writes: each run must relabel after the same
    # `_write` call as alone, though the runs write different numbers of leaves
    monkeypatch.setattr(weight_tree, "REBUILD_EVERY", 7)
    ds = (synth_data(n, 4, classes, 0.6, 0.1, seed=n, separation=4.0) if n >= classes
          else Dataset.from_arrays(np.linspace(-1.0, 1.0, 4)[None], np.array([1]), classes))
    depth = math.ceil(math.log2(n))
    rng = np.random.default_rng(n + batch)
    # the leading amplitude-0 runs walk whole blocks; a later one keeps its tree row
    for amps in ([0.0, 1.3, 2.0, 0.0, 0.7], [0.0, 0.0, 1.3, 2.0, 0.7], [0.0, 0.0, 0.0]):
        # blocks of 7 iterations: T crosses block boundaries and ends inside a block
        monkeypatch.setattr(adaptive, "_BLOCK_UNIFORMS", 7 * len(amps) * batch * max(depth, 1))
        _check_lockstep(ds, amps, classes, batch, T, kind, rule, radius, track, rng)


def _check_lockstep(ds, amps, classes, batch, T, kind, rule, radius, track, rng):
    cfgs = [SamplerConfig(amplitude=a, decay=0.4, utility=kind, batch_size=batch, iterations=T,
                          track_full_conditional_kl=track) for a in amps]
    h0s = [0.5 * rng.standard_normal((classes, 4)) for _ in amps]
    seeds = [int(s) for s in rng.integers(0, 2**32, size=len(amps))]
    sched = StepSchedule.inverse_decay(0.6, 0.01)

    def make_rule(*runs):
        return (UpdateRuleState.sgd() if rule == "sgd"
                else UpdateRuleState.adagrad((*runs, classes, 4)))

    def ticks(calls):
        def metric_fn(*args):  # (r,) t h kl_stat cond_kl, r only when stepped together
            record = (args[-4], args[-3].tobytes(), args[-2], args[-1])
            calls.append((args[:-4], record))
            return record
        return metric_fn

    stacked, calls = make_rule(len(amps)), []
    together = train_many(ds, cfgs, sched, stacked, 0.05, 5.0, h0s,
                          [np.random.default_rng(s) for s in seeds], domain_radius=radius,
                          metric_every=3, metric_fn=ticks(calls))
    sizes = set()
    for r, (amp, h0, seed) in enumerate(zip(amps, h0s, seeds)):
        alone_rule, alone_calls = make_rule(), []
        alone = train(ds, cfgs[r], sched, alone_rule, 0.05, 5.0, h0, np.random.default_rng(seed),
                      domain_radius=radius, metric_every=3, metric_fn=ticks(alone_calls))
        _assert_same_run(together[r], alone)
        assert [c[1] for c in calls if c[0] == (r,)] == [c[1] for c in alone_calls]
        if rule == "adagrad":
            assert stacked.accumulator[r].tobytes() == alone_rule.accumulator.tobytes()
        sizes.add(tuple(len(np.unique(idx)) for idx in alone[1].indices))
        assert not h0.any() or not np.array_equal(h0, alone[0])  # h0 is left alone
    if batch > 4:
        assert len(sizes) > 1  # the runs drew different unique counts in some iteration
    # without a trace: the same hypotheses, metrics and accumulators
    quiet_calls = []
    quiet = train_many(ds, cfgs, sched, make_rule(len(amps)), 0.05, 5.0, h0s,
                       [np.random.default_rng(s) for s in seeds], domain_radius=radius,
                       metric_every=3, metric_fn=ticks(quiet_calls), record=False)
    assert quiet_calls == calls
    for (h, trace), (h_ref, ref) in zip(quiet, together):
        assert _bitwise_equal(h, h_ref) and _bitwise_equal(trace.final_acc, ref.final_acc)
        assert _bitwise_equal(trace.utility_sum, ref.utility_sum)
        assert trace.indices is trace.log_ratio_sum is trace.advantage_sum is None


class _BlockRecordingRng:
    """A generator that records how many iterations each `random` call fills."""

    def __init__(self, seed):
        self.rng, self.blocks = np.random.default_rng(seed), []

    def random(self, out):
        self.blocks.append(len(out))
        return self.rng.random(out=out)


@pytest.mark.parametrize("budget", [None, 50])
@pytest.mark.parametrize("amps", [[0.0], [1.5], [0.0, 1.5]])
def test_a_completed_run_leaves_its_rng_t_b_depth_uniforms_in(monkeypatch, budget, amps):
    # a budget of 50 uniforms makes blocks of 4 iterations for one run and of 2
    # for two (the budget covers every run): 17 ends inside a block either way
    if budget is not None:
        monkeypatch.setattr(adaptive, "_BLOCK_UNIFORMS", budget)
    ds = _random_dataset(5, n=11)  # depth 4
    cfgs = [SamplerConfig(amplitude=a, decay=0.5, batch_size=3, iterations=17) for a in amps]
    rngs = [_BlockRecordingRng(8 + r) for r in range(len(amps))]
    train_many(ds, cfgs, StepSchedule.constant(0.1), UpdateRuleState.sgd(), 0.0, 5.0,
               [zeros_hypothesis(2, 3)] * len(amps), rngs)
    B = 17 if budget is None else 4 // len(amps)
    for r, rng in enumerate(rngs):
        assert rng.blocks == [B] * (17 // B) + [17 % B] * (17 % B > 0)
        ref = np.random.default_rng(8 + r)
        ref.random(17 * 3 * 4)
        assert rng.rng.bit_generator.state == ref.bit_generator.state


def test_flat_runs_are_never_written(monkeypatch):
    writes = []
    real_write = WeightTree._write

    def recording_write(tree, idx, w, runs):
        writes.append((tree, idx.copy(), w.copy(), None if runs is None else runs.copy()))
        real_write(tree, idx, w, runs)

    monkeypatch.setattr(WeightTree, "_write", recording_write)
    ds = _random_dataset(6, n=20)
    T, batch = 9, 5
    amps = [0.0, 0.0, 1.0, 2.0]
    cfgs = [SamplerConfig(amplitude=a, decay=0.5, batch_size=batch, iterations=T) for a in amps]
    runs = train_many(ds, cfgs, StepSchedule.constant(0.1), UpdateRuleState.sgd(), 0.0, 5.0,
                      [zeros_hypothesis(2, 3)] * 4, [np.random.default_rng(s) for s in range(4)])
    assert len(writes) == T
    assert len({id(tree) for tree, *_ in writes}) == 1 and writes[0][0].runs == 2
    for t, (_, idx, w, rows) in enumerate(writes):
        # runs 2 and 3, after the flat runs, are rows 0 and 1 of the written tree
        expect_idx, expect_rows = [], []
        for row, r in enumerate((2, 3)):
            drawn = runs[r][1].indices[t]
            _, first = np.unique(drawn, return_index=True)
            expect_idx += drawn[np.sort(first)].tolist()
            expect_rows += [row] * len(first)
        assert idx.tolist() == expect_idx and rows.tolist() == expect_rows
        assert (w >= 1.0).all()
    writes.clear()
    train_many(ds, cfgs[:2], StepSchedule.constant(0.1), UpdateRuleState.sgd(), 0.0, 5.0,
               [zeros_hypothesis(2, 3)] * 2, [np.random.default_rng(s) for s in range(2)])
    assert writes == []


def test_every_trainer_write_meets_the_write_precondition(monkeypatch):
    # `_write` checks nothing: every write the trainer makes must name distinct
    # (run, index) pairs in range, with finite weights exp(amplitude * A) >= 1
    writes = []  # (leaves written per run, number of runs written) of each call
    real_write = WeightTree._write

    def checking_write(tree, idx, w, runs):
        rows = np.zeros(len(idx), dtype=np.int64) if runs is None else runs
        assert idx.dtype == rows.dtype == np.int64 and w.dtype == np.float64
        assert idx.ndim == 1 and 0 < len(idx) and idx.shape == w.shape == rows.shape
        assert idx.min() >= 0 and idx.max() < tree.n
        assert rows.min() >= 0 and rows.max() < tree.runs
        assert len(set(zip(rows.tolist(), idx.tolist()))) == len(idx)
        assert np.isfinite(w).all() and w.min() >= 1.0
        per_run = np.bincount(rows)
        writes.append((per_run[per_run > 0].tolist(), int((per_run > 0).sum())))
        real_write(tree, idx, w, runs)

    monkeypatch.setattr(WeightTree, "_write", checking_write)
    ds = _random_dataset(9, n=6)
    batch = 10  # above n: every iteration's draws repeat
    for amps in ([0.0, 0.0, 1.3, 2.0, 0.7], [0.0, 1.3, 0.0, 2.0], [1.5]):
        cfgs = [SamplerConfig(amplitude=a, decay=0.5, batch_size=batch, iterations=15)
                for a in amps]
        h0s = [0.5 * np.random.default_rng(r).standard_normal((2, 3)) for r in range(len(amps))]
        for rule in (UpdateRuleState.sgd(), UpdateRuleState.adagrad((len(amps), 2, 3))):
            train_many(ds, cfgs, StepSchedule.constant(0.3), rule, 0.01, 5.0, h0s,
                       [np.random.default_rng(s) for s in range(len(amps))])
    assert all(max(per_run) <= ds.n < batch for per_run, _ in writes)
    assert max(runs for _, runs in writes) == 3
    writes.clear()
    cfg = ExperimentConfig(n=24, test_n=10, batch=32, iters=12, trials=2, cadence=4)
    run_comparison(cfg, alphas=[1.0, 2.0])  # 2 flat runs, then 4 reweighted ones
    assert len(writes) == cfg.iters and all(runs == 4 for _, runs in writes)
    assert any(min(per_run) < cfg.batch for per_run, _ in writes)


@pytest.mark.parametrize("scales", [(1.0, 1e150, 1e250), (1e250, 1e150, 1.0),
                                    (1e150, 1.0, 1e250)])
def test_lockstep_divergence_names_the_earliest_diverging_iteration(scales):
    # h_t ~ (1 - eta * mu)^t * h0: the larger h0, the sooner the run overflows
    ds = _random_dataset(21, n=6)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, iterations=8)
    sched = StepSchedule.constant(1e50)
    h0s = [s * np.ones((2, 3)) for s in scales]
    alone = []
    for h0 in h0s:
        with pytest.raises(DivergenceError) as exc:
            train(ds, cfg, sched, UpdateRuleState.sgd(), 1e50, 5.0, h0, np.random.default_rng(4))
        alone.append(exc.value.iteration)
    assert len(set(alone)) == 3  # each run diverges at its own iteration
    calls = []
    with pytest.raises(DivergenceError) as exc:
        train_many(ds, [cfg] * 3, sched, UpdateRuleState.sgd(), 1e50, 5.0, h0s,
                   [np.random.default_rng(4) for _ in h0s], metric_every=1,
                   metric_fn=lambda r, t, h, kl, cond: calls.append((r, t)))
    first = min(alone)
    assert exc.value.iteration == first
    assert str(exc.value) == f"diverged at iteration {first}"
    # every run is stepped until any run diverges, and no metric tick reaches that iteration
    assert calls == [(r, t) for t in range(1, first) for r in range(3)]


def test_train_many_rejects_runs_that_do_not_share_their_settings():
    ds = _random_dataset(22)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, iterations=3)
    h0s = [zeros_hypothesis(2, 3)] * 2
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    sched = StepSchedule.constant(0.1)
    with pytest.raises(ValueError, match="only in the sampler amplitude"):
        train_many(ds, [cfg, dataclasses.replace(cfg, decay=0.6)], sched,
                   UpdateRuleState.sgd(), 0.0, 5.0, h0s, rngs)
    with pytest.raises(ValueError, match="accumulator shape"):  # one per run
        train_many(ds, [cfg, cfg], sched, UpdateRuleState.adagrad((2, 3)), 0.0, 5.0, h0s, rngs)
    with pytest.raises(ValueError, match="one sampler config"):
        train_many(ds, [cfg, cfg], sched, UpdateRuleState.sgd(), 0.0, 5.0, h0s, rngs[:1])
    with pytest.raises(ValueError, match="h0 shape"):
        train_many(ds, [cfg, cfg], sched, UpdateRuleState.sgd(), 0.0, 5.0, h0s[:1] * 3, rngs)


def test_stacked_utilities_equal_per_run_calls_bitwise():
    rng = np.random.default_rng(23)
    for k in (1, 2, 7, 100):
        H = rng.standard_normal((4, 3, 5))
        X = rng.standard_normal((4, k, 5))
        y = rng.integers(0, 3, size=(4, k))
        for kind in ("l1", "zero_one"):
            stacked = utilities(kind, H, X, y)
            for r in range(4):
                assert stacked[r].tobytes() == utilities(kind, H[r], X[r], y[r]).tobytes()
                assert stacked.sum(axis=1)[r] == stacked[r].sum()
    # from 2 rows up a row's utility does not depend on how many rows share the
    # call, so the trainer may score all b draws and keep the k unique ones; a
    # 1-row call is a gemv and may differ, so it is not compared here
    for b in (2, 7, 100, 1000):
        for classes in (2, 3):
            H = rng.standard_normal((4, classes, 5))
            X = rng.standard_normal((4, b, 5))
            y = rng.integers(0, classes, size=(4, b))
            for kind in ("l1", "zero_one"):
                stacked = utilities(kind, H, X, y)
                for k in range(2, b + 1):
                    first = utilities(kind, H, X[:, :k].copy(), y[:, :k].copy())
                    assert first.tobytes() == stacked[:, :k].tobytes()
                    sums = first.sum(axis=1)
                    assert all(stacked[r, :k].sum() == sums[r] for r in range(4))
    # a recorded trace's log-ratio and advantage sums add one 2-d row sum per
    # iteration: each row is bitwise the 1-d sum of that run's batch alone
    for R, b in itertools.product((1, 2, 5, 50), (1, 2, 7, 8, 9, 100, 1001)):
        M = rng.standard_normal((R, b)) * rng.uniform(0.0, 50.0, size=(R, 1))
        rows = M.sum(axis=1).tolist()
        assert [v.hex() for v in rows] == [float(M[r].sum()).hex() for r in range(R)]


def test_recorded_utilities_are_the_batch_scored_at_the_new_hypothesis():
    # n = 2, batch 4: one batch in eight draws a single index four times; it is
    # scored as rows of the batch's stacked call, like every other batch (at
    # these seeds a 1-row call, a gemv, would move some such utility by an ulp)
    single = 0
    for seed, kind in itertools.product((22, 34), ("l1", "zero_one")):
        ds = _random_dataset(seed, n=2)
        cfgs = [SamplerConfig(amplitude=a, decay=0.5, utility=kind, batch_size=4,
                              iterations=20) for a in (0.0, 1.0, 3.0)]
        runs = train_many(ds, cfgs, StepSchedule.constant(0.3), UpdateRuleState.sgd(),
                          0.01, 5.0, [zeros_hypothesis(2, 3)] * 3,
                          [np.random.default_rng(s) for s in (5, 6, 7)], metric_every=1,
                          metric_fn=lambda r, t, h, kl, cond: (h.copy(), kl))
        for cfg, (_, trace) in zip(cfgs, runs):
            # tick t + 1 reports the utilities of the first appearances through t
            total = 0.0
            for idx, (h_t, _), (_, kl_next) in zip(trace.indices, trace.metrics,
                                                   trace.metrics[1:]):
                firsts = np.sort(np.unique(idx, return_index=True)[1])
                scored = utilities(kind, h_t[None], ds.features[idx][None],
                                   ds.labels[idx][None])[0]
                total += float(scored[firsts].sum())
                assert kl_next.hex() == (cfg.amplitude / (1.0 - cfg.decay) * total).hex()
                single += len(firsts) == 1
    assert single > 0


def _replay(ds, cfg, trace):
    """Replay a recorded trace trained with metric_every=1 and metric_fn
    returning h: each unique drawn index, in first-appearance order, takes
    the utility at h_t. Returns every iteration's draws' ln(n * Q_t(i)),
    recomputed from the replayed accumulators, and the final accumulators."""
    acc = np.zeros(ds.n)
    log_ratios = []
    for idx, h_t in zip(trace.indices, trace.metrics):
        w = np.exp(cfg.amplitude * acc)
        log_ratios.append(np.log(ds.n * w[idx] / w.sum()))
        firsts = np.sort(np.unique(idx, return_index=True)[1])
        us = utilities(cfg.utility, h_t[None], ds.features[idx][None], ds.labels[idx][None])[0]
        for i, u in zip(idx[firsts], us[firsts]):
            acc[i] = cfg.decay * acc[i] + u
    return log_ratios, acc


def test_accumulator_replay_is_bitwise():
    ds = _random_dataset(8, n=12)
    cfg = SamplerConfig(amplitude=2.0, decay=0.5, batch_size=3, iterations=30)
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.01, 5.0, zeros_hypothesis(2, 3), np.random.default_rng(9),
                     metric_every=1, metric_fn=lambda t, h, kl, cond: h.copy())
    _, acc = _replay(ds, cfg, trace)
    assert np.array_equal(acc, trace.final_acc)


def test_numpy_exp_of_a_value_depends_on_neither_its_position_nor_the_length():
    # the premise of computing the trainer's weights in one np.exp call in
    # place of per-value math.exp: each value's exp is the same whether it
    # falls in a SIMD body or tail, at any offset, or in an unaligned copy
    rng = np.random.default_rng(31)
    a = rng.uniform(0.0, 700.0, 1040)
    whole = np.exp(a)
    for length in range(1, 1001):
        got = np.concatenate([np.exp(a[offset:offset + length]) for offset in range(40)])
        want = np.concatenate([whole[offset:offset + length] for offset in range(40)])
        assert np.array_equal(got, want), length
    buf = np.zeros(8 * (a.size + 1), dtype=np.uint8)
    for shift in range(1, 8):
        unaligned = buf[shift:shift + 8 * a.size].view(np.float64)
        unaligned[...] = a
        assert not unaligned.flags.aligned
        for length in range(1, 1001):
            assert np.array_equal(np.exp(unaligned[:length]), whole[:length]), (shift, length)


def test_numpy_accumulate_of_zero_padded_deltas_is_the_in_order_sum():
    # the premise of taking every run's accumulator total in one numpy call in
    # place of the trainer's in-order `acc_totals[r] += d` loop: row r holds
    # run r's starting total, then its deltas at first appearances and zeros
    # at repeats, and its last running sum is bitwise the loop's total
    rng = np.random.default_rng(37)
    rows = 0
    for R, b in [(1, 1), (1, 100), (2, 7), (3, 128), (30, 100), (30, 1), (7, 300)] * 41:
        pad = np.zeros((R, b + 1))
        pad[:, 0] = rng.choice([0.0, 1.0, 1e6], R) * rng.uniform(0.0, 1.0, R)
        deltas = rng.uniform(-2.0, 1.0, (R, b)) * 10.0 ** rng.integers(-12, 3, (R, b))
        first = rng.random((R, b)) < rng.uniform(0.05, 1.0, (R, 1))
        pad[:, 1:][first] = deltas[first]
        got = np.add.accumulate(pad, axis=1)[:, -1]
        for r in range(R):
            total = float(pad[r, 0])
            for d in deltas[r][first[r]].tolist():
                total += d
            assert got[r].tobytes() == np.float64(total).tobytes(), (R, b, r)
        rows += R
    assert rows >= 3000


def test_log_weights_stay_in_band():
    # ln w_i = amplitude * A_i must stay in [0, amplitude/(1-decay)]
    ds = _random_dataset(10, n=9)
    cfg = SamplerConfig(amplitude=2.0, decay=0.5, batch_size=2, iterations=200)
    _, trace = train(ds, cfg, StepSchedule.constant(0.05), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 3), np.random.default_rng(11),
                     metric_every=1, metric_fn=lambda t, h, kl, cond: h.copy())
    cap = 1.0 / (1.0 - cfg.decay)
    assert np.all(trace.final_acc >= 0.0)
    assert np.all(trace.final_acc <= cap + 1e-12)
    # every weight is >= 1, so ln(n * Q_t(i)) <= ln w_i <= amplitude/(1-decay)
    log_ratios, acc = _replay(ds, cfg, trace)
    assert np.array_equal(acc, trace.final_acc)
    for lr in log_ratios:
        assert np.all(lr <= cfg.amplitude / (1.0 - cfg.decay))
    assert abs(sum(float(lr.sum()) for lr in log_ratios) - trace.total_log_ratio()) <= 1e-9


def test_batch_updates_each_unique_index_once():
    ds = constant_utility_dataset(n=2)
    cfg = SamplerConfig(amplitude=0.5, decay=0.5, utility="zero_one",
                        batch_size=8, iterations=10)
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(12))
    # the utility is 1 throughout, so each drawn index is updated once per
    # iteration exactly when the accumulators equal this replay, and each
    # iteration adds its unique count to the utility sum
    acc, total = np.zeros(2), 0.0
    for t, idx in enumerate(trace.indices, start=1):
        uniq = np.unique(idx)
        acc[uniq] = cfg.decay * acc[uniq] + 1.0
        total += len(uniq) if t < cfg.iterations else 0
    assert trace.final_acc.tobytes() == acc.tobytes()
    assert trace.utility_sum == total


def test_constant_utility_dataset_freezes_everything():
    ds = constant_utility_dataset(n=2)
    cfg = SamplerConfig(amplitude=0.1, decay=0.5, utility="zero_one", iterations=11)
    h, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(13))
    assert np.array_equal(h, zeros_hypothesis(2, 1))
    # one utility in [0, 1] per iteration before T sums to T - 1: every one is 1
    assert trace.utility_sum == cfg.iterations - 1


def test_tracked_conditional_kl():
    ds = _random_dataset(14, n=6)
    cfg = SamplerConfig(amplitude=2.0, decay=0.5, iterations=15,
                        track_full_conditional_kl=True)
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 3), np.random.default_rng(15),
                     metric_every=1, metric_fn=lambda t, h, kl, cond: cond)
    assert len(trace.metrics) == 15
    assert trace.metrics[0] == 0.0  # weights start uniform
    assert all(v >= 0.0 for v in trace.metrics)


def test_metric_callback_cadence():
    ds = _random_dataset(16, n=6)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, iterations=17)
    seen = []
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 3), np.random.default_rng(17),
                     metric_every=5, metric_fn=lambda t, h, kl, cond: seen.append((t, kl)))
    assert [t for t, _ in seen] == [1, 5, 10, 15, 17]
    # the running statistic is nondecreasing in t for nonnegative utilities
    stats = [k for _, k in seen]
    assert all(a <= b for a, b in zip(stats, stats[1:]))
    assert trace.metrics == [None] * 5  # metric_fn returned None


# ---- posterior objective ----

def _simplex_grid(resolution):
    pts = []
    for i in range(resolution + 1):
        for j in range(resolution - i + 1):
            pts.append((i / resolution, j / resolution, (resolution - i - j) / resolution))
    return np.array(pts)


def test_multiplicative_update_maximizes_posterior_objective():
    rng = np.random.default_rng(18)
    grid = _simplex_grid(140)  # about 10^4 points
    for _ in range(3):
        u = rng.uniform(0.0, 1.0, size=3)
        ref = rng.dirichlet(np.ones(3))
        amp, dec = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 0.9))
        w = ref**dec * np.exp(amp * u)
        q_star = w / w.sum()
        best = posterior_objective(q_star, u, ref, amp, dec)
        vals = [posterior_objective(g, u, ref, amp, dec) for g in grid]
        assert best >= max(vals) - 1e-9


def test_posterior_objective_zero_cases():
    ref = np.array([0.2, 0.3, 0.5])
    ref_pow = ref**0.5 / (ref**0.5).sum()
    assert posterior_objective(ref_pow, np.zeros(3), ref, 1.0, 0.5) == pytest.approx(
        0.0, abs=1e-12)
    # constant utility: the zero-KL point is still the maximizer, shifted by c
    v_star = posterior_objective(ref_pow, np.full(3, 0.7), ref, 1.0, 0.5)
    other = np.array([0.6, 0.3, 0.1])
    assert v_star >= posterior_objective(other, np.full(3, 0.7), ref, 1.0, 0.5)


def test_posterior_objective_validation():
    ref = np.array([0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        posterior_objective(ref, np.zeros(3), ref, 0.0, 0.5)
    with pytest.raises(ValueError):
        posterior_objective(np.array([0.9, 0.2, 0.1]), np.zeros(3), ref, 1.0, 0.5)
    with pytest.raises(ValueError):
        posterior_objective(ref, np.zeros(3), np.array([0.5, 0.5, 0.0]), 1.0, 0.5)
    with pytest.raises(ValueError):
        posterior_objective(ref, np.zeros(2), ref, 1.0, 0.5)
