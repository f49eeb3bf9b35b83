"""Adaptive trainer: utilities, reweighting, trace bookkeeping, the
tree-based sampler against a straight-line reimplementation, and lockstep
runs against separate calls."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from adasamp import (
    Dataset,
    DivergenceError,
    Example,
    SamplerConfig,
    StepSchedule,
    UpdateRuleState,
    WeightTree,
    conditional_kl,
    objective_grad,
    posterior_objective,
    predict_proba_batch,
    project,
    step_size,
    train,
    train_many,
    utilities,
    utility,
    weight_update,
    synth_data,
    zeros_hypothesis,
)
import adasamp.weight_tree as weight_tree
from adasamp.model import batch_objective_grads
from adasamp.optim import ADAGRAD_EPS
from oracles import naive_descend


def _random_dataset(seed, n=10, d=3, classes=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, classes, size=n)
    return Dataset.from_arrays(X, y, classes)


def _constant_utility_dataset(n=2):
    # zero features freeze the hypothesis; label 1 loses every argmax tie,
    # so the zero_one utility is exactly 1 forever
    return Dataset.from_arrays(np.zeros((n, 1)), np.ones(n, dtype=int), 2)


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
    # ln-weight cap amplitude/(1-decay) guards exp overflow
    with pytest.raises(ValueError):
        SamplerConfig(amplitude=400.0, decay=0.5)
    SamplerConfig(amplitude=300.0, decay=0.5)  # 600 <= 700 is fine


def test_conditional_kl_examples():
    assert conditional_kl(WeightTree([1, 1, 1, 1])) == 0.0
    assert conditional_kl(WeightTree([1, 0])) == pytest.approx(math.log(2.0), abs=1e-12)
    assert conditional_kl(WeightTree([1, 3])) == pytest.approx(0.13081203594113696, abs=1e-12)


# ---- training loop ----

def test_single_iteration_is_one_sgd_step():
    ds = _random_dataset(1)
    cfg = SamplerConfig(amplitude=2.0, decay=0.5, iterations=1)
    sched = StepSchedule.constant(0.1)
    h0 = zeros_hypothesis(2, 3)
    h, trace = train(ds, cfg, sched, UpdateRuleState.sgd(), 0.0, 5.0, h0,
                     np.random.default_rng(0))
    i = int(trace.indices[0][0])
    expected = -0.1 * objective_grad(h0, ds.example(i), 0.0)
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
    for lr in trace.log_ratios:
        assert np.all(lr == 0.0)
    assert trace.total_log_ratio() == 0.0
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
            u = utility(cfg.utility, ds.example(int(i)), h)
            w[i] = weight_update(w[i], u, cfg.amplitude, cfg.decay)
        all_h.append(h.copy())
    return all_idx, all_probs, all_h


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
        assert np.all(np.abs(np.exp(trace.log_ratios[t]) / n - probs2[t]) <= 1e-12)


def _scalar_train(ds, cfg, sched, rule, mu, h0, rng, domain_radius=None):
    """The trainer as one draw and one reweighting per Python step: a one-row
    `descend_many` per draw, a one-row `update_many` per unique index, and the
    per-iteration numpy calls the batched trainer replaced (np.unique, np.mean,
    np.clip, copies)."""
    n = ds.n
    amp, dec = cfg.amplitude, cfg.decay
    tree = WeightTree(np.ones(n))
    acc = np.zeros(n)
    acc_total = 0.0
    h = h0.copy()
    out = {key: [] for key in ("indices", "log_ratios", "acc_before", "acc_mean_before",
                               "updated", "utilities")}
    for t in range(1, cfg.iterations + 1):
        uni = rng.random((cfg.batch_size, tree.depth))
        idx = np.array([tree.descend_many(uni[r:r + 1])[0] for r in range(cfg.batch_size)],
                       dtype=np.int64)
        root = tree.total
        out["indices"].append(idx)
        out["log_ratios"].append(amp * acc[idx] - (math.log(root) - math.log(n)))
        out["acc_before"].append(acc[idx].copy())
        out["acc_mean_before"].append(acc_total / n)
        X, y = ds.features[idx], ds.labels[idx]
        P = predict_proba_batch(h, X)
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
            u = np.clip(1.0 - predict_proba_batch(h, Xu)[np.arange(len(uniq)), yu], 0.0, 1.0)
        else:
            u = ((Xu @ h.T).argmax(axis=1) != yu).astype(np.float64)
        for j, i in enumerate(uniq):
            old = acc[i]
            acc[i] = dec * old + u[j]
            acc_total += acc[i] - old
            tree.update_many([i], [math.exp(amp * acc[i])])
        out["updated"].append(uniq)
        out["utilities"].append(u)
    return h, out, acc


@pytest.mark.parametrize("n,batch,T,amp,kind,rule", [
    (5, 16, 40, 1.5, "l1", "sgd"),  # nearly every draw repeats an index
    (2000, 100, 30, 2.0, "l1", "sgd"),  # the default compare run's shape
    (37, 3, 60, 0.0, "zero_one", "adagrad"),
    (9, 4, 50, 0.8, "zero_one", "adagrad"),
])
def test_batched_trainer_replays_the_scalar_loop_bitwise(n, batch, T, amp, kind, rule):
    ds = synth_data(n, 8, 2, 0.7, 0.05, seed=n)
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
    for key, expect in ref.items():
        got = getattr(trace, key)
        assert len(got) == len(expect) == T, key
        for a, b in zip(got, expect):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
    assert trace.final_acc.tobytes() == acc.tobytes()
    if amp == 0.0:
        assert all(np.all(lr == 0.0) for lr in trace.log_ratios)


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
])
def test_lockstep_runs_equal_separate_train_calls_bitwise(monkeypatch, n, classes, batch, T,
                                                          kind, rule, radius, track):
    # a relabel every few leaf writes: each run must relabel after the same
    # update_many call as alone, though the runs write different numbers of leaves
    monkeypatch.setattr(weight_tree, "REBUILD_EVERY", 7)
    ds = synth_data(n, 4, classes, 0.6, 0.1, seed=n)
    amps = [0.0, 1.3, 2.0, 0.0, 0.7]
    cfgs = [SamplerConfig(amplitude=a, decay=0.4, utility=kind, batch_size=batch, iterations=T,
                          track_full_conditional_kl=track) for a in amps]
    rng = np.random.default_rng(n + batch)
    h0s = [0.5 * rng.standard_normal((classes, 4)) for _ in amps]
    seeds = [int(s) for s in rng.integers(0, 2**32, size=len(amps))]
    sched = StepSchedule.inverse_decay(0.6, 0.01)

    def make_rule():
        return UpdateRuleState.sgd() if rule == "sgd" else UpdateRuleState.adagrad((classes, 4))

    def ticks(calls):
        def metric_fn(*args):  # (r,) t h kl_stat cond_kl, r only when stepped together
            record = (args[-4], args[-3].tobytes(), args[-2], args[-1])
            calls.append((args[:-4], record))
            return record
        return metric_fn

    rules, calls = [make_rule() for _ in amps], []
    together = train_many(ds, cfgs, sched, rules, 0.05, 5.0, h0s,
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
            assert rules[r].accumulator.tobytes() == alone_rule.accumulator.tobytes()
        sizes.add(tuple(len(u) for u in alone[1].updated))
        assert not h0.any() or not np.array_equal(h0, alone[0])  # h0 is left alone
    if batch > 4:
        assert len(sizes) > 1  # runs scored in different groups in some iteration
    # without a trace: the same hypotheses, metrics and accumulators
    quiet_calls = []
    quiet = train_many(ds, cfgs, sched, [make_rule() for _ in amps], 0.05, 5.0, h0s,
                       [np.random.default_rng(s) for s in seeds], domain_radius=radius,
                       metric_every=3, metric_fn=ticks(quiet_calls), record=False)
    assert quiet_calls == calls
    for (h, trace), (h_ref, ref) in zip(quiet, together):
        assert _bitwise_equal(h, h_ref) and _bitwise_equal(trace.final_acc, ref.final_acc)
        assert trace.indices is None and trace.log_ratios is None and trace.utilities is None


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
        train_many(ds, [cfg] * 3, sched, [UpdateRuleState.sgd() for _ in h0s], 1e50, 5.0, h0s,
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
                   [UpdateRuleState.sgd()] * 2, 0.0, 5.0, h0s, rngs)
    with pytest.raises(ValueError, match="share the update rule"):
        train_many(ds, [cfg, cfg], sched, [UpdateRuleState.sgd(), UpdateRuleState.adagrad((2, 3))],
                   0.0, 5.0, h0s, rngs)
    with pytest.raises(ValueError, match="one sampler config"):
        train_many(ds, [cfg, cfg], sched, [UpdateRuleState.sgd()] * 2, 0.0, 5.0, h0s, rngs[:1])
    with pytest.raises(ValueError, match="h0 shape"):
        train_many(ds, [cfg, cfg], sched, [UpdateRuleState.sgd()] * 2, 0.0, 5.0, h0s[:1] * 3, rngs)


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


def test_recorded_utilities_are_the_batch_scored_at_the_new_hypothesis():
    # n = 2, batch 4: one batch in eight draws a single index four times; it is
    # scored as rows of the batch's stacked call, like every other batch (at
    # these seeds a 1-row call, a gemv, would move some such utility by an ulp)
    single = 0
    for seed, kind in itertools.product((22, 34), ("l1", "zero_one")):
        ds = _random_dataset(seed, n=2)
        cfgs = [SamplerConfig(amplitude=a, decay=0.5, utility=kind, batch_size=4,
                              iterations=20) for a in (0.0, 1.0, 3.0)]
        runs = train_many(ds, cfgs, StepSchedule.constant(0.3), [UpdateRuleState.sgd()] * 3,
                          0.01, 5.0, [zeros_hypothesis(2, 3)] * 3,
                          [np.random.default_rng(s) for s in (5, 6, 7)], metric_every=1,
                          metric_fn=lambda r, t, h, kl, cond: h.copy())
        for _, trace in runs:
            for t, (idx, h_t) in enumerate(zip(trace.indices, trace.metrics), start=1):
                firsts = np.sort(np.unique(idx, return_index=True)[1])
                scored = utilities(kind, h_t[None], ds.features[idx][None],
                                   ds.labels[idx][None])[0]
                assert trace.updated[t - 1].tolist() == idx[firsts].tolist()
                assert trace.utilities[t - 1].tobytes() == scored[firsts].tobytes()
                single += len(firsts) == 1
    assert single > 0


def test_accumulator_replay_is_bitwise():
    ds = _random_dataset(8, n=12)
    cfg = SamplerConfig(amplitude=2.0, decay=0.5, batch_size=3, iterations=30)
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.01, 5.0, zeros_hypothesis(2, 3), np.random.default_rng(9))
    acc = np.zeros(12)
    for uniq, us in zip(trace.updated, trace.utilities):
        for j, i in enumerate(uniq):
            acc[i] = cfg.decay * acc[i] + us[j]
    assert np.array_equal(acc, trace.final_acc)


def test_log_weights_stay_in_band():
    # ln w_i = amplitude * A_i must stay in [0, amplitude/(1-decay)]
    ds = _random_dataset(10, n=9)
    cfg = SamplerConfig(amplitude=2.0, decay=0.5, batch_size=2, iterations=200)
    _, trace = train(ds, cfg, StepSchedule.constant(0.05), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 3), np.random.default_rng(11))
    cap = 1.0 / (1.0 - cfg.decay)
    assert np.all(trace.final_acc >= 0.0)
    assert np.all(trace.final_acc <= cap + 1e-12)
    # every weight is >= 1, so ln(n * Q_t(i)) <= ln w_i <= amplitude/(1-decay)
    for lr in trace.log_ratios:
        assert np.all(lr <= cfg.amplitude / (1.0 - cfg.decay))


def test_batch_updates_each_unique_index_once():
    ds = _constant_utility_dataset(n=2)
    cfg = SamplerConfig(amplitude=0.5, decay=0.5, utility="zero_one",
                        batch_size=8, iterations=10)
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(12))
    for idx, uniq in zip(trace.indices, trace.updated):
        assert len(np.unique(uniq)) == len(uniq)
        assert set(uniq) == set(np.unique(idx))
        # first-appearance order
        firsts = [int(idx[np.flatnonzero(idx == i)[0]]) for i in uniq]
        order = sorted(range(len(uniq)), key=lambda k: np.flatnonzero(idx == uniq[k])[0])
        assert list(uniq[order]) == sorted(firsts, key=lambda i: np.flatnonzero(idx == i)[0])


def test_constant_utility_dataset_freezes_everything():
    ds = _constant_utility_dataset(n=2)
    cfg = SamplerConfig(amplitude=0.1, decay=0.5, utility="zero_one", iterations=11)
    h, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(13))
    assert np.array_equal(h, zeros_hypothesis(2, 1))
    for us in trace.utilities:
        assert np.all(us == 1.0)


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
