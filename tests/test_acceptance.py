"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (visible with pytest -s, or on failure).

Criteria with runtime budgets assert them, and those whose budget is 60 s or
more are marked `slow` (the rerun check with them, as it shares the comparison
fixture), so `pytest -m "not slow"` is a quick loop; reference decimals were
evaluated independently with mpmath to 30 digits (see tests/test_bounds.py).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats

from adasamp import (
    Dataset,
    Example,
    SamplerConfig,
    StepSchedule,
    UpdateRuleState,
    WeightTree,
    enumerate_posterior_divergence,
    gen_bound_chisq,
    gen_bound_derandomized,
    gen_bound_kl,
    gen_bound_sgd_strongly_convex,
    kl_from_utility_advantage,
    kl_from_utility_sum,
    objective_grad,
    objective_value,
    posterior_objective,
    sgd_stability_convex,
    sgd_stability_nonconvex,
    sgd_stability_strongly_convex,
    train,
    train_many,
    zeros_hypothesis,
)
from adasamp.harness import ExperimentConfig, probe_stability, run_comparison
from oracles import naive_descend


def _verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


# 1. sampler distribution correctness

def test_sampler_distribution_matches_naive_and_chi_square():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    sizes = ([2, 7, 64, 1000] * 13)[:50]
    max_prob_err = 0.0
    min_pvalue = 1.0
    for n in sizes:
        w = rng.uniform(0.05, 1.0, size=n)
        tree = WeightTree(w)
        exact = w / w.sum()
        max_prob_err = max(max_prob_err,
                           float(np.abs(tree.probs(np.arange(n)) - exact).max()))
        counts = np.bincount(tree.sample_many(100_000, rng), minlength=n)
        min_pvalue = min(min_pvalue,
                         float(stats.chisquare(counts, exact * 100_000).pvalue))
    dt = time.perf_counter() - t0
    ok = max_prob_err <= 1e-12 and min_pvalue > 1e-3 and dt < 30.0
    _verdict(ok, "tree probabilities match naive normalization "
                 f"(max err {max_prob_err:.2e}) and chi-square GOF on 1e5 draws "
                 f"(min p {min_pvalue:.4f}) for 50 weight vectors [{dt:.1f}s < 30s]")


# 2. sampler complexity

@pytest.mark.slow
def test_sampler_touch_counts_scale_with_depth():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for n in (2, 5, 129, 4096, 100_000, 1_000_000):
        tree = WeightTree(rng.uniform(0.5, 1.5, size=n))
        depth = tree.depth
        ok = ok and depth == max(0, math.ceil(math.log2(n)))
        v0 = tree.sample_visits
        for _ in range(5):
            tree.sample_many(1, rng)
        ok = ok and tree.sample_visits - v0 == 5 * depth
        w0 = tree.update_writes
        for i in rng.integers(0, n, size=3):
            tree.update_many([i], [float(rng.uniform(0.5, 2.0))])
        ok = ok and tree.update_writes - w0 == 3 * (depth + 1)
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _verdict(ok, "per-sample node touches equal depth and per-update touches "
                 f"equal depth+1 for n up to 1e6 [{dt:.1f}s < 60s]")


# 3. gradient and regularity

def test_gradient_and_regularity_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
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
                fd[i, j] = (objective_value(hp, z, mu)
                            - objective_value(hm, z, mu)) / (2 * eps)
        ok = ok and np.linalg.norm(fd - g) < 1e-5 * max(1.0, np.linalg.norm(g))

    mu = 0.4
    X = rng.standard_normal((40, 3))
    radius = float(np.linalg.norm(X, axis=1).max())
    smoothness = 0.5 * radius**2 + mu
    for _ in range(100):
        z = Example(X[int(rng.integers(0, 40))], int(rng.integers(0, 2)))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        lower = (objective_value(a, z, mu)
                 + float(np.sum(objective_grad(a, z, mu) * (b - a)))
                 + 0.5 * mu * float(np.sum((b - a) ** 2)))
        ok = ok and objective_value(b, z, mu) >= lower - 1e-9
        gap = np.linalg.norm(objective_grad(a, z, mu) - objective_grad(b, z, mu))
        ok = ok and gap <= smoothness * np.linalg.norm(a - b) + 1e-9
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _verdict(ok, "finite-difference gradient rel err < 1e-5 on 100 triples; "
                 "strong-convexity and smoothness inequalities hold within 1e-9 "
                 f"on 100 pairs [{dt:.1f}s < 10s]")


# 4. multiplicative update optimality

def test_multiplicative_update_is_grid_optimal():
    t0 = time.perf_counter()
    res = 140  # (141*142)/2 = 10011 simplex points
    grid = []
    for i in range(res + 1):
        for j in range(res - i + 1):
            grid.append((i / res, j / res, (res - i - j) / res))
    grid = np.array(grid)
    rng = np.random.default_rng(16)
    worst_margin = math.inf
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, size=3)
        ref = rng.dirichlet(np.ones(3))
        amp = float(rng.uniform(0.2, 3.0))
        dec = float(rng.uniform(0.1, 0.9))
        w = ref**dec * np.exp(amp * u)
        q_star = w / w.sum()
        best = posterior_objective(q_star, u, ref, amp, dec)
        grid_best = max(posterior_objective(g, u, ref, amp, dec) for g in grid)
        worst_margin = min(worst_margin, best - grid_best)
    dt = time.perf_counter() - t0
    ok = worst_margin >= -1e-9 and dt < 30.0
    _verdict(ok, "closed-form reweighting beats a 10011-point simplex grid for "
                 f"20 random settings (worst margin {worst_margin:.2e} >= -1e-9) "
                 f"[{dt:.1f}s < 30s]")


# 5. divergence oracle

def _tiny_instance(seed):
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


@pytest.mark.slow
def test_enumerated_divergence_bounds_and_monte_carlo():
    t0 = time.perf_counter()
    ok = True
    max_z = 0.0
    for inst_seed in range(50):
        ds, cfg, sched, rule, mu = _tiny_instance(inst_seed)
        h0 = zeros_hypothesis(2, ds.feature_dim)
        res = enumerate_posterior_divergence(ds, cfg, sched, rule.copy(), mu,
                                             5.0, h0)
        ok = ok and res.kl <= res.advantage_bound + 1e-9
        ok = ok and res.kl <= res.sum_bound + 1e-9
        seeds = range(10_000)
        runs = train_many(ds, [cfg] * len(seeds), sched, [rule.copy() for _ in seeds], mu,
                          5.0, [h0] * len(seeds), [np.random.default_rng(s) for s in seeds])
        traces = [trace for _, trace in runs]
        draws = {"kl": [trace.total_log_ratio() for trace in traces],
                 "adv": [kl_from_utility_advantage(trace) for trace in traces],
                 "sum": [kl_from_utility_sum(trace) for trace in traces]}
        for key, exact in (("kl", res.kl), ("adv", res.advantage_bound),
                           ("sum", res.sum_bound)):
            xs = np.asarray(draws[key])
            se = xs.std(ddof=1) / math.sqrt(len(xs))
            z = abs(float(xs.mean()) - exact) / se if se > 0 else 0.0
            max_z = max(max_z, z)
    dt = time.perf_counter() - t0
    ok = ok and max_z <= 3.0 and dt < 120.0
    _verdict(ok, "on 50 tiny instances, exact enumerated KL <= both trace "
                 "statistics' expectations (1e-9 slack) and 1e4-seed Monte Carlo "
                 f"agrees within 3 SE (max |z| {max_z:.2f}) [{dt:.0f}s < 120s]")


# 6. zero-amplitude reduction to uniform sampling

def test_zero_amplitude_reduces_to_uniform_sampling():
    rng0 = np.random.default_rng(40)
    n, d, T, batch = 37, 3, 150, 3
    depth = math.ceil(math.log2(n))
    X = rng0.standard_normal((n, d))
    y = rng0.integers(0, 2, size=n)
    y[0], y[1] = 0, 1
    ds = Dataset.from_arrays(X, y, 2)
    cfg = SamplerConfig(amplitude=0.0, decay=0.5, utility="l1", iterations=T,
                        batch_size=batch)
    h0 = zeros_hypothesis(2, d)
    ok = True
    for seed in range(10):
        _, trace = train(ds, cfg, StepSchedule.inverse_decay(0.1, 0.01),
                         UpdateRuleState.sgd(), 0.05, 5.0, h0,
                         np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed)
        for t in range(T):
            uni = ref_rng.random((batch, depth))
            expect = np.array([naive_descend(np.ones(n), uni[r]) for r in range(batch)])
            ok = ok and np.array_equal(trace.indices[t], expect)
        ok = ok and trace.total_log_ratio() == 0.0
        ok = ok and all(np.all(lr == 0.0) for lr in trace.log_ratios)
        ok = ok and kl_from_utility_sum(trace) == 0.0
    _verdict(ok, "zero-amplitude index streams are bit-identical to a uniform "
                 "sampler on the same rng stream for 10 seeds, with per-path "
                 "log-ratio sum exactly 0")


# 7. empirical stability vs closed forms

def test_stability_probes_respect_closed_form_coefficients():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(mu=0.1, n=500, iters=500)
    res = probe_stability(cfg, perturbations=200)
    ok = res.beta_emp <= res.beta_bound and res.gamma_emp <= res.gamma_bound
    res2 = probe_stability(dataclasses.replace(cfg, iters=1000),
                           perturbations=200)
    med, med2 = float(np.median(res.hyper_diffs)), float(np.median(res2.hyper_diffs))
    ok = ok and med2 < med
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _verdict(ok, "200+200 stability probes stay under the closed-form coefficients "
                 f"(beta {res.beta_emp:.4f} <= {res.beta_bound:.4f}, gamma "
                 f"{res.gamma_emp:.4f} <= {res.gamma_bound:.4f}) and doubling T "
                 f"shrinks the median sequence probe ({med2:.5f} < {med:.5f}) "
                 f"[{dt:.1f}s < 30s]")


# 8. bound composition identity and hand-worked examples

def test_bound_composition_and_hand_examples():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(20):
        kl = float(rng.uniform(0.0, 5.0))
        M = float(rng.uniform(0.5, 5.0))
        L = float(rng.uniform(0.2, 3.0))
        mu = float(rng.uniform(0.05, 2.0))
        n = int(rng.integers(10, 10_000))
        T = int(rng.integers(10, 10_000))
        delta = float(rng.uniform(0.01, 0.5))
        beta, gamma = sgd_stability_strongly_convex(L, mu, n, T)
        composed = gen_bound_kl(kl, M, n, T, beta, gamma, delta).value
        direct = gen_bound_sgd_strongly_convex(kl, M, L, mu, n, T, delta).value
        ok = ok and composed == direct

    cases = [
        (sgd_stability_convex(1.0, 0.1, 1, 100), 0.002),
        (sgd_stability_nonconvex(1.0, 1.0, 1.0, 100, 101, 1.0),
         0.28284271247461901),
        (sgd_stability_strongly_convex(1.0, 0.1, 1000, 1000)[0], 0.02),
        (sgd_stability_strongly_convex(1.0, 0.1, 1000, 1000)[1], 0.02),
        (gen_bound_chisq(0.0, 1.0, 100, 0.0, 0.1).value, 0.44721359549995794),
        (gen_bound_kl(0.0, 1.0, 100, 50, 0.0, 0.0, 0.05).value,
         0.2716203031481239),
        (gen_bound_sgd_strongly_convex(0.0, 1.0, 1.0, 1.0, 100, 100, 0.05).value,
         1.75921854646661),
        (gen_bound_derandomized(0.0, 1.0, 100, 50, 0.0, 0.0, 0.05).value,
         0.29604143746015968),
    ]
    worst_rel = max(abs(got - want) / want for got, want in cases)
    ok = ok and worst_rel < 5e-6  # far inside 5-significant-digit agreement
    _verdict(ok, "composed strongly-convex bound equals its two-stage form "
                 "bitwise on 20 tuples; hand-worked formula examples reproduce "
                 f"beyond 5 significant digits (worst rel err {worst_rel:.1e})")


# 9 & 10. desk-scale comparison, shared between the two criteria

@pytest.fixture(scope="session")
def comparison_runs(tmp_path_factory):
    cfg_a = ExperimentConfig(trials=10, track_kl=True,
                             out=str(tmp_path_factory.mktemp("cmp_a")))
    t0 = time.perf_counter()
    out_a = run_comparison(cfg_a, alphas=[1.0, 2.0])
    elapsed = time.perf_counter() - t0
    cfg_b = dataclasses.replace(cfg_a, out=str(tmp_path_factory.mktemp("cmp_b")))
    run_comparison(cfg_b, alphas=[1.0, 2.0])
    return cfg_a, cfg_b, out_a, elapsed


@pytest.mark.slow
def test_adaptive_beats_uniform_and_posterior_relaxes(comparison_runs):
    cfg, _, out, elapsed = comparison_runs
    comp = out["comparison"]
    med_uniform = comp["arms"]["uniform"]["median_iterations_to_target"]
    med_adaptive = comp["arms"]["alpha_2"]["median_iterations_to_target"]
    ok_target = med_adaptive < med_uniform
    kls = [comp["arms"][a]["kl_stat_median"] for a in ("uniform", "alpha_1",
                                                       "alpha_2")]
    ok_sweep = kls[0] <= kls[1] <= kls[2]
    ok_decay = True
    for tr in out["results"]["alpha_2"].trials:
        it = np.array([r.iteration for r in tr.metrics])
        ck = np.array([r.conditional_kl for r in tr.metrics])
        first = ck[it <= cfg.iters // 4].mean()
        last = ck[it > 3 * cfg.iters // 4].mean()
        ok_decay = ok_decay and last < first
    ok = ok_target and ok_sweep and ok_decay and elapsed < 60.0
    _verdict(ok, "10-trial imbalanced/noisy task: adaptive reaches the loss "
                 f"target in fewer median iterations ({med_adaptive:.0f} < "
                 f"{med_uniform:.0f}), the KL statistic is nondecreasing across "
                 "the amplitude sweep, and the tracked conditional KL's "
                 f"final-quarter mean is below its first-quarter mean "
                 f"[{elapsed:.0f}s < 60s]")


@pytest.mark.slow
def test_comparison_reruns_are_byte_identical(comparison_runs):
    cfg_a, cfg_b, _, _ = comparison_runs
    from pathlib import Path
    ok = True
    for arm in ("uniform", "alpha_1", "alpha_2"):
        for k in range(10):
            fa = Path(cfg_a.out) / arm / f"trial_{k}.metrics.jsonl"
            fb = Path(cfg_b.out) / arm / f"trial_{k}.metrics.jsonl"
            ok = ok and fa.read_bytes() == fb.read_bytes()
    _verdict(ok, "two full comparison runs with the same master seed produce "
                 "byte-identical metrics JSONL (30 files compared)")
