"""Stability coefficients, divergences, generalization bounds, and the exact
path-enumeration oracle for the sampler's KL statistics.

Expected decimals were frozen from independent high-precision evaluation of
the closed forms (mpmath, 30 digits), not from the implementation under test.
"""

import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest

from adasamp import (
    Dataset,
    SamplerConfig,
    StepSchedule,
    UpdateRuleState,
    enumerate_posterior_divergence,
    gen_bound_chisq,
    gen_bound_derandomized,
    gen_bound_kl,
    gen_bound_sgd_strongly_convex,
    kl_from_utility_advantage,
    kl_from_utility_sum,
    project,
    sgd_stability_convex,
    sgd_stability_initial_risk,
    sgd_stability_nonconvex,
    sgd_stability_strongly_convex,
    train,
    train_many,
    zeros_hypothesis,
)
import adasamp.optim as optim
from adasamp.adaptive import DivergenceError, TrainTrace
from adasamp.bounds import heldout_risk_bound
from oracles import (chisq_divergence, constant_utility_dataset, fixed_utility_batch_kl,
                     kl_divergence, random_tiny_instance)


# ---- stability coefficients ----

def test_stab_convex_example():
    assert sgd_stability_convex(1.0, 0.1, 1, 100) == pytest.approx(0.002, rel=1e-15)


def test_stab_convex_zero_eta():
    assert sgd_stability_convex(1.0, 0.0, 10, 100) == 0.0


def test_stab_convex_n_scaling():
    a = sgd_stability_convex(1.3, 0.2, 50, 100)
    b = sgd_stability_convex(1.3, 0.2, 50, 200)
    assert a == 2.0 * b


def test_stab_nonconvex_example():
    v = sgd_stability_nonconvex(1.0, 1.0, 1.0, 100, 101, 1.0)
    assert v == pytest.approx(0.28284271247461901, rel=1e-12)


def test_stab_nonconvex_t_one_drops_power_term():
    v = sgd_stability_nonconvex(1.0, 2.0, 0.5, 1, 50, 1.0)
    be = 2.0 * 0.5
    assert v == pytest.approx((1.0 + 1.0 / be) / 49 * (2.0 * 0.5) ** (1.0 / (be + 1.0)),
                              rel=1e-12)


def test_stab_nonconvex_monotone_in_t():
    vals = [sgd_stability_nonconvex(1.0, 1.0, 0.3, T, 100, 1.0) for T in (1, 5, 50, 500)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_stab_initial_risk_examples():
    assert sgd_stability_initial_risk(1.0, 0.1, 1, 100, 2.0, 0.0) == 0.0
    v = sgd_stability_initial_risk(1.0, 0.1, 1, 100, 2.0, 1.0)
    assert v == pytest.approx(0.004, rel=1e-12)


def test_stab_initial_risk_ratio_to_convex():
    L, eta, T, n, beta, risk = 1.7, 0.05, 30, 250, 3.0, 0.8
    ratio = (sgd_stability_initial_risk(L, eta, T, n, beta, risk)
             / sgd_stability_convex(L, eta, T, n))
    assert ratio == pytest.approx(math.sqrt(2.0 * beta * risk) / L, rel=1e-12)


def test_stab_strongly_convex_example():
    beta, gamma = sgd_stability_strongly_convex(1.0, 0.1, 1000, 1000)
    assert beta == pytest.approx(0.02, rel=1e-15)
    assert gamma == pytest.approx(0.02, rel=1e-15)


def test_stab_strongly_convex_symmetry_and_scaling():
    beta, gamma = sgd_stability_strongly_convex(1.4, 0.3, 77, 77)
    assert beta == gamma
    b2, g2 = sgd_stability_strongly_convex(2.8, 0.3, 77, 77)
    assert b2 == 4.0 * beta and g2 == 4.0 * gamma


def test_stability_validation():
    with pytest.raises(ValueError):
        sgd_stability_convex(0.0, 0.1, 10, 10)
    with pytest.raises(ValueError):
        sgd_stability_convex(1.0, -0.1, 10, 10)
    with pytest.raises(ValueError):
        sgd_stability_nonconvex(1.0, 1.0, 1.0, 10, 1, 1.0)  # n < 2
    with pytest.raises(ValueError):
        sgd_stability_strongly_convex(1.0, 0.0, 10, 10)
    with pytest.raises(ValueError):
        sgd_stability_convex(1.0, 0.1, 0, 10)


# ---- divergences ----

def test_divergences_vanish_at_identity():
    q = np.array([0.2, 0.3, 0.5])
    assert kl_divergence(q, q) == 0.0
    assert chisq_divergence(q, q) == pytest.approx(0.0, abs=1e-15)


def test_kl_divergence_example():
    v = kl_divergence([0.5, 0.5], [0.25, 0.75])
    assert v == pytest.approx(0.14384103622589046, rel=1e-12)


def test_chisq_divergence_example():
    v = chisq_divergence([0.5, 0.5], [0.25, 0.75])
    assert v == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_divergences_against_mpmath():
    mpmath.mp.dps = 25
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(k))
        p = rng.dirichlet(np.ones(k))
        kl_ref = float(sum(mpmath.mpf(qi) * mpmath.log(mpmath.mpf(qi) / mpmath.mpf(pi))
                           for qi, pi in zip(q, p) if qi > 0))
        chi_ref = float(sum(mpmath.mpf(qi) ** 2 / mpmath.mpf(pi)
                            for qi, pi in zip(q, p)) - 1)
        assert kl_divergence(q, p) == pytest.approx(kl_ref, rel=1e-10, abs=1e-12)
        assert chisq_divergence(q, p) == pytest.approx(chi_ref, rel=1e-10, abs=1e-12)


def test_divergence_validation():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        kl_divergence([0.7, 0.3], [0.9, 0.2])
    with pytest.raises(ValueError):
        kl_divergence([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])  # q not absolutely continuous
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-12)


# ---- generalization bounds ----

def test_gen_bound_chisq_example():
    r = gen_bound_chisq(0.0, 1.0, 100, 0.0, 0.1)
    assert r.value == pytest.approx(0.44721359549995794, rel=1e-12)
    assert r.formula == "chisq"


def test_gen_bound_chisq_delta_scaling():
    a = gen_bound_chisq(0.3, 1.0, 100, 0.01, 0.1).value
    b = gen_bound_chisq(0.3, 1.0, 100, 0.01, 0.4).value
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_gen_bound_chisq_n_scaling():
    a = gen_bound_chisq(0.0, 1.0, 100, 0.0, 0.1).value
    b = gen_bound_chisq(0.0, 1.0, 400, 0.0, 0.1).value
    assert a == 2.0 * b


def test_gen_bound_kl_example():
    r = gen_bound_kl(0.0, 1.0, 100, 1, 0.0, 0.0, 0.05)
    assert r.value == pytest.approx(0.2716203031481239, rel=1e-12)


def test_gen_bound_kl_special_delta():
    # delta = 2/e^2 makes ln(2/delta) = 2, so the value is sqrt(4 M^2 / n)
    r = gen_bound_kl(0.0, 1.0, 100, 1, 0.0, 0.0, 2.0 * math.exp(-2.0))
    assert r.value == pytest.approx(0.2, rel=1e-12)


def test_gen_bound_kl_monotone_in_kl():
    vals = [gen_bound_kl(kl, 1.0, 100, 10, 0.01, 0.002, 0.05).value
            for kl in (0.0, 0.1, 1.0, 10.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cor1_example():
    r = gen_bound_sgd_strongly_convex(0.0, 1.0, 1.0, 1.0, 100, 100, 0.05)
    assert r.value == pytest.approx(1.75921854646661, rel=1e-12)
    assert r.inputs["beta"] == pytest.approx(0.02, rel=1e-15)
    assert r.inputs["gamma"] == pytest.approx(0.02, rel=1e-15)


def test_cor1_is_exactly_the_composition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        kl = float(rng.uniform(0.0, 5.0))
        M = float(rng.uniform(0.5, 10.0))
        L = float(rng.uniform(0.2, 4.0))
        mu = float(rng.uniform(0.01, 2.0))
        n = int(rng.integers(10, 100000))
        T = int(rng.integers(10, 100000))
        delta = float(rng.uniform(0.001, 0.5))
        beta, gamma = sgd_stability_strongly_convex(L, mu, n, T)
        direct = gen_bound_sgd_strongly_convex(kl, M, L, mu, n, T, delta).value
        composed = gen_bound_kl(kl, M, n, T, beta, gamma, delta).value
        assert direct == composed


def test_cor1_root_n_scaling_at_zero_kl():
    # KL = 0, T = n: value * sqrt(n) approaches a constant, off by the first
    # term's 2/sqrt(n)
    limit = math.sqrt(2.0 * math.log(40.0) * 41.0)
    for n in (100, 1000, 10000):
        v = gen_bound_sgd_strongly_convex(0.0, 1.0, 1.0, 1.0, n, n, 0.05).value
        assert v * math.sqrt(n) - limit == pytest.approx(2.0 / math.sqrt(n), rel=1e-9)


def test_gen_bound_derandomized_example():
    r = gen_bound_derandomized(0.0, 1.0, 100, 1, 0.0, 0.0, 0.05)
    assert r.value == pytest.approx(0.29604143746015968, rel=1e-12)


def test_derandomized_vs_kl_bound_at_zero_gamma():
    # with gamma = 0 the two differ only through ln(4/delta) vs ln(2/delta),
    # so doubling delta in the derandomized form reproduces the kl form
    kl, M, n, T, beta = 0.7, 2.0, 500, 200, 0.001
    a = gen_bound_derandomized(kl, M, n, T, beta, 0.0, 0.1).value
    b = gen_bound_kl(kl, M, n, T, beta, 0.0, 0.1).value
    assert a > b
    assert gen_bound_derandomized(kl, M, n, T, beta, 0.0, 0.2).value == b


def test_heldout_risk_bound_width_at_the_defaults():
    # M 5, delta 0.05, test_n 500: 5 sqrt(ln(20) / 1000)
    width = 0.27366641525559868
    for risk in (0.0, 0.0584, 5.0):
        r = heldout_risk_bound(risk, 5.0, 500, 0.05)
        assert r.formula == "test_set_hoeffding"
        assert r.value - risk == pytest.approx(width, rel=1e-12)
    assert round(width, 4) == 0.2737
    # a fifth of M and four times test_n: a tenth of the width
    tenth = heldout_risk_bound(0.1, 1.0, 4 * 500, 0.05).value - 0.1
    assert tenth == pytest.approx(width / 10, rel=1e-12)
    for bad in [(-0.1, 5.0, 500, 0.05), (5.1, 5.0, 500, 0.05), (0.0, 5.0, 0, 0.05),
                (0.0, 5.0, 500, 1.0), (0.0, 0.0, 500, 0.05)]:
        with pytest.raises(ValueError):
            heldout_risk_bound(*bad)


@pytest.mark.parametrize("evaluate,name", [
    (lambda: sgd_stability_convex(1e200, 1e200, 10, 1), "stability_convex coefficient"),
    (lambda: sgd_stability_nonconvex(1.0, 1e300, 1e300, 100, 100, 1.0),
     "stability_nonconvex coefficient"),
    (lambda: sgd_stability_initial_risk(1e200, 1e200, 10, 1, 1.0, 1.0),
     "stability_initial_risk coefficient"),
    (lambda: sgd_stability_strongly_convex(1e200, 1e-300, 1, 1),
     "stability_strongly_convex coefficient"),
    (lambda: gen_bound_chisq(1e300, 1.0, 1, 1e10, 0.05), "chisq bound"),
    (lambda: gen_bound_kl(0.0, 1.0, 100, 1, 1e200, 0.0, 0.05), "kl bound"),
    (lambda: gen_bound_sgd_strongly_convex(0.0, 1.0, 1.0, 1e-300, 100, 1, 0.05),
     "sgd_strongly_convex bound"),
    (lambda: gen_bound_derandomized(0.0, 1.0, 100, 1, 1e200, 0.0, 0.05), "derandomized bound"),
    # both inputs are positive, but smoothness * eta underflows to 0.0
    pytest.param(lambda: sgd_stability_nonconvex(1.0, 1e-300, 1e-300, 10, 10, 1.0),
                 "stability_nonconvex coefficient", id="nonconvex-underflow"),
])
def test_an_evaluator_whose_value_is_not_finite_raises_naming_its_formula(evaluate, name):
    # an overflowing square is inf, not OverflowError, and is rejected as such
    with pytest.raises(ValueError, match=f"^the {name} is (inf|nan) at these inputs"):
        evaluate()


def test_gen_bound_validation():
    with pytest.raises(ValueError):
        gen_bound_kl(-0.1, 1.0, 10, 10, 0.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        gen_bound_kl(0.0, 0.0, 10, 10, 0.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        gen_bound_kl(0.0, 1.0, 10, 10, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gen_bound_kl(0.0, 1.0, 10, 10, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gen_bound_chisq(-1.0, 1.0, 10, 0.0, 0.05)
    with pytest.raises(ValueError):
        gen_bound_derandomized(0.0, 1.0, 0, 10, 0.0, 0.0, 0.05)


def test_bound_report_to_json_is_flat():
    r = gen_bound_chisq(0.5, 1.0, 50, 0.01, 0.05)
    d = r.to_json()
    assert d["formula"] == "chisq"
    assert set(d) == {"formula", "value", "chisq", "M", "n", "beta", "delta"}
    assert all(not isinstance(v, dict) for v in d.values())


# ---- trace statistics ----

def _train_rigged(T, amplitude, decay, seed=0, n=2):
    ds = constant_utility_dataset(n)
    cfg = SamplerConfig(amplitude=amplitude, decay=decay, utility="zero_one",
                        iterations=T)
    return train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                 0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(seed))


def test_utility_sum_statistic_hand_example():
    # constant utility 1, T = 11: (0.1 / 0.5) * 10 = 2.0
    _, trace = _train_rigged(T=11, amplitude=0.1, decay=0.5)
    assert kl_from_utility_sum(trace) == pytest.approx(2.0, abs=1e-12)


def test_statistics_vanish_at_zero_amplitude():
    ds = constant_utility_dataset()
    cfg = SamplerConfig(amplitude=0.0, decay=0.5, utility="zero_one", iterations=5)
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(3))
    assert kl_from_utility_advantage(trace) == 0.0
    assert kl_from_utility_sum(trace) == 0.0
    assert trace.total_log_ratio() == 0.0


def test_advantage_statistic_single_iteration_is_zero():
    _, trace = _train_rigged(T=1, amplitude=0.5, decay=0.5)
    assert kl_from_utility_advantage(trace) == 0.0


def test_advantage_statistic_requires_single_draws():
    ds = constant_utility_dataset(4)
    cfg = SamplerConfig(amplitude=0.5, decay=0.5, utility="zero_one",
                        batch_size=2, iterations=3)
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(4))
    with pytest.raises(ValueError):
        kl_from_utility_advantage(trace)
    assert kl_from_utility_sum(trace) > 0.0  # defined at any batch, but see the next test


def _train_unrecorded(T):
    cfg = SamplerConfig(amplitude=0.5, decay=0.5, utility="zero_one", iterations=T)
    [(_, trace)] = train_many(constant_utility_dataset(), [cfg], StepSchedule.constant(0.1),
                              UpdateRuleState.sgd(), 0.0, 5.0, [zeros_hypothesis(2, 1)],
                              [np.random.default_rng(0)], metric_every=1,
                              metric_fn=lambda r, t, h, kl_stat, cond: kl_stat, record=False)
    return trace


@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("statistic", [TrainTrace.total_log_ratio, kl_from_utility_advantage])
def test_statistics_of_an_unrecorded_trace_fail_loudly(statistic, T):
    # record=False keeps no log-ratio or advantage sum: neither statistic may read 0.0
    with pytest.raises(ValueError,
                       match=r"no (log_ratio_sum|advantage_sum) \(trained with record=False\)"):
        statistic(_train_unrecorded(T))


@pytest.mark.parametrize("T", [1, 2, 5])
def test_utility_sum_statistic_of_an_unrecorded_trace_is_its_last_kl_stat(T):
    # every run keeps its utility sum, so the statistic needs no record
    trace = _train_unrecorded(T)
    assert kl_from_utility_sum(trace).hex() == trace.metrics[-1].hex()
    assert kl_from_utility_sum(trace) == 0.5 / 0.5 * (T - 1)  # utility 1 throughout


def test_utility_sum_statistic_falls_below_the_kl_at_batch_above_one():
    # It counts each unique drawn index once per iteration, and the sequence
    # KL counts every draw; the mean log-ratio sum estimates the KL without
    # bias. h0 = 0 ties every score, so the utilities are not fixed: the first
    # 1e-12 steps decide the predictions, and the post-step utility vectors
    # vary between runs. The next tests fix them with a large-margin h0.
    X = np.random.default_rng(1).standard_normal((3, 3))
    ds = Dataset.from_arrays(X, np.array([0, 1, 1]), 2)
    cfg = SamplerConfig(amplitude=5.0, decay=0.2, utility="zero_one", batch_size=6,
                        iterations=6)
    runs = 20000
    out = train_many(ds, [cfg] * runs, StepSchedule.constant(1e-12), UpdateRuleState.sgd(),
                     0.0, 5.0, [zeros_hypothesis(2, 3)] * runs,
                     [np.random.default_rng(seed) for seed in range(runs)])
    kl = np.array([trace.total_log_ratio() for _, trace in out])
    stat = np.array([kl_from_utility_sum(trace) for _, trace in out])
    se = math.sqrt((kl.var(ddof=1) + stat.var(ddof=1)) / runs)
    assert kl.mean() - stat.mean() > 5.0 * se, (kl.mean(), stat.mean(), se)


def test_fixed_utility_batch_oracle_matches_frozen_values():
    # u = (0, 0, 1), batch 6, T 4, amplitude 5, decay 0.2 (ROADMAP item 1)
    kl, stat = fixed_utility_batch_kl([0.0, 0.0, 1.0], 6, 4, 5.0, 0.2)
    assert kl == pytest.approx(18.2971600677633, rel=1e-12)
    assert stat == pytest.approx(18.148903241760888, rel=1e-12)
    # at batch 1 with constant utility 1 it is the hand-derived rigged instance
    for alpha, lam in ((0.7, 0.4), (1.0, 0.5)):
        kl, _, total = _closed_form_rigged(alpha, lam)
        assert fixed_utility_batch_kl([1.0, 1.0], 1, 3, alpha, lam) == pytest.approx(
            (kl, total), rel=1e-12)


def test_utility_sum_statistic_falls_below_the_exact_kl_at_fixed_utilities():
    # h0 separates the classes by a margin of 1 on every row (scores 0 and
    # X v = (-1, 1, -1) against labels 0, 1, 1), so a 1e-12 step keeps the
    # utilities at (0, 0, 1) and the fixed-utility oracle gives both
    # expectations exactly
    X = np.random.default_rng(1).standard_normal((3, 3))
    y = np.array([0, 1, 1])
    ds = Dataset.from_arrays(X, y, 2)
    h0 = np.stack([np.zeros(3), np.linalg.solve(X, [-1.0, 1.0, -1.0])])
    T, runs = 6, 20000
    cfg = SamplerConfig(amplitude=5.0, decay=0.2, utility="zero_one", batch_size=6,
                        iterations=T)
    out = train_many(ds, [cfg] * runs, StepSchedule.constant(1e-12), UpdateRuleState.sgd(),
                     0.0, 5.0, [h0] * runs, [np.random.default_rng(seed) for seed in range(runs)],
                     metric_every=1,
                     metric_fn=lambda r, t, h, kl_stat, cond: ((X @ h.T).argmax(axis=1) != y))
    assert all(u.tolist() == [False, False, True] for _, trace in out for u in trace.metrics)
    assert all(len(trace.metrics) == T for _, trace in out)
    kl_exact, stat_exact = fixed_utility_batch_kl([0.0, 0.0, 1.0], 6, T, 5.0, 0.2)
    assert stat_exact < kl_exact
    for samples, exact in (([trace.total_log_ratio() for _, trace in out], kl_exact),
                           ([kl_from_utility_sum(trace) for _, trace in out], stat_exact)):
        mean, se = np.mean(samples), np.std(samples, ddof=1) / math.sqrt(runs)
        assert abs(mean - exact) <= 3.0 * se, (mean, exact, se)


# ---- exact enumeration ----

def _closed_form_rigged(alpha, lam):
    """n=2, T=3, constant utility 1: KL, advantage and sum statistics by hand.

    After the first draw the drawn index holds accumulator 1, the other 0; a
    repeat draw lifts it to 1 + lam while a split leaves both at 1 (uniform).
    """
    s = math.exp(alpha) / (math.exp(alpha) + 1.0)
    s2 = math.exp(alpha * (1 + lam)) / (math.exp(alpha * (1 + lam)) + 1.0)
    kl = (s * math.log(2 * s) + (1 - s) * math.log(2 * (1 - s))
          + s * (s2 * math.log(2 * s2) + (1 - s2) * math.log(2 * (1 - s2))))
    adv = alpha * (s - 0.5) + s * alpha * (1 + lam) * (s2 - 0.5)
    total = 2.0 * alpha / (1.0 - lam)
    return kl, adv, total


@pytest.mark.parametrize("alpha,lam,frozen", [
    (0.7, 0.4, (0.12921089665119995, 0.26644735497342021, 2.3333333333333333)),
    (1.0, 0.5, (0.27038474334443181, 0.57930689639294506, 4.0)),
])
def test_enumeration_matches_closed_form_on_rigged_instance(alpha, lam, frozen):
    ds = constant_utility_dataset(2)
    cfg = SamplerConfig(amplitude=alpha, decay=lam, utility="zero_one", iterations=3)
    res = enumerate_posterior_divergence(ds, cfg, StepSchedule.constant(0.1),
                                         UpdateRuleState.sgd(), 0.0, 5.0,
                                         zeros_hypothesis(2, 1))
    kl, adv, total = _closed_form_rigged(alpha, lam)
    assert (kl, adv, total) == pytest.approx(frozen, rel=1e-12)
    assert res.kl == pytest.approx(kl, abs=1e-12)
    assert res.advantage_bound == pytest.approx(adv, abs=1e-12)
    assert res.sum_bound == pytest.approx(total, abs=1e-12)
    assert res.paths == 8


def test_enumeration_zero_amplitude_gives_zero_kl():
    ds = constant_utility_dataset(3)
    cfg = SamplerConfig(amplitude=0.0, decay=0.5, utility="zero_one", iterations=4)
    res = enumerate_posterior_divergence(ds, cfg, StepSchedule.constant(0.1),
                                         UpdateRuleState.sgd(), 0.0, 5.0,
                                         zeros_hypothesis(2, 1))
    assert abs(res.kl) <= 1e-12
    assert abs(res.advantage_bound) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_enumeration_ordering_on_random_instances(seed):
    ds, cfg, sched, rule, mu = random_tiny_instance(seed)
    res = enumerate_posterior_divergence(ds, cfg, sched, rule, mu, 5.0,
                                         zeros_hypothesis(2, ds.feature_dim))
    assert res.kl >= -1e-12
    assert res.kl <= res.advantage_bound + 1e-9
    assert res.advantage_bound <= res.sum_bound + 1e-9
    assert res.kl <= res.sum_bound + 1e-9


def test_enumeration_rejects_large_instances():
    ds = constant_utility_dataset(3)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, utility="zero_one", iterations=6)
    with pytest.raises(ValueError):
        enumerate_posterior_divergence(ds, cfg, StepSchedule.constant(0.1),
                                       UpdateRuleState.sgd(), 0.0, 5.0,
                                       zeros_hypothesis(2, 1))


@pytest.mark.parametrize("bad", [
    dict(mu=-3.0), dict(mu=math.nan), dict(radius=-1.0), dict(radius=math.nan),
    dict(radius=math.inf),
    dict(h0=np.full((2, 1), math.inf)), dict(h0=np.full((2, 1), math.nan)),
    dict(mu=math.inf), dict(M=math.inf),
])
def test_enumeration_rejects_what_train_rejects(bad):
    # else the walk would step through a sign-flipping or skipped projection,
    # reach kl = nan, or use a negative ridge or an unclamped loss that
    # train_many rejects
    ds = Dataset.from_arrays(np.array([[1.0], [-0.5]]), np.array([0, 1]), 2)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, utility="l1", iterations=2)
    args = dict(mu=0.1, M=5.0, h0=zeros_hypothesis(2, 1), radius=None)
    args.update(bad)
    mu, M, h0, radius = args.values()
    with pytest.raises(ValueError):
        enumerate_posterior_divergence(ds, cfg, StepSchedule.constant(0.1),
                                       UpdateRuleState.sgd(), mu, M, h0, radius)


def test_enumeration_reports_a_divergence_as_train_does():
    # mu * h overflows at the third step on every path: train raises
    # DivergenceError(3), and so does the enumeration, with no numpy warning
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ds = Dataset.from_arrays(X, np.array([0, 1, 0]), 2)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, iterations=3)
    sched, mu = StepSchedule.constant(0.1), 1e308
    for seed in (0, 1):
        with pytest.raises(DivergenceError, match="^diverged at iteration 3$"):
            train(ds, cfg, sched, UpdateRuleState.sgd(), mu, 5.0, zeros_hypothesis(2, 2),
                  np.random.default_rng(seed))
    with pytest.raises(DivergenceError) as exc:
        enumerate_posterior_divergence(ds, cfg, sched, UpdateRuleState.sgd(), mu, 5.0,
                                       zeros_hypothesis(2, 2))
    assert not isinstance(exc.value, ValueError)  # not a rejected input
    assert exc.value.iteration == 3 and str(exc.value) == "diverged at iteration 3"


def test_monte_carlo_agrees_with_enumeration():
    ds, cfg, sched, _, mu = random_tiny_instance(3)
    h0 = zeros_hypothesis(2, ds.feature_dim)
    res = enumerate_posterior_divergence(ds, cfg, sched, UpdateRuleState.sgd(),
                                         mu, 5.0, h0)
    draws = {"kl": [], "adv": [], "sum": []}
    for seed in range(2000):
        _, trace = train(ds, cfg, sched, UpdateRuleState.sgd(), mu, 5.0, h0,
                         np.random.default_rng(seed))
        draws["kl"].append(trace.total_log_ratio())
        draws["adv"].append(kl_from_utility_advantage(trace))
        draws["sum"].append(kl_from_utility_sum(trace))
    for key, exact in (("kl", res.kl), ("adv", res.advantage_bound),
                       ("sum", res.sum_bound)):
        xs = np.asarray(draws[key])
        se = xs.std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs.mean() - exact) <= 4.0 * se + 1e-9


def _pinned_enumeration_grid():
    """One seeded instance per (n, T, rule, utility, radius): n 2-4, T 2-5,
    SGD and AdaGrad, both utilities, no radius and a radius of 0.05, which
    projects."""
    rng = np.random.default_rng(25)
    for n, T, adagrad, kind, radius in itertools.product(
            (2, 3, 4), (2, 3, 4, 5), (False, True), ("l1", "zero_one"), (None, 0.05)):
        d, C = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        ds = Dataset.from_arrays(rng.standard_normal((n, d)), rng.integers(0, C, size=n), C)
        cfg = SamplerConfig(amplitude=float(rng.uniform(0.2, 2.5)),
                            decay=float(rng.uniform(0.1, 0.9)), utility=kind, iterations=T)
        rule = UpdateRuleState.adagrad((C, d)) if adagrad else UpdateRuleState.sgd()
        sched = StepSchedule.inverse_decay(float(rng.uniform(0.05, 0.3)), 0.01)
        mu = float(rng.uniform(0.0, 0.5))
        yield ds, cfg, sched, rule, mu, 0.5 * rng.standard_normal((C, d)), radius


def test_enumeration_values_are_pinned(monkeypatch):
    # recorded when each branch stepped through scalar forms of the gradient
    # and the utility: the trainer's stacked kernels must give the same bits
    projected = []

    def counting_project(h, radius):
        norm = np.sqrt((h * h).reshape(h.shape[:-2] + (-1,)).sum(axis=-1))
        projected.append(int(np.count_nonzero(norm > radius)))
        return project(h, radius)

    monkeypatch.setattr(optim, "project", counting_project)
    digest = hashlib.sha256()
    for ds, cfg, sched, rule, mu, h0, radius in _pinned_enumeration_grid():
        res = enumerate_posterior_divergence(ds, cfg, sched, rule, mu, 5.0, h0, radius)
        assert res.paths == ds.n ** cfg.iterations
        for value in (res.kl, res.advantage_bound, res.sum_bound):
            digest.update(float.hex(value).encode() + b"\n")
    assert sum(projected) > 0  # some branch really is projected
    assert digest.hexdigest() == (
        "1984c380ad6a3039be90b7a9841cfd29a49cf20d1d3264d8bf172e1a598b51cb")
