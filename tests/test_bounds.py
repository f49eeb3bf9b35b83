"""Stability coefficients, divergences, generalization bounds, and the exact
path-enumeration oracle for the sampler's KL statistics.

Expected decimals were frozen from independent high-precision evaluation of
the closed forms (mpmath, 30 digits), not from the implementation under test.
"""

import math

import mpmath
import numpy as np
import pytest

from adasamp import (
    Dataset,
    SamplerConfig,
    StepSchedule,
    UpdateRuleState,
    chisq_divergence,
    enumerate_posterior_divergence,
    gen_bound_chisq,
    gen_bound_derandomized,
    gen_bound_kl,
    gen_bound_sgd_strongly_convex,
    kl_divergence,
    kl_from_utility_advantage,
    kl_from_utility_sum,
    sgd_stability_convex,
    sgd_stability_initial_risk,
    sgd_stability_nonconvex,
    sgd_stability_strongly_convex,
    train,
    train_many,
    zeros_hypothesis,
)
from adasamp.adaptive import TrainTrace


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

def _constant_utility_dataset(n=2):
    return Dataset.from_arrays(np.zeros((n, 1)), np.ones(n, dtype=int), 2)


def _train_rigged(T, amplitude, decay, seed=0, n=2):
    ds = _constant_utility_dataset(n)
    cfg = SamplerConfig(amplitude=amplitude, decay=decay, utility="zero_one",
                        iterations=T)
    return train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                 0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(seed))


def test_utility_sum_statistic_hand_example():
    # constant utility 1, T = 11: (0.1 / 0.5) * 10 = 2.0
    _, trace = _train_rigged(T=11, amplitude=0.1, decay=0.5)
    assert kl_from_utility_sum(trace) == pytest.approx(2.0, abs=1e-12)


def test_statistics_vanish_at_zero_amplitude():
    ds = _constant_utility_dataset()
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
    ds = _constant_utility_dataset(4)
    cfg = SamplerConfig(amplitude=0.5, decay=0.5, utility="zero_one",
                        batch_size=2, iterations=3)
    _, trace = train(ds, cfg, StepSchedule.constant(0.1), UpdateRuleState.sgd(),
                     0.0, 5.0, zeros_hypothesis(2, 1), np.random.default_rng(4))
    with pytest.raises(ValueError):
        kl_from_utility_advantage(trace)
    assert kl_from_utility_sum(trace) > 0.0  # the batch form still applies


@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("statistic", [TrainTrace.total_log_ratio, kl_from_utility_sum,
                                       kl_from_utility_advantage])
def test_statistics_of_an_unrecorded_trace_fail_loudly(statistic, T):
    # record=False keeps no per-iteration lists: no statistic may read 0.0 or
    # fail with a bare IndexError from them
    cfg = SamplerConfig(amplitude=0.5, decay=0.5, utility="zero_one", iterations=T)
    [(_, trace)] = train_many(_constant_utility_dataset(), [cfg], StepSchedule.constant(0.1),
                              [UpdateRuleState.sgd()], 0.0, 5.0, [zeros_hypothesis(2, 1)],
                              [np.random.default_rng(0)], record=False)
    with pytest.raises(ValueError, match="no per-iteration .* record"):
        statistic(trace)


def test_negative_utility_rejected_by_sum_statistic():
    trace = TrainTrace(n=2, batch_size=1, iterations=2, amplitude=1.0, decay=0.5,
                       utility="l1")
    trace.utilities = [np.array([-0.1]), np.array([0.5])]
    with pytest.raises(ValueError):
        kl_from_utility_sum(trace)


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
    ds = _constant_utility_dataset(2)
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
    ds = _constant_utility_dataset(3)
    cfg = SamplerConfig(amplitude=0.0, decay=0.5, utility="zero_one", iterations=4)
    res = enumerate_posterior_divergence(ds, cfg, StepSchedule.constant(0.1),
                                         UpdateRuleState.sgd(), 0.0, 5.0,
                                         zeros_hypothesis(2, 1))
    assert abs(res.kl) <= 1e-12
    assert abs(res.advantage_bound) <= 1e-12


def _random_tiny_instance(seed):
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


@pytest.mark.parametrize("seed", range(10))
def test_enumeration_ordering_on_random_instances(seed):
    ds, cfg, sched, rule, mu = _random_tiny_instance(seed)
    res = enumerate_posterior_divergence(ds, cfg, sched, rule, mu, 5.0,
                                         zeros_hypothesis(2, ds.feature_dim))
    assert res.kl >= -1e-12
    assert res.kl <= res.advantage_bound + 1e-9
    assert res.advantage_bound <= res.sum_bound + 1e-9
    assert res.kl <= res.sum_bound + 1e-9


def test_enumeration_rejects_large_instances():
    ds = _constant_utility_dataset(3)
    cfg = SamplerConfig(amplitude=1.0, decay=0.5, utility="zero_one", iterations=6)
    with pytest.raises(ValueError):
        enumerate_posterior_divergence(ds, cfg, StepSchedule.constant(0.1),
                                       UpdateRuleState.sgd(), 0.0, 5.0,
                                       zeros_hypothesis(2, 1))


def test_monte_carlo_agrees_with_enumeration():
    ds, cfg, sched, _, mu = _random_tiny_instance(3)
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
