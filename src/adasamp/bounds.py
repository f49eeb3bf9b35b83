"""Stability coefficients, divergences, and generalization-bound evaluators.

The sgd_stability_* functions evaluate closed-form uniform-stability
coefficients of SGD under the stated regularity regime; the gen_bound_*
functions evaluate high-probability generalization bounds for a sampling
distribution Q over the n training examples, given a divergence of Q from the
uniform prior and stability coefficients (beta for resampling one data point,
gamma for perturbing one index of the draw sequence). kl_from_utility_advantage
and kl_from_utility_sum turn a recorded training trace into upper statistics
for KL(Q || uniform), and enumerate_posterior_divergence computes the exact KL
and both statistics on instances small enough to enumerate every sample path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .adaptive import SamplerConfig, TrainTrace, utility
from .model import Dataset, objective_grad
from .optim import StepSchedule, UpdateRuleState, apply_update


# ---- SGD stability coefficients ----

def sgd_stability_convex(L: float, eta: float, T: int, n: int) -> float:
    """Uniform stability of T-step SGD on a convex L-Lipschitz objective with
    step sizes eta_t <= eta/t: 2 L^2 eta (ln T + 1) / n. eta = 0 is allowed
    (no movement, no instability)."""
    _check_positive(L=L)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    _check_counts(T=T, n=n)
    return 2.0 * L * L * eta * (math.log(T) + 1.0) / n


def sgd_stability_nonconvex(L: float, smoothness: float, eta: float, T: int, n: int,
                            M: float) -> float:
    """Uniform stability of SGD on a nonconvex smooth objective with an
    M-bounded loss and eta_t <= eta/t:

        ((M + 1/(smoothness*eta)) / (n-1)) * (2 L^2 eta)^{1/(smoothness*eta+1)}
                                           * T^{smoothness*eta/(smoothness*eta+1)}
    """
    _check_positive(L=L, smoothness=smoothness, eta=eta, M=M)
    _check_counts(T=T)
    if n < 2:
        raise ValueError("n must be >= 2")
    be = smoothness * eta
    lead = (M + 1.0 / be) / (n - 1)
    return lead * (2.0 * L * L * eta) ** (1.0 / (be + 1.0)) * T ** (be / (be + 1.0))


def sgd_stability_initial_risk(L: float, eta: float, T: int, n: int,
                               smoothness: float, risk_h0: float) -> float:
    """Data-dependent pointwise stability for smooth convex objectives, scaling
    with the initial risk: 2 L eta (ln T + 1) sqrt(2 * smoothness * risk_h0) / n."""
    _check_positive(L=L, smoothness=smoothness)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    _check_counts(T=T, n=n)
    if risk_h0 < 0:
        raise ValueError("risk_h0 must be nonnegative")
    return 2.0 * L * eta * (math.log(T) + 1.0) * math.sqrt(2.0 * smoothness * risk_h0) / n


def sgd_stability_strongly_convex(L: float, mu: float, n: int, T: int) -> tuple[float, float]:
    """(beta, gamma) for SGD on a mu-strongly-convex objective with the schedule
    eta_t = 1/(mu t + smoothness): beta = 2L^2/(mu n), gamma = 2L^2/(mu T)."""
    _check_positive(L=L, mu=mu)
    _check_counts(T=T, n=n)
    return 2.0 * L * L / (mu * n), 2.0 * L * L / (mu * T)


# ---- divergences ----

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


# ---- generalization bounds ----

@dataclasses.dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: formula id, the value, and an echo of the inputs."""

    formula: str
    value: float
    inputs: dict

    def to_json(self) -> dict:
        """Flat JSON object: formula, value, then the inputs."""
        out = {"formula": self.formula, "value": self.value}
        out.update(self.inputs)
        return out


def _check_positive(**named):
    for name, v in named.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite")


def _check_counts(**named):
    for name, v in named.items():
        if v < 1:
            raise ValueError(f"{name} must be >= 1")


def _check_delta(delta):
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


def gen_bound_chisq(chisq: float, M: float, n: int, beta: float, delta: float) -> BoundReport:
    """Generalization gap bound from the chi-square divergence of Q to the prior
    and a beta-uniformly-stable algorithm with M-bounded loss:

        sqrt( ((chisq + 1)/delta) * (2 M^2 / n + 12 M beta) )
    """
    if chisq < 0 or beta < 0:
        raise ValueError("chisq and beta must be nonnegative")
    _check_positive(M=M)
    _check_counts(n=n)
    _check_delta(delta)
    value = math.sqrt((chisq + 1.0) / delta * (2.0 * M * M / n + 12.0 * M * beta))
    return BoundReport("chisq", value,
                       {"chisq": chisq, "M": M, "n": n, "beta": beta, "delta": delta})


def gen_bound_kl(kl: float, M: float, n: int, T: int, beta: float, gamma: float,
                 delta: float) -> BoundReport:
    """Generalization gap bound from KL(Q || uniform) for a (beta, gamma)-stable
    algorithm with M-bounded loss:

        beta + sqrt( 2 (kl + ln(2/delta)) * ((M + 2 n beta)^2 / n + 4 T gamma^2) )
    """
    if kl < 0 or beta < 0 or gamma < 0:
        raise ValueError("kl, beta, gamma must be nonnegative")
    _check_positive(M=M)
    _check_counts(n=n, T=T)
    _check_delta(delta)
    width = (M + 2.0 * n * beta) ** 2 / n + 4.0 * T * gamma * gamma
    value = beta + math.sqrt(2.0 * (kl + math.log(2.0 / delta)) * width)
    return BoundReport("kl", value,
                       {"kl": kl, "M": M, "n": n, "T": T, "beta": beta, "gamma": gamma,
                        "delta": delta})


def gen_bound_sgd_strongly_convex(kl: float, M: float, L: float, mu: float, n: int,
                                  T: int, delta: float) -> BoundReport:
    """The KL bound specialized to strongly convex SGD: gen_bound_kl evaluated
    exactly at the (beta, gamma) pair of sgd_stability_strongly_convex."""
    beta, gamma = sgd_stability_strongly_convex(L, mu, n, T)
    inner = gen_bound_kl(kl, M, n, T, beta, gamma, delta)
    return BoundReport("sgd_strongly_convex", inner.value,
                       {"kl": kl, "M": M, "L": L, "mu": mu, "n": n, "T": T, "delta": delta,
                        "beta": beta, "gamma": gamma})


def gen_bound_derandomized(kl: float, M: float, n: int, T: int, beta: float, gamma: float,
                           delta: float) -> BoundReport:
    """Bound for a single sampled index sequence rather than the average over Q:

        beta + gamma sqrt(2 T ln(2/delta))
             + sqrt( 2 (kl + ln(4/delta)) * ((M + 2 n beta)^2 / n + 4 T gamma^2) )
    """
    if kl < 0 or beta < 0 or gamma < 0:
        raise ValueError("kl, beta, gamma must be nonnegative")
    _check_positive(M=M)
    _check_counts(n=n, T=T)
    _check_delta(delta)
    width = (M + 2.0 * n * beta) ** 2 / n + 4.0 * T * gamma * gamma
    value = (beta + gamma * math.sqrt(2.0 * T * math.log(2.0 / delta))
             + math.sqrt(2.0 * (kl + math.log(4.0 / delta)) * width))
    return BoundReport("derandomized", value,
                       {"kl": kl, "M": M, "n": n, "T": T, "beta": beta, "gamma": gamma,
                        "delta": delta})


# ---- KL statistics of recorded traces ----

def kl_from_utility_advantage(trace: TrainTrace) -> float:
    """Per-path KL statistic from the drawn index's decayed-utility advantage:

        amplitude * sum_{t=2..T} ( S(i_t, t) - mean_i S(i, t) )

    where S(i, t) is the decayed utility accumulator of i entering iteration t.
    Its expectation over sample paths upper-bounds KL(Q || uniform). Requires a
    recorded single-draw trace.
    """
    before, means = trace.recorded("acc_before"), trace.recorded("acc_mean_before")
    if trace.batch_size != 1:
        raise ValueError("utility-advantage statistic requires batch_size = 1")
    total = 0.0
    for t in range(2, trace.iterations + 1):
        total += float(before[t - 1][0]) - means[t - 1]
    return trace.amplitude * total


def kl_from_utility_sum(trace: TrainTrace) -> float:
    """Per-path KL statistic amplitude/(1-decay) * sum of recorded utilities over
    iterations 1..T-1 (each unique updated index contributes once per iteration)
    of a recorded trace. Looser than the advantage statistic but O(T) and
    batch-friendly."""
    utilities = trace.recorded("utilities")
    total = 0.0
    for t in range(1, trace.iterations):
        u = utilities[t - 1]
        if (u < 0).any():
            raise ValueError("negative utility in trace")
        total += float(u.sum())
    return trace.amplitude / (1.0 - trace.decay) * total


# ---- exact enumeration oracle ----

@dataclasses.dataclass(frozen=True)
class EnumeratedDivergence:
    """Exact KL(Q || P) and the exact expectations of both trace statistics,
    computed by enumerating all n^T sample paths."""

    kl: float
    advantage_bound: float
    sum_bound: float
    paths: int


def enumerate_posterior_divergence(ds: Dataset, cfg: SamplerConfig, sched: StepSchedule,
                                   rule: UpdateRuleState, mu: float, M: float,
                                   h0: np.ndarray,
                                   domain_radius: float | None = None) -> EnumeratedDivergence:
    """Replay every sample path of the adaptive trainer and accumulate exact
    path-weighted totals. Probabilities are recomputed by naive normalization of
    exp(amplitude * A), independently of the weight tree. Only instances with
    n <= 4, T <= 5, batch_size = 1 are accepted (at most 1024 paths)."""
    n, T = ds.n, cfg.iterations
    if n > 4 or T > 5 or cfg.batch_size != 1:
        raise ValueError("enumeration needs n <= 4, T <= 5, batch_size = 1")
    if M <= 0:
        raise ValueError("M must be positive")
    amp, dec = cfg.amplitude, cfg.decay
    totals = {"kl": 0.0, "adv": 0.0, "sum": 0.0}

    def walk(t, h, acc, state, path_prob, kl_acc, adv_acc, util_acc):
        if t > T:
            totals["kl"] += path_prob * kl_acc
            totals["adv"] += path_prob * adv_acc
            totals["sum"] += path_prob * amp / (1.0 - dec) * util_acc
            return
        w = np.exp(amp * acc)
        q = w / w.sum()
        mean_acc = acc.mean()
        for i in range(n):
            z = ds.example(i)
            g = objective_grad(h, z, mu)
            branch_state = state.copy()
            h2 = apply_update(h, g, t, sched, branch_state, domain_radius)
            u = utility(cfg.utility, z, h2)
            acc2 = acc.copy()
            acc2[i] = dec * acc[i] + u
            walk(t + 1, h2, acc2, branch_state,
                 path_prob * q[i],
                 kl_acc + math.log(n * q[i]),
                 adv_acc + (amp * (acc[i] - mean_acc) if t >= 2 else 0.0),
                 util_acc + (u if t < T else 0.0))

    walk(1, h0.copy(), np.zeros(n), rule, 1.0, 0.0, 0.0, 0.0)
    return EnumeratedDivergence(float(totals["kl"]), float(totals["adv"]),
                                float(totals["sum"]), n**T)
