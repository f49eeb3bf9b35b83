"""Stability coefficients, generalization-bound evaluators, and KL statistics.

The sgd_stability_* functions evaluate closed-form uniform-stability
coefficients of SGD under the stated regularity regime; the gen_bound_*
functions evaluate high-probability generalization bounds for a sampling
distribution Q over the n training examples, given a divergence of Q from the
uniform prior and stability coefficients (beta for resampling one data point,
gamma for perturbing one index of the draw sequence). Each raises ValueError
naming its formula when its value is not finite, and before that naming the
first input it rejects: a kl, chisq, beta, gamma, risk_h0 or eta outside
[0, inf); an L, M, mu or smoothness outside (0, inf) (the nonconvex
coefficient's eta too); an n, T or test_n that is not an integer >= 1 (the
nonconvex coefficient's n: >= 2); a delta outside (0, 1); and a
heldout_risk outside [0, M], checked after M. kl_from_utility_advantage
scales a recorded batch-1 trace's advantage sum into an upper statistic for
KL(Q || uniform); adaptive's kl_from_utility_sum, the metrics ticks' statistic,
is one only at batch 1 (see its docstring). enumerate_posterior_divergence
computes the exact KL and both statistics on instances small enough to
enumerate every sample path. It steps each node's branches through the
trainer's stacked gradient, update and utility kernels, which the tests' scalar
oracles pin bitwise, and shares no code with the trainer's draws, weights or
statistics.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .adaptive import DivergenceError, SamplerConfig, TrainTrace, _check_start, utilities
from .model import (
    Dataset,
    _check_counts,
    _check_nonnegative,
    _check_objective,
    _check_open_unit,
    _check_positive,
    batch_objective_grads,
)
from .optim import StepSchedule, UpdateRuleState, apply_update


# ---- SGD stability coefficients ----

def sgd_stability_convex(L: float, eta: float, T: int, n: int) -> float:
    """Uniform stability of T-step SGD on a convex L-Lipschitz objective with
    step sizes eta_t <= eta/t: 2 L^2 eta (ln T + 1) / n. eta = 0 is allowed
    (no movement, no instability)."""
    _check_positive(L=L)
    _check_nonnegative(eta=eta)
    _check_counts(T=T, n=n)
    return _finite("stability_convex coefficient", 2.0 * L * L * eta * (math.log(T) + 1.0) / n)


def sgd_stability_nonconvex(L: float, smoothness: float, eta: float, T: int, n: int,
                            M: float) -> float:
    """Uniform stability of SGD on a nonconvex smooth objective with an
    M-bounded loss and eta_t <= eta/t:

        ((M + 1/(smoothness*eta)) / (n-1)) * (2 L^2 eta)^{1/(smoothness*eta+1)}
                                           * T^{smoothness*eta/(smoothness*eta+1)}
    """
    _check_positive(L=L, smoothness=smoothness, eta=eta, M=M)
    _check_counts(T=T)
    _check_counts(at_least=2, n=n)
    be = smoothness * eta
    if be == 0:  # the product underflowed, so 1/(smoothness*eta) is inf
        return _finite("stability_nonconvex coefficient", math.inf)
    lead = (M + 1.0 / be) / (n - 1)
    return _finite("stability_nonconvex coefficient",
                   lead * (2.0 * L * L * eta) ** (1.0 / (be + 1.0)) * T ** (be / (be + 1.0)))


def sgd_stability_initial_risk(L: float, eta: float, T: int, n: int,
                               smoothness: float, risk_h0: float) -> float:
    """Data-dependent pointwise stability for smooth convex objectives, scaling
    with the initial risk: 2 L eta (ln T + 1) sqrt(2 * smoothness * risk_h0) / n."""
    _check_positive(L=L, smoothness=smoothness)
    _check_nonnegative(eta=eta, risk_h0=risk_h0)
    _check_counts(T=T, n=n)
    return _finite("stability_initial_risk coefficient",
                   2.0 * L * eta * (math.log(T) + 1.0) * math.sqrt(2.0 * smoothness * risk_h0) / n)


def sgd_stability_strongly_convex(L: float, mu: float, n: int, T: int) -> tuple[float, float]:
    """(beta, gamma) for SGD on a mu-strongly-convex objective with the schedule
    eta_t = 1/(mu t + smoothness): beta = 2L^2/(mu n), gamma = 2L^2/(mu T)."""
    _check_positive(L=L, mu=mu)
    _check_counts(T=T, n=n)
    name = "stability_strongly_convex coefficient"
    return _finite(name, 2.0 * L * L / (mu * n)), _finite(name, 2.0 * L * L / (mu * T))


# ---- generalization bounds ----

@dataclasses.dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: formula id, the value, and an echo of the inputs.
    A value that is not finite is rejected, naming the formula."""

    formula: str
    value: float
    inputs: dict

    def __post_init__(self):
        _finite(f"{self.formula} bound", self.value)

    def to_json(self) -> dict:
        """Flat JSON object: formula, value, then the inputs."""
        out = {"formula": self.formula, "value": self.value}
        out.update(self.inputs)
        return out


def _finite(what: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"the {what} is {value!r} at these inputs, not a finite number")
    return value


def gen_bound_chisq(chisq: float, M: float, n: int, beta: float, delta: float) -> BoundReport:
    """Generalization gap bound from the chi-square divergence of Q to the prior
    and a beta-uniformly-stable algorithm with M-bounded loss:

        sqrt( ((chisq + 1)/delta) * (2 M^2 / n + 12 M beta) )
    """
    _check_nonnegative(chisq=chisq, beta=beta)
    _check_positive(M=M)
    _check_counts(n=n)
    _check_open_unit(delta=delta)
    value = math.sqrt((chisq + 1.0) / delta * (2.0 * M * M / n + 12.0 * M * beta))
    return BoundReport("chisq", value,
                       {"chisq": chisq, "M": M, "n": n, "beta": beta, "delta": delta})


def _kl_width(kl: float, M: float, n: int, T: int, beta: float, gamma: float,
              delta: float) -> float:
    """(M + 2 n beta)^2 / n + 4 T gamma^2, once the KL bounds' inputs are
    checked. Squared by multiplication, which overflows to inf, where ** would
    raise OverflowError."""
    _check_nonnegative(kl=kl, beta=beta, gamma=gamma)
    _check_positive(M=M)
    _check_counts(n=n, T=T)
    _check_open_unit(delta=delta)
    lead = M + 2.0 * n * beta
    return lead * lead / n + 4.0 * T * gamma * gamma


def _kl_bound(kl: float, M: float, n: int, T: int, beta: float, gamma: float,
              delta: float) -> float:
    width = _kl_width(kl, M, n, T, beta, gamma, delta)
    return beta + math.sqrt(2.0 * (kl + math.log(2.0 / delta)) * width)


def gen_bound_kl(kl: float, M: float, n: int, T: int, beta: float, gamma: float,
                 delta: float) -> BoundReport:
    """Generalization gap bound from KL(Q || uniform) for a (beta, gamma)-stable
    algorithm with M-bounded loss:

        beta + sqrt( 2 (kl + ln(2/delta)) * ((M + 2 n beta)^2 / n + 4 T gamma^2) )
    """
    return BoundReport("kl", _kl_bound(kl, M, n, T, beta, gamma, delta),
                       {"kl": kl, "M": M, "n": n, "T": T, "beta": beta, "gamma": gamma,
                        "delta": delta})


def gen_bound_sgd_strongly_convex(kl: float, M: float, L: float, mu: float, n: int,
                                  T: int, delta: float) -> BoundReport:
    """The KL bound specialized to strongly convex SGD: gen_bound_kl evaluated
    exactly at the (beta, gamma) pair of sgd_stability_strongly_convex."""
    beta, gamma = sgd_stability_strongly_convex(L, mu, n, T)
    return BoundReport("sgd_strongly_convex", _kl_bound(kl, M, n, T, beta, gamma, delta),
                       {"kl": kl, "M": M, "L": L, "mu": mu, "n": n, "T": T, "delta": delta,
                        "beta": beta, "gamma": gamma})


def gen_bound_derandomized(kl: float, M: float, n: int, T: int, beta: float, gamma: float,
                           delta: float) -> BoundReport:
    """Bound for a single sampled index sequence rather than the average over Q:

        beta + gamma sqrt(2 T ln(2/delta))
             + sqrt( 2 (kl + ln(4/delta)) * ((M + 2 n beta)^2 / n + 4 T gamma^2) )
    """
    width = _kl_width(kl, M, n, T, beta, gamma, delta)
    value = (beta + gamma * math.sqrt(2.0 * T * math.log(2.0 / delta))
             + math.sqrt(2.0 * (kl + math.log(4.0 / delta)) * width))
    return BoundReport("derandomized", value,
                       {"kl": kl, "M": M, "n": n, "T": T, "beta": beta, "gamma": gamma,
                        "delta": delta})


def heldout_risk_bound(heldout_risk: float, M: float, test_n: int, delta: float) -> BoundReport:
    """Hoeffding bound on the risk of one fixed hypothesis from its mean loss
    over test_n examples it never trained on, each loss in [0, M]
    (Langford, 2005), with probability at least 1 - delta; it needs no KL:

        heldout_risk + M sqrt( ln(1/delta) / (2 test_n) )
    """
    _check_positive(M=M)
    if not 0 <= heldout_risk <= M:
        raise ValueError("heldout_risk must lie in [0, M]")
    _check_counts(test_n=test_n)
    _check_open_unit(delta=delta)
    value = heldout_risk + M * math.sqrt(math.log(1.0 / delta) / (2.0 * test_n))
    return BoundReport("test_set_hoeffding", value,
                       {"heldout_risk": heldout_risk, "M": M, "test_n": test_n, "delta": delta})


# ---- KL statistics of recorded traces ----

def kl_from_utility_advantage(trace: TrainTrace) -> float:
    """Per-path KL statistic from the drawn index's decayed-utility advantage:

        amplitude * sum_{t=2..T} ( S(i_t, t) - mean_i S(i, t) )

    where S(i, t) is the decayed utility accumulator of i entering iteration t
    (every accumulator is 0 at t = 1): amplitude times the trace's
    advantage_sum. Its expectation over sample paths upper-bounds
    KL(Q || uniform). Requires a recorded single-draw trace.
    """
    total = trace.recorded("advantage_sum")
    if trace.batch_size != 1:
        raise ValueError("utility-advantage statistic requires batch_size = 1")
    return trace.amplitude * total


# ---- exact enumeration oracle ----

@dataclasses.dataclass(frozen=True)
class EnumeratedDivergence:
    """Exact KL(Q || P) and the exact expectations of both trace statistics,
    computed by enumerating all n^T sample paths."""

    kl: float
    advantage_bound: float
    sum_bound: float
    paths: int


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step raises DivergenceError
def enumerate_posterior_divergence(ds: Dataset, cfg: SamplerConfig, sched: StepSchedule,
                                   rule: UpdateRuleState, mu: float, M: float,
                                   h0: np.ndarray,
                                   domain_radius: float | None = None) -> EnumeratedDivergence:
    """Replay every sample path of the adaptive trainer and accumulate exact
    path-weighted totals. Probabilities are recomputed by naive normalization of
    exp(amplitude * A), independently of the weight tree. Each node of the walk
    steps its n branches together, one per example: one stacked
    `batch_objective_grads` and `apply_update` step of n copies of its
    hypothesis (and of an AdaGrad accumulator of h0's shape, which is not
    mutated), then one `utilities` call on n one-row batches. Every branch is
    bitwise that branch stepped alone. Only instances with n <= 4, T <= 5,
    batch_size = 1 are accepted (at most 1024 paths). Like `train`, it raises
    ValueError before any step on an objective or start state `train`
    rejects, and DivergenceError(t) at the first node, in walk order,
    whose stepped hypotheses or utilities are not finite, t being its
    iteration; numpy's overflow and invalid-value warnings are off inside."""
    n, T = ds.n, cfg.iterations
    if n > 4 or T > 5 or cfg.batch_size != 1:
        raise ValueError("enumeration needs n <= 4, T <= 5, batch_size = 1")
    _check_objective(mu, M, domain_radius)
    _check_start(ds, 1, h0[None], rule if rule.kind == "sgd"
                 else UpdateRuleState("adagrad", rule.accumulator[None]))
    amp, dec = cfg.amplitude, cfg.decay
    X, Y = ds.features[:, None, :], ds.labels[:, None]  # branch i draws example i
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
        H = np.repeat(h[None], n, axis=0)
        if state.kind == "adagrad":
            state = UpdateRuleState("adagrad", np.repeat(state.accumulator[None], n, axis=0))
        H = apply_update(H, batch_objective_grads(H, X, Y, mu), t, sched, state, domain_radius)
        us = utilities(cfg.utility, H, X, Y)[:, 0].tolist()
        if not (np.isfinite(H).all() and all(map(math.isfinite, us))):
            raise DivergenceError(t)
        for i, u in enumerate(us):
            branch_state = state if state.kind == "sgd" else UpdateRuleState(
                "adagrad", state.accumulator[i])
            acc2 = acc.copy()
            acc2[i] = dec * acc[i] + u
            walk(t + 1, H[i], acc2, branch_state,
                 path_prob * q[i],
                 kl_acc + math.log(n * q[i]),
                 adv_acc + (amp * (acc[i] - mean_acc) if t >= 2 else 0.0),
                 util_acc + (u if t < T else 0.0))

    walk(1, h0, np.zeros(n), rule, 1.0, 0.0, 0.0, 0.0)
    return EnumeratedDivergence(float(totals["kl"]), float(totals["adv"]),
                                float(totals["sum"]), n**T)
