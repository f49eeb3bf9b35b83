"""SGD with multiplicative adaptive sampling.

Training maintains one nonnegative weight per example in a WeightTree. Each
iteration draws a mini-batch i.i.d. from the current weights, takes one
gradient step on the drawn examples, then reweights each *unique* drawn index
by w_i <- w_i^decay * exp(amplitude * U(z_i, h_t)), with the utility evaluated
at the post-step hypothesis. amplitude = 0 keeps every weight at 1, so the
index stream is exactly uniform sampling on the same rng.

Bookkeeping is done in log space: the trainer maintains a decayed utility
accumulator A_i per example (A_i <- decay * A_i + u on each update of i) and
stores exp(amplitude * A_i) in the tree, so ln w_i = amplitude * A_i exactly
and ln w_i stays in [0, amplitude / (1 - decay)] for utilities in [0, 1].
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import Dataset, Example, batch_objective_grad, predict_proba, predict_proba_batch
from .optim import StepSchedule, UpdateRuleState, apply_update, step_size
from .weight_tree import WeightTree

UTILITY_KINDS = ("zero_one", "l1")

# exp overflow guard: ln w <= amplitude/(1-decay) must stay well inside float range.
MAX_LOG_WEIGHT = 700.0


class DivergenceError(ArithmeticError):
    """Training made the hypothesis, or a utility at it, non-finite."""

    def __init__(self, iteration: int):
        super().__init__(f"diverged at iteration {iteration}")
        self.iteration = iteration


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Sampler hyperparameters: reweighting amplitude >= 0, multiplicative decay
    in (0, 1), utility kind, batch size, iteration count, and whether to record
    the full O(n) conditional KL to uniform every iteration."""

    amplitude: float
    decay: float
    utility: str = "l1"
    batch_size: int = 1
    iterations: int = 1
    track_full_conditional_kl: bool = False

    def __post_init__(self):
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ValueError("amplitude must be finite and nonnegative")
        if not 0 < self.decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        if self.utility not in UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {self.utility!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.amplitude / (1.0 - self.decay) > MAX_LOG_WEIGHT:
            raise ValueError(
                f"amplitude/(1-decay) = {self.amplitude / (1.0 - self.decay):g} "
                f"exceeds {MAX_LOG_WEIGHT:g}; weights would overflow"
            )


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


def utilities(kind: str, h: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized `utility` over rows of X."""
    if kind == "zero_one":
        scores = X @ h.T
        return (scores.argmax(axis=1) != y).astype(np.float64)
    if kind == "l1":
        P = predict_proba_batch(h, X)
        return np.minimum(np.maximum(1.0 - P[np.arange(X.shape[0]), y], 0.0), 1.0)
    raise ValueError(f"unknown utility kind {kind!r}")


def weight_update(w: float, u: float, amplitude: float, decay: float) -> float:
    """The multiplicative reweighting w^decay * exp(amplitude * u)."""
    if w <= 0:
        raise ValueError("weight must be positive")
    return w**decay * math.exp(amplitude * u)


def conditional_kl(tree: WeightTree) -> float:
    """KL(Q || uniform) of the tree's current sampling distribution, i.e.
    sum_i Q(i) * ln(n * Q(i)) over the live leaves (zero-weight leaves drop out)."""
    q = tree.distribution()
    pos = q > 0
    return float((q[pos] * np.log(tree.n * q[pos])).sum())


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


@dataclasses.dataclass
class TrainTrace:
    """Everything recorded along one training run.

    Per-iteration lists (index t-1 holds iteration t): drawn indices with
    repeats, their pre-draw probabilities Q_t(i) and log ratios
    ln(n * Q_t(i)), the drawn indices' decayed-utility accumulators S(i, t)
    and update counts m_{i, t} before the step, the accumulator mean over all
    examples at the start of the iteration, the step size, the batch mean
    objective at h_{t-1}, the unique updated indices with their utilities at
    h_t, and (optionally) the full conditional KL of Q_t to uniform.
    """

    n: int
    batch_size: int
    iterations: int
    amplitude: float
    decay: float
    utility: str
    indices: list = dataclasses.field(default_factory=list)
    probs: list = dataclasses.field(default_factory=list)
    log_ratios: list = dataclasses.field(default_factory=list)
    acc_before: list = dataclasses.field(default_factory=list)
    counts_before: list = dataclasses.field(default_factory=list)
    acc_mean_before: list = dataclasses.field(default_factory=list)
    step_sizes: list = dataclasses.field(default_factory=list)
    batch_objective: list = dataclasses.field(default_factory=list)
    updated: list = dataclasses.field(default_factory=list)
    utilities: list = dataclasses.field(default_factory=list)
    conditional_kl: list | None = None
    metrics: list = dataclasses.field(default_factory=list)
    final_acc: np.ndarray | None = None
    final_counts: np.ndarray | None = None

    def total_log_ratio(self) -> float:
        """Sum over draws of ln(n * Q_t(i_t)): the realized per-path KL statistic."""
        return float(sum(lr.sum() for lr in self.log_ratios))


def _first_appearance_unique(idx: np.ndarray) -> np.ndarray:
    return np.array(list(dict.fromkeys(idx.tolist())), dtype=np.int64)


def train(ds: Dataset, cfg: SamplerConfig, sched: StepSchedule, rule: UpdateRuleState,
          mu: float, M: float, h0: np.ndarray, rng: np.random.Generator,
          domain_radius: float | None = None,
          metric_every: int = 0, metric_fn=None) -> tuple[np.ndarray, TrainTrace]:
    """Run `cfg.iterations` steps of adaptively sampled SGD from h0.

    Each iteration: draw batch_size indices i.i.d. from the weight tree
    (recording each draw's probability from the pre-draw tree state), step the
    hypothesis with the batch-mean objective gradient, then for each unique
    drawn index evaluate the utility at the new hypothesis and reweight it
    once. One `WeightTree.descend_many` call draws the batch and one
    `update_many` call reweights it, in first-appearance order, bitwise as
    calls of one row each would. `rng` is consumed only by the draws:
    exactly depth uniforms per draw, draws in order. If metric_every > 0,
    metric_fn(t, h, kl_stat, cond_kl) is called at t = 1, every
    metric_every-th iteration, and t = T, where kl_stat is amplitude/(1-decay)
    times the utility sum through iteration t-1.

    Raises DivergenceError if a step leaves h, or the utilities at h, non-finite.
    Returns (h_T, trace). The caller owns `rule` (its AdaGrad accumulator is
    mutated) and `h0` is never modified.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if M <= 0:
        raise ValueError("M must be positive")
    if h0.shape != (ds.num_classes, ds.feature_dim):
        raise ValueError("h0 shape must be (num_classes, feature_dim)")
    n = ds.n
    amp, dec = cfg.amplitude, cfg.decay
    tree = WeightTree(np.ones(n))
    acc = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    acc_total = 0.0
    util_sum = 0.0
    h = h0.copy()
    trace = TrainTrace(n, cfg.batch_size, cfg.iterations, amp, dec, cfg.utility)
    if cfg.track_full_conditional_kl:
        trace.conditional_kl = []
    log_n = math.log(n)

    for t in range(1, cfg.iterations + 1):
        # draws, and everything read from the pre-update tree state Q_t
        idx = tree.descend_many(rng.random((cfg.batch_size, tree.depth)))
        root = tree.total
        q = tree.probs(idx)
        acc_idx = acc[idx]
        trace.indices.append(idx)
        trace.probs.append(q)
        trace.log_ratios.append(amp * acc_idx - (math.log(root) - log_n))
        trace.acc_before.append(acc_idx)
        trace.counts_before.append(counts[idx])
        trace.acc_mean_before.append(acc_total / n)
        if trace.conditional_kl is not None:
            trace.conditional_kl.append(conditional_kl(tree))

        # gradient step at h_{t-1}
        gbar, fbar = batch_objective_grad(h, ds.features[idx], ds.labels[idx], mu)
        h = apply_update(h, [gbar], t, sched, rule, domain_radius)
        trace.step_sizes.append(step_size(sched, t))
        trace.batch_objective.append(fbar)

        # one reweighting per unique drawn index, utility taken at h_t
        uniq = _first_appearance_unique(idx)
        u = utilities(cfg.utility, h, ds.features[uniq], ds.labels[uniq])
        batch_util = float(u.sum())
        if not (math.isfinite(batch_util) and np.isfinite(h).all()):
            raise DivergenceError(t)
        prev_util_sum = util_sum
        old = acc[uniq]
        new = dec * old + u
        acc[uniq] = new
        counts[uniq] += 1
        new_list = new.tolist()
        for a, b in zip(new_list, old.tolist()):  # in order, so acc_total rounds as before
            acc_total += a - b
        tree.update_many(uniq, [math.exp(amp * a) for a in new_list])
        util_sum += batch_util
        trace.updated.append(uniq)
        trace.utilities.append(u)

        if metric_every and metric_fn is not None and (
                t == 1 or t % metric_every == 0 or t == cfg.iterations):
            kl_stat = amp / (1.0 - dec) * prev_util_sum
            cond = trace.conditional_kl[-1] if trace.conditional_kl is not None else None
            trace.metrics.append(metric_fn(t, h, kl_stat, cond))

    trace.final_acc = acc
    trace.final_counts = counts
    return h, trace
