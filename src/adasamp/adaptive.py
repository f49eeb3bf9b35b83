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
import itertools
import math

import numpy as np

from .model import Dataset, Example, batch_objective_grads, predict_proba, softmax
from .optim import StepSchedule, UpdateRuleState, apply_update
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
    in (0, 1), utility kind, batch size, iteration count, and whether to compute
    the full O(n) conditional KL to uniform at each metric tick."""

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
    """Vectorized `utility` over rows of X. With a leading run axis, run r's
    rows X[r] (labels y[r]) are scored at its own hypothesis h[r]."""
    if kind not in UTILITY_KINDS:
        raise ValueError(f"unknown utility kind {kind!r}")
    scores = X @ h.swapaxes(-1, -2)
    if kind == "zero_one":
        return (scores.argmax(axis=-1) != y).astype(np.float64)
    P = softmax(scores).reshape(-1, scores.shape[-1])
    py = P[np.arange(len(P)), y.reshape(-1)].reshape(y.shape)
    return np.minimum(np.maximum(1.0 - py, 0.0), 1.0)


def weight_update(w: float, u: float, amplitude: float, decay: float) -> float:
    """The multiplicative reweighting w^decay * exp(amplitude * u)."""
    if w <= 0:
        raise ValueError("weight must be positive")
    return w**decay * math.exp(amplitude * u)


def conditional_kl(tree: WeightTree, run: int = 0) -> float:
    """KL(Q || uniform) of one run's current sampling distribution, i.e.
    sum_i Q(i) * ln(n * Q(i)) over the live leaves (zero-weight leaves drop out).
    The trainer's weights are at least 1, so the filtering copy is made only
    when some leaf is not positive; the sum runs over the same leaves either way."""
    q = tree.distribution(run)
    if not q.min() > 0:
        q = q[q > 0]
    return float((q * np.log(tree.n * q)).sum())


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
    """What one training run leaves behind.

    Every run keeps its batch size, amplitude and decay (what the KL
    statistics in `bounds` read), utility_sum, the sum of its unique updated
    indices' utilities at h_t over iterations 1..T-1, its metric_fn results
    and its final accumulators. A run trained with record=False keeps no
    more: its other fields stay None. A recorded run also keeps the drawn
    indices with repeats, one array per iteration (index t-1 holds iteration
    t), and two running sums over every draw of every iteration:
    log_ratio_sum, of ln(n * Q_t(i)) under the pre-draw tree state, and
    advantage_sum, of the drawn index's decayed-utility accumulator S(i, t)
    before the step minus the accumulator mean over all examples at the start
    of the iteration.
    """

    batch_size: int
    amplitude: float
    decay: float
    indices: list | None = None
    log_ratio_sum: float | None = None
    advantage_sum: float | None = None
    utility_sum: float = 0.0
    metrics: list = dataclasses.field(default_factory=list)
    final_acc: np.ndarray | None = None

    def recorded(self, name: str):
        """The field `name` of a recorded run; ValueError if the run did not record it."""
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"trace has no {name} (trained with record=False)")
        return value

    def total_log_ratio(self) -> float:
        """Sum over draws of ln(n * Q_t(i_t)): the realized per-path KL statistic."""
        return self.recorded("log_ratio_sum")


def _shared_settings(cfg: SamplerConfig) -> tuple:
    return (cfg.decay, cfg.utility, cfg.batch_size, cfg.iterations,
            cfg.track_full_conditional_kl)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step raises DivergenceError
def train_many(ds: Dataset, cfgs, sched: StepSchedule, rule: UpdateRuleState, mu: float,
               M: float, h0s, rngs, domain_radius: float | None = None,
               metric_every: int = 0, metric_fn=None, record: bool = True) -> list:
    """Run R adaptively sampled SGD runs in lockstep, one per entry of `cfgs`,
    `h0s` and `rngs`; returns [(h_T, trace)] in run order.

    Every iteration steps all runs with a fixed number of numpy calls: one
    `WeightTree.descend_many` call draws every run's batch, one stacked
    gradient and `apply_update` step moves every hypothesis, one `utilities`
    call scores every draw at its run's new hypothesis, and one tree write
    reweights each run's unique drawn indices. The runs share the data, the
    schedule, mu, M, the radius and the update rule, and their configs may
    differ only in the amplitude. An AdaGrad `rule` holds one accumulator per
    run, shape (R, num_classes, feature_dim), stepped in place. Each run has
    its own h0 and rng, which only its draws read: exactly depth uniforms per
    draw, draws in order. Every number run r produces is bitwise that of
    `train` on run r alone, down to the per-value `math.exp` weights, the
    in-order accumulator total and each running sum of its trace.
    If metric_every > 0, metric_fn(r, t, h, kl_stat, cond_kl) is called for
    run r at t = 1, every metric_every-th iteration, and t = T (see `train`);
    a tracked conditional KL is computed at these ticks alone, and cond_kl is
    None when it is not tracked. With record=False the traces keep only
    utility_sum, the metrics and final_acc (see `TrainTrace`), and nothing
    only the other fields read is computed.

    Raises DivergenceError(t) at the first iteration t after whose step any
    run's hypothesis, or the sum of its utilities, is non-finite: the earliest
    iteration at which R separate `train` calls would raise. Every run has
    then been stepped through t, and metric_fn has seen no iteration from t on.
    numpy's overflow and invalid-value warnings are off inside the call.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if M <= 0:
        raise ValueError("M must be positive")
    R = len(cfgs)
    if R == 0 or len(rngs) != R:
        raise ValueError("need one sampler config and rng per run, and at least one run")
    H = np.array(h0s, dtype=np.float64)
    if H.shape != (R, ds.num_classes, ds.feature_dim):
        raise ValueError("h0 shape must be (num_classes, feature_dim)")
    cfg, shared = cfgs[0], _shared_settings(cfgs[0])
    if any(_shared_settings(c) != shared for c in cfgs[1:]):
        raise ValueError("runs may differ only in the sampler amplitude")
    if rule.kind == "adagrad" and rule.accumulator.shape != H.shape:
        raise ValueError("adagrad accumulator shape must be (runs, num_classes, feature_dim)")

    n, b, T = ds.n, cfg.batch_size, cfg.iterations
    X, Y = ds.features, ds.labels
    amp_list = [c.amplitude for c in cfgs]
    amps, dec = np.array(amp_list), cfg.decay
    tree = WeightTree(np.ones((R, n)))
    uniforms = np.empty((R, b, tree.depth))  # refilled by each run's rng every iteration
    acc = np.zeros((R, n))
    acc_flat = acc.reshape(-1)
    # run r's examples start at offsets[r] in the flat accumulators
    run_ids = np.arange(R) if R > 1 else None
    offsets = run_ids[:, None] * n if R > 1 else None
    acc_totals = [0.0] * R
    traces = [TrainTrace(b, a, dec) for a in amp_list]
    if record:
        for trace in traces:
            trace.indices, trace.log_ratio_sum, trace.advantage_sum = [], 0.0, 0.0
    track_kl = cfg.track_full_conditional_kl
    log_n = math.log(n)

    for t in range(1, T + 1):
        tick = metric_every and metric_fn is not None and (
            t == 1 or t % metric_every == 0 or t == T)
        # draws, and everything read from the pre-update tree state Q_t
        for rng, row in zip(rngs, uniforms):
            rng.random(out=row)
        idx = tree.descend_many(uniforms)
        drawn = idx + offsets if R > 1 else idx  # run 0's offset is 0
        if record:
            acc_idx = acc_flat[drawn]
            shift = np.fromiter(map(math.log, tree.totals.tolist()), float, R) - log_n
            # each row sum is bitwise the 1-d sum of that run's batch
            log_ratios = (amps[:, None] * acc_idx - shift[:, None]).sum(axis=1).tolist()
            means = np.array(acc_totals) / n
            advantages = (acc_idx - means[:, None]).sum(axis=1).tolist()
            for r, trace in enumerate(traces):
                trace.indices.append(idx[r])
                trace.log_ratio_sum += log_ratios[r]
                trace.advantage_sum += advantages[r]

        # gradient step at h_{t-1}
        Xb, Yb = X[idx], Y[idx]
        G = batch_objective_grads(H, Xb, Yb, mu)
        H = apply_update(H, G, t, sched, rule, domain_radius)

        # every draw's utility at h_t in one stacked call, then one reweighting
        # per unique drawn index: uniq holds each run's unique indices in
        # first-appearance order, run after run, `at` the same entries of the
        # flat accumulators, and run r's entries end at ends[r]
        U = utilities(cfg.utility, H, Xb, Yb)
        u, uniq, at = U.reshape(-1), idx.reshape(-1), drawn.reshape(-1)
        if b == 1:  # a speed path only: the general branch gives the same bits, slower
            ends, entry_amps, owner = range(1, R + 1), amps, run_ids
            batch_utils = u.tolist()
        else:
            order = at.argsort(kind="stable")
            ranked = at[order]
            first = np.empty(at.size, dtype=bool)
            first[0] = True
            np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
            keep = np.empty_like(first)
            keep[order] = first
            u, uniq, at = u[keep], uniq[keep], at[keep]
            counts_of = keep.reshape(R, b).sum(axis=1)
            ends = list(itertools.accumulate(counts_of.tolist()))
            batch_utils = [float(u[s:e].sum()) for s, e in zip([0, *ends], ends)]
            entry_amps = np.repeat(amps, counts_of)
            owner = np.repeat(run_ids, counts_of) if R > 1 else None
        if not (np.isfinite(H).all() and all(map(math.isfinite, batch_utils))):
            raise DivergenceError(t)
        if tick:
            for r, trace in enumerate(traces):
                kl_stat = amp_list[r] / (1.0 - dec) * trace.utility_sum
                # Q_t: the tree is first written below, after the tick
                cond = conditional_kl(tree, r) if track_kl else None
                trace.metrics.append(metric_fn(r, t, H[r], kl_stat, cond))
        if t < T:  # the utility sum covers iterations 1..T-1
            for trace, s in zip(traces, batch_utils):
                trace.utility_sum += s
        old = acc_flat[at]
        new = dec * old + u
        acc_flat[at] = new
        # valid by construction: distinct drawn indices, weights exp(amplitude * A) >= 1
        tree._write(uniq, np.fromiter(map(math.exp, (entry_amps * new).tolist()), float,
                                      len(at)), owner)
        if record:
            deltas = (new - old).tolist()
            for r, (start, end) in enumerate(zip([0, *ends], ends)):
                for d in deltas[start:end]:  # in order, as in a run of its own
                    acc_totals[r] += d

    for r, trace in enumerate(traces):
        trace.final_acc = acc[r]
    return [(H[r], trace) for r, trace in enumerate(traces)]


def train(ds: Dataset, cfg: SamplerConfig, sched: StepSchedule, rule: UpdateRuleState,
          mu: float, M: float, h0: np.ndarray, rng: np.random.Generator,
          domain_radius: float | None = None,
          metric_every: int = 0, metric_fn=None) -> tuple[np.ndarray, TrainTrace]:
    """Run `cfg.iterations` steps of adaptively sampled SGD from h0: the
    one-run case of `train_many`.

    Each iteration: draw batch_size indices i.i.d. from the weight tree, step
    the hypothesis with the batch-mean objective gradient, then for each
    unique drawn index evaluate the utility at the new hypothesis and
    reweight it once. One `WeightTree.descend_many` call draws the batch and
    one unchecked `WeightTree._write` call reweights it, in first-appearance
    order, bitwise as writes of one row each would. `rng` is consumed only by
    the draws: exactly depth uniforms per draw, draws in order. The trace is
    recorded (see `TrainTrace`). If metric_every > 0, metric_fn(t, h,
    kl_stat, cond_kl) is called at t = 1, every metric_every-th iteration,
    and t = T, where kl_stat is amplitude/(1-decay) times the utility sum
    through iteration t-1.

    Raises DivergenceError if a step leaves h, or the utilities at h, non-finite.
    Returns (h_T, trace). The caller owns `rule` (its AdaGrad accumulator, of
    h0's shape, is mutated) and `h0` is never modified.
    """
    if rule.kind == "adagrad":
        rule = UpdateRuleState("adagrad", rule.accumulator[None])  # a view: steps in place
    tick = None if metric_fn is None else lambda r, t, h, kl, cond: metric_fn(t, h, kl, cond)
    return train_many(ds, [cfg], sched, rule, mu, M, [h0], [rng], domain_radius,
                      metric_every, tick)[0]
