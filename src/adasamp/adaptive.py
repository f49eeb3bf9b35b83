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
    sum_i Q(i) * ln(n * Q(i)) over the live leaves (zero-weight leaves drop out)."""
    q = tree.distribution(run)
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


# the per-iteration fields of a TrainTrace, filled only by a recorded run
_RECORDED = ("indices", "log_ratios", "acc_before", "acc_mean_before", "updated", "utilities")


@dataclasses.dataclass
class TrainTrace:
    """What one training run leaves behind.

    Per-iteration lists (index t-1 holds iteration t), None for a run trained
    with record=False: drawn indices with repeats, their log ratios
    ln(n * Q_t(i)) under the pre-draw tree state, the drawn indices'
    decayed-utility accumulators S(i, t) before the step, the accumulator mean
    over all examples at the start of the iteration, and the unique updated
    indices with their utilities at h_t. Every run keeps its metric_fn results
    and its final accumulators.
    """

    n: int
    batch_size: int
    iterations: int
    amplitude: float
    decay: float
    utility: str
    indices: list | None = None
    log_ratios: list | None = None
    acc_before: list | None = None
    acc_mean_before: list | None = None
    updated: list | None = None
    utilities: list | None = None
    metrics: list = dataclasses.field(default_factory=list)
    final_acc: np.ndarray | None = None

    def recorded(self, name: str) -> list:
        """The per-iteration list `name`; ValueError if the run did not record it."""
        values = getattr(self, name)
        if values is None:
            raise ValueError(f"trace has no per-iteration {name} record (record=False)")
        return values

    def total_log_ratio(self) -> float:
        """Sum over draws of ln(n * Q_t(i_t)): the realized per-path KL statistic."""
        return float(sum(lr.sum() for lr in self.recorded("log_ratios")))


# Uniforms drawn ahead per call, summed over runs: each run's rng fills a block
# of whole iterations at once, which is the same stream as one draw per iteration.
_UNIFORMS_AHEAD = 1 << 16


def _ragged_utilities(kind, H, X, y, uniq, sizes):
    """Utilities of run r's sizes[r] indices at H[r], for uniq holding every
    run's indices one run after another (sizes None: uniq is a (runs, k)
    array, k indices each); returns them flat and each run's sum.

    Runs holding equally many indices are scored together, so each run's rows
    go through the same BLAS call shape, and the same sum, as on their own.
    """
    if sizes is None or min(sizes) == max(sizes):
        rows = uniq if sizes is None else uniq.reshape(len(sizes), -1)
        ug = utilities(kind, H, X[rows], y[rows])
        return ug.reshape(-1), ug.sum(axis=1)
    u = np.empty(len(uniq))
    sums = np.empty(len(sizes))
    groups = {}
    start = 0
    for r, k in enumerate(sizes):
        groups.setdefault(k, ([], []))
        groups[k][0].append(r)
        groups[k][1].append(start)
        start += k
    for k, (runs, starts) in groups.items():
        if len(runs) == 1:  # one run: slices, not index arrays
            at, runs = slice(starts[0], starts[0] + k), slice(runs[0], runs[0] + 1)
            rows = uniq[None, at]
        else:
            at = np.add.outer(starts, np.arange(k))
            rows = uniq[at]
        ug = utilities(kind, H[runs], X[rows], y[rows])
        u[at] = ug
        sums[runs] = ug.sum(axis=1)
    return u, sums


def _live_rule(rules, accumulators, live) -> UpdateRuleState:
    """The rule that steps runs 0..live-1: any run's plain SGD rule, or an
    AdaGrad rule over their rows of the stacked accumulators."""
    if accumulators is None:
        return rules[0]
    return UpdateRuleState("adagrad", accumulators[:live], rules[0].eps)


def _shared_settings(cfg: SamplerConfig) -> tuple:
    return (cfg.decay, cfg.utility, cfg.batch_size, cfg.iterations,
            cfg.track_full_conditional_kl)


def train_many(ds: Dataset, cfgs, sched: StepSchedule, rules, mu: float, M: float,
               h0s, rngs, domain_radius: float | None = None,
               metric_every: int = 0, metric_fn=None, record: bool = True) -> list:
    """Run R adaptively sampled SGD runs in lockstep, one per entry of `cfgs`,
    `rules`, `h0s` and `rngs`; returns [(h_T, trace)] in run order.

    Every iteration steps all runs with a fixed number of numpy calls: one
    `WeightTree.descend_many` call draws every run's batch, one stacked
    gradient and `apply_update` step moves every hypothesis, and one
    `update_many` call reweights every run. The runs share the data, the
    schedule, mu, M and the radius, and their configs may differ only in the
    amplitude. Each run has its own h0, rule state (the AdaGrad accumulators
    are stacked and written back to each rule at the end) and rng, which only
    its draws read: exactly depth uniforms per draw, draws in order. Every
    number run r produces is bitwise that of `train` on run r alone, down to
    the per-value `math.exp` weights and the in-order accumulator total.
    If metric_every > 0, metric_fn(r, t, h, kl_stat, cond_kl) is called for
    run r at t = 1, every metric_every-th iteration, and t = T (see `train`);
    a tracked conditional KL is computed at these ticks alone, and cond_kl is
    None when it is not tracked. With record=False the traces keep only the
    metrics and final_acc: their per-iteration fields stay None and nothing
    only those fields read is computed.

    Raises DivergenceError naming the iteration at which the first diverging
    run in run order diverged, the one R separate calls would have raised
    first. A run stops being stepped once it, or an earlier run, diverges.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if M <= 0:
        raise ValueError("M must be positive")
    R = len(cfgs)
    if R == 0 or len(rules) != R or len(rngs) != R:
        raise ValueError("need one sampler config, rule and rng per run, and at least one run")
    H = np.array(h0s, dtype=np.float64)
    if H.shape != (R, ds.num_classes, ds.feature_dim):
        raise ValueError("h0 shape must be (num_classes, feature_dim)")
    cfg, shared = cfgs[0], _shared_settings(cfgs[0])
    if any(_shared_settings(c) != shared for c in cfgs[1:]):
        raise ValueError("runs may differ only in the sampler amplitude")
    kind, eps = rules[0].kind, rules[0].eps
    if any(r.kind != kind or r.eps != eps for r in rules[1:]):
        raise ValueError("runs must share the update rule")
    accumulators = (np.array([r.accumulator for r in rules], dtype=np.float64)
                    if kind == "adagrad" else None)
    if accumulators is not None and accumulators.shape != H.shape:
        raise ValueError("adagrad accumulators must match the hypothesis shape")

    n, b, T = ds.n, cfg.batch_size, cfg.iterations
    X, Y = ds.features, ds.labels
    amp_list = [c.amplitude for c in cfgs]
    amps, dec = np.array(amp_list), cfg.decay
    tree = WeightTree(np.ones((R, n)))
    acc = np.zeros((R, n))
    acc_flat = acc.reshape(-1)
    # run r's examples start at offsets[r] in the flat accumulators
    offsets = np.arange(0, R * n, n)[:, None] if R > 1 else None
    acc_totals = [0.0] * R
    util_sums = [0.0] * R
    traces = [TrainTrace(n, b, T, a, dec, cfg.utility) for a in amp_list]
    if record:
        for trace in traces:
            for name in _RECORDED:
                setattr(trace, name, [])
    track_kl = cfg.track_full_conditional_kl
    log_n = math.log(n)
    ahead = max(1, _UNIFORMS_AHEAD // (R * b * max(tree.depth, 1)))
    diverged_at = None
    live = R  # runs 0..live-1 are stepped; the first diverged run ends the prefix
    live_offsets = offsets
    step_rule = _live_rule(rules, accumulators, live)

    for t in range(1, T + 1):
        tick = metric_every and metric_fn is not None and (
            t == 1 or t % metric_every == 0 or t == T)
        ahead_t = (t - 1) % ahead
        if ahead_t == 0:
            shape = (min(ahead, T - t + 1), b, tree.depth)
            block = (np.stack([rngs[r].random(shape) for r in range(live)]) if live > 1
                     else rngs[0].random(shape)[None])
        # draws, and everything read from the pre-update tree state Q_t
        if track_kl and tick:
            cond_kl = [conditional_kl(tree, r) for r in range(live)]
        idx = tree.descend_many(block[:live, ahead_t])
        drawn = idx + live_offsets if live > 1 else idx  # run 0's offset is 0
        if record:
            acc_idx = acc_flat[drawn]
            shift = np.fromiter(map(math.log, tree.totals[:live].tolist()), float, live) - log_n
            log_ratios = amps[:live, None] * acc_idx - shift[:, None]
            for r in range(live):
                trace = traces[r]
                trace.indices.append(idx[r])
                trace.log_ratios.append(log_ratios[r])
                trace.acc_before.append(acc_idx[r])
                trace.acc_mean_before.append(acc_totals[r] / n)

        # gradient step at h_{t-1}
        G = batch_objective_grads(H, X[idx], Y[idx], mu)
        H = apply_update(H, G, t, sched, step_rule, domain_radius)

        # one reweighting per unique drawn index, utility taken at h_t: uniq
        # holds each run's unique indices in first-appearance order, run after
        # run, `at` the same entries of the flat accumulators, and sizes[r]
        # how many run r has (None: one each, uniq is idx)
        uniq, at, sizes = idx, drawn.reshape(-1), None
        if b > 1:
            uniq = idx.reshape(-1)
            order = at.argsort(kind="stable")
            ranked = at[order]
            first = np.empty(at.size, dtype=bool)
            first[0] = True
            np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
            keep = np.empty_like(first)
            keep[order] = first
            uniq, at = uniq[keep], at[keep]
            counts_of = keep.reshape(live, b).sum(axis=1)
            sizes = counts_of.tolist()
        u, batch_utils = _ragged_utilities(cfg.utility, H, X, Y, uniq, sizes)
        uniq = uniq.reshape(-1)
        batch_utils = batch_utils.tolist()
        if not (np.isfinite(H).all() and all(map(math.isfinite, batch_utils))):
            finite = np.isfinite(H).reshape(live, -1).all(axis=1).tolist()
            live = next(r for r in range(live) if not (finite[r] and math.isfinite(batch_utils[r])))
            diverged_at = t
            if live == 0:
                break
            H = H[:live]
            live_offsets = offsets[:live]
            step_rule = _live_rule(rules, accumulators, live)
            K = live if sizes is None else sum(sizes[:live])
            at, uniq, u = at[:K], uniq[:K], u[:K]
        if tick:
            for r in range(live):
                kl_stat = amp_list[r] / (1.0 - dec) * util_sums[r]
                cond = cond_kl[r] if track_kl else None
                traces[r].metrics.append(metric_fn(r, t, H[r], kl_stat, cond))
        if sizes is None:
            ends, entry_amps = range(1, live + 1), amps[:live]
            owner = np.arange(live) if live > 1 else None
        else:
            ends = list(itertools.accumulate(sizes[:live]))
            entry_amps = np.repeat(amps[:live], counts_of[:live])
            owner = np.repeat(np.arange(live), counts_of[:live]) if live > 1 else None
        old = acc_flat[at]
        new = dec * old + u
        acc_flat[at] = new
        # valid by construction: distinct drawn indices, weights exp(amplitude * A) >= 1
        tree._write(uniq, np.fromiter(map(math.exp, (entry_amps * new).tolist()), float,
                                      len(at)), owner)
        if record:
            deltas = zip(new.tolist(), old.tolist())
        start = 0
        for r, end in enumerate(ends):
            util_sums[r] += batch_utils[r]
            if record:
                total = acc_totals[r]
                # in order, so each acc_total rounds as in a run of its own
                for a, c in itertools.islice(deltas, end - start):
                    total += a - c
                acc_totals[r] = total
                traces[r].updated.append(uniq[start:end])
                traces[r].utilities.append(u[start:end])
            start = end

    if accumulators is not None:
        for rule, a in zip(rules, accumulators):
            rule.accumulator[...] = a
    if diverged_at is not None:
        raise DivergenceError(diverged_at)
    for r, trace in enumerate(traces):
        trace.final_acc = acc[r]
    return [(H[r], trace) for r, trace in enumerate(traces)]


def train(ds: Dataset, cfg: SamplerConfig, sched: StepSchedule, rule: UpdateRuleState,
          mu: float, M: float, h0: np.ndarray, rng: np.random.Generator,
          domain_radius: float | None = None,
          metric_every: int = 0, metric_fn=None) -> tuple[np.ndarray, TrainTrace]:
    """Run `cfg.iterations` steps of adaptively sampled SGD from h0: the
    one-run case of `train_many`.

    Each iteration: draw batch_size indices i.i.d. from the weight tree
    (recording each draw's log ratio under the pre-draw tree state), step the
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
    tick = None if metric_fn is None else lambda r, t, h, kl, cond: metric_fn(t, h, kl, cond)
    return train_many(ds, [cfg], sched, [rule], mu, M, [h0], [rng], domain_radius,
                      metric_every, tick)[0]
