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

from .model import (Dataset, _check_counts, _check_nonnegative, _check_objective,
                    _check_open_unit, _one_hot, batch_objective_grads, softmax)
from .optim import StepSchedule, UpdateRuleState, _step
from .weight_tree import WeightTree

UTILITY_KINDS = ("zero_one", "l1")

# precision guard on ln w <= L = amplitude/(1-decay): the tree adds each weight
# change to its ancestors' labels, so a weight of e^L that drops leaves them an
# absolute error of about e^L * 2**-53, at most 1e-5 at L = 25, against the
# weight 1 that every label above a trained leaf holds at least. (A run's n
# weights then sum past the float range only for n above 1e297.)
MAX_LOG_WEIGHT = 25.0
# uniforms that the runs of one train_many call draw per block, together
_BLOCK_UNIFORMS = 1 << 16


class DivergenceError(ArithmeticError):
    """Training made the hypothesis, or a utility at it, non-finite."""

    def __init__(self, iteration: int):
        super().__init__(f"diverged at iteration {iteration}")
        self.iteration = iteration


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Sampler hyperparameters: reweighting amplitude in [0, inf), multiplicative
    decay in (0, 1), utility kind, batch size and iteration count (integers
    >= 1), and whether to compute the full O(n) conditional KL to uniform at
    each metric tick. Any other value, or an amplitude/(1-decay) above
    MAX_LOG_WEIGHT, is rejected by name. An amplitude of -0.0 is stored as 0.0."""

    amplitude: float
    decay: float
    utility: str = "l1"
    batch_size: int = 1
    iterations: int = 1
    track_full_conditional_kl: bool = False

    def __post_init__(self):
        if self.amplitude == 0:  # -0.0 too: it would print as -0
            object.__setattr__(self, "amplitude", 0.0)
        _check_nonnegative(amplitude=self.amplitude)
        _check_open_unit(decay=self.decay)
        if self.utility not in UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {self.utility!r}")
        _check_counts(batch_size=self.batch_size, iterations=self.iterations)
        if self.amplitude / (1.0 - self.decay) > MAX_LOG_WEIGHT:
            raise ValueError(
                f"amplitude/(1-decay) = {self.amplitude / (1.0 - self.decay):g} "
                f"exceeds {MAX_LOG_WEIGHT:g}; the weight tree's sums would lose precision"
            )


def utilities(kind: str, h: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example utility in [0, 1] of each row of X (labels y) at h.

    zero_one: 1 if the predicted class differs from the label, else 0.
    l1:       1 - p_label(h, x), with p = softmax(h x).

    With a leading run axis, run r's rows X[r] (labels y[r]) are scored at its
    own hypothesis h[r]. A one-row batch is scored by a 1-row product, which
    can differ from a row of a many-row product by ulps."""
    if kind not in UTILITY_KINDS:
        raise ValueError(f"unknown utility kind {kind!r}")
    scores = X @ h.swapaxes(-1, -2)
    if kind == "zero_one":
        return (scores.argmax(axis=-1) != y).astype(np.float64)
    P = softmax(scores).reshape(-1, scores.shape[-1])
    py = P[np.arange(len(P)), y.reshape(-1)].reshape(y.shape)
    # softmax divides each entry by a row sum of nonnegative terms that includes
    # it, so py, and with it 1 - py, lies in [0, 1] with no clamp
    return 1.0 - py


def conditional_kl(tree: WeightTree, run: int = 0) -> float:
    """KL(Q || uniform) of one run's current sampling distribution, i.e.
    sum_i Q(i) * ln(n * Q(i)) over the live leaves (zero-weight leaves drop out),
    or +0.0 where that rounds to 0 or below (n * (1/n) can round below 1). The
    trainer's weights are at least 1, so the filtering copy is made only when
    some leaf is not positive; the sum runs over the same leaves either way.

    It holds two (n,) arrays, Q and the terms: ln(n * Q) is taken and
    multiplied by Q in place, each value bitwise that of the written formula."""
    q = tree.distribution(run)
    if not q.min() > 0:
        q = q[q > 0]
    terms = tree.n * q
    np.log(terms, out=terms)
    terms *= q
    return max(0.0, float(terms.sum()))  # 0.0 first: max keeps it over -0.0


@dataclasses.dataclass
class TrainTrace:
    """What one training run leaves behind.

    Every run keeps its amplitude and decay (what the KL statistics read),
    utility_sum, the sum of its unique updated indices' utilities at h_t
    over iterations 1..T-1, its metric_fn results and its final
    accumulators. A run trained with record=False keeps no more: its other
    fields stay None. A recorded run also keeps the drawn indices with
    repeats, one array per iteration (index t-1 holds iteration t), and two
    sums over every draw of every iteration: log_ratio_sum, of
    ln(n * Q_t(i)) under the pre-draw tree state, and advantage_sum, of the
    drawn index's decayed-utility accumulator S(i, t) before the step minus
    the accumulator mean over all examples at the start of the iteration.
    Both are formed once, when `train_many` returns, and each is bitwise the
    running sum that adds one batch sum per iteration, in order. At any
    batch size, amplitude * advantage_sum is at least log_ratio_sum on every
    path, up to rounding (see `bounds.kl_from_utility_advantage`).
    """

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


def kl_from_utility_sum(trace: TrainTrace) -> float:
    """Per-path KL statistic amplitude/(1-decay) * utility_sum (see TrainTrace),
    the kl_stat of every metrics tick, kept by every run, recorded or not.

    At batch 1 its expectation over sample paths bounds KL(Q || uniform) from
    above, more loosely than the advantage statistic. At batch > 1 it is not an
    upper statistic: its expectation can fall below the KL, because it counts
    each unique drawn index once per iteration, while the sequence KL counts
    every draw."""
    return trace.amplitude / (1.0 - trace.decay) * trace.utility_sum


def _check_start(ds: Dataset, runs: int, H: np.ndarray, rule: UpdateRuleState) -> None:
    """The start state of `runs` runs: H holds one finite (num_classes,
    feature_dim) hypothesis per run, and an AdaGrad accumulator has H's shape."""
    if H.shape != (runs, ds.num_classes, ds.feature_dim):
        raise ValueError("h0 shape must be (num_classes, feature_dim), one h0 per run")
    if not np.isfinite(H).all():
        raise ValueError("h0 must be finite")
    if rule.kind == "adagrad" and rule.accumulator.shape != H.shape:
        raise ValueError("adagrad accumulator shape must be (runs, num_classes, feature_dim)")


def _path_sums(acc: np.ndarray, roots: np.ndarray, deltas: np.ndarray, amps: np.ndarray,
               n: int) -> list:
    """Every recorded run's [log_ratio_sum, advantage_sum] (see TrainTrace),
    one list of R floats each, from what `train_many` buffers until it
    returns, row r of each array being run r's in iteration order: `acc`, the
    (R, T, b) pre-update accumulators of the drawn indices; `roots`, the
    (R, T) pre-draw roots; and `deltas`, one zero-led (R, 1 + (T-1) * b) row
    of the accumulator deltas of every iteration before the last, at first
    appearances in draw order and zeros at repeats.

    Every float is that of running sums advanced iteration by iteration. A
    run's accumulator total at the start of an iteration is a running sum of
    its deltas, and each run's sums over iterations are added to 0.0 in
    order: `np.add.accumulate` along a contiguous row, which never pairs
    terms. Each (run, iteration) statistic is a sum along its contiguous
    batch row, bitwise the 1-d sum of that batch alone."""
    R, T, b = acc.shape
    shift = np.fromiter(map(math.log, roots.ravel().tolist()), float, R * T)
    shift = shift.reshape(R, T, 1) - math.log(n)
    means = np.add.accumulate(deltas, -1)[:, ::b, None] / n  # at each iteration's start
    stats = np.zeros((2, R, 1 + T))
    np.add.reduce(amps[:, None, None] * acc - shift, -1, None, stats[0, :, 1:])
    np.add.reduce(acc - means, -1, None, stats[1, :, 1:])
    return np.add.accumulate(stats, -1)[:, :, -1].tolist()


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step raises DivergenceError
def train_many(ds: Dataset, cfgs, sched: StepSchedule, rule: UpdateRuleState, mu: float,
               M: float, h0s, rngs, domain_radius: float | None = None,
               metric_every: int = 0, metric_fn=None, record: bool = True) -> list:
    """Run R adaptively sampled SGD runs in lockstep, one per entry of `cfgs`,
    `h0s` and `rngs`; returns [(h_T, trace)] in run order.

    Every iteration steps all runs with a fixed number of numpy calls: one
    `WeightTree.descend_many` call draws the batches of the runs that are not
    flat (below), one `_one_hot` call makes the drawn labels' targets, one
    stacked gradient and unchecked `apply_update` step (`optim._step`: every
    input is checked once, before the loop) moves every hypothesis, one
    `utilities` call scores every draw at its run's new hypothesis, and one
    tree write reweights the unique drawn indices of each run that is not
    flat. The runs share the data, the schedule, mu, M, the
    radius and the update rule, and their configs may differ only in the
    amplitude. An AdaGrad `rule` holds one accumulator per run, shape
    (R, num_classes, feature_dim), stepped in place. Each run has its own h0
    and rng, which only its draws read: exactly depth uniforms per draw, draws
    in order. Every number run r produces is bitwise that of `train` on run r
    alone, down to the per-value `math.exp` weights and each sum of its
    trace.

    Every run draws a block of B iterations at a time: one `rng.random` call
    fills its (B, batch, depth) slab of one (R, B, batch, depth) block of
    uniforms, the same stream as B per-iteration calls. B is set by a budget
    of `_BLOCK_UNIFORMS` uniforms over all R runs (at least one iteration),
    and the last block covers only the iterations that remain, so a completed
    run's rng sits T * batch_size * depth uniforms in. The leading runs of
    amplitude 0 (the flat runs; `compare` puts its uniform arm first) keep
    every weight at exp(0) = 1, so they have no row in the reweighted tree
    and are never written: one `descend_many` call walks every flat run's
    slab on one all-ones tree, whose labels are bitwise those of any all-ones
    row. The other runs walk the reweighted tree an iteration at a time. A
    run of amplitude 0 after a run of amplitude > 0 keeps its row, which is
    written with weights exp(0) = 1.

    If metric_every > 0, metric_fn(r, t, h, kl_stat, cond_kl) is called for
    run r at t = 1, every metric_every-th iteration, and t = T (see `train`);
    a tracked conditional KL is computed at these ticks alone, and cond_kl is
    None when it is not tracked. With record=False the traces keep only
    utility_sum, the metrics and final_acc (see `TrainTrace`), and nothing
    only the other fields read is computed. A recorded call forms its
    traces' log_ratio_sum and advantage_sum once, after the last iteration
    (`_path_sums`): until it returns it buffers, beside the drawn indices the
    traces keep, two floats per draw and run (each drawn index's accumulator
    before the update, and the accumulator change at each first appearance;
    3.2 MB each at T 4000, batch 100) and one root per run and iteration.

    Raises DivergenceError(t) at the first iteration t after whose step any
    run's hypothesis, or the sum of its utilities, is non-finite: the earliest
    iteration at which R separate `train` calls would raise. Every run has
    then been stepped through t, metric_fn has seen no iteration from t on,
    and any run's rng may sit up to one block past iteration t.
    numpy's overflow and invalid-value warnings are off inside the call.
    Raises ValueError, before any draw, on a rejected input: a mu or radius
    outside [0, inf), NaN and inf included; an M outside (0, inf); a
    metric_every that is not an integer >= 0; configs, rngs and h0s not one
    per run, or configs differing in more than the amplitude; an h0 that is
    not a finite (num_classes, feature_dim) array; or an AdaGrad accumulator
    not of shape (R, num_classes, feature_dim).
    """
    _check_objective(mu, M, domain_radius)
    _check_counts(at_least=0, metric_every=metric_every)
    R = len(cfgs)
    if R == 0 or len(rngs) != R:
        raise ValueError("need one sampler config and rng per run, and at least one run")
    H = np.array(h0s, dtype=np.float64)
    _check_start(ds, R, H, rule)
    cfg = cfgs[0]
    if any(vars(c) | {"amplitude": cfg.amplitude} != vars(cfg) for c in cfgs[1:] if c is not cfg):
        raise ValueError("runs may differ only in the sampler amplitude")

    n, b, T = ds.n, cfg.batch_size, cfg.iterations
    X, Y = ds.features, ds.labels
    amp_list = [c.amplitude for c in cfgs]
    amps, dec = np.array(amp_list), cfg.decay
    # the leading runs of amplitude 0 are the flat runs
    flat = next((r for r, a in enumerate(amp_list) if a != 0), R)
    track_kl = cfg.track_full_conditional_kl
    # the reweighted tree: one row for each of the W runs after the flat ones
    W = R - flat
    tree = WeightTree(np.ones((W, n))) if W else None
    if flat:
        ones = WeightTree(np.ones(n))  # every flat run's weights, never written
        flat_kl = conditional_kl(ones) if track_kl else None
    depth = (tree if W else ones).depth
    block_len = min(T, max(1, _BLOCK_UNIFORMS // (R * b * max(depth, 1))))
    block = np.empty((R, block_len, b, depth))  # every run's uniforms, refilled block after block
    if W:
        tree_amps = amps[flat:]
        tree_rows = np.arange(W) if W > 1 else None
    acc = np.zeros((R, n))
    acc_flat = acc.reshape(-1)
    # run r's examples start at offsets[r] in the flat accumulators
    offsets = np.arange(R)[:, None] * n if R > 1 else None
    traces = [TrainTrace(a, dec) for a in amp_list]
    if record:  # what the trace's sums read, buffered as _path_sums takes it
        seen_idx, seen_acc, seen_roots = [], np.empty((R, T, b)), np.empty((R, T))
        seen_deltas = np.zeros((R, 1 + (T - 1) * b))
        if flat:
            seen_roots[:flat] = ones.totals[0]  # a flat run's root never moves

    for t in range(1, T + 1):
        tick = metric_every and metric_fn is not None and (
            t == 1 or t % metric_every == 0 or t == T)
        # draws, and everything read from the pre-update tree state Q_t
        step = (t - 1) % block_len  # the iteration's place in its block
        if not step:
            B = min(block_len, T + 1 - t)
            for rng, slab in zip(rngs, block):
                rng.random(out=slab[:B])
            if flat:
                draws = block[:flat, :B].reshape(flat * B * b, depth)  # explicit: depth may be 0
                flat_idx = ones.descend_many(draws).reshape(flat, B, b)
        if W:
            idx = tree.descend_many(block[flat:, step])
        if flat:
            idx = np.concatenate((flat_idx[:, step], idx)) if W else flat_idx[:, step]
        drawn = idx + offsets if R > 1 else idx  # run 0's offset is 0
        if record:
            seen_idx.append(idx)
            seen_acc[:, t - 1] = acc_flat[drawn]
            if W:
                seen_roots[flat:, t - 1] = tree.totals

        # gradient step at h_{t-1}
        Xb, Yb = X[idx], Y[idx]
        G = batch_objective_grads(H, Xb, _one_hot(Yb, ds.num_classes), mu)
        H = _step(H, G, t, sched, rule, domain_radius)  # every input checked above

        # every draw's utility at h_t in one stacked call, then one reweighting
        # per unique drawn index: uniq holds each run's unique indices in
        # first-appearance order, run after run, `at` the same entries of the
        # flat accumulators, and run r's entries end at ends[r]; entry_amps
        # and owner cover the entries of the reweighted runs alone
        U = utilities(cfg.utility, H, Xb, Yb)
        u, uniq, at = U.reshape(-1), idx.reshape(-1), drawn.reshape(-1)
        if b == 1:  # a speed path only: the general branch gives the same bits, slower
            ends = range(1, R + 1)
            batch_utils = u.tolist()
            if W:
                entry_amps, owner = tree_amps, tree_rows
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
            if W:
                entry_amps = np.repeat(tree_amps, counts_of[flat:])
                owner = np.repeat(tree_rows, counts_of[flat:]) if W > 1 else None
        if not (np.isfinite(H).all() and all(map(math.isfinite, batch_utils))):
            raise DivergenceError(t)
        if tick:
            for r, trace in enumerate(traces):
                # Q_t: the tree is first written below, after the tick
                cond = (None if not track_kl else flat_kl if r < flat
                        else conditional_kl(tree, r - flat))
                trace.metrics.append(metric_fn(r, t, H[r], kl_from_utility_sum(trace), cond))
        if t < T:  # the utility sum covers iterations 1..T-1
            for trace, s in zip(traces, batch_utils):
                trace.utility_sum += s
        old = acc_flat[at]
        new = dec * old + u
        acc_flat[at] = new
        if record and t < T:
            if b == 1:
                seen_deltas[:, t] = new - old
            else:  # a row-major mask: each run's deltas land in draw order
                seen_deltas[:, 1 + (t - 1) * b:1 + t * b][keep.reshape(R, b)] = new - old
        if W:
            if flat:  # the flat runs' entries come first, and are never written
                uniq, new = uniq[ends[flat - 1]:], new[ends[flat - 1]:]
            # valid by construction: distinct drawn indices, weights exp(amplitude * A) >= 1
            tree._write(uniq, np.fromiter(map(math.exp, (entry_amps * new).tolist()), float,
                                          len(uniq)), owner)

    if record:
        log_ratio_sums, advantage_sums = _path_sums(seen_acc, seen_roots, seen_deltas, amps, n)
        for r, trace in enumerate(traces):
            trace.indices = [idx[r] for idx in seen_idx]
            trace.log_ratio_sum, trace.advantage_sum = log_ratio_sums[r], advantage_sums[r]
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
    order, bitwise as writes of one row each would. At amplitude 0 nothing is
    reweighted, and one `descend_many` call walks a block of iterations'
    draws at once (see `train_many`). `rng` is consumed only by the draws, a
    block at a time: exactly depth uniforms per draw, draws in order, so
    after the last iteration it sits exactly T * batch_size * depth uniforms
    in. The trace is recorded (see `TrainTrace`). If metric_every > 0,
    metric_fn(t, h, kl_stat, cond_kl) is called at t = 1, every
    metric_every-th iteration, and t = T, where kl_stat is amplitude/(1-decay)
    times the utility sum through iteration t-1.

    Raises ValueError, before any draw, on an input `train_many` rejects, and
    DivergenceError if a step leaves h, or the utilities at h, non-finite;
    `rng` may then sit up to one block past the diverging iteration. Returns
    (h_T, trace). The caller owns `rule` (its AdaGrad accumulator, of h0's
    shape, is mutated) and `h0` is never modified.
    """
    if rule.kind == "adagrad":
        rule = UpdateRuleState("adagrad", rule.accumulator[None])  # a view: steps in place
    tick = None if metric_fn is None else lambda r, t, h, kl, cond: metric_fn(t, h, kl, cond)
    return train_many(ds, [cfg], sched, rule, mu, M, [h0], [rng], domain_radius,
                      metric_every, tick)[0]
