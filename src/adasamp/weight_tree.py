"""Sum-labeled binary tree for O(log n) categorical sampling under changing weights."""

from __future__ import annotations

import math
import numbers

import numpy as np

REBUILD_EVERY = 1 << 20  # leaf writes to one run between automatic relabels of that run
# Smallest positive weight: 2 * np.finfo(float).tiny. From here up, u * w < w for
# every uniform u <= 1 - 2**-53; at tiny itself that product ties back to w.
_MIN_WEIGHT = 2.0 ** -1021
_HALF_MAX = 0.5 * float(np.finfo(float).max)


class WeightTree:
    """Full binary trees over n weights, each 0 or >= 2**-1021, one per run.

    A tree built from an (R, n) weight array holds R independent runs; a 1-d
    array of n weights builds one run. Run r's labels are row r of one
    (R, 2*capacity) array, a 1-based heap: the root is at 1, node j has
    children 2j and 2j+1 and parent j >> 1, leaf i is at capacity+i, and slot
    0 holds 0. Leaves are padded out to the next power of two (padding leaves
    hold 0 and are never written again), every internal node holds the sum of
    its two children, and every root must be finite. A draw walks root to leaf
    flipping one biased coin per level, so it costs exactly `depth` uniforms;
    rewriting a leaf adds its delta along its root-to-leaf path. Positive
    weights below 2**-1021 (twice the smallest normal float) are rejected: by
    a zero sibling, a coin weighted by a smaller one can round back to the
    zero side (`(1 - 2**-53) * w` rounds to `w` for w = np.finfo(float).tiny).

    Each operation has one batched path, a few numpy calls per tree level, and
    every element of it is computed as in a tree of that run alone:
    `descend_many` walks rows of uniforms level by level (row r is draw r),
    `sample_many` feeds it fresh rows, and `_write` writes distinct leaves,
    adds every delta to its ancestors with one `np.add.at` in row order, and
    clamps the touched labels at 0 once per batch. `descend_many` takes every
    run: an array with a leading run axis carries all R runs, and on a
    one-run tree that axis may be left out. `_write` takes each leaf's run,
    and is the one code that writes leaves. `probs` and `sample_many` serve a
    one-run tree alone. The one-run forks (`runs is None`) are speed paths
    only: the run-offset path gives the same labels, but tiny calls pay for
    its extra arrays.

    Incremental updates accumulate float drift in the internal labels, bounded in
    practice far below 1e-9 of the root; `rebuild` recomputes the labels bottom-up
    and runs automatically for each run after the `_write` call that brings
    that run's leaf writes since its last relabel to `REBUILD_EVERY` or more.
    Until then, drift next to zero weights can leave a zero subtree with a tiny
    positive label, which a draw can then reach.

    Counters `sample_visits` (depth per draw) and `update_writes` (depth+1 per
    written index), summed over runs, are what perfbench's tracer derives its
    draw and leaf-write counts from. They restate the walk's length rather
    than measure it; the touched-node tests count the labels themselves.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            w = w[None]
        if w.ndim != 2 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array, or one such row per run")
        lo, hi = float(np.minimum.reduce(w, None)), float(np.maximum.reduce(w, None))
        if not (lo >= 0 and hi < math.inf):
            raise ValueError("weights must be finite and nonnegative")
        if not (hi > 0 if len(w) == 1 else np.minimum.reduce(np.maximum.reduce(w, 1)) > 0):
            raise ValueError("at least one weight must be positive")
        if lo < _MIN_WEIGHT and ((w > 0) & (w < _MIN_WEIGHT)).any():
            raise ValueError("positive weights must be at least 2**-1021")
        self.runs, self.n = w.shape
        self.depth = max(0, math.ceil(math.log2(self.n)))
        self.capacity = 1 << self.depth
        self._stride = 2 * self.capacity
        self._levels_up = np.arange(1, self.depth + 1)  # heap slot j's s-th ancestor: j >> s
        self._rows = np.zeros((self.runs, self._stride))
        self._nodes = self._rows.reshape(-1)  # the same labels, run after run
        self._leaves()[:] = w
        if hi * self.n < _HALF_MAX:  # a label adds at most n weights <= hi: none overflows
            self.rebuild()
        else:
            with np.errstate(over="ignore"):  # an overflowing total is rejected below
                self.rebuild()
            if not max(self.totals.tolist()) < math.inf:
                raise ValueError("total weight must be finite")
        self.sample_visits = 0
        self.update_writes = 0

    def _leaves(self, run=slice(None)) -> np.ndarray:
        """Run `run`'s n leaf labels, or every run's as rows, as a view."""
        return self._rows[run, self.capacity : self.capacity + self.n]

    def _check_runs(self, a: np.ndarray, ndim: int) -> None:
        """Reject `a` unless it is `ndim`-d with a leading axis of all R runs,
        an axis that a one-run tree lets a caller leave out."""
        if not (a.ndim == ndim and len(a) == self.runs or a.ndim == ndim - 1 and self.runs == 1):
            raise ValueError(f"expected {ndim}-d input with {self.runs} runs")

    # ---- reading ----

    @property
    def totals(self) -> np.ndarray:
        """Every run's root label, as a view of length R."""
        return self._rows[:, 1]

    def probs(self, indices) -> np.ndarray:
        """Current sampling probabilities, weight / root, of a 1-d integer array
        of indices into a one-run tree."""
        if self.runs != 1:
            raise ValueError(f"probs takes a one-run tree, not one of {self.runs} runs")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be a 1-d array")
        if idx.size and idx.view(np.uint64).max() >= self.n:  # negatives wrap to huge
            raise IndexError(f"index out of range for n={self.n}")
        root = self._nodes[1]
        if not root > 0:
            raise ValueError("total weight is zero")
        return self._nodes[idx + self.capacity] / root

    def distribution(self, run: int = 0) -> np.ndarray:
        """All n sampling probabilities of one run, normalized to sum to 1 (O(n)
        diagnostic); ValueError unless run is an integer in [0, runs)."""
        if not (isinstance(run, numbers.Integral) and 0 <= run < self.runs):
            raise ValueError(f"run must be an integer in [0, {self.runs}), got {run!r}")
        leaves = self._leaves(run)
        s = leaves.sum()
        if s <= 0:
            raise ValueError("total weight is zero")
        return leaves / s

    # ---- sampling ----

    def descend_many(self, uniforms) -> np.ndarray:
        """Walk root to leaf for every row of a (k, depth) array of uniforms, or
        of an (R, k, depth) array whose slab r draws from run r.

        At each internal node, go left unless u * (left + right) >= left, i.e.
        with probability left / (left + right). A subtree labelled 0 can never
        win the comparison, so zero-weight leaves are never returned while their
        ancestors' labels are exact. Row r's leaf index depends on row r alone.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        self._check_runs(u, 3)
        if u.shape[-1] != self.depth:
            raise ValueError(f"expected rows of {self.depth} uniforms")
        m, k = self.runs, u.shape[-2]
        if not (self._nodes[1] if m == 1 else self.totals.min()) > 0:
            raise ValueError("total weight is zero")
        # node x's children 2x and 2x + 1 are lefts[2x] and rights[2x]
        lefts, rights = self._nodes, self._nodes[1:]
        base = np.repeat(np.arange(0, m * self._stride, self._stride), k) if m > 1 else None
        x = np.empty(m * k, dtype=np.int64)
        x.fill(1)  # the root
        for col in u.reshape(m * k, self.depth).T:
            twice = x + x
            at = twice if base is None else twice + base
            lv = lefts[at]
            x = twice + (col * (lv + rights[at]) >= lv)
        self.sample_visits += u.size
        return (x - self.capacity).reshape(u.shape[:-1])

    def sample_many(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw k indices i.i.d. from a one-run tree with probability proportional
        to weight, taking depth uniforms per draw from `rng`, draws in order."""
        return self.descend_many(rng.random((k, self.depth)))

    # ---- writing ----

    def _write(self, idx: np.ndarray, w: np.ndarray, runs) -> None:
        """Set leaf idx[k] of run runs[k] (run 0 when runs is None) to w[k].

        Unchecked: the caller guarantees a nonempty int64 idx with entries in
        [0, n), int64 runs in [0, R) (or None), distinct (run, index) pairs,
        and float64 weights that are finite and 0 or at least 2**-1021, with
        every root left finite. The trainer builds such writes: distinct
        drawn indices, with weights exp(amplitude * A) >= 1.

        Each delta goes to its depth ancestors through one `np.add.at` over the
        row-major (k, depth) ancestor matrix, so every label receives its deltas
        in row order, and a touched label that ends below 0 is set to 0. Labels
        of different runs are disjoint, so each run's labels end as after a call
        with that run's rows alone.
        """
        leaves = idx + self.capacity
        anc = leaves[:, None] >> self._levels_up  # in the leaf's own row: shift, then offset
        if runs is not None:
            offsets = runs * self._stride
            leaves += offsets
            anc += offsets[:, None]
        nodes = self._nodes
        deltas = w - nodes[leaves]
        nodes[leaves] = w
        if self.depth:
            anc = anc.ravel()
            # materialized, not broadcast: numpy 2.4's np.add.at writes garbage
            # into element 0 for a 2-d index with broadcast values
            np.add.at(nodes, anc, np.repeat(deltas, self.depth))
            labels = nodes[anc]
            if not labels.min() > 0:
                nodes[anc] = np.where(labels > 0, labels, 0.0)
        self.update_writes += idx.size * (self.depth + 1)
        since = self._updates_since_rebuild
        if runs is None:
            since[0] += idx.size
            if since[0] >= REBUILD_EVERY:
                self.rebuild([0])
        else:
            since += np.bincount(runs, minlength=self.runs)
            if since.max() >= REBUILD_EVERY:
                self.rebuild(np.flatnonzero(since >= REBUILD_EVERY))

    def rebuild(self, runs=None) -> None:
        """Recompute every internal label bottom-up, clearing accumulated drift,
        in every run or in the given runs."""
        if runs is not None:
            runs = np.asarray(runs, dtype=np.int64)
        rows = self._rows if runs is None else self._rows[runs]  # a copy of the given runs
        width = self.capacity
        while width > 1:
            level = rows[:, width : 2 * width]
            width //= 2
            rows[:, width : 2 * width] = level[:, 0::2] + level[:, 1::2]
        if runs is None:
            self._updates_since_rebuild = np.zeros(self.runs, dtype=np.int64)
        else:
            self._rows[runs] = rows
            self._updates_since_rebuild[runs] = 0
