"""Sum-labeled binary tree for O(log n) categorical sampling under changing weights."""

from __future__ import annotations

import math

import numpy as np

REBUILD_EVERY = 1 << 20  # leaf writes to one run between automatic relabels of that run
# Smallest positive weight: 2 * np.finfo(float).tiny. From here up, u * w < w for
# every uniform u <= 1 - 2**-53; at tiny itself that product ties back to w.
_MIN_WEIGHT = 2.0 ** -1021


class WeightTree:
    """Full binary trees over n weights, each 0 or >= 2**-1021, one per run.

    A tree built from an (R, n) weight array holds R independent runs; a 1-d
    array of n weights builds one run. All labels live in one flat array of R
    rows of 2*capacity - 1, run r's row starting at r * (2*capacity - 1). Leaves
    are padded out to the next power of two (padding leaves hold 0 and are never
    written again), every internal node holds the sum of its two children, and
    indexing within a row is implicit: node j has children 2j+1 and 2j+2, leaf i
    lives at capacity-1+i. A draw walks root to leaf flipping one biased coin
    per level, so it costs exactly `depth` uniforms; rewriting a leaf adds its
    delta along its root-to-leaf path. Positive weights below 2**-1021 (twice
    the smallest normal float) are rejected: beside a zero sibling, a coin
    weighted by a smaller one can round back to the side whose weight is 0
    (`(1 - 2**-53) * w` rounds to `w` for w = np.finfo(float).tiny).

    Each operation has one batched path, a few numpy calls per tree level, and
    every element of it is computed as in a tree of that run alone:
    `descend_many` walks rows of uniforms level by level (row r is draw r),
    `sample_many` feeds it fresh rows, and `update_many` writes distinct leaves,
    adds every delta to its ancestors with one `np.add.at` in row order, and
    clamps the touched labels at 0 once per batch. An array with a leading run
    axis carries all R runs; on a one-run tree that axis may be left out. The
    one-run forks (`runs is None`) are speed paths only: the run-offset path
    gives the same labels, but tiny calls pay for its extra arrays.

    Incremental updates accumulate float drift in the internal labels, bounded in
    practice far below 1e-9 of the root; `rebuild` recomputes the labels bottom-up
    and runs automatically for each run after the `update_many` call that brings
    that run's leaf writes since its last relabel to `REBUILD_EVERY` or more.
    Until then, drift next to zero weights can leave a zero subtree with a tiny
    positive label, which a draw can then reach.

    Counters `sample_visits` (depth per draw) and `update_writes` (depth+1 per
    written index), summed over runs, back the touched-node complexity tests.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            w = w[None]
        if w.ndim != 2 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array, or one such row per run")
        lo, hi = w.min(), w.max()
        if not (lo >= 0 and hi < math.inf):
            raise ValueError("weights must be finite and nonnegative")
        if not (hi > 0 if len(w) == 1 else w.max(axis=1).min() > 0):
            raise ValueError("at least one weight must be positive")
        _reject_below_min_weight(w, lo)
        self.runs, self.n = w.shape
        self.depth = max(0, math.ceil(math.log2(self.n)))
        self.capacity = 1 << self.depth
        self._stride = 2 * self.capacity - 1
        self._levels_up = np.arange(1, self.depth + 1)  # node j's s-th ancestor: ((j+1) >> s) - 1
        # three leading zeros let a draw read a node's children as
        # _padded[2x] and _padded[2x + 1] for x = node + 2 (see descend_many)
        self._padded = np.zeros(3 + self.runs * self._stride)
        self._nodes = self._padded[3:]
        self._labels()[..., self.capacity - 1 : self.capacity - 1 + self.n] = w
        self.rebuild()
        self.sample_visits = 0
        self.update_writes = 0

    def _labels(self) -> np.ndarray:
        """Every run's labels, one row per run, or the flat array itself for one run."""
        return self._nodes.reshape(self.runs, self._stride) if self.runs > 1 else self._nodes

    def _check_runs(self, a: np.ndarray, ndim: int) -> None:
        """Reject `a` unless it is `ndim`-d with a leading axis of all R runs,
        an axis that a one-run tree lets a caller leave out."""
        if not (a.ndim == ndim and len(a) == self.runs or a.ndim == ndim - 1 and self.runs == 1):
            raise ValueError(f"expected {ndim}-d input with {self.runs} runs")

    # ---- reading ----

    @property
    def totals(self) -> np.ndarray:
        """Every run's root label, as a view of length R."""
        return self._nodes[:: self._stride]

    def probs(self, indices) -> np.ndarray:
        """Current sampling probabilities, weight / root, of an integer array of
        indices: (k,) on a one-run tree, or (R, k) with row r for run r."""
        idx = np.asarray(indices, dtype=np.int64)
        self._check_runs(idx, 2)
        if idx.size and idx.view(np.uint64).max() >= self.n:  # negatives wrap to huge
            raise IndexError(f"index out of range for n={self.n}")
        if self.runs == 1:  # one run needs no row offsets
            roots, leaves = self._nodes[0], idx + (self.capacity - 1)
            positive = roots > 0
        else:
            base = np.arange(0, self.runs * self._stride, self._stride)[:, None]
            roots, leaves = self._nodes[base], idx + (base + (self.capacity - 1))
            positive = roots.min() > 0
        if not positive:
            raise ValueError("total weight is zero")
        return self._nodes[leaves] / roots

    def distribution(self, run: int = 0) -> np.ndarray:
        """All n sampling probabilities of one run, normalized to sum to 1 (O(n) diagnostic)."""
        lo = run * self._stride + self.capacity - 1
        leaves = self._nodes[lo : lo + self.n]
        s = leaves.sum()
        if s <= 0:
            raise ValueError("total weight is zero")
        return leaves / s

    # ---- sampling ----

    def descend_many(self, uniforms) -> np.ndarray:
        """Walk root to leaf for every row of a (k, depth) array of uniforms, or
        of an (R, k, depth) array whose slab r draws from run r.

        At each internal node, go left iff u * (left + right) < left, i.e. with
        probability left / (left + right). A subtree labelled 0 can never win the
        comparison, so zero-weight leaves are never returned while their
        ancestors' labels are exact. Row r's leaf index depends on row r alone.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        self._check_runs(u, 3)
        if u.shape[-1] != self.depth:
            raise ValueError(f"expected rows of {self.depth} uniforms")
        m, k = self.runs, u.shape[-2]
        if not (self._nodes[0] if m == 1 else self.totals.min()) > 0:
            raise ValueError("total weight is zero")
        # x = node + 2, so node j's children 2j+1 and 2j+2 are _padded[2x] and
        # _padded[2x + 1], and the child taken is 2x, or 2x - 1 for the left one
        lefts, rights = self._padded, self._padded[1:]
        base = np.repeat(np.arange(0, m * self._stride, self._stride), k) if m > 1 else None
        x = np.empty(m * k, dtype=np.int64)
        x.fill(2)  # the root
        for col in u.reshape(m * k, self.depth).T:
            twice = x + x
            at = twice if base is None else twice + base
            lv = lefts[at]
            x = twice - (col * (lv + rights[at]) < lv)
        self.sample_visits += u.size
        return (x - (self.capacity + 1)).reshape(u.shape[:-1])

    def sample_many(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw k indices i.i.d. from a one-run tree with probability proportional
        to weight, taking depth uniforms per draw from `rng`, draws in order."""
        return self.descend_many(rng.random((k, self.depth)))

    # ---- writing ----

    def update_many(self, indices, weights, runs=None) -> None:
        """Set leaf indices[r] of run runs[r] (default run 0) to weights[r], for
        (run, index) pairs that are distinct.

        Each delta goes to its depth ancestors through one `np.add.at` over the
        row-major (k, depth) ancestor matrix, so every label receives its deltas
        in row order, and a touched label that ends below 0 is set to 0. Labels
        of different runs are disjoint, so each run's labels end as after a call
        with that run's rows alone.
        """
        idx = np.asarray(indices, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if idx.ndim != 1 or w.shape != idx.shape:
            raise ValueError("indices and weights must be 1-d arrays of one length")
        k = idx.size
        if k == 0:
            return
        if idx.view(np.uint64).max() >= self.n:  # negatives wrap to huge
            raise IndexError(f"index out of range for n={self.n}")
        if runs is not None:
            runs = np.asarray(runs, dtype=np.int64)
            if runs.shape != idx.shape:
                raise ValueError("runs must give one run per index")
            if runs.view(np.uint64).max() >= self.runs:
                raise IndexError(f"run out of range for {self.runs} runs")
        lo = w.min()
        if not (lo >= 0 and w.max() < math.inf):
            raise ValueError("weight must be finite and nonnegative")
        _reject_below_min_weight(w, lo)
        if k > 1:
            ordered = np.sort(idx if runs is None else idx + runs * self.n)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("indices must be distinct")
        self._write(idx, w, runs)

    def _write(self, idx: np.ndarray, w: np.ndarray, runs) -> None:
        """`update_many` for arguments it would accept, already as arrays: a
        nonempty int64 idx, float64 w and int64 runs (or None). Callers that
        build valid writes themselves, as the trainer does, skip the checks."""
        k = idx.size
        leaves = idx + (self.capacity - 1)
        if runs is not None:
            offsets = runs * self._stride
            leaves += offsets
        nodes = self._nodes
        deltas = w - nodes[leaves]
        nodes[leaves] = w
        if self.depth:
            anc = ((idx + self.capacity)[:, None] >> self._levels_up) - 1
            if runs is not None:
                anc += offsets[:, None]
            anc = anc.ravel()
            # materialized, not broadcast: numpy 2.4's np.add.at writes garbage
            # into element 0 for a 2-d index with broadcast values
            np.add.at(nodes, anc, np.repeat(deltas, self.depth))
            labels = nodes[anc]
            if not labels.min() > 0:
                nodes[anc] = np.where(labels > 0, labels, 0.0)
        self.update_writes += k * (self.depth + 1)
        since = self._updates_since_rebuild
        if runs is None:
            since[0] += k
            if since[0] >= REBUILD_EVERY:
                self.rebuild([0])
        else:
            since += np.bincount(runs, minlength=self.runs)
            if since.max() >= REBUILD_EVERY:
                self.rebuild(np.flatnonzero(since >= REBUILD_EVERY))

    def rebuild(self, runs=None) -> None:
        """Recompute every internal label bottom-up, clearing accumulated drift,
        in every run or in the given runs."""
        if runs is None:
            nodes = self._labels()
        else:
            runs = np.asarray(runs, dtype=np.int64)
            nodes = self._nodes.reshape(self.runs, self._stride)[runs]  # a copy
        lo, width = self.capacity - 1, self.capacity
        while width > 1:
            level = nodes[..., lo : lo + width]
            width //= 2
            lo -= width
            nodes[..., lo : lo + width] = level[..., 0::2] + level[..., 1::2]
        if runs is None:
            self._updates_since_rebuild = np.zeros(self.runs, dtype=np.int64)
        else:
            self._nodes.reshape(self.runs, self._stride)[runs] = nodes
            self._updates_since_rebuild[runs] = 0


def _reject_below_min_weight(w: np.ndarray, lo: float) -> None:
    """Raise if a positive weight is below _MIN_WEIGHT; `lo` is w.min()."""
    if lo < _MIN_WEIGHT and ((w > 0) & (w < _MIN_WEIGHT)).any():
        raise ValueError("positive weights must be at least 2**-1021")
