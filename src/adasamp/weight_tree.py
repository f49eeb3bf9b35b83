"""Sum-labeled binary tree for O(log n) categorical sampling under changing weights."""

from __future__ import annotations

import math

import numpy as np

REBUILD_EVERY = 1 << 20  # leaf writes between automatic relabels
_TINY = float(np.finfo(np.float64).tiny)  # smallest normal float


class WeightTree:
    """Full binary tree over n weights, each 0 or a normal float, in one flat array.

    Leaves are padded out to the next power of two (padding leaves hold 0 and are
    never written again), every internal node holds the sum of its two children,
    and indexing is implicit: node j has children 2j+1 and 2j+2, leaf i lives at
    capacity-1+i. A draw walks root to leaf flipping one biased coin per level,
    so it costs exactly `depth` uniforms; rewriting a leaf adds its delta along
    its root-to-leaf path. Positive weights below the smallest normal float are
    rejected: a coin weighted by a subnormal can round back to the side whose
    weight is 0.

    Each operation has one batched path, a few numpy calls per tree level:
    `descend_many` walks k rows of uniforms level by level (row r is draw r),
    `sample_many` feeds it fresh rows, and `update_many` writes distinct leaves,
    adds every delta to its ancestors with one `np.add.at` in row order, and
    clamps the touched labels at 0 once per batch.

    Incremental updates accumulate float drift in the internal labels, bounded in
    practice far below 1e-9 of the root; `rebuild` recomputes the labels bottom-up
    and runs automatically after the `update_many` call that brings the leaf
    writes since the last relabel to `REBUILD_EVERY` or more. Until then, drift next to
    zero weights can leave a zero subtree with a tiny positive label, which a
    draw can then reach.

    Counters `sample_visits` (depth per draw) and `update_writes` (depth+1 per
    written index) back the touched-node complexity tests.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        lo, hi = w.min(), w.max()
        if not (lo >= 0 and hi < math.inf):
            raise ValueError("weights must be finite and nonnegative")
        if not hi > 0:
            raise ValueError("at least one weight must be positive")
        _reject_subnormal(w, lo)
        self.n = w.size
        self.depth = max(0, math.ceil(math.log2(self.n)))
        self.capacity = 1 << self.depth
        self._levels_up = np.arange(1, self.depth + 1)  # node j's s-th ancestor: ((j+1) >> s) - 1
        self._nodes = np.zeros(2 * self.capacity - 1)
        self._nodes[self.capacity - 1 : self.capacity - 1 + self.n] = w
        self.rebuild()
        self.sample_visits = 0
        self.update_writes = 0

    # ---- reading ----

    @property
    def total(self) -> float:
        """Root label: the (drift-tolerant) sum of all weights."""
        return float(self._nodes[0])

    def probs(self, indices) -> np.ndarray:
        """Current sampling probabilities, weight / root, of an integer array of indices."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and idx.view(np.uint64).max() >= self.n:  # negatives wrap to huge
            raise IndexError(f"index out of range for n={self.n}")
        root = self._nodes[0]
        if root <= 0:
            raise ValueError("total weight is zero")
        return self._nodes[self.capacity - 1 + idx] / root

    def distribution(self) -> np.ndarray:
        """All n sampling probabilities, normalized to sum to 1 (O(n) diagnostic)."""
        leaves = self._nodes[self.capacity - 1 : self.capacity - 1 + self.n]
        s = leaves.sum()
        if s <= 0:
            raise ValueError("total weight is zero")
        return leaves / s

    # ---- sampling ----

    def descend_many(self, uniforms) -> np.ndarray:
        """Walk root to leaf for every row of a (k, depth) array of uniforms.

        At each internal node, go left iff u * (left + right) < left, i.e. with
        probability left / (left + right). A subtree labelled 0 can never win the
        comparison, so zero-weight leaves are never returned while their
        ancestors' labels are exact. Row r's leaf index depends on row r alone.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        if u.ndim != 2 or u.shape[1] != self.depth:
            raise ValueError(f"expected a (k, {self.depth}) array of uniforms")
        if self._nodes[0] <= 0:
            raise ValueError("total weight is zero")
        lefts, rights = self._nodes[1:], self._nodes[2:]  # node 2j+1 is lefts[2j]
        j = np.zeros(len(u), dtype=np.int64)
        for col in u.T:
            twice = j + j
            lv = lefts[twice]
            j = twice + 2 - (col * (lv + rights[twice]) < lv)  # right child, or one back
        self.sample_visits += u.size
        return j - (self.capacity - 1)

    def sample_many(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw k indices i.i.d. with probability proportional to weight, taking
        depth uniforms per draw from `rng`, draws in order."""
        return self.descend_many(rng.random((k, self.depth)))

    # ---- writing ----

    def update_many(self, indices, weights) -> None:
        """Set leaf indices[r] to weights[r] for distinct indices.

        Each delta goes to its depth ancestors through one `np.add.at` over the
        row-major (k, depth) ancestor matrix, so every label receives its deltas
        in row order, and a touched label that ends below 0 is set to 0.
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
        lo = w.min()
        if not (lo >= 0 and w.max() < math.inf):
            raise ValueError("weight must be finite and nonnegative")
        _reject_subnormal(w, lo)
        if k > 1 and len(set(idx.tolist())) < k:
            raise ValueError("indices must be distinct")
        nodes = self._nodes
        leaves = idx + (self.capacity - 1)
        deltas = w - nodes[leaves]
        nodes[leaves] = w
        if self.depth:
            anc = (((leaves + 1)[:, None] >> self._levels_up) - 1).ravel()
            # materialized, not broadcast: numpy 2.4's np.add.at writes garbage
            # into element 0 for a 2-d index with broadcast values
            np.add.at(nodes, anc, np.repeat(deltas, self.depth))
            labels = nodes[anc]
            if not labels.min() > 0:
                nodes[anc] = np.where(labels > 0, labels, 0.0)
        self.update_writes += k * (self.depth + 1)
        self._updates_since_rebuild += k
        if self._updates_since_rebuild >= REBUILD_EVERY:
            self.rebuild()

    def rebuild(self) -> None:
        """Recompute every internal label bottom-up, clearing accumulated drift."""
        nodes = self._nodes
        lo, width = self.capacity - 1, self.capacity
        while width > 1:
            level = nodes[lo : lo + width]
            width //= 2
            lo -= width
            nodes[lo : lo + width] = level[0::2] + level[1::2]
        self._updates_since_rebuild = 0


def _reject_subnormal(w: np.ndarray, lo: float) -> None:
    """Raise if a positive weight is below the smallest normal float; `lo` is w.min()."""
    if lo < _TINY and ((w > 0) & (w < _TINY)).any():
        raise ValueError("positive weights must be at least the smallest normal float")
