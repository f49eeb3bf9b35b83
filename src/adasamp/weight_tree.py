"""Sum-labeled binary tree for O(log n) categorical sampling under changing weights."""

from __future__ import annotations

import math

import numpy as np


class WeightTree:
    """Full binary tree over n nonnegative weights, stored as one flat array.

    Leaves are padded out to the next power of two (padding leaves hold 0 and are
    never written again), every internal node holds the sum of its two children,
    and indexing is implicit: node j has children 2j+1 and 2j+2, leaf i lives at
    capacity-1+i. Sampling walks root to leaf flipping one biased coin per level,
    so a draw costs exactly `depth` uniforms; re-weighting one leaf adds the delta
    along a single root-to-leaf path.

    The batched methods take a whole mini-batch per call, a few numpy calls per
    tree level: `descend_many` walks k rows of uniforms level by level (row r
    is draw r), and `update_many` adds every delta to its ancestors with one
    `np.add.at` in row-major order, so each label receives its deltas in the
    order of sequential `update` calls. Both give bitwise what the scalar
    `descend` and `update` give one row at a time; those stay as the reference
    the batched methods are tested against.

    Incremental updates accumulate float drift in the internal labels, bounded in
    practice far below 1e-9 of the root; `rebuild` recomputes the labels bottom-up
    and runs automatically once `rebuild_every` updates have accumulated, after
    the update call (for `update_many`, the whole batch) that reaches the count.

    Counters `sample_visits` (depth per draw), `update_writes` (depth+1 per
    written index) and `update_calls` (one per written index) count per draw or
    index whether the scalar or the batched methods did the work; they back the
    touched-node complexity tests.
    """

    def __init__(self, weights, rebuild_every: int = 1 << 20):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        if not (w > 0).any():
            raise ValueError("at least one weight must be positive")
        if rebuild_every < 1:
            raise ValueError("rebuild_every must be >= 1")
        self.n = w.size
        self.depth = max(0, math.ceil(math.log2(self.n)))
        self.capacity = 1 << self.depth
        self.rebuild_every = rebuild_every
        self._levels_up = np.arange(1, self.depth + 1)  # node j's s-th ancestor: ((j+1) >> s) - 1
        self._nodes = np.zeros(2 * self.capacity - 1)
        self._nodes[self.capacity - 1 : self.capacity - 1 + self.n] = w
        self.rebuild()
        self.sample_visits = 0
        self.update_writes = 0
        self.update_calls = 0
        self._updates_since_rebuild = 0

    # ---- reading ----

    @property
    def total(self) -> float:
        """Root label: the (drift-tolerant) sum of all weights."""
        return float(self._nodes[0])

    def weight(self, i: int) -> float:
        self._check_index(i)
        return float(self._nodes[self.capacity - 1 + i])

    def prob(self, i: int) -> float:
        """Current sampling probability of index i, weight / root."""
        self._check_index(i)
        root = self._nodes[0]
        if root <= 0:
            raise ValueError("total weight is zero")
        return float(self._nodes[self.capacity - 1 + i] / root)

    def probs(self, indices) -> np.ndarray:
        """Vectorized `prob` for an integer array of indices."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and idx.view(np.uint64).max() >= self.n:  # negatives wrap to huge
            raise ValueError("index out of range")
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

    def descend(self, uniforms) -> int:
        """Walk root to leaf using one provided uniform per level; returns the leaf index.

        At each internal node, go left iff u * (left + right) < left, i.e. with
        probability left / (left + right). A zero-weight subtree can never win the
        comparison, so zero-weight leaves are never returned.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        if u.shape != (self.depth,):
            raise ValueError(f"expected exactly {self.depth} uniforms")
        if self._nodes[0] <= 0:
            raise ValueError("total weight is zero")
        nodes = self._nodes
        j = 0
        for lvl in range(self.depth):
            left = 2 * j + 1
            lv = nodes[left]
            j = left if u[lvl] * (lv + nodes[left + 1]) < lv else left + 1
        self.sample_visits += self.depth
        return j - (self.capacity - 1)

    def descend_many(self, uniforms) -> np.ndarray:
        """`descend` for every row of a (k, depth) array of uniforms, level by level.

        The tree does not change within the call, so row r gives exactly the
        index that `descend(uniforms[r])` gives.
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

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one index with probability proportional to its weight (depth uniforms)."""
        return self.descend(rng.random(self.depth))

    def sample_many(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw k indices i.i.d.; the same stream as k `sample` calls on `rng`."""
        return self.descend_many(rng.random((k, self.depth)))

    # ---- writing ----

    def update(self, i: int, weight: float) -> None:
        """Set leaf i to `weight`, propagating the delta through depth+1 labels."""
        self._check_index(i)
        if not math.isfinite(weight) or weight < 0:
            raise ValueError("weight must be finite and nonnegative")
        self._propagate(i, weight)
        self._count_updates(1)

    def update_many(self, indices, weights) -> None:
        """Set leaf indices[r] to weights[r] for distinct indices; bitwise the same
        labels as `update` called for r = 0, 1, ... in order.

        Each delta goes to its depth ancestors through one `np.add.at`, so every
        label receives its deltas in row order. `update` clamps each label at 0
        after every addition; when a label shared by several rows could reach a
        negative value part way, which only drift next to zero weights allows,
        the rows are applied one at a time instead.
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
        if not (w.min() >= 0 and w.max() < math.inf):
            raise ValueError("weight must be finite and nonnegative")
        if k > 1 and len(set(idx.tolist())) < k:
            raise ValueError("indices must be distinct")
        nodes = self._nodes
        leaves = idx + (self.capacity - 1)
        # the (k, depth) ancestor matrix, row-major: np.add.at then gives each
        # label its deltas in row order
        anc = (((leaves + 1)[:, None] >> self._levels_up) - 1).ravel()
        deltas = np.repeat(w - nodes[leaves], self.depth)
        if k > 1 and not self._clamp_free(anc, deltas):
            for i, v in zip(idx.tolist(), w.tolist()):
                self._propagate(i, v)
        else:
            nodes[leaves] = w
            if self.depth:
                np.add.at(nodes, anc, deltas)
                labels = nodes[anc]
                if not labels.min() > 0:  # `update`'s clamp: exact for one row or clamp-free rows
                    nodes[anc] = np.where(labels > 0, labels, 0.0)
        self._count_updates(k)

    def _clamp_free(self, anc, deltas) -> bool:
        """True if no label's running sum can go negative in `update_many`.

        Labels start nonnegative, as `update` clamps them. Float addition is
        monotone, so a label's running sum never falls below the running sum of
        its negative deltas alone, which only falls. If that floor ends
        nonnegative at every label, the clamp can change at most the sign of a
        zero, and the final clamp reproduces that.
        """
        if deltas.min() >= 0:
            return True
        nodes = self._nodes
        before = nodes[anc]
        np.add.at(nodes, anc, np.minimum(deltas, 0.0))
        floor_ok = nodes[anc].min() >= 0
        nodes[anc] = before
        return floor_ok

    def _propagate(self, i: int, weight: float) -> None:
        j = self.capacity - 1 + i
        delta = weight - self._nodes[j]
        self._nodes[j] = weight
        while j > 0:
            j = (j - 1) // 2
            v = self._nodes[j] + delta
            self._nodes[j] = v if v > 0 else 0.0

    def _count_updates(self, k: int) -> None:
        self.update_writes += k * (self.depth + 1)
        self.update_calls += k
        self._updates_since_rebuild += k
        if self._updates_since_rebuild >= self.rebuild_every:
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

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for n={self.n}")
