"""A fixed reference computation that measures how fast the host runs right now.

On a shared machine the speed of the library's kind of code (short Python
loops over small numpy arrays, many small allocations) drifts by up to 2x over
seconds to minutes, while a tight arithmetic loop barely moves. This module
does that same kind of work, with no dependence on `adasamp`, so that its time
measured next to an op tells how slow the host was for that op. It is a
frozen, simplified adaptive sampler: sum-tree draws and writes in Python,
softmax gradient steps, and multiplicative reweighting. Never change it
without re-measuring both sides of every comparison: the normalized metrics
are only comparable across runs of the same yardstick.
"""

from __future__ import annotations

import math

import numpy as np

N = 256
DIM = 8
BATCH = 16
ITERS = 80


def _descend(nodes, depth, u):
    j = 0
    for lvl in range(depth):
        left = 2 * j + 1
        lv = nodes[left]
        j = left if u[lvl] * (lv + nodes[left + 1]) < lv else left + 1
    return j


def _update(nodes, j, w):
    delta = w - nodes[j]
    nodes[j] = w
    while j > 0:
        j = (j - 1) // 2
        nodes[j] += delta


def run() -> float:
    """One pass of the reference work; returns a checksum."""
    rng = np.random.default_rng(12345)
    X = rng.standard_normal((N, DIM))
    y = (X[:, 0] > 0).astype(np.int64)
    depth = int(math.log2(N))
    nodes = np.zeros(2 * N - 1)
    nodes[N - 1:] = 1.0
    for lvl in range(depth - 1, -1, -1):
        lo = (1 << lvl) - 1
        nodes[lo:2 * lo + 1] = nodes[2 * lo + 1:4 * lo + 3:2] + nodes[2 * lo + 2:4 * lo + 4:2]
    acc = np.zeros(N)
    h = np.zeros((2, DIM))
    for t in range(1, ITERS + 1):
        uni = rng.random((BATCH, depth))
        idx = np.fromiter((_descend(nodes, depth, uni[r]) - (N - 1) for r in range(BATCH)),
                          dtype=np.int64, count=BATCH)
        scores = X[idx] @ h.T
        P = np.exp(scores - scores.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        P[np.arange(BATCH), y[idx]] -= 1.0
        h = h - 0.1 / (1.0 + 0.01 * t) * (P.T @ X[idx] / BATCH + 0.01 * h)
        _, first = np.unique(idx, return_index=True)
        uniq = idx[np.sort(first)]
        Q = np.exp(X[uniq] @ h.T)
        u = 1.0 - Q[np.arange(uniq.size), y[uniq]] / Q.sum(axis=1)
        for k, i in enumerate(uniq):
            acc[i] = 0.5 * acc[i] + u[k]
            _update(nodes, int(i) + N - 1, math.exp(acc[i]))
    return float(nodes[0] + h.sum())
