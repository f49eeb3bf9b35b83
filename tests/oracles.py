"""Independent test oracles shared by several test modules."""

import numpy as np

from adasamp.model import objective_grad
from adasamp.optim import UpdateRuleState, apply_update


def naive_descend(weights, uniforms):
    """The weight tree's draw for one row of uniforms, recomputing every
    interval sum from the leaves; no maintained structure."""
    cap = 1
    while cap < len(weights):
        cap *= 2
    padded = np.zeros(cap)
    padded[:len(weights)] = weights
    lo, width = 0, cap
    for u in uniforms:
        width //= 2
        left = padded[lo:lo + width].sum()
        right = padded[lo + width:lo + 2 * width].sum()
        if not u * (left + right) < left:
            lo += width
    return lo


def naive_run_indexed(ds, indices, sched, mu, h0, radius):
    """Plain SGD driven by a forced index sequence (the coupled runs of the
    stability definitions). Always batch 1, sgd rule, no reweighting."""
    h = h0.copy()
    state = UpdateRuleState.sgd()
    for t, i in enumerate(indices, start=1):
        g = objective_grad(h, ds.example(int(i)), mu)
        h = apply_update(h, [g], t, sched, state, radius)
    return h
