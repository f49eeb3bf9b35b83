"""Independent test oracles shared by several test modules."""

import numpy as np


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
