"""Synthetic Gaussian-cluster tasks and CSV dataset I/O.

The synthetic generator draws unit-variance Gaussian clusters around fixed,
well-separated class means, skews the class proportions by an imbalance rate,
and then flips the labels of the round(n * noise) examples nearest the decision
boundary (smallest own-versus-other squared-distance margin) to their nearest
other class. How hard the flipped subset is depends on the separation: with
widely separated clusters the smallest margins sit on the correct side of the
boundary, so flipping makes those labels contradict the features and no linear
hypothesis fits them; with moderate separation the smallest margins are mostly
cluster-tail points already on the wrong side, and flipping largely agrees
with what a linear hypothesis would predict anyway.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .model import Dataset

_D2_ROWS = 1 << 16  # rows per block of class distances, bounding the (rows, classes, dim) temporary
# labels are parsed as floats, which hold every integer exactly only below 2**53
_MAX_LABEL = 2.0 ** 53


def _class_means(classes: int, dim: int, separation: float) -> np.ndarray:
    if classes == 2:
        means = np.zeros((2, dim))
        means[0, 0] = +0.5 * separation
        means[1, 0] = -0.5 * separation
        return means
    if dim < classes:
        raise ValueError("dim must be >= classes when classes > 2")
    # pairwise distance = separation on the scaled coordinate simplex
    return (separation / math.sqrt(2.0)) * np.eye(classes, dim)


def _class_counts(n: int, classes: int, imbalance: float) -> np.ndarray:
    # class 0 takes 1/C + imbalance*(1 - 1/C) of the mass, the rest share equally
    p = np.full(classes, (1.0 - imbalance) / classes)
    p[0] += imbalance
    counts = np.floor(n * p).astype(np.int64)
    remainder = n * p - counts
    for c in np.argsort(-remainder, kind="stable")[: n - counts.sum()]:
        counts[c] += 1
    # n >= classes guarantees we can keep every class populated
    while counts.min() == 0:
        counts[counts.argmin()] += 1
        counts[counts.argmax()] -= 1
    return counts


def synth_data(n: int, dim: int, classes: int, imbalance: float, noise: float,
               seed: int, separation: float = 4.0) -> Dataset:
    """Imbalanced noisy Gaussian-cluster task with exactly round(n*noise) flips.

    imbalance in [0, 1) interpolates class proportions from uniform to all mass
    on class 0; noise in [0, 1) is the flipped fraction. Identical seeds give
    bit-identical features and base labels for any (imbalance, noise), because
    the rng is consumed identically and the flip set is a deterministic function
    of the drawn features.
    """
    if n < classes:
        raise ValueError("n must be >= classes")
    if classes < 2:
        raise ValueError("need at least two classes")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0 <= imbalance < 1 or not 0 <= noise < 1:
        raise ValueError("imbalance and noise must lie in [0, 1)")
    if separation <= 0:
        raise ValueError("separation must be positive")
    rng = np.random.default_rng(seed)
    means = _class_means(classes, dim, separation)
    counts = _class_counts(n, classes, imbalance)
    y = np.repeat(np.arange(classes, dtype=np.int64), counts)
    X = rng.standard_normal((n, dim))
    for c, hi in enumerate(np.cumsum(counts).tolist()):  # y is sorted by class here
        X[hi - counts[c] : hi] += means[c]
    perm = rng.permutation(n)
    X, y = X[perm], y[perm]

    flips = int(round(n * noise))
    if flips:
        rows = np.arange(n)
        d2 = np.empty((n, classes))
        for lo in range(0, n, _D2_ROWS):
            x = X[lo : lo + _D2_ROWS]
            d2[lo : lo + _D2_ROWS] = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        own = d2[rows, y]
        d2[rows, y] = np.inf  # leaves the squared distances to the other classes
        nearest_other = d2.argmin(axis=1)
        margin = d2[rows, nearest_other] - own
        hard = _smallest_k(margin, flips)
        y[hard] = nearest_other[hard]
    return Dataset.from_arrays(X, y, classes)


def _smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values, ties at the k-th smallest going to the
    lower indices: the set np.argsort(values, kind="stable")[:k], in index
    order, found in O(n) by np.partition rather than a full sort."""
    kth = np.partition(values, k - 1)[k - 1]
    chosen = values < kth
    ties = np.flatnonzero(values == kth)
    chosen[ties[: k - int(chosen.sum())]] = True
    return np.flatnonzero(chosen)


def save_csv(ds: Dataset, path) -> None:
    """Write `label,f1,...,fd` with features at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{j + 1}" for j in range(ds.feature_dim)])
        for i in range(ds.n):
            writer.writerow([int(ds.labels[i])]
                            + [f"{v:.17g}" for v in ds.features[i]])


def load_csv(path) -> Dataset:
    """Read a `label,f1,...,fd` file; rejects ragged or malformed rows, labels
    that are not integers in [0, 2**53) and non-finite features with the
    offending data-row number (counted from 1, just below the header), and
    labels that skip a class (each class sizes the model) naming the first."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: expected a label,f1,...,fd header") from None
        if not header or header[0].strip() != "label" or len(header) < 2:
            raise ValueError("header must be label,f1,...,fd")
        dim = len(header) - 1
        labels, rows = [], []
        for r, row in enumerate(reader, start=1):
            if len(row) != dim + 1:
                raise ValueError(f"row {r}: expected {dim + 1} columns, got {len(row)}")
            try:
                raw = float(row[0])
                feats = [float(v) for v in row[1:]]
            except ValueError:
                raise ValueError(f"row {r}: non-numeric value") from None
            # nan and inf fail the range test before int() sees them
            if not (0 <= raw < _MAX_LABEL and raw == int(raw)):
                raise ValueError(f"row {r}: label must be an integer in [0, 2**53)")
            if not all(map(math.isfinite, feats)):
                raise ValueError(f"row {r}: features must be finite")
            labels.append(int(raw))
            rows.append(feats)
    if not rows:
        raise ValueError("no data rows")
    y = np.array(labels, dtype=np.int64)
    present = np.unique(y)  # not bincount: it would allocate max label + 1 counts
    gaps = np.flatnonzero(present != np.arange(present.size))
    if gaps.size:
        raise ValueError(f"no row has label {gaps[0]}: every class from 0 to the "
                         "largest label needs a row")
    return Dataset.from_arrays(np.array(rows), y)
