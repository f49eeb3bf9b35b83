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

Memory: the generator holds one (n, dim) feature array, drawn and then
permuted in place, so a caller that splits it gets views of that one array.
Label noise adds the (classes, n) distances and a few (n,) arrays; at dim 8
and 2 classes the traced peak stays under 1.7 times the features' bytes.
Loading a CSV holds the parsed rows as Python floats only `_CSV_ROWS` at a
time, so its peak, when the row blocks are joined, stays under three times
the features' bytes.
"""

from __future__ import annotations

import copy
import csv
import math

import numpy as np

from .model import Dataset, _check_counts, _check_fraction, _check_positive, _squared_distances

_CSV_ROWS = 1 << 10  # parsed rows held as Python floats before they become an array
# Well above any standard normal draw: numpy draws the tail as
# 3.65 - ln(v) / 3.65 with v >= 2**-53, under 14. So along every coordinate a
# feature lies within separation + _NOISE_REACH of every class mean.
_NOISE_REACH = 40.0
# labels are parsed as floats, which hold every integer exactly only below 2**53
_MAX_LABEL = 2.0 ** 53
_FLOAT_MAX = float(np.finfo(np.float64).max)


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
               seed: int, separation: float) -> Dataset:
    """Imbalanced noisy Gaussian-cluster task with exactly round(n*noise) flips.

    imbalance in [0, 1) interpolates class proportions from uniform to all mass
    on class 0; noise in [0, 1) is the flipped fraction. Identical seeds give
    bit-identical features and base labels for any (imbalance, noise), because
    the rng is consumed identically and the flip set is a deterministic function
    of the drawn features.
    """
    X, y = synth_arrays(n, dim, classes, imbalance, noise, seed, separation)
    return Dataset.from_arrays(X, y, classes)


def synth_arrays(n: int, dim: int, classes: int, imbalance: float, noise: float,
                 seed: int, separation: float) -> tuple[np.ndarray, np.ndarray]:
    """`synth_data`'s features and labels as plain arrays, so a caller that
    splits them builds only the split datasets.

    What is held, and when: the drawn (n, dim) features X and (n,) labels y
    throughout. The permutation swaps X's rows and y's entries in place,
    with no index array and no second X. Label noise then adds the whole
    (classes, n) squared-distance matrix, which the flipped rows' new labels
    are read from, and (n,) temporaries for the own-class index, the
    own-class distance and the margin, each freed before the k smallest
    margins are picked. The result is bitwise the first-written generator's:
    X[perm] and y[perm] for perm = rng.permutation(n).
    """
    _check_counts(at_least=2, classes=classes)
    _check_counts(dim=dim)
    _check_counts(at_least=classes, n=n)
    _check_fraction(imbalance=imbalance, noise=noise)
    _check_positive(separation=separation)
    rng = np.random.default_rng(seed)
    means = _class_means(classes, dim, separation)
    counts = _class_counts(n, classes, imbalance)
    y = np.repeat(np.arange(classes, dtype=np.int64), counts)
    X = rng.standard_normal((n, dim))
    for c, hi in enumerate(np.cumsum(counts).tolist()):  # y is sorted by class here
        X[hi - counts[c] : hi] += means[c]
    # rng.permutation(n) is rng.shuffle(np.arange(n)). Shuffling X's rows, as
    # one void item each, with a copy of rng, and y with rng itself, makes the
    # same swaps: X and y end as X[perm] and y[perm], rng as permutation leaves it
    twin = copy.deepcopy(rng)
    twin.shuffle(X.view(np.dtype((np.void, X.itemsize * dim)))[:, 0])
    rng.shuffle(y)

    flips = int(round(n * noise))
    if flips:
        # bounds every squared distance to a mean, with a factor of 2 to spare
        # for rounding; without label noise no distance is taken
        if not dim * (separation + _NOISE_REACH) * (separation + _NOISE_REACH) < _FLOAT_MAX / 2:
            raise ValueError(f"--separation {separation:.6g} is too large for label noise: "
                             "squared distances to the class means overflow")
        d2 = _squared_distances(X, means)  # (classes, n)
        flat = d2.reshape(-1)  # a view: d2 is contiguous
        own_at = y * n  # each row's own-class entry in flat
        own_at += np.arange(n)
        own = flat[own_at]
        flat[own_at] = np.inf  # leaves the squared distances to the other classes
        del own_at
        margin = d2.min(axis=0)  # a min is exact: the nearest other class's distance
        margin -= own
        del own
        hard = _smallest_k(margin, flips)
        y[hard] = d2[:, hard].argmin(axis=0)
    return X, y


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
    labels that skip a class (each class sizes the model) naming the first.
    A blank line is skipped, but it keeps its number, so every later row is
    still named by its own line. A leading UTF-8 byte-order mark is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: expected a label,f1,...,fd header") from None
        if not header or header[0].strip() != "label" or len(header) < 2:
            raise ValueError("header must be label,f1,...,fd")
        dim = len(header) - 1
        labels, rows = [], []  # the parsed rows not yet moved into a block
        y_blocks, X_blocks = [], []
        for r, row in enumerate(reader, start=1):
            if not row:  # a blank line, which enumerate has still counted
                continue
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
            if len(rows) == _CSV_ROWS:
                y_blocks.append(np.array(labels, dtype=np.int64))
                X_blocks.append(np.array(rows))
                labels, rows = [], []
    if rows:
        y_blocks.append(np.array(labels, dtype=np.int64))
        X_blocks.append(np.array(rows))
    if not X_blocks:
        raise ValueError("no data rows")
    y = np.concatenate(y_blocks)
    present = np.unique(y)  # not bincount: it would allocate max label + 1 counts
    gaps = np.flatnonzero(present != np.arange(present.size))
    if gaps.size:
        raise ValueError(f"no row has label {gaps[0]}: every class from 0 to the "
                         "largest label needs a row")
    return Dataset.from_arrays(np.concatenate(X_blocks), y)
