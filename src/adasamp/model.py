"""Linear multiclass softmax model: losses, gradients, and regularity constants.

A hypothesis is a dense (num_classes x feature_dim) float64 parameter matrix h;
class scores for a feature vector x are h @ x. The training objective is
cross-entropy plus an L2 ridge, F(h, z) = CE(h, z) + (mu/2) * ||h||^2; the loss
used for risks, bounds, and stability probes is the M-clamped surrogate
min(CE, M), which keeps every loss value in [0, M].
"""

from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

# Probabilities are clamped here before logs so the surrogate stays finite.
PROB_FLOOR = 1e-12
_BLOCK_ROWS = 1 << 13  # rows per block of every row-blocked O(n) pass, bounding its temporaries


@dataclasses.dataclass(frozen=True)
class Dataset:
    """Feature matrix (n x d), integer labels in 0..num_classes-1, and the
    empirical feature radius max_i ||x_i||_2 (used by the regularity constants),
    which the dataset measures itself."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    feature_radius: float = dataclasses.field(init=False)

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (n, d), labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on n")
        if self.features.shape[0] == 0:
            raise ValueError("dataset is empty")
        radius = _feature_radius(self.features)
        # a non-finite feature makes the radius inf or nan, so only then scan
        if not math.isfinite(radius) and not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "feature_radius", radius)
        _check_counts(at_least=2, num_classes=self.num_classes)
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range")

    @classmethod
    def from_arrays(cls, features, labels, num_classes: int | None = None) -> "Dataset":
        X = np.ascontiguousarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if num_classes is None:
            num_classes = int(y.max()) + 1 if y.size else 0
        return cls(X, y, num_classes)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@np.errstate(over="ignore")  # an overflowing radius is inf, which the constants reject
def _feature_radius(X: np.ndarray) -> float:
    """max_i ||x_i||_2, bitwise np.sqrt((X * X).sum(axis=1).max()), without
    an (n, d) temporary."""
    if not X.size:
        return 0.0
    origin = np.zeros((1, X.shape[1]))
    return float(np.sqrt(_squared_distances(X, origin).max()))


def _squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(k, n) array whose [c, i] is bitwise ((X[i] - centers[c]) ** 2).sum(),
    from blocks of `_BLOCK_ROWS` rows.

    numpy reduces each row in an inner loop of its own, about 25 ns a row.
    Each block is instead transposed once and summed by feature columns
    through `_last_axis_sum`, one contiguous loop per feature.
    """
    out = np.empty((len(centers), X.shape[0]))
    for lo in range(0, X.shape[0], _BLOCK_ROWS):
        xt = X[lo : lo + _BLOCK_ROWS].T.copy()  # (d, rows), contiguous
        for c, center in enumerate(centers):
            diff = xt - center[:, None]
            diff *= diff
            out[c, lo : lo + _BLOCK_ROWS] = _last_axis_sum(diff.T)
    return out


@dataclasses.dataclass(frozen=True)
class RegularityConstants:
    """Lipschitz / smoothness / strong-convexity constants of the objective and
    the loss clamp M, all with respect to the flattened parameter 2-norm."""

    lipschitz: float
    smoothness: float
    strong_convexity: float
    loss_bound: float

    def __post_init__(self):
        _check_objective(self.strong_convexity, self.loss_bound, None)
        _check_positive(lipschitz=self.lipschitz, smoothness=self.smoothness)
        if self.strong_convexity > 0 and self.smoothness < self.strong_convexity:
            raise ValueError("smoothness must dominate strong_convexity")


def zeros_hypothesis(num_classes: int, feature_dim: int) -> np.ndarray:
    return np.zeros((num_classes, feature_dim))


def _class_max(scores: np.ndarray) -> np.ndarray:
    """np.max over the last (class) axis, taken one class column at a time:
    numpy reduces a short last axis with one tiny inner loop per row, while
    np.maximum of two columns is one long loop. A max is exact in any order."""
    best = scores[..., 0]
    for c in range(1, scores.shape[-1]):
        best = np.maximum(best, scores[..., c])
    return best


def _pairwise_half(n: int) -> int:
    """Where numpy's pairwise sum splits a run of n > 128 entries: at half of
    it, rounded down to a multiple of its eight accumulators."""
    return n // 2 - n // 2 % 8


def _pairwise_sum(leaf, lo: int, hi: int) -> float:
    """Bitwise np.add.reduce(a[lo:hi]) of a float64 array a that is never
    built whole: leaf(i, j) returns a[i:j], computed on demand.

    numpy sums a contiguous array pairwise, splitting every run longer than
    128 entries at `_pairwise_half`. This splits runs longer than
    max(_BLOCK_ROWS, 128) at the same points and leaves the rest to numpy, so
    each leaf holds at most that many entries and every addition is numpy's.
    A leaf's sum starts from +0.0, which can only turn a partial -0.0 into
    +0.0, and numpy's total starts from +0.0 too, so the total is the same.
    A whole-array sum may be taken by blocks only through here.
    """
    if hi - lo <= max(_BLOCK_ROWS, 128):
        return float(np.add.reduce(leaf(lo, hi)))
    mid = lo + _pairwise_half(hi - lo)
    return _pairwise_sum(leaf, lo, mid) + _pairwise_sum(leaf, mid, hi)


def _last_axis_sum(a: np.ndarray) -> np.ndarray:
    """Bitwise np.ascontiguousarray(a).sum(axis=-1), one last-axis column at
    a time: a short last axis then costs a few long loops instead of a tiny
    inner loop per row, and the columns of a transposed view are contiguous.

    numpy sums a contiguous row pairwise from +0.0, and this follows its order
    for every length: under 8 entries left to right; up to 128 into eight
    strided accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the remainder in order; longer rows split at n//2 - (n//2) % 8 and
    recurse. Only a NaN's sign bit may differ: numpy's own add does not fix
    it. (numpy sums a transposed view's last axis left to right instead, so
    for such a view this is not a.sum(axis=-1).) The last axis must be
    nonempty. A last-axis sum may be taken by columns only through here.
    """
    n = a.shape[-1]
    if n > 128:
        half = _pairwise_half(n)
        return _last_axis_sum(a[..., :half]) + _last_axis_sum(a[..., half:])
    if n < 8:
        res = a[..., 0] + 0.0
        for j in range(1, n):
            res += a[..., j]
        return res
    stop = n - n % 8
    r = [a[..., j] for j in range(8)]
    for i in range(8, stop, 8):
        r = [r[j] + a[..., i + j] for j in range(8)]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(stop, n):
        res += a[..., j]
    res += 0.0  # numpy adds the pairwise sum to +0.0: a row of -0.0 sums to +0.0
    return res


def _shifted_exp(scores: np.ndarray) -> np.ndarray:
    """exp(scores - max) over the last axis: softmax before it is normalized."""
    e = scores - _class_max(scores)[..., None]
    return np.exp(e, out=e)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis.

    The sum stays numpy's per-row reduction: the trainer's batches are small
    (100 rows by default), where it costs microseconds, and `_last_axis_sum`
    would pay 15 or more column calls per batch once C >= 8.
    """
    e = _shifted_exp(scores)
    return e / e.sum(axis=-1, keepdims=True)


def batch_objective_grads(H, X, y, mu) -> np.ndarray:
    """Mean objective gradient of every run over its own batch: run r's mean
    of (softmax(h x) - onehot(y)) outer x + mu * h at h = H[r] over rows X[r]
    (duplicates included) with labels y[r], as an (R, C, d) array from
    H (R, C, d), X (R, b, d), y (R, b).

    Run r's gradient is bitwise that of the one-run stack H[r:r+1]: numpy's
    stacked matmul makes the same BLAS call for each run, and every reduction
    runs along the contiguous last axis of one run's own rows. At b = 1 the
    back-product is the elementwise outer product, bitwise the one-example
    gradient `np.outer(p, x) + mu * h`: a k = 1 matmul would add it to +0.0,
    turning a -0 into +0.
    """
    P = softmax(X @ H.transpose(0, 2, 1))
    P.reshape(-1, P.shape[-1])[np.arange(y.size), y.reshape(-1)] -= 1.0
    Pt, b = P.transpose(0, 2, 1), y.shape[1]
    G = Pt * X if b == 1 else Pt @ X / b
    G += mu * H
    return G


def _bounded_losses(scores: np.ndarray, labels: np.ndarray, M: float) -> np.ndarray:
    """min(CE, M) of each row of an (n, C) score matrix against its label.

    The label's entry is picked before it is divided by its row's sum, which
    is bitwise the picked entry of the divided softmax, with one division per
    row instead of C. The row sums are taken by class columns.
    """
    _check_positive(M=M)
    e = _shifted_exp(scores)
    py = e[np.arange(labels.size), labels] / _last_axis_sum(e)
    return np.minimum(-np.log(np.maximum(py, PROB_FLOOR)), M)


def _risk_and_accuracy(h: np.ndarray, ds: Dataset, M: float) -> tuple[float, float]:
    """(empirical risk, accuracy) of h on ds from one scoring X @ h.T, the
    risk being the mean of min(CE, M).

    Besides the (n, C) scores it holds only block-sized temporaries: the
    bounded losses are computed and summed a leaf of at most
    max(`_BLOCK_ROWS`, 128) rows at a time through `_pairwise_sum`, in numpy's
    order, and each leaf's hits are counted as an exact integer. Each value is a function of its own
    row alone, so the result is bitwise the means of the full arrays of
    losses and hits from scoring every row at once.
    """
    scores = ds.features @ h.T
    hits = 0

    def losses(lo: int, hi: int) -> np.ndarray:
        nonlocal hits
        block, labels = scores[lo:hi], ds.labels[lo:hi]
        hits += int(np.count_nonzero(block.argmax(axis=-1) == labels))
        return _bounded_losses(block, labels, M)

    return _pairwise_sum(losses, 0, ds.n) / ds.n, hits / ds.n


def default_domain_radius(ds: Dataset, mu: float) -> float:
    """Projection-ball radius used when mu > 0: every ridge optimum satisfies
    ||h*|| <= sqrt(2) * R / mu, so projecting there never excludes a minimizer."""
    if mu <= 0:
        return 0.0
    return math.sqrt(2.0) * ds.feature_radius / mu


def _check_positive(**named) -> None:
    for name, v in named.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite")


def _check_nonnegative(**named) -> None:
    """Each value in [0, inf), else `<name> must be nonnegative and finite, got <v>`."""
    for name, v in named.items():
        if not 0 <= v < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")


def _check_counts(*, at_least: int = 1, **named) -> None:
    """Each named value must be an integer, one `operator.index` takes, at or
    above `at_least`. NaN, +-inf, fractional values and floats that hold an
    integer (3.0) are rejected as `<name> must be an integer, got <v>`, and
    smaller integers as `<name> must be >= <at_least>`."""
    for name, v in named.items():
        try:
            count = operator.index(v)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {v!r}") from None
        if count < at_least:
            raise ValueError(f"{name} must be >= {at_least}")


def _check_open_unit(**named) -> None:
    """Each value in the open (0, 1), else `<name> must lie in (0, 1), got <v>`."""
    for name, v in named.items():
        if not 0 < v < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {v!r}")


def _check_fraction(**named) -> None:
    """Each value in the half-open [0, 1), else `<name> must lie in [0, 1), got <v>`."""
    for name, v in named.items():
        if not 0 <= v < 1:
            raise ValueError(f"{name} must lie in [0, 1), got {v!r}")


def _check_objective(mu: float, M: float, radius: float | None) -> None:
    """The objective's inputs: mu and the radius (unless None) in [0, inf), M in (0, inf)."""
    _check_nonnegative(mu=mu)
    _check_positive(M=M)
    if radius is not None:
        _check_nonnegative(domain_radius=radius)


def project(h: np.ndarray, radius: float | None) -> np.ndarray:
    """Euclidean projection onto the centered ball (no-op when radius is None);
    ValueError unless 0 <= radius < inf.

    An (R, C, d) stack of hypotheses projects each one on its own. A
    hypothesis inside the ball is kept (scaled by exactly 1.0 when another one
    is not) and one outside is scaled by radius / norm, its norm summed along
    the contiguous last axis of its own entries, so every run's result is
    bitwise that of projecting it alone.
    """
    if radius is None:
        return h
    _check_nonnegative(domain_radius=radius)
    norm = np.sqrt((h * h).reshape(h.shape[:-2] + (-1,)).sum(axis=-1))
    if not (norm > radius).any():
        return h
    scale = np.divide(radius, norm, out=np.ones_like(norm), where=norm > radius)
    return h * scale[..., None, None]


def regularity_constants(ds: Dataset, mu: float, M: float,
                         domain_radius: float | None = None) -> RegularityConstants:
    """Constants of F over the projection ball, from the data's feature radius R.

    ||softmax(s) - onehot(y)||_2 <= sqrt(2), so the cross-entropy part of the
    gradient is bounded by sqrt(2)*R everywhere and the ridge adds mu*||h||; the
    score-space Hessian diag(p) - pp^T has spectral norm at most 1/2, giving the
    smoothness bound R^2/2 + mu. The loss min(CE, M) shares the same Lipschitz
    bound, so one L serves both roles.
    """
    _check_objective(mu, M, domain_radius)
    if domain_radius is None:
        domain_radius = default_domain_radius(ds, mu)
    R = ds.feature_radius
    lipschitz = math.sqrt(2.0) * R + mu * domain_radius
    smoothness = 0.5 * R * R + mu
    if not math.isfinite(R * R):
        raise ValueError(f"the feature radius R = {R:.6g} is too large: "
                         "the smoothness constant R^2/2 + mu overflows")
    if not math.isfinite(lipschitz):  # sqrt(2)*R is finite here, so mu * domain_radius is not
        raise ValueError(f"mu * domain_radius = {mu:.6g} * {domain_radius:.6g} is too large: "
                         "the Lipschitz constant sqrt(2)*R + mu * domain_radius overflows")
    return RegularityConstants(lipschitz, smoothness, mu, M)
