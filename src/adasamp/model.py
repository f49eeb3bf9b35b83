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
from typing import NamedTuple

import numpy as np

# Probabilities are clamped here before logs so the surrogate stays finite.
PROB_FLOOR = 1e-12


class Example(NamedTuple):
    features: np.ndarray
    label: int


@dataclasses.dataclass(frozen=True)
class Dataset:
    """Feature matrix (n x d), integer labels in 0..num_classes-1, and the
    empirical feature radius max_i ||x_i||_2 (used by the regularity constants)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    feature_radius: float

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (n, d), labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on n")
        if self.features.shape[0] == 0:
            raise ValueError("dataset is empty")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range")

    @classmethod
    def from_arrays(cls, features, labels, num_classes: int | None = None) -> "Dataset":
        X = np.ascontiguousarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if num_classes is None:
            num_classes = int(y.max()) + 1 if y.size else 0
        radius = float(np.sqrt((X * X).sum(axis=1).max())) if X.size else 0.0
        return cls(X, y, int(num_classes), radius)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def example(self, i: int) -> Example:
        return Example(self.features[i], int(self.labels[i]))

    def split(self, n_train: int) -> tuple["Dataset", "Dataset"]:
        """First n_train rows and the rest, as two datasets sharing num_classes."""
        if not 0 < n_train < self.n:
            raise ValueError("n_train must leave both splits nonempty")
        head = Dataset.from_arrays(self.features[:n_train], self.labels[:n_train], self.num_classes)
        tail = Dataset.from_arrays(self.features[n_train:], self.labels[n_train:], self.num_classes)
        return head, tail


@dataclasses.dataclass(frozen=True)
class RegularityConstants:
    """Lipschitz / smoothness / strong-convexity constants of the objective and
    the loss clamp M, all with respect to the flattened parameter 2-norm."""

    lipschitz: float
    smoothness: float
    strong_convexity: float
    loss_bound: float

    def __post_init__(self):
        if self.lipschitz <= 0 or self.smoothness <= 0 or self.loss_bound <= 0:
            raise ValueError("lipschitz, smoothness, and loss_bound must be positive")
        if self.strong_convexity < 0:
            raise ValueError("strong_convexity must be nonnegative")
        if self.strong_convexity > 0 and self.smoothness < self.strong_convexity:
            raise ValueError("smoothness must dominate strong_convexity")


def zeros_hypothesis(num_classes: int, feature_dim: int) -> np.ndarray:
    return np.zeros((num_classes, feature_dim))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict_proba(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities softmax(h @ x); entries in (0, 1], summing to 1."""
    if h.ndim != 2 or x.ndim != 1 or h.shape[1] != x.shape[0]:
        raise ValueError("hypothesis and features disagree on dimension")
    return softmax(h @ x)


def predict_proba_batch(h: np.ndarray, X: np.ndarray) -> np.ndarray:
    if h.ndim != 2 or X.ndim != 2 or h.shape[1] != X.shape[1]:
        raise ValueError("hypothesis and features disagree on dimension")
    return softmax(X @ h.T)


def surrogate_loss(h: np.ndarray, z: Example) -> float:
    """Cross-entropy -ln p_y with the probability clamped below at PROB_FLOOR."""
    p = predict_proba(h, z.features)
    return float(-np.log(max(p[z.label], PROB_FLOOR)))


def bounded_loss(h: np.ndarray, z: Example, M: float) -> float:
    """The loss used everywhere a bounded range is required: min(CE, M) in [0, M]."""
    if M <= 0:
        raise ValueError("M must be positive")
    return min(surrogate_loss(h, z), M)


def objective_value(h: np.ndarray, z: Example, mu: float) -> float:
    """F(h, z) = CE(h, z) + (mu/2) * ||h||^2 (unclamped; this is what SGD descends)."""
    reg = 0.5 * mu * float((h * h).sum())
    return surrogate_loss(h, z) + reg


def objective_grad(h: np.ndarray, z: Example, mu: float) -> np.ndarray:
    """Gradient of F at h for one example: (softmax - onehot) outer x + mu * h."""
    p = predict_proba(h, z.features)
    p[z.label] -= 1.0
    return np.outer(p, z.features) + mu * h


def batch_objective_grads(H, X, y, mu) -> np.ndarray:
    """Mean objective gradient of every run over its own batch: run r's mean
    of `objective_grad` at H[r] over rows X[r] (duplicates included) with
    labels y[r], as an (R, C, d) array from H (R, C, d), X (R, b, d), y (R, b).

    Run r's gradient is bitwise that of the one-run stack H[r:r+1]: numpy's
    stacked matmul makes the same BLAS call for each run, and every reduction
    runs along the contiguous last axis of one run's own rows.
    """
    P = softmax(X @ H.transpose(0, 2, 1))
    P.reshape(-1, P.shape[-1])[np.arange(y.size), y.reshape(-1)] -= 1.0
    G = P.transpose(0, 2, 1) @ X
    G /= y.shape[1]
    G += mu * H
    return G


def mean_bounded_loss(h: np.ndarray, ds: Dataset, M: float) -> float:
    """Average of min(CE, M) over a dataset (the empirical risk estimate)."""
    if M <= 0:
        raise ValueError("M must be positive")
    P = predict_proba_batch(h, ds.features)
    py = np.maximum(P[np.arange(ds.n), ds.labels], PROB_FLOOR)
    return float(np.minimum(-np.log(py), M).mean())


def accuracy(h: np.ndarray, ds: Dataset) -> float:
    scores = ds.features @ h.T
    return float((scores.argmax(axis=1) == ds.labels).mean())


def default_domain_radius(ds: Dataset, mu: float) -> float:
    """Projection-ball radius used when mu > 0: every ridge optimum satisfies
    ||h*|| <= sqrt(2) * R / mu, so projecting there never excludes a minimizer."""
    if mu <= 0:
        return 0.0
    return math.sqrt(2.0) * ds.feature_radius / mu


def project(h: np.ndarray, radius: float | None) -> np.ndarray:
    """Euclidean projection onto the centered ball (no-op when radius is None).

    An (R, C, d) stack of hypotheses projects each one on its own. A
    hypothesis inside the ball is kept (scaled by exactly 1.0 when another one
    is not) and one outside is scaled by radius / norm, its norm summed along
    the contiguous last axis of its own entries, so every run's result is
    bitwise that of projecting it alone.
    """
    if radius is None:
        return h
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
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if M <= 0:
        raise ValueError("M must be positive")
    if domain_radius is None:
        domain_radius = default_domain_radius(ds, mu)
    if domain_radius < 0:
        raise ValueError("domain_radius must be nonnegative")
    R = ds.feature_radius
    lipschitz = math.sqrt(2.0) * R + mu * domain_radius
    smoothness = 0.5 * R * R + mu
    return RegularityConstants(lipschitz, smoothness, mu, M)
