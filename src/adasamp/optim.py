"""Step-size schedules and first-order update rules (SGD, AdaGrad)."""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import _check_counts, _check_nonnegative, _check_positive, project

SCHEDULE_KINDS = ("constant", "inverse_decay", "strongly_convex")
RULE_KINDS = ("sgd", "adagrad")
ADAGRAD_EPS = 1e-8  # added to the AdaGrad accumulator under the square root


@dataclasses.dataclass(frozen=True)
class StepSchedule:
    """eta_t for t >= 1: a fixed eta, eta/(1 + kappa*t), or 1/(mu*t + smoothness).

    The strongly_convex kind starts at eta_1 <= 1/smoothness, which keeps every
    gradient step of a mu-strongly-convex, smoothness-smooth objective
    (1 - eta_t * mu)-contractive. Every value must lie in [0, inf), and the
    kind's rates, eta or else mu and smoothness, in (0, inf).
    """

    kind: str
    eta: float = 0.0
    kappa: float = 0.0
    mu: float = 0.0
    smoothness: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        _check_nonnegative(eta=self.eta, kappa=self.kappa, mu=self.mu, smoothness=self.smoothness)
        if self.kind == "strongly_convex":
            _check_positive(mu=self.mu, smoothness=self.smoothness)
        else:
            _check_positive(eta=self.eta)

    @classmethod
    def constant(cls, eta: float) -> "StepSchedule":
        return cls("constant", eta=eta)

    @classmethod
    def inverse_decay(cls, eta: float, kappa: float) -> "StepSchedule":
        return cls("inverse_decay", eta=eta, kappa=kappa)

    @classmethod
    def strongly_convex(cls, mu: float, smoothness: float) -> "StepSchedule":
        return cls("strongly_convex", mu=mu, smoothness=smoothness)


def step_size(sched: StepSchedule, t: int) -> float:
    """The step size at iteration t (1-based)."""
    _check_counts(t=t)
    if sched.kind == "constant":
        return sched.eta
    if sched.kind == "inverse_decay":
        return sched.eta / (1.0 + sched.kappa * t)
    return 1.0 / (sched.mu * t + sched.smoothness)


@dataclasses.dataclass
class UpdateRuleState:
    """Update-rule kind plus the AdaGrad per-coordinate accumulator, if any."""

    kind: str
    accumulator: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown update rule {self.kind!r}")
        if self.kind == "adagrad" and self.accumulator is None:
            raise ValueError("adagrad needs an accumulator array")

    @classmethod
    def sgd(cls) -> "UpdateRuleState":
        return cls("sgd")

    @classmethod
    def adagrad(cls, shape) -> "UpdateRuleState":
        return cls("adagrad", accumulator=np.zeros(shape))

    def copy(self) -> "UpdateRuleState":
        acc = None if self.accumulator is None else self.accumulator.copy()
        return UpdateRuleState(self.kind, acc)


def apply_update(h: np.ndarray, grad: np.ndarray, t: int, sched: StepSchedule,
                 state: UpdateRuleState, domain_radius: float | None = None) -> np.ndarray:
    """One step from h along the gradient `grad`, an array of h's shape.

    sgd:      h - eta_t * grad
    adagrad:  accum += grad^2 first, then h - eta_t * grad / sqrt(accum + ADAGRAD_EPS)

    If domain_radius is given, the result is projected back onto that ball.
    Mutates the AdaGrad accumulator in place; returns a new hypothesis array.
    An (R, C, d) stack of runs, with an (R, C, d) gradient and accumulator,
    steps every run; the arithmetic is elementwise apart from the projection,
    which scales each run by its own norm, so run r's result is bitwise that
    of stepping it alone.
    """
    if grad.shape != h.shape:
        raise ValueError("gradient shape mismatch")
    eta = step_size(sched, t)
    if state.kind == "sgd":
        out = h - eta * grad
    else:
        state.accumulator += grad * grad
        out = h - eta * grad / np.sqrt(state.accumulator + ADAGRAD_EPS)
    if domain_radius is not None:
        out = project(out, domain_radius)
    return out
