"""Step-size schedules and first-order update rules (SGD, AdaGrad)."""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import project

SCHEDULE_KINDS = ("constant", "inverse_decay", "strongly_convex")
RULE_KINDS = ("sgd", "adagrad")


@dataclasses.dataclass(frozen=True)
class StepSchedule:
    """eta_t for t >= 1: a fixed eta, eta/(1 + kappa*t), or 1/(mu*t + smoothness).

    The strongly_convex kind starts at eta_1 <= 1/smoothness, which keeps every
    gradient step of a mu-strongly-convex, smoothness-smooth objective
    (1 - eta_t * mu)-contractive.
    """

    kind: str
    eta: float = 0.0
    kappa: float = 0.0
    mu: float = 0.0
    smoothness: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind in ("constant", "inverse_decay"):
            if self.eta <= 0:
                raise ValueError("eta must be positive")
            if self.kind == "inverse_decay" and self.kappa < 0:
                raise ValueError("kappa must be nonnegative")
        else:
            if self.mu <= 0 or self.smoothness <= 0:
                raise ValueError("strongly_convex schedule needs mu > 0 and smoothness > 0")

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
    if t < 1:
        raise ValueError("iterations are 1-based")
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
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown update rule {self.kind!r}")
        if self.kind == "adagrad" and self.accumulator is None:
            raise ValueError("adagrad needs an accumulator array")

    @classmethod
    def sgd(cls) -> "UpdateRuleState":
        return cls("sgd")

    @classmethod
    def adagrad(cls, shape, eps: float = 1e-8) -> "UpdateRuleState":
        return cls("adagrad", accumulator=np.zeros(shape), eps=eps)

    def copy(self) -> "UpdateRuleState":
        acc = None if self.accumulator is None else self.accumulator.copy()
        return UpdateRuleState(self.kind, acc, self.eps)


def apply_update(h: np.ndarray, grad: np.ndarray, t: int, sched: StepSchedule,
                 state: UpdateRuleState, domain_radius: float | None = None) -> np.ndarray:
    """One step from h along the gradient `grad`, an array of h's shape.

    sgd:      h - eta_t * grad
    adagrad:  accum += grad^2 first, then h - eta_t * grad / sqrt(accum + eps)

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
        out = h - eta * grad / np.sqrt(state.accumulator + state.eps)
    if domain_radius is not None:
        out = project(out, domain_radius)
    return out
