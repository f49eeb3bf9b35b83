"""Step schedules and the SGD / AdaGrad update rules."""

import math

import numpy as np
import pytest

from adasamp import StepSchedule, UpdateRuleState, apply_update, step_size


def test_strongly_convex_schedule_example():
    sched = StepSchedule.strongly_convex(mu=1.0, smoothness=1.0)
    assert step_size(sched, 1) == 0.5
    assert step_size(sched, 3) == pytest.approx(0.25, abs=1e-15)


def test_inverse_decay_with_zero_kappa_is_constant():
    sched = StepSchedule.inverse_decay(eta=0.1, kappa=0.0)
    assert all(step_size(sched, t) == 0.1 for t in (1, 2, 10, 1000))


def test_inverse_decay_dominated_by_eta_over_kappa_t():
    sched = StepSchedule.inverse_decay(eta=0.5, kappa=0.3)
    for t in range(1, 200):
        assert step_size(sched, t) <= 0.5 / (0.3 * t)


def test_schedules_nonincreasing():
    for sched in (StepSchedule.inverse_decay(0.2, 0.05),
                  StepSchedule.strongly_convex(0.5, 2.0),
                  StepSchedule.constant(0.1)):
        steps = [step_size(sched, t) for t in range(1, 50)]
        assert all(a >= b for a, b in zip(steps, steps[1:]))


def test_step_size_rejects_t_below_one():
    sched = StepSchedule.constant(0.1)
    with pytest.raises(ValueError):
        step_size(sched, 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule.constant(0.0)
    with pytest.raises(ValueError):
        StepSchedule.inverse_decay(0.1, -1.0)
    with pytest.raises(ValueError):
        StepSchedule.strongly_convex(0.0, 1.0)
    with pytest.raises(ValueError):
        StepSchedule(kind="nope", eta=0.1)


@pytest.mark.parametrize("make,args,name", [
    (StepSchedule.constant, (math.nan,), "eta"),
    (StepSchedule.inverse_decay, (math.inf, 0.1), "eta"),
    (StepSchedule.inverse_decay, (0.1, math.nan), "kappa"),
    (StepSchedule.inverse_decay, (0.1, math.inf), "kappa"),
    (StepSchedule.strongly_convex, (math.nan, 1.0), "mu"),
    (StepSchedule.strongly_convex, (1.0, math.inf), "smoothness"),
    (StepSchedule.strongly_convex, (1.0, -math.inf), "smoothness"),
])
def test_schedule_rejects_a_non_finite_value(make, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative and finite, got "):
        make(*args)


def test_sgd_single_step():
    g = np.array([[1.0, -2.0]])
    h = apply_update(np.zeros((1, 2)), g, 1, StepSchedule.constant(0.1),
                     UpdateRuleState.sgd())
    assert np.allclose(h, -0.1 * g, atol=1e-15)


def test_zero_gradient_is_noop_for_both_rules():
    h0 = np.array([[0.3, -0.4]])
    zero = np.zeros((1, 2))
    sched = StepSchedule.constant(0.1)
    assert np.array_equal(apply_update(h0, zero, 1, sched, UpdateRuleState.sgd()), h0)
    ada = UpdateRuleState.adagrad((1, 2))
    before = ada.accumulator.copy()
    assert np.array_equal(apply_update(h0, zero, 1, sched, ada), h0)
    assert np.array_equal(ada.accumulator, before)


def test_adagrad_first_step_approaches_sign_step():
    # fresh accumulator: g / sqrt(g^2 + 1e-8) is sign(g) to within 1e-8 for |g| >= 0.5
    g = np.array([[3.0, -3.0, 0.5, -0.5]])
    ada = UpdateRuleState.adagrad((1, 4))
    h = apply_update(np.zeros((1, 4)), g, 1, StepSchedule.constant(0.2), ada)
    assert np.allclose(h, -0.2 * np.sign(g), atol=1e-8)


def test_adagrad_accumulates_squared_gradients():
    g = np.array([[1.0, 2.0]])
    ada = UpdateRuleState.adagrad((1, 2))
    h = np.zeros((1, 2))
    for t in (1, 2, 3):
        h = apply_update(h, g, t, StepSchedule.constant(0.1), ada)
    assert np.allclose(ada.accumulator, 3.0 * g * g, atol=1e-12)


def test_adagrad_shrinks_effective_steps():
    g = np.array([[1.0]])
    ada = UpdateRuleState.adagrad((1, 1))
    sched = StepSchedule.constant(0.5)
    h = np.zeros((1, 1))
    deltas = []
    for t in range(1, 6):
        h2 = apply_update(h, g, t, sched, ada)
        deltas.append(abs(float(h2[0, 0] - h[0, 0])))
        h = h2
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_projection_applies_after_the_step():
    g = np.array([[-10.0, 0.0]])
    h = apply_update(np.zeros((1, 2)), g, 1, StepSchedule.constant(1.0),
                     UpdateRuleState.sgd(), domain_radius=1.0)
    assert np.allclose(h, [[1.0, 0.0]], atol=1e-12)


def test_strongly_convex_sgd_contracts_between_optima():
    # one gradient step on a quadratic-regularized objective with eta <= 1/beta
    # contracts distances by at least (1 - eta mu); checked for bookkeeping of
    # the schedule value actually used at t
    rng = np.random.default_rng(9)
    mu, beta = 0.5, 2.0
    sched = StepSchedule.strongly_convex(mu, beta)
    A = np.array([[beta, 0.0], [0.0, mu]])  # Hessian with spectrum in [mu, beta]

    def grad(h):
        return h @ A

    for t in (1, 2, 5, 17):
        eta = step_size(sched, t)
        a = rng.standard_normal((1, 2))
        b = rng.standard_normal((1, 2))
        a2 = apply_update(a, grad(a), t, sched, UpdateRuleState.sgd())
        b2 = apply_update(b, grad(b), t, sched, UpdateRuleState.sgd())
        assert np.linalg.norm(a2 - b2) <= (1.0 - eta * mu) * np.linalg.norm(a - b) + 1e-12


def test_apply_update_validation():
    sched = StepSchedule.constant(0.1)
    with pytest.raises(ValueError):
        apply_update(np.zeros((1, 2)), np.zeros((2, 2)), 1, sched, UpdateRuleState.sgd())


@pytest.mark.parametrize("shape", [(4, 2, 3), (3,), (3, 2)])
def test_apply_update_rejects_an_accumulator_of_another_shape(shape):
    # a (4, 2, 3) accumulator would broadcast h into four stepped runs, and
    # a (3,) one fail inside numpy without naming it
    state = UpdateRuleState("adagrad", np.full(shape, 0.5))
    with pytest.raises(ValueError, match="^adagrad accumulator shape must be h's shape$"):
        apply_update(np.ones((2, 3)), np.ones((2, 3)), 1, StepSchedule.constant(0.1), state)
    assert np.array_equal(state.accumulator, np.full(shape, 0.5))  # rejected before the step


def test_updates_are_deterministic():
    g = np.array([[0.7, -0.3]])
    runs = []
    for _ in range(2):
        ada = UpdateRuleState.adagrad((1, 2))
        h = np.zeros((1, 2))
        for t in (1, 2, 3):
            h = apply_update(h, g, t, StepSchedule.inverse_decay(0.1, 0.01), ada)
        runs.append(h)
    assert np.array_equal(runs[0], runs[1])
