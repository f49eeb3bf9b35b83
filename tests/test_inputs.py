"""Every scalar input boundary: each entry point rejects NaN, +inf and -1
(and, for a count, 2.5 and 3.0) with a ValueError that names the input,
before any data is built or any draw is made."""

import argparse
import inspect
import math
import re

import numpy as np
import pytest

import adasamp.cli as cli
import adasamp.data as data
import adasamp.harness as harness
from adasamp import bounds
from adasamp.adaptive import SamplerConfig, train_many
from adasamp.model import Dataset, zeros_hypothesis
from adasamp.optim import StepSchedule, UpdateRuleState, apply_update

VALUE_BAD = [math.nan, math.inf, -1.0]
COUNT_BAD = [math.nan, math.inf, -1, 2.5, 3.0]

# every bound evaluator's parameter at an accepted value
_BOUND_GOOD = dict(L=1.0, eta=0.1, T=100, n=100, M=1.0, mu=0.1, smoothness=1.0, risk_h0=1.0,
                   kl=0.0, chisq=0.0, beta=0.0, gamma=0.0, delta=0.05, heldout_risk=0.1,
                   test_n=10)


def _never(*args, **kwargs):
    raise AssertionError("data built or drawn before the input was checked")


def _bound(evaluate):
    def call(name, value, monkeypatch):
        params = inspect.signature(evaluate).parameters
        evaluate(**{k: value if k == name else _BOUND_GOOD[k] for k in params})
    return call


def _experiment_config(name, value, monkeypatch):
    harness.ExperimentConfig(**{name: value})


def _sampler_config(name, value, monkeypatch):
    SamplerConfig(**{"amplitude": 1.0, "decay": 0.5, name: value})


def _schedule(kind):
    def call(name, value, monkeypatch):
        good = dict(eta=0.1, kappa=0.01) if kind == "inverse_decay" else dict(mu=0.1,
                                                                              smoothness=1.0)
        StepSchedule(kind, **{**good, name: value})
    return call


def _train_many(name, value, monkeypatch):
    ds = Dataset.from_arrays(np.eye(2), [0, 1], 2)
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    try:
        train_many(ds, [SamplerConfig(1.0, 0.5, iterations=3)], StepSchedule.constant(0.1),
                   UpdateRuleState.sgd(), h0s=[zeros_hypothesis(2, 2)], rngs=[rng],
                   metric_fn=_never, **{"mu": 0.0, "M": 5.0, name: value})
    finally:
        assert rng.bit_generator.state == start


def _apply_update(name, value, monkeypatch):
    rule = UpdateRuleState.adagrad((2, 2))
    try:
        apply_update(np.ones((2, 2)), np.ones((2, 2)), sched=StepSchedule.constant(0.1),
                     state=rule, **{"t": 1, "domain_radius": 1.0, name: value})
    finally:
        assert not rule.accumulator.any()  # rejected before the step


def _synth_arrays(name, value, monkeypatch):
    monkeypatch.setattr(data.np.random, "default_rng", _never)
    args = dict(n=10, dim=3, classes=2, imbalance=0.5, noise=0.1, seed=0, separation=1.0)
    data.synth_arrays(**{**args, name: value})


def _build_datasets(name, value, monkeypatch):
    monkeypatch.setattr(harness, "load_csv", _never)
    monkeypatch.setattr(harness, "synth_arrays", _never)
    source = dict(csv="unread.csv") if name == "test_n" else {}  # n is read only when synthesizing
    harness.build_datasets(harness.ExperimentConfig(**source, **{name: value}))


def _dataset(name, value, monkeypatch):
    Dataset(np.eye(2), np.array([0, 1]), value)


def _probe_stability(name, value, monkeypatch):
    monkeypatch.setattr(harness, "synth_data", _never)
    counts = dict(perturbations=2, probe_seeds=1)
    if name == "n":
        harness.probe_stability(harness.ExperimentConfig(mu=0.1, n=value), **counts)
    else:
        harness.probe_stability(harness.ExperimentConfig(mu=0.1), **{**counts, name: value})


def _verify_sampler(name, value, monkeypatch):
    monkeypatch.setattr(cli, "WeightTree", _never)
    args = argparse.Namespace(sizes=[2, 7], draws=10, seed=0)
    if name == "--sizes":
        args.sizes = [2, value]
    else:
        args.draws = value
    cli.cmd_verify_sampler(args)


# entry point -> (its values, its counts)
ENTRY_POINTS = {
    "sgd_stability_convex": (_bound(bounds.sgd_stability_convex), ["eta"], ["T", "n"]),
    "sgd_stability_nonconvex": (_bound(bounds.sgd_stability_nonconvex), [], ["T", "n"]),
    "sgd_stability_initial_risk": (_bound(bounds.sgd_stability_initial_risk),
                                   ["eta", "risk_h0"], ["T", "n"]),
    "sgd_stability_strongly_convex": (_bound(bounds.sgd_stability_strongly_convex), [],
                                      ["n", "T"]),
    "gen_bound_chisq": (_bound(bounds.gen_bound_chisq), ["chisq", "beta", "delta"], ["n"]),
    "gen_bound_kl": (_bound(bounds.gen_bound_kl), ["kl", "beta", "gamma", "delta"],
                     ["n", "T"]),
    "gen_bound_sgd_strongly_convex": (_bound(bounds.gen_bound_sgd_strongly_convex),
                                      ["kl"], []),
    "gen_bound_derandomized": (_bound(bounds.gen_bound_derandomized),
                               ["kl", "beta", "gamma"], []),
    "heldout_risk_bound": (_bound(bounds.heldout_risk_bound), ["M", "heldout_risk", "delta"],
                           ["test_n"]),
    "ExperimentConfig": (_experiment_config, ["eta", "delta"], ["trials", "cadence"]),
    "SamplerConfig": (_sampler_config, ["amplitude", "decay"], ["batch_size", "iterations"]),
    "train_many": (_train_many, ["mu", "M", "domain_radius"], ["metric_every"]),
    "apply_update": (_apply_update, ["domain_radius"], ["t"]),
    "StepSchedule.inverse_decay": (_schedule("inverse_decay"), ["eta", "kappa"], []),
    "StepSchedule.strongly_convex": (_schedule("strongly_convex"), ["mu", "smoothness"], []),
    "build_datasets": (_build_datasets, [], ["n", "test_n"]),
    "synth_arrays": (_synth_arrays, ["imbalance", "noise", "separation"],
                     ["n", "dim", "classes"]),
    "Dataset": (_dataset, [], ["num_classes"]),
    "probe_stability": (_probe_stability, [], ["n", "perturbations", "probe_seeds"]),
    "verify-sampler": (_verify_sampler, [], ["--sizes", "--draws"]),
}

CASES = [pytest.param(entry, name, bad, id=f"{entry}-{name}-{bad!r}")
         for entry, (_, values, counts) in ENTRY_POINTS.items()
         for names, bads in ((values, VALUE_BAD), (counts, COUNT_BAD))
         for name in names for bad in bads]


@pytest.mark.parametrize("entry,name,bad", CASES)
def test_each_entry_point_rejects_a_bad_scalar_naming_it(monkeypatch, entry, name, bad):
    call = ENTRY_POINTS[entry][0]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call(name, bad, monkeypatch)


@pytest.mark.parametrize("call,message", [
    # each accepted at the parent, or rejected naming another input or the formula
    (lambda: SamplerConfig(1.0, 0.5, batch_size=math.nan),
     "batch_size must be an integer, got nan"),
    (lambda: SamplerConfig(1.0, 0.5, iterations=2.5), "iterations must be an integer, got 2.5"),
    (lambda: harness.ExperimentConfig(trials=2.5), "trials must be an integer, got 2.5"),
    (lambda: harness.ExperimentConfig(cadence=math.nan), "cadence must be an integer, got nan"),
    (lambda: harness.ExperimentConfig(loss_bound=math.inf), "loss_bound must be finite, got inf"),
    (lambda: harness.ExperimentConfig(loss_bound=0.0), "M must be positive and finite"),
    (lambda: harness.ExperimentConfig(loss_bound=-1.0), "M must be positive and finite"),
    (lambda: bounds.sgd_stability_convex(1.0, 0.1, 10, 2.5), "n must be an integer, got 2.5"),
    (lambda: bounds.gen_bound_kl(math.nan, 1.0, 10, 10, 0.0, 0.0, 0.05),
     "kl must be nonnegative and finite, got nan"),
    (lambda: bounds.heldout_risk_bound(0.1, math.nan, 10, 0.05), "M must be positive and finite"),
    (lambda: SamplerConfig(-1.0, 0.5), "amplitude must be nonnegative and finite, got -1.0"),
    (lambda: SamplerConfig(1.0, 1.0), "decay must lie in (0, 1), got 1.0"),
    (lambda: bounds.gen_bound_chisq(0.0, 1.0, 1, 0.0, 0.0), "delta must lie in (0, 1), got 0.0"),
    (lambda: bounds.sgd_stability_nonconvex(1.0, 1.0, 0.1, 10, 1, 1.0), "n must be >= 2"),
    (lambda: data.synth_arrays(2, 3, 3, 0.0, 0.0, 0, 1.0), "n must be >= 3"),
    (lambda: data.synth_arrays(10, 3, 2, 1.0, 0.0, 0, 1.0),
     "imbalance must lie in [0, 1), got 1.0"),
    (lambda: data.synth_arrays(10, 3, 2, 0.0, 1.0, 0, 1.0), "noise must lie in [0, 1), got 1.0"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_a_rule_rejects_with_its_own_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_count_accepts_a_numpy_integer_at_its_least_value():
    assert SamplerConfig(0.0, 0.5, batch_size=np.int64(1), iterations=np.int32(1)).iterations == 1
    assert bounds.sgd_stability_nonconvex(1.0, 1.0, 0.1, np.int64(1), np.int32(2), 1.0) > 0
