"""Experiment harness: config plumbing, deterministic artifacts, report
self-consistency, and the stability probe."""

import json
import math

import numpy as np
import pytest

from adasamp import (
    StepSchedule,
    gen_bound_derandomized,
    gen_bound_kl,
    gen_bound_sgd_strongly_convex,
    sgd_stability_convex,
    sgd_stability_initial_risk,
    sgd_stability_strongly_convex,
    zeros_hypothesis,
)
from adasamp.harness import (
    ExperimentConfig,
    MetricsRecord,
    _run_indexed,
    build_datasets,
    dumps_json,
    format_float,
    iterations_to_target,
    probe_stability,
    risk_at,
    run_comparison,
    run_experiment,
)


def _small_cfg(**overrides):
    base = dict(n=60, test_n=40, dim=4, iters=40, trials=2, seed=7,
                cadence=10, batch=4, track_kl=True)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_utility_flag_mapping():
    assert ExperimentConfig(utility="01").utility == "zero_one"
    assert ExperimentConfig(utility="l1").utility == "l1"
    assert ExperimentConfig(utility="zero_one").utility == "zero_one"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(cadence=0)
    with pytest.raises(ValueError):
        ExperimentConfig(delta=1.5)
    # unknown utility passes through the flag map and fails at sampler build
    with pytest.raises(ValueError):
        ExperimentConfig(utility="hinge").sampler_config()


def test_build_datasets_sizes():
    train_ds, test_ds = build_datasets(_small_cfg())
    assert train_ds.n == 60 and test_ds.n == 40
    assert train_ds.num_classes == test_ds.num_classes == 2


def test_format_float_round_trips():
    for x in (0.1, 1.0, -2.5e-17, math.pi, 1e300, 3.0):
        assert float(format_float(x)) == x


def test_dumps_json_shape():
    s = dumps_json({"a": 1, "b": [0.5, None, True], "c": {"d": "x"}})
    assert json.loads(s) == {"a": 1, "b": [0.5, None, True], "c": {"d": "x"}}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_dumps_json_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json({"a": [1.0, bad]})


def test_run_experiment_schema_and_ranges(tmp_path):
    cfg = _small_cfg(out=str(tmp_path / "run"))
    res = run_experiment(cfg)
    assert set(res.report) == {"config", "constants", "schedule_note", "trials", "aggregate"}
    assert len(res.trials) == 2
    for tr in res.trials:
        assert [r.iteration for r in tr.metrics] == [1, 10, 20, 30, 40]
        for rec in tr.metrics:
            assert 0.0 <= rec.empirical_risk <= cfg.loss_bound
            assert 0.0 <= rec.heldout_risk <= cfg.loss_bound
            assert 0.0 <= rec.train_accuracy <= 1.0
            assert 0.0 <= rec.test_accuracy <= 1.0
            assert rec.kl_stat >= 0.0
            assert rec.conditional_kl >= 0.0
        # the t=T callback and the post-hoc statistic sum the same utilities
        # in the same order
        assert tr.metrics[-1].kl_stat == tr.kl_stat
    for name in ("trial_0.metrics.jsonl", "trial_0.metrics.csv", "report.json"):
        assert (tmp_path / "run" / name).exists()


def test_metrics_jsonl_is_deterministic(tmp_path):
    run_experiment(_small_cfg(out=str(tmp_path / "a")))
    run_experiment(_small_cfg(out=str(tmp_path / "b")))
    for k in range(2):
        fa = (tmp_path / "a" / f"trial_{k}.metrics.jsonl").read_bytes()
        fb = (tmp_path / "b" / f"trial_{k}.metrics.jsonl").read_bytes()
        assert fa == fb
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["trials"] == rb["trials"]
    assert ra["aggregate"] == rb["aggregate"]


def test_report_bounds_are_self_consistent():
    cfg = _small_cfg()
    res = run_experiment(cfg)
    consts = res.report["constants"]
    echo = res.report["config"]
    for row in res.report["trials"]:
        b = row["bounds"]
        assert b["stability_convex"] == sgd_stability_convex(
            consts["lipschitz"], echo["eta"], echo["iters"], echo["n"])
        assert b["stability_initial_risk"] == sgd_stability_initial_risk(
            consts["lipschitz"], echo["eta"], echo["iters"], echo["n"],
            consts["smoothness"], b["h0_risk"])
        beta, gamma = sgd_stability_strongly_convex(
            consts["lipschitz"], echo["mu"], echo["n"], echo["iters"])
        assert b["stability_strongly_convex_beta"] == beta
        assert b["stability_strongly_convex_gamma"] == gamma
        for key, fn in (("gen_kl", gen_bound_kl),
                        ("gen_derandomized", gen_bound_derandomized)):
            d = b[key]
            assert fn(d["kl"], d["M"], d["n"], d["T"], d["beta"], d["gamma"],
                      d["delta"]).value == d["value"]
        d = b["gen_sgd_strongly_convex"]
        assert gen_bound_sgd_strongly_convex(
            d["kl"], d["M"], d["L"], d["mu"], d["n"], d["T"], d["delta"]).value == d["value"]


def test_zero_amplitude_run_reports_zero_kl():
    res = run_experiment(_small_cfg(), alpha=0.0)
    for tr in res.trials:
        assert tr.kl_stat == 0.0
        assert all(rec.kl_stat == 0.0 for rec in tr.metrics)


def test_run_comparison_structure(tmp_path):
    cfg = _small_cfg(out=str(tmp_path / "cmp"))
    out = run_comparison(cfg, alphas=[1.0, 2.0])
    comp = out["comparison"]
    assert set(comp["arms"]) == {"uniform", "alpha_1", "alpha_2"}
    assert len(comp["targets"]) == cfg.trials
    uni = comp["arms"]["uniform"]
    assert uni["alpha"] == 0.0
    assert uni["kl_stat_mean"] == 0.0
    for arm in comp["arms"].values():
        assert len(arm["iterations_to_target"]) == cfg.trials
        assert "median_iterations_to_target" in arm
    assert (tmp_path / "cmp" / "comparison.json").exists()


def test_iterations_to_target_and_risk_at():
    recs = [MetricsRecord(iteration=t, empirical_risk=r, heldout_risk=r,
                          train_accuracy=1.0, test_accuracy=1.0, kl_stat=0.0,
                          conditional_kl=None)
            for t, r in [(1, 0.9), (10, 0.5), (20, 0.2), (30, 0.1)]]
    assert iterations_to_target(recs, 0.5) == 10
    assert iterations_to_target(recs, 0.05) is None
    assert risk_at(recs, 20) == 0.2
    assert risk_at(recs, 25) == 0.2
    assert risk_at(recs, 1) == 0.9


def test_indexed_replay_is_deterministic_and_identity_stable():
    train_ds, _ = build_datasets(_small_cfg(mu=0.1))
    sched = StepSchedule.strongly_convex(0.1, 2.0)
    h0 = zeros_hypothesis(2, 4)
    seq = np.random.default_rng(0).integers(0, train_ds.n, size=50)
    a = _run_indexed(train_ds, seq, sched, 0.1, h0, 30.0)
    b = _run_indexed(train_ds, seq, sched, 0.1, h0, 30.0)
    assert np.array_equal(a, b)  # replaying the same sequence is exact


def test_probe_stability_small_run():
    cfg = _small_cfg(n=80, dim=3, iters=60, mu=0.2, trials=1)
    res = probe_stability(cfg, perturbations=5, probe_seeds=3, eval_n=40)
    assert len(res.data_diffs) == 5 and len(res.hyper_diffs) == 5
    assert all(d >= 0.0 for d in res.data_diffs)
    assert all(d >= 0.0 for d in res.hyper_diffs)
    assert res.beta_emp == max(res.data_diffs)
    assert res.gamma_emp == max(res.hyper_diffs)
    assert res.beta_emp <= res.beta_bound
    assert res.gamma_emp <= res.gamma_bound


def test_probe_stability_requires_regularization():
    with pytest.raises(ValueError):
        probe_stability(_small_cfg(mu=0.0), perturbations=2)
