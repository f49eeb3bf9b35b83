"""Experiment harness: config plumbing, deterministic artifacts, report
self-consistency, and the stability probe."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import adasamp.bounds as bounds
import adasamp.harness as harness
import adasamp.model as model
from adasamp import (
    Dataset,
    SamplerConfig,
    StepSchedule,
    UpdateRuleState,
    gen_bound_derandomized,
    gen_bound_kl,
    gen_bound_sgd_strongly_convex,
    kl_from_utility_sum,
    sgd_stability_convex,
    sgd_stability_initial_risk,
    sgd_stability_strongly_convex,
    train_many,
    zeros_hypothesis,
)
from adasamp.bounds import heldout_risk_bound
from adasamp.data import save_csv, synth_data
from adasamp.harness import (
    SYNTHETIC_TASK,
    ExperimentConfig,
    MetricsRecord,
    _data_seed,
    _run_coupled,
    build_datasets,
    dumps_json,
    format_float,
    iterations_to_target,
    probe_stability,
    risk_at,
    run_comparison,
    run_experiment,
    unread_fields,
)
from adasamp.model import (
    PROB_FLOOR,
    Dataset,
    default_domain_radius,
    regularity_constants,
)
from oracles import naive_run_indexed, naive_softmax


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
    # an unknown utility passes through the flag map and fails the sampler check
    with pytest.raises(ValueError):
        ExperimentConfig(utility="hinge").sampler_config()


@pytest.mark.parametrize("overrides,message", [
    (dict(rule="bogus"), "unknown update rule 'bogus'"),
    (dict(utility="hinge"), "unknown utility kind 'hinge'"),
    (dict(alpha=-1.0), "amplitude must be nonnegative and finite, got -1.0"),
])
def test_a_config_the_sampler_rejects_fails_at_construction(overrides, message):
    # the CLI's exit 2 for each sampler value is checked in test_cli
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**overrides)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(ExperimentConfig(), **overrides)  # an arm is checked as it is built


FLOAT_FIELDS = ["imbalance", "noise", "separation", "mu", "loss_bound", "domain_radius", "alpha",
                "decay", "eta", "kappa", "delta", "target"]


def test_the_float_fields_are_the_configs_float_fields():
    # any other spelling of a float annotation would escape the finiteness check
    assert FLOAT_FIELDS == [f.name for f in dataclasses.fields(ExperimentConfig)
                            if "float" in f.type]
    assert {f.type for f in dataclasses.fields(ExperimentConfig)
            if f.name in FLOAT_FIELDS} == {"float", "float | None"}


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_a_non_finite_float_field_is_rejected_at_construction(name):
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        message = f"^{name} must be finite, got {float(bad)!r}$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{name: bad})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(_small_cfg(), **{name: bad})


def _echo(**overrides):
    return run_experiment(_small_cfg(**overrides)).report["config"]


def test_a_synthetic_run_echoes_every_config_field():
    assert list(_echo()) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_a_csv_run_echoes_no_synthetic_task_field(tmp_path):
    path = tmp_path / "d.csv"
    save_csv(synth_data(50, 3, 2, 0.6, 0.1, seed=1, separation=4.0), path)
    echo = _echo(csv=str(path), test_n=10)
    assert [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in echo] == list(
        SYNTHETIC_TASK)
    assert echo["csv"] == str(path) and echo["test_n"] == 10 and echo["seed"] == 7


@pytest.mark.parametrize("schedule", ["constant", "strongly_convex"])
def test_a_schedule_without_kappa_echoes_eta_but_not_kappa(schedule):
    echo = _echo(schedule=schedule, mu=0.1)
    assert "kappa" not in echo
    assert echo["eta"] == 0.05 and echo["schedule"] == schedule


def test_each_compare_arm_echoes_its_own_alpha_and_out(tmp_path):
    base = tmp_path / "cmp"
    results = run_comparison(_small_cfg(out=str(base)), alphas=[1.5])["results"]
    for name, alpha in (("uniform", 0.0), ("alpha_1.5", 1.5)):
        echo = results[name].report["config"]
        assert echo["alpha"] == alpha and echo["out"] == str(base / name)
        assert json.loads((base / name / "report.json").read_text())["config"] == echo


@pytest.mark.parametrize("schedule", ["constant", "inverse_decay", "strongly_convex"])
def test_kappa_is_unread_exactly_where_it_does_not_move_the_schedule(schedule):
    consts = regularity_constants(build_datasets(_small_cfg())[0], 0.01, 5.0)
    cfg = ExperimentConfig(schedule=schedule)
    smooth = consts.smoothness
    moved = cfg.step_schedule(smooth) != dataclasses.replace(cfg, kappa=0.5).step_schedule(smooth)
    unread = unread_fields(cfg, {"schedule": schedule, "eta": 0.1, "kappa": 0.5})
    assert unread == ({} if moved else {"schedule": ["kappa"]})


def test_a_csv_run_reads_no_synthetic_task_field(tmp_path):
    path = tmp_path / "d.csv"
    save_csv(synth_data(50, 3, 2, 0.6, 0.1, seed=1, separation=4.0), path)
    cfg = _small_cfg(csv=str(path), test_n=10)
    other = dict(n=7, dim=5, classes=4, imbalance=0.2, noise=0.3, separation=9.0)
    assert set(other) == set(SYNTHETIC_TASK)
    for got, want in zip(build_datasets(dataclasses.replace(cfg, **other)), build_datasets(cfg)):
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
    assert unread_fields(cfg, {"csv": cfg.csv, "seed": 1, "test_n": 10, **other}) == {
        "csv": ["n", "dim", "classes", "imbalance", "noise", "separation"]}
    assert unread_fields(cfg, {"alpha": 1.0}, alphas=[1.0]) == {"alphas": ["alpha"]}


def test_build_datasets_sizes():
    train_ds, test_ds = build_datasets(_small_cfg())
    assert train_ds.n == 60 and test_ds.n == 40
    assert train_ds.num_classes == test_ds.num_classes == 2


@pytest.mark.parametrize("overrides", [
    {}, dict(classes=3, noise=0.2, imbalance=0.0), dict(n=1, test_n=9, classes=4, dim=5),
    dict(n=300, test_n=1, noise=0.0, separation=12.0),
])
def test_synthetic_build_is_the_split_of_one_synth_data_call_bitwise(overrides):
    cfg = _small_cfg(**overrides)
    full = synth_data(cfg.n + cfg.test_n, cfg.dim, cfg.classes, cfg.imbalance, cfg.noise,
                      seed=_data_seed(cfg.seed), separation=cfg.separation)
    split = [Dataset.from_arrays(full.features[:cfg.n], full.labels[:cfg.n], full.num_classes),
             Dataset.from_arrays(full.features[cfg.n:], full.labels[cfg.n:], full.num_classes)]
    for got, want in zip(build_datasets(cfg), split):
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.feature_radius == want.feature_radius
        assert got.num_classes == want.num_classes


def test_both_synthetic_splits_are_views_of_one_drawn_array():
    # a copy of either split would add a second feature array at n = 10**6
    train_ds, test_ds = build_datasets(_small_cfg(noise=0.1))
    for a, b in ((train_ds.features, test_ds.features), (train_ds.labels, test_ds.labels)):
        assert a.base is not None and a.base is b.base
        assert a.base.size == a.size + b.size


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


def test_metrics_files_bytes():
    records = [MetricsRecord(1, 0.1, 1.0, -0.0, 5e-324, 1e300, None),
               MetricsRecord(20, 1e300, 5e-324, 0.1, 1.0, -0.0, 0.1)]
    jsonl, csv = harness.write_metrics(records)
    assert jsonl == (
        '{"iteration": 1, "empirical_risk": 0.10000000000000001, "heldout_risk": 1, '
        '"train_accuracy": -0, "test_accuracy": 4.9406564584124654e-324, '
        '"kl_stat": 1.0000000000000001e+300, "conditional_kl": null}\n'
        '{"iteration": 20, "empirical_risk": 1.0000000000000001e+300, '
        '"heldout_risk": 4.9406564584124654e-324, "train_accuracy": 0.10000000000000001, '
        '"test_accuracy": 1, "kl_stat": -0, "conditional_kl": 0.10000000000000001}\n')
    assert csv == (
        "iteration,empirical_risk,heldout_risk,train_accuracy,test_accuracy,kl_stat,"
        "conditional_kl\n"
        "1,0.10000000000000001,1,-0,4.9406564584124654e-324,1.0000000000000001e+300,\n"
        "20,1.0000000000000001e+300,4.9406564584124654e-324,0.10000000000000001,1,-0,"
        "0.10000000000000001\n")


def test_run_experiment_schema_and_ranges(tmp_path):
    cfg = _small_cfg(out=str(tmp_path / "run"))
    res = run_experiment(cfg)
    assert set(res.report) == {"config", "constants", "stability", "schedule_note", "kl_note",
                               "trials", "aggregate"}
    assert "only at batch 1" in res.report["kl_note"]
    assert len(res.metrics) == 2
    for records, row in zip(res.metrics, res.report["trials"]):
        assert [r.iteration for r in records] == [1, 10, 20, 30, 40]
        for rec in records:
            assert 0.0 <= rec.empirical_risk <= cfg.loss_bound
            assert 0.0 <= rec.heldout_risk <= cfg.loss_bound
            assert 0.0 <= rec.train_accuracy <= 1.0
            assert 0.0 <= rec.test_accuracy <= 1.0
            assert rec.kl_stat >= 0.0
            assert rec.conditional_kl >= 0.0
        # the report reads the t = T tick's statistic
        assert records[-1].kl_stat == row["kl_stat"]
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


REPORT_KEYS = ["config", "constants", "stability", "schedule_note", "kl_note", "trials",
               "aggregate"]
CONSTANTS_KEYS = ["lipschitz", "smoothness", "feature_radius", "train_n"]
TRIAL_KEYS = ["final_empirical_risk", "final_heldout_risk", "final_train_accuracy",
              "final_test_accuracy", "kl_stat", "iterations_to_target", "trial", "bounds"]


@pytest.mark.parametrize("mu, stability_keys, bounds_keys", [
    (0.01, ["convex", "initial_risk", "h0_risk", "strongly_convex_beta",
            "strongly_convex_gamma"], ["gen_kl", "gen_derandomized", "test_set_hoeffding"]),
    (0.0, ["convex", "initial_risk", "h0_risk", "note"], ["test_set_hoeffding"]),
])
def test_report_layout_states_each_value_once(mu, stability_keys, bounds_keys):
    # an arm's coefficients sit once in `stability`; a trial row holds only
    # what varies by trial, and the config echo alone carries mu, M and test_n
    report = run_experiment(_small_cfg(mu=mu, target=0.5)).report
    assert list(report) == REPORT_KEYS
    assert list(report["constants"]) == CONSTANTS_KEYS
    assert list(report["stability"]) == stability_keys
    for k, row in enumerate(report["trials"]):
        assert row["trial"] == k
        assert list(row) == TRIAL_KEYS
        assert list(row["bounds"]) == bounds_keys
    assert {"mu", "loss_bound", "test_n"} <= set(report["config"])
    if mu == 0:
        assert report["stability"]["note"] == (
            "mu = 0: no strongly-convex (beta, gamma) pair; KL bounds omitted")


def test_report_bounds_are_self_consistent():
    cfg = _small_cfg()
    res = run_experiment(cfg)
    consts = res.report["constants"]
    stab = res.report["stability"]
    echo = res.report["config"]
    L, M, delta = consts["lipschitz"], echo["loss_bound"], echo["delta"]
    n, T = echo["n"], echo["iters"]
    assert consts["train_n"] == n
    # the arm's coefficients, checked once against their formulas
    h0 = zeros_hypothesis(echo["classes"], echo["dim"])
    _, test_ds = build_datasets(cfg)
    assert stab["h0_risk"] == model._risk_and_accuracy(h0, test_ds, M)[0]
    assert stab["convex"] == sgd_stability_convex(L, echo["eta"], T, n)
    assert stab["initial_risk"] == sgd_stability_initial_risk(
        L, echo["eta"], T, n, consts["smoothness"], stab["h0_risk"])
    beta, gamma = sgd_stability_strongly_convex(L, echo["mu"], n, T)
    assert (stab["strongly_convex_beta"], stab["strongly_convex_gamma"]) == (beta, gamma)
    for row in res.report["trials"]:
        b = row["bounds"]
        # each trial's KL bounds at its own statistic and the arm's (beta, gamma)
        for key, fn in (("gen_kl", gen_bound_kl), ("gen_derandomized", gen_bound_derandomized)):
            expected = fn(row["kl_stat"], M, n, T, beta, gamma, delta)
            assert b[key] == {**expected.to_json(), "vacuous": expected.value >= M}
            assert b[key]["vacuous"] is (b[key]["value"] >= M)
        # gen_kl is the strongly convex SGD bound, which the report no longer restates
        assert gen_bound_sgd_strongly_convex(
            row["kl_stat"], M, L, echo["mu"], n, T, delta).value == b["gen_kl"]["value"]
        d = b["test_set_hoeffding"]
        assert d == heldout_risk_bound(row["final_heldout_risk"], M, echo["test_n"],
                                       delta).to_json()


def test_each_stability_formula_runs_once_per_arm(monkeypatch):
    calls = {}
    for name in ("sgd_stability_convex", "sgd_stability_initial_risk",
                 "sgd_stability_strongly_convex"):
        def counted(*args, _name=name, _fn=getattr(bounds, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(bounds, name, counted)
    run_comparison(_small_cfg(trials=3), alphas=[1.0, 2.0])
    assert calls == {"sgd_stability_convex": 3, "sgd_stability_initial_risk": 3,
                     "sgd_stability_strongly_convex": 3}


def test_stability_does_not_depend_on_the_trial_count(tmp_path):
    texts = []
    for trials in (1, 3):
        out = tmp_path / f"trials-{trials}"
        run_experiment(_small_cfg(trials=trials, out=str(out)))
        report = json.loads((out / "report.json").read_text())
        assert len(report["trials"]) == trials
        texts.append(dumps_json(report["stability"]))
    assert texts[0] == texts[1]


def test_every_kl_bound_is_vacuous_at_the_defaults():
    # a final record at the defaults' size; kl 0 gives each KL bound its least value
    cfg = ExperimentConfig()
    train_ds, test_ds = build_datasets(cfg)
    consts = regularity_constants(train_ds, cfg.mu, cfg.loss_bound)
    final = MetricsRecord(cfg.iters, 0.05, 0.06, 0.99, 0.99, 0.0, None)
    report = harness.build_report(cfg, consts, train_ds, test_ds, [[final]])
    b = report["trials"][0]["bounds"]
    for key in ("gen_kl", "gen_derandomized"):
        assert b[key]["vacuous"] is True and b[key]["value"] >= cfg.loss_bound, key
    assert b["test_set_hoeffding"]["value"] == pytest.approx(0.06 + 0.2737, abs=1e-4)
    # a unit-norm regime with mu 1, where the uniform arm's KL bound says something
    unit = dataclasses.replace(consts, lipschitz=2 * math.sqrt(2.0), smoothness=1.5,
                               strong_convexity=1.0)
    tight = harness.build_report(dataclasses.replace(cfg, mu=1.0), unit, train_ds, test_ds,
                                 [[final]])["trials"][0]["bounds"]
    assert tight["gen_kl"]["vacuous"] is False and tight["gen_kl"]["value"] < cfg.loss_bound


def test_zero_amplitude_run_reports_zero_kl():
    res = run_experiment(_small_cfg(alpha=0.0))
    for records, row in zip(res.metrics, res.report["trials"]):
        assert row["kl_stat"] == 0.0
        assert all(rec.kl_stat == 0.0 for rec in records)


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


def test_each_metrics_tick_scores_each_dataset_once(monkeypatch):
    calls = {"tick": 0, "losses": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(harness, "_risk_and_accuracy",
                        counted("tick", harness._risk_and_accuracy))
    monkeypatch.setattr(model, "_bounded_losses", counted("losses", model._bounded_losses))
    out = run_comparison(_small_cfg(), alphas=[1.0, 2.0])
    results = out["results"].values()
    ticks = sum(len(records) for result in results for records in result.metrics)
    assert ticks == 3 * 2 * 5  # arms x trials x (iters / cadence + 1)
    # one scoring each of train and test per tick, and the report's h0 risk
    # once per arm, each one `_bounded_losses` block here
    assert calls == {"tick": 2 * ticks + 3, "losses": 2 * ticks + 3}


def test_a_wide_run_peaks_less_than_one_float_a_row_above_its_floor():
    # the floor is what a tracked-KL tick must hold: features, labels, the
    # weight tree, the accumulators and one dataset's (n, C) scores
    cfg = ExperimentConfig(n=200_000, batch=1000, iters=20, alpha=2.0, track_kl=True, trials=1)
    run_experiment(dataclasses.replace(cfg, n=50, iters=2))  # lazy imports land outside the trace
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, n = cfg.n + cfg.test_n, cfg.n
    tree = 2 * (1 << math.ceil(math.log2(n)))  # floats: leaves padded to a power of two, and labels
    floor = 8 * (rows * cfg.dim + rows + tree + n + n * cfg.classes)
    assert peak - floor < 8 * n, (peak - floor) / (8 * n)


def test_arms_trained_together_write_the_bytes_of_arms_trained_alone(tmp_path):
    cfg = _small_cfg(out=str(tmp_path / "cmp"), trials=3, rule="adagrad")
    run_comparison(cfg, alphas=[1.0, 2.5])
    for name, alpha in (("uniform", 0.0), ("alpha_1", 1.0), ("alpha_2.5", 2.5)):
        together, alone = tmp_path / "cmp" / name, tmp_path / "alone" / name
        run_experiment(dataclasses.replace(cfg, out=str(alone), alpha=alpha))
        for k in range(cfg.trials):
            for ext in ("jsonl", "csv"):
                f = f"trial_{k}.metrics.{ext}"
                assert (together / f).read_bytes() == (alone / f).read_bytes()
        report = (together / "report.json").read_text().replace(str(together), "OUT")
        assert report == (alone / "report.json").read_text().replace(str(alone), "OUT")


def test_a_failing_report_leaves_no_output_behind(tmp_path, monkeypatch):
    # the last arm's bound fails after every arm has trained and the first arms'
    # reports are built: still no directory or file is written
    calls = []
    gen_bound_kl = bounds.gen_bound_kl

    def failing_last_arm(*args):
        calls.append(1)
        if len(calls) > 2 * 2:  # arms before the last x trials
            raise ValueError("bound failed")
        return gen_bound_kl(*args)

    monkeypatch.setattr(bounds, "gen_bound_kl", failing_last_arm)
    out = tmp_path / "cmp"
    with pytest.raises(ValueError, match="bound failed"):
        run_comparison(_small_cfg(out=str(out)), alphas=[1.0, 2.0])
    assert len(calls) == 2 * 2 + 1
    assert not out.exists()


def test_a_report_that_cannot_be_written_leaves_no_output_behind(tmp_path, monkeypatch):
    # the last arm's report holds an inf that only its JSON rendering rejects;
    # every file is rendered before any is written, so nothing is
    calls = []
    convex = bounds.sgd_stability_convex

    def inf_for_last_arm(*args):
        calls.append(1)
        return math.inf if len(calls) > 2 else convex(*args)  # once per arm before the last

    monkeypatch.setattr(bounds, "sgd_stability_convex", inf_for_last_arm)
    out = tmp_path / "cmp"
    with pytest.raises(ValueError, match="non-finite number inf"):
        run_comparison(_small_cfg(out=str(out)), alphas=[1.0, 2.0])
    assert len(calls) == 3
    assert not out.exists()


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
    X, y = train_ds.features, train_ds.labels
    pair = _run_coupled(X, y, np.stack([seq, seq]), sched, 0.1, h0, 30.0)
    alone = _run_coupled(X, y, seq[None], sched, 0.1, h0, 30.0)
    # replaying the same sequence is exact, alone or beside another run
    assert np.array_equal(pair[0], pair[1]) and np.array_equal(pair[0], alone[0])
    assert not h0.any()


class _GatherLog(np.ndarray):
    """A table view that logs the shape of every index it is gathered by."""

    def __getitem__(self, key):
        self.shapes.append(np.shape(key))
        return np.asarray(self)[key]


_COUPLED_CASES = [  # classes, dim, R, T, exact-zero features, model._BLOCK_ROWS
    (2, 4, 12, 25, False, None), (3, 5, 12, 25, False, None), (2, 3, 1, 40, False, None),
    (3, 3, 9, 1, False, None), (2, 8, 1, 1, False, None), (10, 64, 7, 20, False, None),
    (3, 5, 9, 25, True, None),
    (2, 4, 5, 23, True, 35),  # 7 steps a gather: T spans 4 gathers and ends inside one
]


@pytest.mark.parametrize("classes,dim,R,T,zeros,block_rows", _COUPLED_CASES, ids=[
    "-".join(map(str, case[:4])) + ("-zeros" if case[4] else "")
    + (f"-block{case[5]}" if case[5] else "") for case in _COUPLED_CASES])
def test_coupled_kernel_replays_the_per_run_loop_bitwise(monkeypatch, classes, dim, R, T,
                                                         zeros, block_rows):
    ds = synth_data(30, dim, classes, 0.7, 0.05, seed=3, separation=3.4)
    if zeros:  # a zero column, and scattered zero entries
        X = ds.features.copy()
        X[:, 0] = 0.0
        X[::4, dim - 1] = 0.0
        ds = Dataset.from_arrays(X, ds.labels, classes)
    if block_rows is not None:
        monkeypatch.setattr(model, "_BLOCK_ROWS", block_rows)
    mu = 0.1
    sched = StepSchedule.strongly_convex(mu, 0.5 * ds.feature_radius ** 2 + mu)
    rng = np.random.default_rng(R * T)
    h0 = 0.01 * rng.standard_normal((classes, dim))
    indices = rng.integers(0, ds.n, size=(R, T))
    free = [naive_run_indexed(ds, row, sched, mu, h0, None) for row in indices]
    # a radius at the median unprojected final norm: the projection fires on
    # some runs and never on others
    radius = float(np.median([np.sqrt((h * h).sum()) for h in free]))
    labels = ds.labels.view(_GatherLog)
    labels.shapes = []
    H = _run_coupled(ds.features, labels, indices, sched, mu, h0, radius)
    expect = [naive_run_indexed(ds, row, sched, mu, h0, radius) for row in indices]
    assert H.shape == (R, classes, dim)
    for r in range(R):
        assert H[r].tobytes() == expect[r].tobytes()
    steps = [shape[0] for shape in labels.shapes]  # one gather per block of steps
    assert sum(steps) == T and labels.shapes == [(k, R, 1) for k in steps]
    if block_rows is not None:  # at least 3 gathers, the last one partial
        assert len(steps) >= 3 and steps[-1] < steps[0]
    if R > 1:
        projected = [not np.array_equal(a, b) for a, b in zip(expect, free)]
        assert any(projected) and not all(projected)


def _per_run_probe(cfg, perturbations, probe_seeds, eval_n):
    """probe_stability's diffs with one per-run loop per coupled run and a
    dataset copy per replaced example."""
    n, T, M, mu = cfg.n, cfg.iters, cfg.loss_bound, cfg.mu
    pool = synth_data(n + perturbations + eval_n, cfg.dim, cfg.classes, cfg.imbalance,
                      cfg.noise, seed=_data_seed(cfg.seed), separation=cfg.separation)
    consts = regularity_constants(pool, mu, M)
    radius = default_domain_radius(pool, mu)
    sched = StepSchedule.strongly_convex(mu, consts.smoothness)
    S = Dataset.from_arrays(pool.features[:n], pool.labels[:n], pool.num_classes)
    repl = slice(n, n + perturbations)
    eval_X = pool.features[n + perturbations:]
    eval_y = pool.labels[n + perturbations:]
    h0 = zeros_hypothesis(pool.num_classes, pool.feature_dim)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2])

    def losses(h):
        P = naive_softmax(eval_X @ h.T)
        py = np.maximum(P[np.arange(eval_X.shape[0]), eval_y], PROB_FLOOR)
        return np.minimum(-np.log(py), M)

    def run(ds, seq):
        return naive_run_indexed(ds, seq, sched, mu, h0, radius)

    seqs = [rng.integers(0, n, size=T) for _ in range(probe_seeds)]
    base_losses = [losses(run(S, seq)) for seq in seqs]
    data_diffs = np.zeros(perturbations)
    for p in range(perturbations):
        site = int(rng.integers(n))
        X2 = S.features.copy()
        y2 = S.labels.copy()
        X2[site] = pool.features[repl][p]
        y2[site] = pool.labels[repl][p]
        S2 = Dataset.from_arrays(X2, y2, pool.num_classes)
        gap = np.zeros(eval_X.shape[0])
        for j, seq in enumerate(seqs):
            gap += base_losses[j] - losses(run(S2, seq))
        data_diffs[p] = np.abs(gap / probe_seeds).max()
    hyper_diffs = np.zeros(perturbations)
    for p in range(perturbations):
        seq = rng.integers(0, n, size=T)
        k = int(rng.integers(T))
        v = int(rng.integers(n - 1))
        seq2 = seq.copy()
        seq2[k] = v + (v >= seq[k])
        hyper_diffs[p] = np.abs(losses(run(S, seq)) - losses(run(S, seq2))).max()
    return data_diffs, hyper_diffs


@pytest.mark.parametrize("overrides,perturbations,probe_seeds,eval_n", [
    (dict(n=50, dim=3, iters=30, mu=0.2, seed=1), 3, 4, 30),
    (dict(n=41, dim=4, classes=3, iters=23, mu=0.3, seed=5), 4, 1, 17),
])
def test_probe_stability_replays_per_run_probes_bitwise(monkeypatch, overrides, perturbations,
                                                        probe_seeds, eval_n):
    monkeypatch.setattr(harness, "PROBE_EVAL_N", eval_n)
    cfg = ExperimentConfig(**overrides)
    res = probe_stability(cfg, perturbations, probe_seeds=probe_seeds)
    data_diffs, hyper_diffs = _per_run_probe(cfg, perturbations, probe_seeds, eval_n)
    assert np.array_equal(res.data_diffs, data_diffs)
    assert np.array_equal(res.hyper_diffs, hyper_diffs)


def test_probe_stability_small_run(monkeypatch):
    monkeypatch.setattr(harness, "PROBE_EVAL_N", 40)
    cfg = _small_cfg(n=80, dim=3, iters=60, mu=0.2, trials=1)
    res = probe_stability(cfg, perturbations=5, probe_seeds=3)
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


@pytest.mark.parametrize("kwargs,message", [
    (dict(perturbations=0), "perturbations must be >= 1"),
    (dict(perturbations=2, probe_seeds=0), "probe_seeds must be >= 1"),
])
def test_probe_stability_rejects_empty_counts(kwargs, message):
    with pytest.raises(ValueError, match=message):
        probe_stability(_small_cfg(mu=0.1), **kwargs)


@pytest.mark.parametrize("overrides,message", [
    pytest.param(dict(iters=0), "iterations must be >= 1", id="iters0"),
    (dict(n=1), "n must be >= 2"),
])
def test_probe_stability_rejects_empty_runs_and_datasets(overrides, message):
    with pytest.raises(ValueError, match=message):
        probe_stability(_small_cfg(mu=0.1, **overrides), perturbations=2)


@pytest.mark.parametrize("field,value", [("csv", "data.csv"), ("domain_radius", 1e-3)])
def test_probe_stability_rejects_the_fields_it_would_ignore(monkeypatch, field, value):
    # the probes synthesize their own task at the default radius; a set field
    # is refused before any data is drawn
    def no_data(*args, **kwargs):
        raise AssertionError("data drawn before the config was checked")

    monkeypatch.setattr(harness, "synth_data", no_data)
    with pytest.raises(ValueError, match=f"^stability probes do not read {field}; "):
        probe_stability(_small_cfg(mu=0.1, **{field: value}), perturbations=2)


@pytest.mark.parametrize("n,batch", [(7, 1), (5, 8)])
def test_final_tick_kl_stat_is_the_trace_utility_sum_bitwise(n, batch):
    # the report and the metrics files read the t = T tick's statistic, which
    # is kl_from_utility_sum of the run's unrecorded trace
    ds = synth_data(n, 3, 2, 0.6, 0.1, seed=n, separation=4.0)
    T, amps = 23, [0.7, 1.3, 2.0]
    cfgs = [SamplerConfig(amplitude=a, decay=0.4, batch_size=batch, iterations=T) for a in amps]

    def runs(record):
        return train_many(ds, cfgs, StepSchedule.inverse_decay(0.3, 0.01), UpdateRuleState.sgd(),
                          0.01, 5.0, [zeros_hypothesis(2, 3)] * len(amps),
                          [np.random.default_rng(s) for s in range(len(amps))],
                          metric_every=5, metric_fn=lambda r, t, h, kl_stat, cond: (t, kl_stat),
                          record=record)

    recorded = runs(True)
    for (_, trace), (_, ref) in zip(runs(False), recorded):
        t, kl_stat = trace.metrics[-1]
        assert t == T
        assert kl_stat > 0.0
        assert kl_stat.hex() == kl_from_utility_sum(trace).hex()
        assert ref.utility_sum.hex() == trace.utility_sum.hex()
    if batch > 1:  # some batch drew an index twice, so it updated fewer than it drew
        assert any(len(np.unique(idx)) < batch for _, ref in recorded for idx in ref.indices)
