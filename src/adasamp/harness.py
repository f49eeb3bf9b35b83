"""Experiment harness: configs, metrics files, trials, and stability probes.

run_experiment trains `trials` independent runs of one ExperimentConfig, which
checks every value, sampler values included, when built, before any data is
read. It keeps each trial's metrics records and a final JSON report that
states each value once, at the level where it varies: the config fields the
run read, the regularity constants and the stability coefficients, each
evaluated once for the arm, then one summary per trial read from its last
record, with generalization bounds that take that record's utility-sum KL
statistic for KL(Q || P) and the arm's coefficients. That statistic's
expectation bounds the KL from above at batch 1 only; at batch > 1 it can fall
below it (see `adaptive.kl_from_utility_sum`).
run_comparison does the same for a uniform arm and one arm per amplitude, each
the config with its own alpha and out, on one dataset. Every arm and trial is
trained in one lockstep `train_many` call. A metrics tick
scores each dataset once (one X @ h.T gives its risk and its accuracy), and a
non-finite risk is a divergence. A CSV's rows and the synthetic draws are
split into train and test datasets alike, by two slices of one pair of arrays.
Every output file (metrics JSONL with a CSV mirror, reports) is rendered to
text before any directory is created, so a run that fails writes nothing.
Output is deterministic for a fixed config and master seed, and byte-identical
to training the arms and trials one at a time: runs stack in a fixed order,
and floats are written at 17 significant digits.

probe_stability estimates the replace-one-example stability beta and the
perturb-one-index stability gamma of the uniform-sampling strongly convex
regime empirically, for comparison against the closed-form coefficients. Its
coupled SGD runs are stepped together by the trainer's `batch_objective_grads`
and `apply_update`; a replaced example is an index redirected to a row past
S in one feature/label table, so no dataset is copied per perturbation.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os

import numpy as np

from . import bounds, model
from .adaptive import DivergenceError, SamplerConfig, train_many
from .data import load_csv, synth_arrays, synth_data
from .model import (
    Dataset,
    RegularityConstants,
    _bounded_losses,
    _check_counts,
    _check_nonnegative,
    _check_objective,
    _check_open_unit,
    _check_positive,
    _risk_and_accuracy,
    batch_objective_grads,
    default_domain_radius,
    regularity_constants,
    zeros_hypothesis,
)
from .optim import RULE_KINDS, SCHEDULE_KINDS, StepSchedule, UpdateRuleState, apply_update

UTILITY_FLAGS = {"01": "zero_one", "l1": "l1"}
SYNTHETIC_TASK = ("n", "dim", "classes", "imbalance", "noise", "separation")  # unread with a csv
PROBE_FIELDS = ("seed", *SYNTHETIC_TASK, "iters", "mu", "loss_bound")  # what probe_stability reads
PROBE_EVAL_N = 200  # fresh points the stability probes take their loss differences over


@dataclasses.dataclass
class ExperimentConfig:
    """Flat experiment configuration and the one place each experiment
    default is declared; field names match the CLI flags (``lambda`` is
    spelled ``decay``, ``M`` is ``loss_bound``). Building one, or replacing a
    field of one, rejects, before any data is read, a non-finite float, a
    trials or cadence that is not an integer >= 1, a delta outside (0, 1),
    an eta, mu or domain_radius outside [0, inf), a loss_bound outside
    (0, inf), and what the schedule, rule and sampler reject; a float -0 is
    stored as 0. The task's sizes are checked where the data is built."""

    # data source: a CSV path, or the synthetic task below
    csv: str | None = None
    n: int = 2000
    test_n: int = 500
    dim: int = 8
    classes: int = 2
    imbalance: float = 0.7
    noise: float = 0.05
    separation: float = 3.4
    # model
    mu: float = 0.01
    loss_bound: float = 5.0
    domain_radius: float | None = None
    # sampler
    alpha: float = 2.0
    decay: float = 0.5
    utility: str = "l1"
    batch: int = 100
    iters: int = 4000
    track_kl: bool = False
    # optimizer
    rule: str = "sgd"
    schedule: str = "inverse_decay"
    eta: float = 0.05
    kappa: float = 0.001
    # experiment
    trials: int = 10
    seed: int = 0
    cadence: int = 20
    delta: float = 0.05
    target: float | None = None
    out: str | None = None

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type in ("float", "float | None") and value is not None:
                if not math.isfinite(value):
                    raise ValueError(f"{field.name} must be finite, got {float(value)!r}")
                if value == 0:
                    setattr(self, field.name, 0.0)  # -0.0 would be echoed as -0
        if self.utility in UTILITY_FLAGS:
            self.utility = UTILITY_FLAGS[self.utility]
        _check_counts(trials=self.trials, cadence=self.cadence)
        _check_open_unit(delta=self.delta)
        if self.out == "":
            raise ValueError("out must name a directory, not the empty string")
        if self.schedule not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.rule not in RULE_KINDS:
            raise ValueError(f"unknown update rule {self.rule!r}")
        self.sampler_config()  # raises on a sampler value SamplerConfig rejects
        _check_objective(self.mu, self.loss_bound, self.domain_radius)
        self.step_schedule(1.0)  # 1.0 stands in for the data's smoothness
        _check_nonnegative(eta=self.eta)  # read by the report's coefficients under every schedule

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            amplitude=self.alpha,
            decay=self.decay,
            utility=self.utility,
            batch_size=self.batch,
            iterations=self.iters,
            track_full_conditional_kl=self.track_kl,
        )

    def step_schedule(self, smoothness: float) -> StepSchedule:
        """The schedule's `StepSchedule` constructor, given the values its
        parameters name; `smoothness` is the data's."""
        make = getattr(StepSchedule, self.schedule)
        values = {"eta": self.eta, "kappa": self.kappa, "mu": self.mu,
                  "smoothness": smoothness}
        return make(**{name: values[name] for name in inspect.signature(make).parameters})


def unread_fields(cfg: ExperimentConfig, given, alphas=None) -> dict:
    """cause -> the fields in `given` that a run of cfg never reads, in a
    fixed order; empty when the run reads every given field. `alphas` is
    run_comparison's. The causes, in this order:

    - ``csv``: `build_datasets` loads the file and reads no SYNTHETIC_TASK field;
    - ``schedule``: kappa is read only by a schedule whose constructor takes
      it (eta is read under every schedule, by the report's coefficients);
    - ``alphas``: given alphas replace alpha.

    A value that only makes a field irrelevant does not count: delta at mu 0,
    and decay or utility at alpha 0, stay accepted so that sweeps over mu or
    alpha can keep them.
    """
    causes = {}
    if cfg.csv is not None:
        causes["csv"] = SYNTHETIC_TASK
    if "kappa" not in inspect.signature(getattr(StepSchedule, cfg.schedule)).parameters:
        causes["schedule"] = ("kappa",)
    if alphas is not None:
        causes["alphas"] = ("alpha",)
    unread = {cause: [name for name in fields if name in given]
              for cause, fields in causes.items()}
    return {cause: names for cause, names in unread.items() if names}


@dataclasses.dataclass(frozen=True)
class MetricsRecord:
    """One metrics row: risks are M-clamped means, kl_stat is the running
    utility-sum KL statistic through the previous iteration (an upper
    statistic for KL(Q || P) at batch 1 only; see
    `adaptive.kl_from_utility_sum`), conditional_kl is the tracked
    KL(Q_t || uniform) (None when tracking is off). A dataset's risk and
    accuracy come from one scoring of it at the tick's hypothesis."""

    iteration: int
    empirical_risk: float
    heldout_risk: float
    train_accuracy: float
    test_accuracy: float
    kl_stat: float
    conditional_kl: float | None


@dataclasses.dataclass
class ExperimentResult:
    metrics: list  # one MetricsRecord list per trial, in trial order
    report: dict


# ---- deterministic serialization: every float at 17 significant digits ----

def format_float(x: float) -> str:
    return f"{x:.17g}"


def dumps_json(obj) -> str:
    """json.dumps lookalike with floats rendered at 17 significant digits.

    Raises ValueError on nan or +-inf, which JSON cannot represent.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, np.integer)):
        return json.dumps(None if obj is None else bool(obj) if isinstance(obj, bool) else int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot write the non-finite number {float(obj)!r} as JSON")
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps_json(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_metrics(records) -> tuple[str, str]:
    """The texts of a metrics JSONL file, one JSON object per record, and of
    its CSV mirror, the same values in the same text (None as an empty cell).
    Writes nothing: `_write_files` does."""
    rows = [dataclasses.asdict(rec) for rec in records]
    csv = [",".join(f.name for f in dataclasses.fields(MetricsRecord))]
    csv += [",".join("" if v is None else dumps_json(v) for v in row.values()) for row in rows]
    return "".join(dumps_json(row) + "\n" for row in rows), "\n".join(csv) + "\n"


def _render_arm(out_dir: str, result: ExperimentResult) -> dict:
    """path -> text for every file of one arm under out_dir."""
    files = {}
    for k, records in enumerate(result.metrics):
        base = os.path.join(out_dir, f"trial_{k}.metrics")
        files[base + ".jsonl"], files[base + ".csv"] = write_metrics(records)
    files[os.path.join(out_dir, "report.json")] = dumps_json(result.report) + "\n"
    return files


def _write_files(files: dict) -> None:
    """Create each path's directory and write its text: the harness's one
    writer, called only once every file has been rendered."""
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)


# ---- dataset assembly ----

def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """(train, test) from the configured source, built straight from slices of
    one pair of arrays: a CSV's rows, the last test_n of them held out, or
    n + test_n synthetic examples drawn in one call, so both splits share the
    task."""
    _check_counts(test_n=cfg.test_n)
    if cfg.csv is not None:
        full = load_csv(cfg.csv)
        if cfg.test_n >= full.n:
            raise ValueError("test_n must leave both splits nonempty")
        X, y, classes, n = full.features, full.labels, full.num_classes, full.n - cfg.test_n
    else:
        _check_counts(n=cfg.n)
        X, y = synth_arrays(cfg.n + cfg.test_n, cfg.dim, cfg.classes, cfg.imbalance,
                            cfg.noise, seed=_data_seed(cfg.seed), separation=cfg.separation)
        classes, n = cfg.classes, cfg.n
    return (Dataset.from_arrays(X[:n], y[:n], classes),
            Dataset.from_arrays(X[n:], y[n:], classes))


def _data_seed(master_seed: int) -> np.random.SeedSequence:
    data_ss, _ = np.random.SeedSequence(master_seed).spawn(2)
    return data_ss


def _trial_streams(master_seed: int, trials: int):
    _, trial_root = np.random.SeedSequence(master_seed).spawn(2)
    for child in trial_root.spawn(trials):
        init_ss, sample_ss = child.spawn(2)
        yield np.random.default_rng(init_ss), np.random.default_rng(sample_ss)


# ---- experiment driver ----

def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train `cfg.trials` runs of one config and assemble metrics plus
    the final bound report. With cfg.out set, renders trial_<k>.metrics.jsonl /
    .csv and report.json, then writes them there."""
    result = _run_arms([cfg])[0]
    if cfg.out is not None:
        _write_files(_render_arm(cfg.out, result))
    return result


def _run_arms(arms) -> list:
    """One ExperimentResult per arm, an ExperimentConfig that may differ from
    the first only in alpha and out: build the first arm's datasets once,
    train every arm's `trials` trials in one `train_many` call, arm after arm
    in run order, and build every arm's report from its own config. Writes
    nothing.

    Trial k of every arm starts from the same h0 and sampling seed, and every
    result is bitwise that of training the arms and trials one at a time.
    """
    cfg = arms[0]
    train_ds, test_ds = build_datasets(cfg)
    consts = regularity_constants(train_ds, cfg.mu, cfg.loss_bound, cfg.domain_radius)
    radius = cfg.domain_radius
    if radius is None and cfg.mu > 0:
        radius = default_domain_radius(train_ds, cfg.mu)
    sched = cfg.step_schedule(consts.smoothness)

    shape = (train_ds.num_classes, train_ds.feature_dim)
    cfgs, h0s, rngs = [], [], []
    for arm in arms:
        sampler = arm.sampler_config()
        for init_rng, sample_rng in _trial_streams(cfg.seed, cfg.trials):
            cfgs.append(sampler)
            h0s.append(0.01 * init_rng.standard_normal(shape))
            rngs.append(sample_rng)

    def metric_fn(r, t, h, kl_stat, cond_kl):
        train_risk, train_acc = _risk_and_accuracy(h, train_ds, cfg.loss_bound)
        test_risk, test_acc = _risk_and_accuracy(h, test_ds, cfg.loss_bound)
        if not (math.isfinite(train_risk) and math.isfinite(test_risk)):
            raise DivergenceError(t)  # scores of rows the run never drew overflowed
        return MetricsRecord(t, train_risk, test_risk, train_acc, test_acc, kl_stat, cond_kl)

    rule = (UpdateRuleState.adagrad((len(cfgs), *shape)) if cfg.rule == "adagrad"
            else UpdateRuleState.sgd())  # AdaGrad: one accumulator per run
    runs = train_many(train_ds, cfgs, sched, rule, cfg.mu, cfg.loss_bound, h0s, rngs,
                      domain_radius=radius, metric_every=cfg.cadence, metric_fn=metric_fn,
                      record=False)

    results = []
    for a, arm in enumerate(arms):
        metrics = [trace.metrics for _, trace in runs[a * cfg.trials:(a + 1) * cfg.trials]]
        report = build_report(arm, consts, train_ds, test_ds, metrics)
        results.append(ExperimentResult(metrics, report))
    return results


def iterations_to_target(records, target: float) -> int | None:
    """First recorded iteration whose empirical risk is <= target (None if never)."""
    for rec in records:
        if rec.empirical_risk <= target:
            return rec.iteration
    return None


def risk_at(records, iteration: int) -> float:
    """Empirical risk at the last record with iteration <= the given one."""
    best = records[0]
    for rec in records:
        if rec.iteration <= iteration:
            best = rec
    return best.empirical_risk


SCHEDULE_NOTE = (
    "stability coefficients for the convex/nonconvex/initial-risk formulas assume "
    "step sizes eta_t <= eta/t; constant schedules do not satisfy this, and "
    "eta/(1+kappa*t) satisfies it with eta' = eta/kappa only when kappa > 0. "
    "Values below echo the configured eta at face value."
)
KL_NOTE = (
    "gen_kl and gen_derandomized take each trial's kl_stat, the utility-sum statistic "
    "of that trial's one sample path. Its expectation over paths bounds KL(Q||P) from "
    "above only at batch 1; at batch > 1 it can fall below the KL, so these bounds are "
    "not certified there. A certified KL is to replace it (ROADMAP item 3a)."
)


def build_report(cfg: ExperimentConfig, consts: RegularityConstants,
                 train_ds: Dataset, test_ds: Dataset, metrics) -> dict:
    """The final JSON report of one arm; each value is written once, at the
    level where it varies:

    - ``config``: the echo of every config field the run read (each field
      `unread_fields` does not name);
    - ``constants``: the data's regularity constants and the train size;
    - ``stability``: the arm's stability coefficients, evaluated once. The
      convex and initial-risk ones take cfg.eta at face value; ``h0_risk``,
      which the initial-risk one takes, is the held-out risk of the zero
      hypothesis, not of any trial's own h0. At mu > 0 it holds the
      strongly convex (beta, gamma) pair, else a note;
    - two constant notes: what the stability coefficients assume of the
      schedule, and what the KL bounds take as their KL;
    - ``trials``: one row per trial read from its last metrics record (the
      t = T tick), with its ``bounds``: at mu > 0 the KL bounds at its KL
      statistic and ``stability``'s (beta, gamma), each marked vacuous when
      its value is at least M, and always the KL-free test-set bound on its
      held-out risk;
    - ``aggregate``: cross-trial aggregates of those rows."""
    n, T, L, M, delta = train_ds.n, cfg.iters, consts.lipschitz, consts.loss_bound, cfg.delta
    h0 = zeros_hypothesis(train_ds.num_classes, train_ds.feature_dim)
    h0_risk = _risk_and_accuracy(h0, test_ds, M)[0]
    stability = {
        "convex": bounds.sgd_stability_convex(L, cfg.eta, T, n),
        "initial_risk": bounds.sgd_stability_initial_risk(
            L, cfg.eta, T, n, consts.smoothness, h0_risk),
        "h0_risk": h0_risk,
    }
    if cfg.mu > 0:
        beta, gamma = bounds.sgd_stability_strongly_convex(L, cfg.mu, n, T)
        stability["strongly_convex_beta"] = beta
        stability["strongly_convex_gamma"] = gamma
    else:
        stability["note"] = "mu = 0: no strongly-convex (beta, gamma) pair; KL bounds omitted"
    trial_rows = []
    for trial, records in enumerate(metrics):
        final = records[-1]
        row = {
            "final_empirical_risk": final.empirical_risk,
            "final_heldout_risk": final.heldout_risk,
            "final_train_accuracy": final.train_accuracy,
            "final_test_accuracy": final.test_accuracy,
            "kl_stat": final.kl_stat,
        }
        if cfg.target is not None:
            row["iterations_to_target"] = iterations_to_target(records, cfg.target)
        row["trial"] = trial
        row["bounds"] = {}
        if cfg.mu > 0:
            for key, evaluate in (("gen_kl", bounds.gen_bound_kl),
                                  ("gen_derandomized", bounds.gen_bound_derandomized)):
                bound = evaluate(final.kl_stat, M, n, T, beta, gamma, delta)
                # a gap bound of M or more says nothing about a loss in [0, M]
                row["bounds"][key] = {**bound.to_json(), "vacuous": bound.value >= M}
        row["bounds"]["test_set_hoeffding"] = bounds.heldout_risk_bound(
            final.heldout_risk, M, test_ds.n, delta).to_json()
        trial_rows.append(row)
    agg = {}
    for key in ("final_empirical_risk", "final_heldout_risk", "final_train_accuracy",
                "final_test_accuracy", "kl_stat"):
        vals = [row[key] for row in trial_rows]
        agg[f"median_{key}"] = float(np.median(vals))
        agg[f"mean_{key}"] = float(np.mean(vals))
    echo = dataclasses.asdict(cfg)
    unread = {name for names in unread_fields(cfg, echo).values() for name in names}
    return {
        "config": {k: v for k, v in echo.items() if k not in unread},
        "constants": {
            "lipschitz": L,
            "smoothness": consts.smoothness,
            "feature_radius": train_ds.feature_radius,
            "train_n": n,
        },
        "stability": stability,
        "schedule_note": SCHEDULE_NOTE,
        "kl_note": KL_NOTE,
        "trials": trial_rows,
        "aggregate": agg,
    }


# ---- arm comparison (uniform vs adaptive) ----

def run_comparison(cfg: ExperimentConfig, alphas=None) -> dict:
    """Run a uniform arm (alpha 0) plus one arm per value in `alphas` (default:
    just cfg.alpha) on the same data and seeds; compare iterations-to-target.
    Every arm and trial is trained in one lockstep call. Arms are named
    `alpha_<value:g>`; alphas that would share a name are rejected.

    The per-trial loss target defaults to 1.2x the uniform arm's empirical risk
    at T/2 for that trial. When cfg.out is set, renders every arm's files and
    comparison.json, and only then writes each arm under out/<arm>/ and
    comparison.json under out.
    """
    if alphas is None:
        alphas = [cfg.alpha]
    base_out = cfg.out
    arms = {"uniform": 0.0}
    for a in alphas:
        a = 0.0 if a == 0 else a  # -0.0 would name the arm alpha_-0
        name = f"alpha_{a:g}"
        if name in arms:
            raise ValueError(f"alphas {arms[name]!r} and {a!r} both name the arm {name!r}")
        arms[name] = a
    results = _run_arms([dataclasses.replace(cfg, alpha=alpha, out=None if base_out is None
                                             else os.path.join(base_out, name))
                         for name, alpha in arms.items()])
    arm_results = dict(zip(arms, results))

    targets = [1.2 * risk_at(records, cfg.iters // 2) if cfg.target is None else cfg.target
               for records in arm_results["uniform"].metrics]
    comparison = {"targets": targets, "arms": {}}
    for name, result in arm_results.items():
        iters = [iterations_to_target(records, target)
                 for records, target in zip(result.metrics, targets)]
        finite = [i if i is not None else cfg.iters + 1 for i in iters]
        comparison["arms"][name] = {
            "alpha": arms[name],
            "iterations_to_target": iters,
            "median_iterations_to_target": float(np.median(finite)),
            "kl_stat_mean": result.report["aggregate"]["mean_kl_stat"],
            "kl_stat_median": result.report["aggregate"]["median_kl_stat"],
        }
    if base_out is not None:
        files = {os.path.join(base_out, "comparison.json"): dumps_json(comparison) + "\n"}
        for name, result in arm_results.items():
            files.update(_render_arm(os.path.join(base_out, name), result))
        _write_files(files)
    return {"comparison": comparison, "results": arm_results}


# ---- empirical stability probes ----

@dataclasses.dataclass(frozen=True)
class StabilityProbeResult:
    """Empirical stability estimates next to the closed-form coefficients.
    data_diffs / hyper_diffs hold one value per probe; the emp fields are the
    maxima (the empirical analogues of the sup in the definitions)."""

    beta_emp: float
    gamma_emp: float
    beta_bound: float
    gamma_bound: float
    data_diffs: np.ndarray
    hyper_diffs: np.ndarray


def _run_coupled(X, y, indices, sched, mu, h0, radius) -> np.ndarray:
    """Plain SGD from h0, batch 1, one run per row of the (R, T) index matrix
    over the table (X, y), all R runs stepped together as one (R, C, d) array
    (the coupled runs of the stability definitions). Returns H[R, C, d].

    Stepped by the trainer's `batch_objective_grads` and `apply_update`, each
    run is bitwise that run stepped alone, one example at a time, with
    projection onto the radius ball. Rows are gathered `_BLOCK_ROWS` at a time.
    """
    R, T = indices.shape
    H = np.broadcast_to(h0, (R,) + h0.shape).copy()
    rule = UpdateRuleState.sgd()
    steps = max(1, model._BLOCK_ROWS // R)
    for lo in range(0, T, steps):
        block = indices[:, lo:lo + steps].T[:, :, None]  # (steps, R, 1)
        for t, x, label in zip(range(lo + 1, T + 1), X[block], y[block]):
            H = apply_update(H, batch_objective_grads(H, x, label, mu), t, sched, rule, radius)
    return H


def probe_stability(cfg: ExperimentConfig, perturbations: int = 50,
                    probe_seeds: int = 8) -> StabilityProbeResult:
    """Empirical replace-one-example and perturb-one-index stability probes.

    Requires mu > 0, and cfg.csv and cfg.domain_radius None: the probes
    synthesize their own task and project onto the default radius sqrt(2)*R/mu.
    Runs the strongly-convex regime exactly: uniform sampling
    (sequences drawn from the uniform prior), eta_t = 1/(mu t + smoothness),
    batch 1, shared zero init. The data probe couples runs on S and on S-with-
    one-replacement through shared index sequences and averages over
    `probe_seeds` sequences before taking absolute differences; the sequence
    probe compares two runs on sequences differing in exactly one position.
    Returns max (and per-probe) loss differences over PROBE_EVAL_N fresh points.

    Every sequence, site and position is drawn first; then all coupled runs
    are stepped together by `_run_coupled` over one table holding S followed
    by the replacement examples, so a replaced example is an index redirected
    from its site in S to its row in that table.
    """
    for name in ("csv", "domain_radius"):
        if getattr(cfg, name) is not None:
            raise ValueError(f"stability probes do not read {name}; it must be None")
    _check_positive(mu=cfg.mu)
    _check_counts(perturbations=perturbations, probe_seeds=probe_seeds)
    _check_counts(at_least=2, n=cfg.n)
    n, T, M, mu = cfg.n, cfg.iters, cfg.loss_bound, cfg.mu
    pool = synth_data(n + perturbations + PROBE_EVAL_N, cfg.dim, cfg.classes, cfg.imbalance,
                      cfg.noise, seed=_data_seed(cfg.seed), separation=cfg.separation)
    consts = regularity_constants(pool, mu, M)
    radius = default_domain_radius(pool, mu)
    sched = StepSchedule.strongly_convex(mu, consts.smoothness)
    table = n + perturbations  # S, then the replacement examples
    eval_X = pool.features[table:]
    eval_y = pool.labels[table:]
    h0 = zeros_hypothesis(pool.num_classes, pool.feature_dim)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2])

    # replace-one-example probe: shared sequences, site p redirected to row n + p
    base = np.stack([rng.integers(0, n, size=T) for _ in range(probe_seeds)])
    sites = np.array([rng.integers(n) for _ in range(perturbations)])
    swapped = np.where(base == sites[:, None, None],
                       n + np.arange(perturbations)[:, None, None], base)
    # perturb-one-index probe: pairs of sequences at Hamming distance one
    pairs = np.empty((perturbations, 2, T), dtype=base.dtype)
    for p in range(perturbations):
        seq = rng.integers(0, n, size=T)
        k = int(rng.integers(T))
        v = int(rng.integers(n - 1))
        pairs[p] = seq
        pairs[p, 1, k] = v + (v >= seq[k])

    indices = np.concatenate([base, swapped.reshape(-1, T), pairs.reshape(-1, T)])
    H = _run_coupled(pool.features[:table], pool.labels[:table], indices, sched, mu, h0, radius)
    scores = (eval_X @ H.transpose(0, 2, 1)).reshape(-1, pool.num_classes)  # a BLAS call a run
    base_losses, swapped_losses, pair_losses = np.split(
        _bounded_losses(scores, np.tile(eval_y, len(H)), M).reshape(len(H), -1),
        [probe_seeds, probe_seeds * (1 + perturbations)])

    # |E_r[L(A(S,r),z) - L(A(S',r),z)]|, max over z
    swapped_losses = swapped_losses.reshape(perturbations, probe_seeds, -1)
    gap = np.zeros((perturbations, eval_X.shape[0]))
    for j in range(probe_seeds):
        gap += base_losses[j] - swapped_losses[:, j]
    data_diffs = np.abs(gap / probe_seeds).max(axis=1)
    pair_losses = pair_losses.reshape(perturbations, 2, -1)
    hyper_diffs = np.abs(pair_losses[:, 0] - pair_losses[:, 1]).max(axis=1)

    beta_bound, gamma_bound = bounds.sgd_stability_strongly_convex(consts.lipschitz, mu, n, T)
    return StabilityProbeResult(float(data_diffs.max()), float(hyper_diffs.max()),
                                beta_bound, gamma_bound, data_diffs, hyper_diffs)
