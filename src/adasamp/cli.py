"""Command-line interface.

Subcommands: train, compare, bounds, probe-stability, synth-data,
verify-sampler. Each accepts only the flags it reads, and a bounds formula
reads its evaluator's parameters; any other flag exits 2. The experiment
subcommands also read a flat `key = value` config file (--config PATH) whose
keys are exactly their flag names without the leading dashes; on/off keys take
true/1/yes/on or false/0/no/off, and `alphas` takes whitespace-separated
numbers. File values are converted with their flag's type (a bad one is
reported as `error: config key ...`) and become the subcommand's defaults, so
an explicit flag wins in every spelling and the file wins over built-in
defaults. Float flags reject nan and +-inf.

Apart from verify-sampler's, no flag has a default here: the parsed namespace
holds exactly the flags and config keys given, and what is not given takes
the default of whatever reads it (ExperimentConfig for the experiment flags).
`train` and `compare` also reject, before any data is read, a given flag or
key that the run would not read (`harness.unread_fields`): the synthetic-task
flags with --csv (`error: --csv does not read --n, --noise`), --kappa under a
schedule whose StepSchedule constructor does not take it (`error: --schedule
constant does not read --kappa`), and --alpha beside compare's --alphas.

Exit codes: 0 on success, 1 when a verification finds a violation, 2 on a
rejected input, 3 when training diverges (`error: diverged at iteration t`).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import sys

import numpy as np

from . import bounds
from .adaptive import DivergenceError
from .data import save_csv, synth_data
from .harness import (
    SYNTHETIC_TASK,
    ExperimentConfig,
    dumps_json,
    probe_stability,
    run_comparison,
    run_experiment,
    unread_fields,
)
from .weight_tree import WeightTree

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}
_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def finite_float(text: str) -> float:
    """argparse type for every float flag: non-numbers, nan and +-inf are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below with the same message
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def load_config_file(path) -> dict:
    """Flat `key = value` lines; blank lines and #-comments are ignored."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


def _file_value(action: argparse.Action, raw: str):
    if action.nargs == 0:  # an on/off flag such as --track-kl
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    if action.nargs == "+":  # a list flag such as --alphas
        if not raw.split():
            raise ValueError("expected at least one value")
        return [action.type(word) for word in raw.split()]
    if action.choices is not None and raw not in action.choices:
        raise ValueError(f"expected one of {sorted(action.choices)}, got {raw!r}")
    return raw if action.type is None else action.type(raw)


def _config_defaults(sub: argparse.ArgumentParser, path) -> dict:
    """The config file's values as defaults for the subcommand parser `sub`.

    Keys are `sub`'s flag names without the leading dashes.
    """
    defaults = {}
    for key, raw in load_config_file(path).items():
        action = sub._option_string_actions.get("--" + key)
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"unknown config key {key!r}")
        try:
            defaults[action.dest] = _file_value(action, raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return defaults


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int, help="training examples")
    p.add_argument("--dim", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--imbalance", type=finite_float)
    p.add_argument("--noise", type=finite_float)
    p.add_argument("--separation", type=finite_float)


def _add_probe_flags(p: argparse.ArgumentParser) -> None:
    """--config and every ExperimentConfig field that `probe_stability` reads."""
    p.set_defaults(subparser=p)  # parse_args sets this parser's defaults from --config
    p.add_argument("--config", help="flat key=value config file")
    _add_task_flags(p)
    p.add_argument("--iters", type=int)
    p.add_argument("--mu", type=finite_float, help="L2 regularization strength")
    p.add_argument("--M", type=finite_float, dest="loss_bound", help="loss clamp")


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    _add_probe_flags(p)
    p.add_argument("--csv", help="load the dataset from this CSV instead of synthesizing")
    p.add_argument("--test-n", type=int, dest="test_n")
    p.add_argument("--alpha", type=finite_float,
                   help="reweighting amplitude (0 = uniform sampling)")
    p.add_argument("--lambda", type=finite_float, dest="decay",
                   help="multiplicative weight decay in (0, 1)")
    p.add_argument("--utility", choices=["01", "l1"])
    p.add_argument("--rule", choices=["sgd", "adagrad"])
    p.add_argument("--schedule", choices=["constant", "inverse_decay", "strongly_convex"])
    p.add_argument("--batch", type=int)
    p.add_argument("--domain-radius", type=finite_float, dest="domain_radius")
    p.add_argument("--eta", type=finite_float)
    p.add_argument("--kappa", type=finite_float)
    p.add_argument("--delta", type=finite_float)
    p.add_argument("--trials", type=int)
    p.add_argument("--cadence", type=int)
    p.add_argument("--target", type=finite_float,
                   help="explicit loss target for iterations-to-target")
    p.add_argument("--track-kl", action="store_true", dest="track_kl",
                   help="report the full conditional KL to uniform at each metrics tick")
    p.add_argument("--out", help="output directory for metrics and reports")


def _given(args: argparse.Namespace, names) -> dict:
    """The values of the flags and config keys among `names` that were given."""
    return {k: v for k, v in vars(args).items() if k in names}


def experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ExperimentConfig of the given flags and config keys; the rest take
    its defaults. A given one that the run would not read is rejected."""
    given = _given(args, _FIELDS)
    cfg = ExperimentConfig(**given)
    unread = unread_fields(cfg, given, getattr(args, "alphas", None))
    if unread:
        actions = {a.dest: a for a in args.subparser._actions}

        def flag(dest):  # a choice flag such as --schedule is named with its value
            action = actions[dest]
            return action.option_strings[0] + (f" {getattr(args, dest)}" if action.choices else "")

        raise ValueError("; ".join(f"{flag(cause)} does not read {', '.join(map(flag, names))}"
                                   for cause, names in unread.items()))
    return cfg


def cmd_train(args) -> int:
    cfg = experiment_config(args)
    result = run_experiment(cfg)
    print(dumps_json(result.report["aggregate"]))
    if cfg.out:
        print(f"wrote metrics and report.json under {cfg.out}")
    return 0


def cmd_compare(args) -> int:
    out = run_comparison(experiment_config(args), args.alphas)
    print(dumps_json(out["comparison"]))
    return 0


def cmd_synth_data(args) -> int:
    task = ExperimentConfig(**_given(args, ("seed", *SYNTHETIC_TASK)))
    ds = synth_data(task.n, task.dim, task.classes, task.imbalance, task.noise,
                    seed=task.seed, separation=task.separation)
    # label noise can empty a class, and `load_csv` rejects such a file
    empty = np.flatnonzero(np.bincount(ds.labels, minlength=ds.num_classes) == 0)
    if empty.size:
        raise ValueError(f"no example has label {empty[0]} after label noise; "
                         f"nothing written to {args.out}")
    save_csv(ds, args.out)
    print(f"wrote {ds.n} examples ({ds.num_classes} classes, dim {ds.feature_dim}) to {args.out}")
    return 0


# `bounds --formula` choice -> its evaluator, whose parameter names are the formula's flags
_BOUND_FORMULAS = {
    "stab-convex": bounds.sgd_stability_convex,
    "stab-nonconvex": bounds.sgd_stability_nonconvex,
    "stab-initial-risk": bounds.sgd_stability_initial_risk,
    "stab-strongly-convex": bounds.sgd_stability_strongly_convex,
    "chisq": bounds.gen_bound_chisq,
    "kl": bounds.gen_bound_kl,
    "sgd-strongly-convex": bounds.gen_bound_sgd_strongly_convex,
    "derandomized": bounds.gen_bound_derandomized,
}
# each evaluator parameter's default (an int takes int flags), in the order unread flags are named
_BOUND_DEFAULTS = {"L": 1.0, "eta": 0.1, "T": 100, "n": 100, "M": 1.0, "mu": 0.1,
                   "smoothness": 1.0, "risk_h0": 1.0, "kl": 0.0, "chisq": 0.0,
                   "beta": 0.0, "gamma": 0.0, "delta": 0.05}


def cmd_bounds(args) -> int:
    evaluate = _BOUND_FORMULAS[args.formula]
    params = inspect.signature(evaluate).parameters
    unread = ["--" + k.replace("_", "-") for k in _BOUND_DEFAULTS
              if hasattr(args, k) and k not in params]
    if unread:
        raise ValueError(f"--formula {args.formula} does not read {', '.join(unread)}")
    value = evaluate(**{k: getattr(args, k, _BOUND_DEFAULTS[k]) for k in params})
    name = evaluate.__name__.removeprefix("sgd_")
    if isinstance(value, bounds.BoundReport):
        report = value.to_json()
    elif isinstance(value, tuple):  # the strongly convex (beta, gamma) pair
        report = {"formula": name, "beta": value[0], "gamma": value[1]}
    else:
        report = {"formula": name, "value": value}
    print(dumps_json(report))
    return 0


def cmd_probe_stability(args) -> int:
    res = probe_stability(experiment_config(args),
                          **_given(args, ("perturbations", "probe_seeds")))
    report = {
        "beta_emp": res.beta_emp,
        "beta_bound": res.beta_bound,
        "gamma_emp": res.gamma_emp,
        "gamma_bound": res.gamma_bound,
        "data_diff_median": float(np.median(res.data_diffs)),
        "hyper_diff_median": float(np.median(res.hyper_diffs)),
        "perturbations": len(res.data_diffs),
    }
    print(dumps_json(report))
    ok = res.beta_emp <= res.beta_bound and res.gamma_emp <= res.gamma_bound
    if not ok:
        print("empirical stability exceeded the closed-form coefficient", file=sys.stderr)
        return 1
    return 0


def cmd_verify_sampler(args) -> int:
    """Distribution, goodness-of-fit, and touched-node checks on random trees."""
    if min(args.sizes) < 2:
        raise ValueError("--sizes needs every size >= 2")
    if args.draws < 1:
        raise ValueError("--draws must be >= 1")
    from scipy import stats  # only this subcommand needs it, and it is slow to import

    rng = np.random.default_rng(args.seed)
    failures = []
    for n in args.sizes:
        w = rng.uniform(0.5, 1.5, size=n)
        tree = WeightTree(w)
        exact = w / w.sum()
        max_err = float(np.abs(tree.probs(np.arange(n)) - exact).max())
        counts = np.bincount(tree.sample_many(args.draws, rng), minlength=n)
        pvalue = float(stats.chisquare(counts, exact * args.draws).pvalue)
        v0 = tree.sample_visits
        tree.sample_many(1, rng)
        sample_touch = tree.sample_visits - v0
        w0 = tree.update_writes
        tree.update_many([n // 2], [2.0])
        update_touch = tree.update_writes - w0
        ok = (max_err < 1e-12 and pvalue > 1e-3
              and sample_touch == tree.depth and update_touch == tree.depth + 1)
        if not ok:
            failures.append(n)
        print(dumps_json({"n": n, "depth": tree.depth, "max_prob_error": max_err,
                          "chisq_pvalue": pvalue, "sample_touches": sample_touch,
                          "update_touches": update_touch, "ok": ok}))
    if failures:
        print(f"sampler verification failed for n in {failures}", file=sys.stderr)
        return 1
    print("sampler verification passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adasamp",
                             description="adaptive-sampling SGD experiments and bound evaluation")
    sub = parser.add_subparsers(dest="command", required=True)
    # these subcommands' flags are absent unless given, and take their defaults
    # where they are read: ExperimentConfig, probe_stability or _BOUND_DEFAULTS
    unset = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("train", help="run one sampler configuration for several trials",
                       **unset)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="uniform vs adaptive arms on shared seeds", **unset)
    _add_experiment_flags(p)
    p.add_argument("--alphas", type=finite_float, nargs="+", default=None,
                   help="adaptive arm amplitudes, in place of --alpha")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bounds", help="evaluate one closed-form coefficient or bound", **unset)
    p.add_argument("--formula", required=True, choices=list(_BOUND_FORMULAS))
    for name, default in _BOUND_DEFAULTS.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=int if isinstance(default, int) else finite_float)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("probe-stability", help="empirical stability vs closed forms", **unset)
    _add_probe_flags(p)
    p.add_argument("--perturbations", type=int)
    p.add_argument("--probe-seeds", type=int, dest="probe_seeds")
    p.set_defaults(func=cmd_probe_stability)

    p = sub.add_parser("synth-data", help="write a synthetic dataset CSV", **unset)
    _add_task_flags(p)
    p.add_argument("--out", required=True, help="CSV path to write")
    p.set_defaults(n=1000, func=cmd_synth_data)

    p = sub.add_parser("verify-sampler", help="distribution and complexity checks")
    p.add_argument("--sizes", type=int, nargs="+", default=[2, 7, 64, 1000])
    p.add_argument("--draws", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_sampler)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv; with --config, parse it again with the file's values as
    the subcommand's defaults, so every explicit flag wins over the file."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        args.subparser.set_defaults(**_config_defaults(args.subparser, args.config))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
