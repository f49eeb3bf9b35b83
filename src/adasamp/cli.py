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

The experiment flags of train, compare, probe-stability and synth-data are
built from ExperimentConfig's fields, one flag per field with the field as its
dest (`_config_parser`). Apart from verify-sampler's, no flag has a default
here: the parsed namespace holds exactly the flags and config keys given, and
what is not given takes the default of whatever reads it (ExperimentConfig for
the experiment flags).
`train` and `compare` also reject, before any data is read, a given flag or
key that the run would not read (`harness.unread_fields`): the synthetic-task
flags with --csv (`error: --csv does not read --n, --noise`), --kappa under a
schedule whose StepSchedule constructor does not take it (`error: --schedule
constant does not read --kappa`), and --alpha beside compare's --alphas.

Exit codes: 0 on success, 1 when a verification finds a violation, 2 on a
rejected input or a failed allocation (`error: out of memory` when numpy
gives no message), 3 when training diverges (`error: diverged at iteration t`).
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
    PROBE_FIELDS,
    SYNTHETIC_TASK,
    UTILITY_FLAGS,
    ExperimentConfig,
    dumps_json,
    probe_stability,
    run_comparison,
    run_experiment,
    unread_fields,
)
from .model import _check_counts
from .optim import RULE_KINDS, SCHEDULE_KINDS
from .weight_tree import WeightTree

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}
_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_SYNTH_FIELDS = ("seed", *SYNTHETIC_TASK)  # what synth-data reads


def finite_float(text: str) -> float:
    """argparse type for every float flag: non-numbers, nan and +-inf are
    rejected, and -0 is read as 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below with the same message
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value + 0.0  # -0.0 + 0.0 is +0.0


def load_config_file(path) -> dict:
    """Flat `key = value` lines, each key once; blank lines, #-comments and a
    leading UTF-8 byte-order mark are ignored."""
    values, lines = {}, {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = (part.strip() for part in line.partition("="))
            if key in lines:
                raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {lines[key]}")
            values[key], lines[key] = raw, lineno
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


# how an ExperimentConfig field becomes its flag, where not by its name and annotation
_SPELLINGS = {"decay": "--lambda", "loss_bound": "--M"}
_CHOICES = {"utility": list(UTILITY_FLAGS), "rule": RULE_KINDS, "schedule": SCHEDULE_KINDS}
_TYPES = {"int": int, "float": finite_float, "float | None": finite_float,
          "str": None, "str | None": None}  # a string flag keeps its text
_HELP = {
    "n": "training examples",
    "mu": "L2 regularization strength",
    "loss_bound": "loss clamp",
    "csv": "load the dataset from this CSV instead of synthesizing",
    "alpha": "reweighting amplitude (0 = uniform sampling)",
    "decay": "multiplicative weight decay in (0, 1)",
    "target": "explicit loss target for iterations-to-target",
    "track_kl": "report the full conditional KL to uniform at each metrics tick",
    "out": "output directory for metrics and reports",
}


def _flag(name: str) -> str:
    """The flag of the option whose dest is `name`: `--` plus the name with
    `_` as `-`, but see _SPELLINGS."""
    return _SPELLINGS.get(name, "--" + name.replace("_", "-"))


def _config_parser(sub, command: str, summary: str, fields, config_file: bool = True):
    """The subcommand parser of `command`: --config (with `config_file`), then
    one flag per ExperimentConfig field in `fields`, in field order, whose dest
    is the field, spelled by `_flag`; a bool field is an on/off flag, a field
    in _CHOICES takes one of its values, and any other takes its annotation's
    type. None of the parser's flags has a default (argparse.SUPPRESS)."""
    p = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
    if config_file:
        p.set_defaults(subparser=p)  # parse_args sets this parser's defaults from --config
        p.add_argument("--config", help="flat key=value config file")
    for field in dataclasses.fields(ExperimentConfig):
        if field.name in fields:
            kind = ({"action": "store_true"} if field.type == "bool" else
                    {"choices": _CHOICES[field.name]} if field.name in _CHOICES else
                    {"type": _TYPES[field.type]})
            p.add_argument(_flag(field.name), dest=field.name, help=_HELP.get(field.name), **kind)
    return p


def _given(args: argparse.Namespace, names) -> dict:
    """The values of the flags and config keys among `names` that were given."""
    return {k: v for k, v in vars(args).items() if k in names}


def experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ExperimentConfig of the given flags and config keys; the rest take
    its defaults. A given one that the run would not read is rejected."""
    given = _given(args, _FIELDS)
    alphas = getattr(args, "alphas", None)  # these replace alpha: 0 is unread and fits any --lambda
    cfg = ExperimentConfig(**{**given, "alpha": 0.0} if alphas else given)
    unread = unread_fields(cfg, given, alphas)
    if unread:
        def flag(dest):  # a choice flag such as --schedule is named with its value
            return _flag(dest) + (f" {getattr(args, dest)}" if dest in _CHOICES else "")

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
    task = ExperimentConfig(**_given(args, _SYNTH_FIELDS))
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
    """Probability and goodness-of-fit checks on random trees."""
    for size in args.sizes:
        _check_counts(at_least=2, **{"--sizes": size})
    _check_counts(**{"--draws": args.draws})
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
        ok = max_err < 1e-12 and pvalue > 1e-3
        if not ok:
            failures.append(n)
        print(dumps_json({"n": n, "depth": tree.depth, "max_prob_error": max_err,
                          "chisq_pvalue": pvalue, "ok": ok}))
    if failures:
        print(f"sampler verification failed for n in {failures}", file=sys.stderr)
        return 1
    print("sampler verification passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adasamp",
                             description="adaptive-sampling SGD experiments and bound evaluation")
    sub = parser.add_subparsers(dest="command", required=True)
    # but for verify-sampler's, flags are absent unless given, and take their
    # defaults where they are read: ExperimentConfig, probe_stability or _BOUND_DEFAULTS

    p = _config_parser(sub, "train", "run one sampler configuration for several trials", _FIELDS)
    p.set_defaults(func=cmd_train)

    p = _config_parser(sub, "compare", "uniform vs adaptive arms on shared seeds", _FIELDS)
    p.add_argument("--alphas", type=finite_float, nargs="+", default=None,
                   help="adaptive arm amplitudes, in place of --alpha")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bounds", help="evaluate one closed-form coefficient or bound",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--formula", required=True, choices=list(_BOUND_FORMULAS))
    for name, default in _BOUND_DEFAULTS.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=int if isinstance(default, int) else finite_float)
    p.set_defaults(func=cmd_bounds)

    p = _config_parser(sub, "probe-stability", "empirical stability vs closed forms",
                       PROBE_FIELDS)
    p.add_argument("--perturbations", type=int)
    p.add_argument("--probe-seeds", type=int, dest="probe_seeds")
    p.set_defaults(func=cmd_probe_stability)

    p = _config_parser(sub, "synth-data", "write a synthetic dataset CSV", _SYNTH_FIELDS,
                       config_file=False)
    p.add_argument("--out", required=True, help="CSV path to write")
    p.set_defaults(n=1000, func=cmd_synth_data)

    p = sub.add_parser("verify-sampler", help="probability and goodness-of-fit checks")
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
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
