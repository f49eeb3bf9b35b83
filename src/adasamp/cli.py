"""Command-line interface.

Subcommands: train, compare, bounds, probe-stability, synth-data,
verify-sampler. The experiment subcommands also read a flat `key = value`
config file (--config PATH) whose keys are their flag names without the
leading dashes; on/off keys take true/1/yes/on or false/0/no/off, and
`alphas` takes whitespace-separated numbers. File values are converted
with their flag's type (a bad one is reported as `error: config key ...`)
and become the subcommand's defaults, so an explicit flag wins in every
spelling and the file wins over built-in defaults. Float flags reject nan
and +-inf.

Exit codes: 0 on success, 1 when a verification finds a violation, 2 on a
rejected input, 3 when training diverges (`error: diverged at iteration t`).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import bounds
from .adaptive import DivergenceError
from .data import save_csv, synth_data
from .harness import (
    ExperimentConfig,
    dumps_json,
    probe_stability,
    run_comparison,
    run_experiment,
)
from .weight_tree import WeightTree

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


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
    if action.nargs == "*":  # a list flag such as --alphas
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


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    defaults = ExperimentConfig()
    p.set_defaults(subparser=p)  # parse_args sets this parser's defaults from --config
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--csv", help="load the dataset from this CSV instead of synthesizing")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--n", type=int, default=defaults.n, help="training examples")
    p.add_argument("--test-n", type=int, default=defaults.test_n, dest="test_n")
    p.add_argument("--dim", type=int, default=defaults.dim)
    p.add_argument("--classes", type=int, default=defaults.classes)
    p.add_argument("--imbalance", type=finite_float, default=defaults.imbalance)
    p.add_argument("--noise", type=finite_float, default=defaults.noise)
    p.add_argument("--separation", type=finite_float, default=defaults.separation)
    p.add_argument("--iters", type=int, default=defaults.iters)
    p.add_argument("--alpha", type=finite_float, default=defaults.alpha,
                   help="reweighting amplitude (0 = uniform sampling)")
    p.add_argument("--lambda", type=finite_float, default=defaults.decay, dest="decay",
                   help="multiplicative weight decay in (0, 1)")
    p.add_argument("--utility", choices=["01", "l1"], default="l1")
    p.add_argument("--rule", choices=["sgd", "adagrad"], default=defaults.rule)
    p.add_argument("--schedule", choices=["constant", "inverse_decay", "strongly_convex"],
                   default=defaults.schedule)
    p.add_argument("--batch", type=int, default=defaults.batch)
    p.add_argument("--mu", type=finite_float, default=defaults.mu,
                   help="L2 regularization strength")
    p.add_argument("--M", type=finite_float, default=defaults.loss_bound, dest="loss_bound",
                   help="loss clamp")
    p.add_argument("--domain-radius", type=finite_float, default=None, dest="domain_radius")
    p.add_argument("--eta", type=finite_float, default=defaults.eta)
    p.add_argument("--kappa", type=finite_float, default=defaults.kappa)
    p.add_argument("--delta", type=finite_float, default=defaults.delta)
    p.add_argument("--trials", type=int, default=defaults.trials)
    p.add_argument("--cadence", type=int, default=defaults.cadence)
    p.add_argument("--target", type=finite_float, default=None,
                   help="explicit loss target for iterations-to-target")
    p.add_argument("--track-kl", action="store_true", dest="track_kl",
                   help="report the full conditional KL to uniform at each metrics tick")
    p.add_argument("--out", help="output directory for metrics and reports")


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in fields})


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    result = run_experiment(cfg)
    print(dumps_json(result.report["aggregate"]))
    if result.out_dir:
        print(f"wrote metrics and report.json under {result.out_dir}")
    return 0


def cmd_compare(args) -> int:
    cfg = _experiment_config(args)
    out = run_comparison(cfg, alphas=args.alphas if args.alphas else None)
    print(dumps_json(out["comparison"]))
    return 0


def cmd_synth_data(args) -> int:
    ds = synth_data(args.n, args.dim, args.classes, args.imbalance, args.noise,
                    seed=args.seed, separation=args.separation)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} examples ({ds.num_classes} classes, dim {ds.feature_dim}) to {args.out}")
    return 0


def _stability_pair(a) -> dict:
    beta, gamma = bounds.sgd_stability_strongly_convex(a.L, a.mu, a.n, a.T)
    return {"formula": "stability_strongly_convex", "beta": beta, "gamma": gamma}


# `bounds --formula` choice -> the report it prints
_BOUND_REPORTS = {
    "stab-convex": lambda a: {"formula": "stability_convex",
                              "value": bounds.sgd_stability_convex(a.L, a.eta, a.T, a.n)},
    "stab-nonconvex": lambda a: {"formula": "stability_nonconvex",
                                 "value": bounds.sgd_stability_nonconvex(
                                     a.L, a.smoothness, a.eta, a.T, a.n, a.M)},
    "stab-initial-risk": lambda a: {"formula": "stability_initial_risk",
                                    "value": bounds.sgd_stability_initial_risk(
                                        a.L, a.eta, a.T, a.n, a.smoothness, a.risk_h0)},
    "stab-strongly-convex": _stability_pair,
    "chisq": lambda a: bounds.gen_bound_chisq(a.chisq, a.M, a.n, a.beta, a.delta).to_json(),
    "kl": lambda a: bounds.gen_bound_kl(a.kl, a.M, a.n, a.T, a.beta, a.gamma,
                                        a.delta).to_json(),
    "sgd-strongly-convex": lambda a: bounds.gen_bound_sgd_strongly_convex(
        a.kl, a.M, a.L, a.mu, a.n, a.T, a.delta).to_json(),
    "derandomized": lambda a: bounds.gen_bound_derandomized(
        a.kl, a.M, a.n, a.T, a.beta, a.gamma, a.delta).to_json(),
}


def cmd_bounds(args) -> int:
    print(dumps_json(_BOUND_REPORTS[args.formula](args)))
    return 0


def cmd_probe_stability(args) -> int:
    cfg = _experiment_config(args)
    res = probe_stability(cfg, args.perturbations, probe_seeds=args.probe_seeds)
    report = {
        "beta_emp": res.beta_emp,
        "beta_bound": res.beta_bound,
        "gamma_emp": res.gamma_emp,
        "gamma_bound": res.gamma_bound,
        "data_diff_median": float(np.median(res.data_diffs)),
        "hyper_diff_median": float(np.median(res.hyper_diffs)),
        "perturbations": args.perturbations,
    }
    print(dumps_json(report))
    ok = res.beta_emp <= res.beta_bound and res.gamma_emp <= res.gamma_bound
    if not ok:
        print("empirical stability exceeded the closed-form coefficient", file=sys.stderr)
        return 1
    return 0


def cmd_verify_sampler(args) -> int:
    """Distribution, goodness-of-fit, and touched-node checks on random trees."""
    if not args.sizes or min(args.sizes) < 2:
        raise ValueError("--sizes needs one or more sizes, each >= 2")
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

    p = sub.add_parser("train", help="run one sampler configuration for several trials")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="uniform vs adaptive arms on shared seeds")
    _add_experiment_flags(p)
    p.add_argument("--alphas", type=finite_float, nargs="*", default=None,
                   help="adaptive arm amplitudes (default: just --alpha)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bounds", help="evaluate one closed-form coefficient or bound")
    p.add_argument("--formula", required=True, choices=list(_BOUND_REPORTS))
    p.add_argument("--L", type=finite_float, default=1.0)
    p.add_argument("--eta", type=finite_float, default=0.1)
    p.add_argument("--T", type=int, default=100)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--M", type=finite_float, default=1.0)
    p.add_argument("--mu", type=finite_float, default=0.1)
    p.add_argument("--smoothness", type=finite_float, default=1.0)
    p.add_argument("--risk-h0", type=finite_float, default=1.0, dest="risk_h0")
    p.add_argument("--kl", type=finite_float, default=0.0)
    p.add_argument("--chisq", type=finite_float, default=0.0)
    p.add_argument("--beta", type=finite_float, default=0.0)
    p.add_argument("--gamma", type=finite_float, default=0.0)
    p.add_argument("--delta", type=finite_float, default=0.05)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("probe-stability", help="empirical stability vs closed forms")
    _add_experiment_flags(p)
    p.add_argument("--perturbations", type=int, default=50)
    p.add_argument("--probe-seeds", type=int, default=8, dest="probe_seeds")
    p.set_defaults(func=cmd_probe_stability)

    p = sub.add_parser("synth-data", help="write a synthetic dataset CSV")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--imbalance", type=finite_float, default=0.7)
    p.add_argument("--noise", type=finite_float, default=0.05)
    p.add_argument("--separation", type=finite_float, default=3.4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path to write")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("verify-sampler", help="distribution and complexity checks")
    p.add_argument("--sizes", type=int, nargs="*", default=[2, 7, 64, 1000])
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
