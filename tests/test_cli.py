"""CLI: subcommand behavior, config-file precedence, exit codes, and that
printed bound values match the underlying functions."""

import inspect
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adasamp.harness as harness
from adasamp import bounds, cli
from adasamp.cli import experiment_config, load_config_file, main, parse_args
from adasamp.data import load_csv
from adasamp.harness import ExperimentConfig, dumps_json

SMALL = ["--n", "60", "--test-n", "40", "--dim", "4", "--iters", "40",
         "--trials", "2", "--cadence", "10", "--batch", "4"]


def test_config_file_keys_are_flag_names(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\n"
                 "alpha = 1.5\n"
                 "lambda = 0.25   # the --lambda flag, dest decay\n"
                 "M = 3.0\n"
                 "test-n = 33\n"
                 "\n"
                 "track-kl = true\n")
    args = parse_args(["train", "--config", str(p)])
    assert (args.alpha, args.decay, args.loss_bound) == (1.5, 0.25, 3.0)
    assert args.test_n == 33 and args.track_kl is True


def test_config_file_boolean_spellings(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("track-kl = off\n")
    assert parse_args(["train", "--config", str(p)]).track_kl is False
    p.write_text("track-kl = maybe\n")
    assert main(["train", "--config", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_load_config_file_rejects_bare_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("alpha 1.5\n")
    with pytest.raises(ValueError, match="expected key = value"):
        load_config_file(p)


# flag -> (unique prefix, parsed dest, built-in default, values to try)
PRECEDENCE_FLAGS = {
    "--alpha": ("--alp", "alpha", 2.0, [0.5, 1.0, 3.0]),
    "--lambda": ("--lam", "decay", 0.5, [0.1, 0.25, 0.9]),
    "--iters": ("--it", "iters", 4000, [1, 7, 40]),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), flag=st.sampled_from(sorted(PRECEDENCE_FLAGS)),
       form=st.sampled_from(["space", "equals", "prefix"]))
def test_flag_beats_file_beats_default(tmp_path_factory, data, flag, form):
    prefix, dest, default, values = PRECEDENCE_FLAGS[flag]
    file_value = data.draw(st.none() | st.sampled_from(values), label="file")
    flag_value = data.draw(st.none() | st.sampled_from(values), label="flag")
    cfg = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    cfg.write_text("" if file_value is None else f"{flag[2:]} = {file_value}\n")
    argv = ["train", "--config", str(cfg)]
    if flag_value is not None:
        argv += {"space": [flag, str(flag_value)], "equals": [f"{flag}={flag_value}"],
                 "prefix": [prefix, str(flag_value)]}[form]
    want = next(v for v in (flag_value, file_value, default) if v is not None)
    assert getattr(experiment_config(parse_args(argv)), dest) == want


@settings(max_examples=30, deadline=None)
@given(form=st.sampled_from(["--track-kl", "--tra"]),
       file_value=st.sampled_from([None, "true", "on", "1", "false", "no", "0"]),
       flag=st.booleans())
def test_track_kl_flag_beats_file_beats_default(tmp_path_factory, form, file_value, flag):
    cfg = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    cfg.write_text("" if file_value is None else f"track-kl = {file_value}\n")
    argv = ["train", "--config", str(cfg)] + ([form] if flag else [])
    from_file = file_value in ("true", "on", "1")
    assert experiment_config(parse_args(argv)).track_kl is (flag or from_file)


def test_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", *SMALL, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    agg = json.loads(lines[0])
    assert "empirical_risk_mean" in agg or agg  # aggregate is a non-empty dict
    assert (out / "report.json").exists()
    assert (out / "trial_0.metrics.jsonl").exists()
    assert (out / "trial_1.metrics.csv").exists()


def test_config_file_fills_defaults_but_flags_win(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("alpha = 1.5\nlambda = 0.25\niters = 40\nn = 60\n"
                       "test-n = 40\ndim = 4\ntrials = 1\ncadence = 10\n"
                       "batch = 4\n")
    out = tmp_path / "run"
    for flag in (["--alpha", "3.0"], ["--alpha=3.0"], ["--alp", "3.0"]):
        rc = main(["train", "--config", str(cfgfile), *flag, "--out", str(out)])
        assert rc == 0
        echo = json.loads((out / "report.json").read_text())["config"]
        assert echo["alpha"] == 3.0      # explicit flag beats the file
        assert echo["decay"] == 0.25     # file beats the built-in default
        assert echo["iters"] == 40
        assert echo["n"] == 60


def test_compare_reads_alphas_from_config(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("alphas = 1 2\n")
    assert main(["compare", *SMALL, "--config", str(cfgfile)]) == 0
    comp = json.loads(capsys.readouterr().out)
    assert set(comp["arms"]) == {"uniform", "alpha_1", "alpha_2"}


@pytest.mark.parametrize("argv", [
    ["bounds", "--formula", "kl", "--kl", "nan"],
    ["bounds", "--formula", "chisq", "--chisq", "inf"],
    ["bounds", "--formula", "kl", "--M=-inf"],
    ["train", "--eta", "nan"],
    ["compare", "--alphas", "1", "inf"],
])
def test_non_finite_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


def test_non_finite_config_values_are_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("alpha = nan\n")
    assert main(["train", "--config", str(cfgfile)]) == 2
    cfgfile.write_text("alphas = 1 inf\n")
    assert main(["compare", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


@pytest.mark.parametrize("key,value,message", [
    ("alpha", "abc", "expected a finite number, got 'abc'"),
    ("alpha", "nan", "expected a finite number, got 'nan'"),
    ("iters", "many", "invalid literal for int()"),
])
def test_config_value_failing_its_type_names_the_key(tmp_path, capsys, key, value, message):
    # reported like an unknown key: exit 2, no usage, no flag the user never typed
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    assert main(["train", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config key {key!r}: {message}")
    assert "usage" not in captured.err and "argument --" not in captured.err


def test_non_numeric_float_flag_says_what_it_expected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--alpha", "abc"])
    assert exc.value.code == 2
    assert "argument --alpha: expected a finite number, got 'abc'" in capsys.readouterr().err


def test_divergence_exits_3_naming_the_iteration(capsys):
    rc = main(["train", *SMALL, "--schedule", "constant", "--eta", "1e308", "--mu", "0"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: diverged at iteration ")


def test_diverged_run_prints_only_its_error_line(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["compare", "--n", "60", "--test-n", "20", "--iters", "30", "--batch", "4",
                   "--trials", "2", "--eta", "1e308", "--mu", "0", "--alphas", "1", "2",
                   "--out", str(tmp_path / "D")])
    assert rc == 3
    assert caught == []
    assert capsys.readouterr().err == "error: diverged at iteration 1\n"


def test_diverged_compare_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "D"
    rc = main(["compare", "--n", "60", "--test-n", "40", "--iters", "40", "--batch", "4",
               "--trials", "3", "--schedule", "constant", "--eta", "1e308", "--mu", "0",
               "--alphas", "1", "2", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: diverged at iteration ")
    assert not out.exists()


@pytest.mark.parametrize("cadence,iteration", [("1", 2), ("20", 3)])
def test_a_tick_whose_risk_is_not_finite_is_a_divergence(tmp_path, capsys, cadence, iteration):
    # the hypothesis and the drawn rows' utilities stay finite, but the tick's
    # scores of other rows overflow, so its risk is nan; the reported
    # iteration is the tick that saw it
    out = tmp_path / "D"
    rc = main(["train", "--mu", "0", "--schedule", "constant", "--eta", "1.2e307",
               "--n", "60", "--test-n", "40", "--iters", "3", "--batch", "1", "--trials", "1",
               "--cadence", cadence, "--seed", "4", "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: diverged at iteration {iteration}\n"
    assert not out.exists()


_TINY_TRAIN = ["train", "--n", "60", "--test-n", "40", "--iters", "3", "--batch", "1",
               "--trials", "1"]


@pytest.mark.parametrize("argv,message", [
    (["bounds", "--formula", "kl", "--beta", "1e200", "--n", "100"],
     "the kl bound is inf"),
    (["bounds", "--formula", "derandomized", "--beta", "1e200", "--n", "100"],
     "the derandomized bound is inf"),
    (["bounds", "--formula", "sgd-strongly-convex", "--mu", "1e-300", "--n", "100"],
     "the sgd_strongly_convex bound is inf"),
    (["bounds", "--formula", "stab-nonconvex", "--smoothness", "1e300", "--eta", "1e300"],
     "the stability_nonconvex coefficient is nan"),
    ([*_TINY_TRAIN, "--mu", "1e-300"], "the kl bound is inf"),
    ([*_TINY_TRAIN, "--mu", "1e-306"], "the kl bound is inf"),
])
def test_a_bound_that_is_not_finite_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "D"
    rc = main([*argv, *(["--out", str(out)] if argv[0] == "train" else [])])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} at these inputs, not a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--separation", "1e160"],
     "--separation 1e+160 is too large for label noise: "
     "squared distances to the class means overflow"),
    (["--mu", "2", "--domain-radius", "1e308"],
     "mu * domain_radius = 2 * 1e+308 is too large: "
     "the Lipschitz constant sqrt(2)*R + mu * domain_radius overflows"),
])
def test_overflowing_constants_exit_2_before_training(tmp_path, capsys, flags, message):
    out = tmp_path / "D"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--n", "60", "--test-n", "20", "--iters", "5", "--batch", "4",
                   "--trials", "1", *flags, "--out", str(out)])
    assert rc == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, adasamp.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("alhpa = 1.5\n")
    assert main(["train", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_matches_direct_call(capsys):
    rc = main(["bounds", "--formula", "kl", "--kl", "0.1", "--M", "1.0",
               "--n", "50", "--T", "20", "--beta", "0.01", "--gamma", "0.002",
               "--delta", "0.05"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    want = bounds.gen_bound_kl(0.1, 1.0, 50, 20, 0.01, 0.002, 0.05).to_json()
    assert got == want


def test_bounds_stability_pair(capsys):
    rc = main(["bounds", "--formula", "stab-strongly-convex", "--L", "2.0",
               "--mu", "0.5", "--n", "100", "--T", "200"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    beta, gamma = bounds.sgd_stability_strongly_convex(2.0, 0.5, 100, 200)
    assert got == {"formula": "stability_strongly_convex",
                   "beta": beta, "gamma": gamma}


_BOUND_VALUES = {"--L": "2.0", "--eta": "0.05", "--T": "200", "--n": "100", "--M": "1.5",
                 "--mu": "0.5", "--smoothness": "3.0", "--risk-h0": "0.7", "--kl": "0.4",
                 "--chisq": "0.3", "--beta": "0.01", "--gamma": "0.002", "--delta": "0.05"}
# the flags each formula reads: its evaluator's parameters, written out by hand
_BOUND_READS = {
    "stab-convex": ["--L", "--eta", "--T", "--n"],
    "stab-nonconvex": ["--L", "--smoothness", "--eta", "--T", "--n", "--M"],
    "stab-initial-risk": ["--L", "--eta", "--T", "--n", "--smoothness", "--risk-h0"],
    "stab-strongly-convex": ["--L", "--mu", "--n", "--T"],
    "chisq": ["--chisq", "--M", "--n", "--beta", "--delta"],
    "kl": ["--kl", "--M", "--n", "--T", "--beta", "--gamma", "--delta"],
    "sgd-strongly-convex": ["--kl", "--M", "--L", "--mu", "--n", "--T", "--delta"],
    "derandomized": ["--kl", "--M", "--n", "--T", "--beta", "--gamma", "--delta"],
}
_BOUND_UNREAD = [(formula, flag) for formula, reads in _BOUND_READS.items()
                 for flag in _BOUND_VALUES if flag not in reads]


def _bound_flags(formula):
    return [word for flag in _BOUND_READS[formula] for word in (flag, _BOUND_VALUES[flag])]


@pytest.mark.parametrize("formula,direct", [
    ("stab-convex", lambda: {"formula": "stability_convex",
                             "value": bounds.sgd_stability_convex(2.0, 0.05, 200, 100)}),
    ("stab-nonconvex", lambda: {"formula": "stability_nonconvex",
                                "value": bounds.sgd_stability_nonconvex(2.0, 3.0, 0.05, 200,
                                                                        100, 1.5)}),
    ("stab-initial-risk", lambda: {"formula": "stability_initial_risk",
                                   "value": bounds.sgd_stability_initial_risk(2.0, 0.05, 200,
                                                                              100, 3.0, 0.7)}),
    ("stab-strongly-convex", lambda: dict(zip(
        ("formula", "beta", "gamma"),
        ("stability_strongly_convex", *bounds.sgd_stability_strongly_convex(2.0, 0.5, 100,
                                                                            200))))),
    ("chisq", lambda: bounds.gen_bound_chisq(0.3, 1.5, 100, 0.01, 0.05).to_json()),
    ("kl", lambda: bounds.gen_bound_kl(0.4, 1.5, 100, 200, 0.01, 0.002, 0.05).to_json()),
    ("sgd-strongly-convex", lambda: bounds.gen_bound_sgd_strongly_convex(
        0.4, 1.5, 2.0, 0.5, 100, 200, 0.05).to_json()),
    ("derandomized", lambda: bounds.gen_bound_derandomized(
        0.4, 1.5, 100, 200, 0.01, 0.002, 0.05).to_json()),
])
def test_every_bounds_formula_prints_its_direct_call(capsys, formula, direct):
    assert main(["bounds", "--formula", formula, *_bound_flags(formula)]) == 0
    assert capsys.readouterr().out == dumps_json(direct()) + "\n"


@pytest.mark.parametrize("formula,flag", _BOUND_UNREAD)
def test_a_bounds_flag_the_formula_does_not_read_exits_2(capsys, formula, flag):
    rc = main(["bounds", "--formula", formula, *_bound_flags(formula), flag, _BOUND_VALUES[flag]])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --formula {formula} does not read {flag}\n"


def test_unread_bounds_flags_are_named_in_a_fixed_order(capsys):
    assert main(["bounds", "--formula", "kl", "--smoothness", "1", "--eta", "1", "--L", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: --formula kl does not read --L, --eta, --smoothness\n")


def test_every_bounds_evaluator_parameter_is_a_flag():
    for formula, evaluate in cli._BOUND_FORMULAS.items():
        for name in inspect.signature(evaluate).parameters:
            assert name in cli._BOUND_DEFAULTS, (formula, name)
            flag = "--" + name.replace("_", "-")
            args = parse_args(["bounds", "--formula", formula, flag, "3"])
            assert getattr(args, name) == 3, (formula, name)


def test_bounds_rejects_bad_inputs(capsys):
    rc = main(["bounds", "--formula", "chisq", "--chisq", "-1.0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_synth_data_round_trip(tmp_path, capsys):
    path = tmp_path / "ds.csv"
    rc = main(["synth-data", "--n", "30", "--dim", "3", "--classes", "3",
               "--out", str(path)])
    assert rc == 0
    ds = load_csv(path)
    assert ds.n == 30 and ds.feature_dim == 3 and ds.num_classes == 3


def test_synth_data_that_empties_a_class_exits_2_and_writes_nothing(tmp_path, capsys):
    # at this seed the label noise leaves labels 0, 0, 2: a file `load_csv` rejects
    path = tmp_path / "ds.csv"
    rc = main(["synth-data", "--n", "3", "--dim", "3", "--classes", "3", "--noise", "0.5",
               "--seed", "0", "--out", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: no example has label 1 ") and captured.out == ""
    assert not path.exists()


def test_noise_free_synth_data_writes_features_at_any_finite_separation(tmp_path, capsys):
    # no class distance is taken without label noise, so nothing overflows
    path = tmp_path / "far.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["synth-data", "--n", "30", "--dim", "3", "--separation", "1e160",
                   "--noise", "0", "--out", str(path)])
    assert rc == 0 and caught == []
    assert capsys.readouterr().err == ""
    assert path.read_text().count("\n") == 31


@pytest.mark.parametrize("row", ["inf,1.0", "1e300,1.0", "nan,1.0", "0,inf"])
def test_csv_with_a_non_finite_or_oversized_number_exits_2_naming_the_row(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,f1\n0,1.0\n1,-1.0\n{row}\n")
    rc = main(["train", "--csv", str(path), "--test-n", "1", "--iters", "2", "--batch", "1",
               "--trials", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: row 3: ") and captured.out == ""


def test_csv_with_a_huge_label_exits_2_naming_the_missing_class(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("label,f1\n0,1.0\n1000000000000,2.0\n1,0.5\n")
    rc = main(["train", "--csv", str(path), "--test-n", "1", "--iters", "2", "--batch", "1",
               "--trials", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: no row has label 2: ") and captured.out == ""


@pytest.mark.parametrize("n,test_n,message", [
    ("0", "40", "n must be >= 1"),
    ("60", "0", "test_n must be >= 1"),
    ("60", "-5", "test_n must be >= 1"),
])
def test_synthetic_split_sizes_below_one_exit_2_naming_the_flag(monkeypatch, capsys, n,
                                                                 test_n, message):
    def never(*args, **kwargs):
        raise AssertionError("data drawn before the sizes were checked")

    monkeypatch.setattr(harness, "synth_arrays", never)
    rc = main(["train", "--n", n, "--test-n", test_n, "--iters", "2", "--trials", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _readme_block(first_line: str) -> str:
    """The README's fenced code block whose first line is `first_line`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in text.split("```\n")[1::2]:
        if block.startswith(first_line):
            return block
    raise AssertionError(f"README has no code block starting {first_line!r}")


def test_readme_cli_commands_parse():
    # train and compare also build their config, which checks for unread flags
    lines = _readme_block("adasamp train").replace("\\\n", " ").splitlines()
    assert lines
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "adasamp"
        args = parse_args(argv)
        if args.command in ("train", "compare"):
            experiment_config(args)


def test_readme_config_example_sets_its_flags(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(_readme_block("# exp.cfg"))
    args = parse_args(["train", "--config", str(path)])
    assert (args.alpha, args.decay, args.utility, args.iters, args.track_kl) == (
        2.0, 0.5, "l1", 4000, True)


def test_compare_reports_arms(capsys):
    rc = main(["compare", *SMALL, "--alphas", "1.0", "2.0"])
    assert rc == 0
    comp = json.loads(capsys.readouterr().out)
    assert set(comp["arms"]) == {"uniform", "alpha_1", "alpha_2"}
    assert comp["arms"]["uniform"]["kl_stat_mean"] == 0.0


def test_verify_sampler_passes(capsys):
    rc = main(["verify-sampler", "--sizes", "2", "7", "16",
               "--draws", "20000"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "sampler verification passed"
    for line in lines[:-1]:
        row = json.loads(line)
        assert row["ok"] is True
        assert row["max_prob_error"] < 1e-12
        assert row["sample_touches"] == row["depth"]
        assert row["update_touches"] == row["depth"] + 1


@pytest.mark.parametrize("argv,flag", [
    (["--sizes", "0"], "--sizes"),
    (["--sizes", "1"], "--sizes"),
    (["--sizes", "4", "1"], "--sizes"),
    (["--draws", "0"], "--draws"),
    (["--draws", "-5"], "--draws"),
])
def test_verify_sampler_rejects_inputs_that_check_nothing(capsys, argv, flag):
    rc = main(["verify-sampler", *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any size is checked
    assert captured.err.startswith(f"error: {flag} ")


def test_probe_stability_subcommand(capsys):
    rc = main(["probe-stability", "--n", "80", "--dim", "3",
               "--iters", "60", "--mu", "0.2",
               "--perturbations", "3", "--probe-seeds", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["beta_emp"] <= report["beta_bound"]
    assert report["gamma_emp"] <= report["gamma_bound"]


def test_probe_stability_rejects_zero_probe_seeds(capsys):
    rc = main(["probe-stability", "--n", "80", "--dim", "3",
               "--iters", "60", "--mu", "0.2", "--perturbations", "3",
               "--probe-seeds", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: probe_seeds must be >= 1\n"


@pytest.mark.parametrize("n,iters,message", [
    ("80", "0", "iters must be >= 1"),
    ("1", "60", "n must be >= 2"),
])
def test_probe_stability_rejects_empty_runs_and_datasets(capsys, n, iters, message):
    rc = main(["probe-stability", "--n", n, "--dim", "3",
               "--iters", iters, "--mu", "0.2", "--perturbations", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_PROBE = ["probe-stability", "--n", "50", "--iters", "20", "--mu", "0.2",
          "--perturbations", "2", "--probe-seeds", "1"]


@pytest.mark.parametrize("flag", [
    ["--csv", "data.csv"], ["--test-n", "40"], ["--alpha", "1"], ["--lambda", "0.3"],
    ["--utility", "01"], ["--rule", "adagrad"], ["--schedule", "constant"], ["--batch", "4"],
    ["--domain-radius", "0.001"], ["--eta", "99"], ["--kappa", "0.1"], ["--delta", "0.1"],
    ["--trials", "1"], ["--cadence", "5"], ["--target", "0.2"], ["--track-kl"],
    ["--out", "D"],
], ids=lambda flag: flag[0])
def test_probe_stability_rejects_the_training_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([*_PROBE, *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(flag)}\n" in captured.err


def test_probe_stability_config_keys_are_its_flags(tmp_path, capsys):
    cfgfile = tmp_path / "probe.cfg"
    cfgfile.write_text("seed = 3\nn = 70\ndim = 5\nclasses = 3\nimbalance = 0.6\n"
                       "noise = 0.1\nseparation = 2\niters = 30\nmu = 0.3\nM = 4\n"
                       "perturbations = 4\nprobe-seeds = 2\n")
    args = parse_args(["probe-stability", "--config", str(cfgfile)])
    assert (args.seed, args.n, args.dim, args.classes, args.imbalance, args.noise,
            args.separation, args.iters, args.mu, args.loss_bound, args.perturbations,
            args.probe_seeds) == (3, 70, 5, 3, 0.6, 0.1, 2.0, 30, 0.3, 4.0, 4, 2)
    cfgfile.write_text("alpha = 1.5\n")
    assert main([*_PROBE, "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config key 'alpha'\n"


@pytest.mark.parametrize("command", ["train", "compare"])
def test_an_empty_out_is_rejected_before_training(monkeypatch, capsys, command):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the config was checked")

    monkeypatch.setattr(harness, "train_many", no_training)
    assert main([command, *SMALL, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out must name a directory, not the empty string\n"


def test_compare_rejects_alphas_that_name_one_arm(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", *SMALL, "--alphas", "1.0000001", "1.0000002", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: alphas 1.0000001 and 1.0000002 both name the arm "
                            "'alpha_1'\n")
    assert not out.exists()  # rejected before anything is trained or written


def test_missing_required_flag_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["synth-data"])  # --out is required
    assert exc.value.code == 2


def test_bare_list_flags_are_argparse_errors(capsys):
    for argv in (["verify-sampler", "--sizes"], ["compare", *SMALL, "--alphas"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {argv[-1]}: expected at least one argument" in captured.err


def test_no_experiment_flag_has_a_default_in_the_parser():
    # the namespace holds only what was given; ExperimentConfig declares the defaults
    for command in ("train", "compare", "probe-stability"):
        args = parse_args([command])
        assert set(vars(args)) <= {"command", "func", "subparser", "alphas"}, command
        assert experiment_config(args) == ExperimentConfig()


def _rejected_before_reading(monkeypatch, capsys, argv, tmp_path):
    """main(argv + --out) exits 2 before any data is read or anything written;
    returns its stderr."""
    def no_data(*args, **kwargs):
        raise AssertionError("data read before the flags were checked")

    monkeypatch.setattr(harness, "load_csv", no_data)
    monkeypatch.setattr(harness, "synth_arrays", no_data)
    out = tmp_path / "D"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    return captured.err


_TASK_VALUES = {"n": "5", "dim": "3", "classes": "3", "imbalance": "0.5", "noise": "0.1",
                "separation": "2"}


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("key", sorted(_TASK_VALUES))
def test_csv_runs_reject_the_synthetic_task_flags(monkeypatch, capsys, tmp_path, key, form):
    task = ["--csv", "d.csv", "--test-n", "30", "--iters", "20", "--trials", "1"]
    if form == "flag":
        argv = ["train", *task, f"--{key}", _TASK_VALUES[key]]
    else:
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"csv = d.csv\n{key} = {_TASK_VALUES[key]}\n")
        argv = ["train", "--config", str(cfgfile)]
    err = _rejected_before_reading(monkeypatch, capsys, argv, tmp_path)
    assert err == f"error: --csv does not read --{key}\n"


def test_unread_flags_are_named_in_a_fixed_order(monkeypatch, capsys, tmp_path):
    argv = ["compare", "--noise", "0.1", "--kappa", "1", "--csv", "d.csv", "--n", "5",
            "--schedule", "constant", "--alpha", "1", "--alphas", "2"]
    err = _rejected_before_reading(monkeypatch, capsys, argv, tmp_path)
    assert err == ("error: --csv does not read --n, --noise; "
                   "--schedule constant does not read --kappa; --alphas does not read --alpha\n")


@pytest.mark.parametrize("schedule", ["constant", "strongly_convex"])
def test_kappa_is_rejected_where_the_schedule_does_not_take_it(monkeypatch, capsys, tmp_path,
                                                                schedule):
    argv = ["train", *SMALL, "--schedule", schedule, "--kappa", "7"]
    err = _rejected_before_reading(monkeypatch, capsys, argv, tmp_path)
    assert err == f"error: --schedule {schedule} does not read --kappa\n"


@pytest.mark.parametrize("form", ["flags", "config", "mixed"])
def test_compare_rejects_alpha_beside_alphas(monkeypatch, capsys, tmp_path, form):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text({"flags": "", "config": "alpha = 1\nalphas = 2 3\n",
                        "mixed": "alphas = 2 3\n"}[form])
    flags = {"flags": ["--alpha", "1", "--alphas", "2", "3"], "config": [],
             "mixed": ["--alpha", "1"]}[form]
    argv = ["compare", *SMALL, "--config", str(cfgfile), *flags]
    err = _rejected_before_reading(monkeypatch, capsys, argv, tmp_path)
    assert err == "error: --alphas does not read --alpha\n"


def test_an_empty_alphas_config_key_is_rejected(monkeypatch, capsys, tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("alphas =\n")
    err = _rejected_before_reading(monkeypatch, capsys,
                                   ["compare", *SMALL, "--config", str(cfgfile)], tmp_path)
    assert err == "error: config key 'alphas': expected at least one value\n"


def test_eta_is_read_under_the_strongly_convex_schedule(tmp_path):
    # the report's convex and initial-risk coefficients take eta under every schedule
    def stability_convex(*eta):
        out = tmp_path / "-".join(eta or ("default",))
        argv = ["train", "--schedule", "strongly_convex", *(["--eta", *eta] if eta else []),
                "--n", "60", "--test-n", "30", "--iters", "20", "--batch", "4", "--trials", "1",
                "--out", str(out)]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        return report["trials"][0]["bounds"]["stability_convex"]

    assert stability_convex("99") == pytest.approx(99 / 0.05 * stability_convex(), rel=1e-12)
