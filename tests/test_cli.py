"""CLI: subcommand behavior, config-file precedence, exit codes, and that
printed bound values match the underlying functions."""

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

from adasamp import bounds
from adasamp.cli import build_parser, load_config_file, main, parse_args
from adasamp.data import load_csv
from adasamp.harness import dumps_json

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
    assert getattr(parse_args(argv), dest) == want


@settings(max_examples=30, deadline=None)
@given(form=st.sampled_from(["--track-kl", "--tra"]),
       file_value=st.sampled_from([None, "true", "on", "1", "false", "no", "0"]),
       flag=st.booleans())
def test_track_kl_flag_beats_file_beats_default(tmp_path_factory, form, file_value, flag):
    cfg = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    cfg.write_text("" if file_value is None else f"track-kl = {file_value}\n")
    argv = ["train", "--config", str(cfg)] + ([form] if flag else [])
    from_file = file_value in ("true", "on", "1")
    assert parse_args(argv).track_kl is (flag or from_file)


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


_BOUND_FLAGS = ["--L", "2.0", "--eta", "0.05", "--T", "200", "--n", "100", "--M", "1.5",
                "--mu", "0.5", "--smoothness", "3.0", "--risk-h0", "0.7", "--kl", "0.4",
                "--chisq", "0.3", "--beta", "0.01", "--gamma", "0.002", "--delta", "0.05"]


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
    assert main(["bounds", "--formula", formula, *_BOUND_FLAGS]) == 0
    assert capsys.readouterr().out == dumps_json(direct()) + "\n"


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


def _readme_block(first_line: str) -> str:
    """The README's fenced code block whose first line is `first_line`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in text.split("```\n")[1::2]:
        if block.startswith(first_line):
            return block
    raise AssertionError(f"README has no code block starting {first_line!r}")


def test_readme_cli_commands_parse():
    lines = _readme_block("adasamp train").replace("\\\n", " ").splitlines()
    assert lines
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "adasamp"
        build_parser().parse_args(argv)


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
    (["--sizes"], "--sizes"),
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
    rc = main(["probe-stability", "--n", "80", "--test-n", "40", "--dim", "3",
               "--iters", "60", "--mu", "0.2", "--trials", "1",
               "--perturbations", "3", "--probe-seeds", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["beta_emp"] <= report["beta_bound"]
    assert report["gamma_emp"] <= report["gamma_bound"]


def test_probe_stability_rejects_zero_probe_seeds(capsys):
    rc = main(["probe-stability", "--n", "80", "--test-n", "40", "--dim", "3",
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
    rc = main(["probe-stability", "--n", n, "--test-n", "40", "--dim", "3",
               "--iters", iters, "--mu", "0.2", "--perturbations", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
