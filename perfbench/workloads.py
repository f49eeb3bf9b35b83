"""The benchmark's four workloads, each a stream of checked items.

A workload function runs in a fresh process. It imports what the workload
needs and makes the inputs it can make up front (that is the set-up the
benchmark times), then returns an endless iterator of `Item`s, from op (or
tiny-mc block) `start` on. Every input comes from the workload seed and the
op's index; the library receives only the generated inputs.

An `Item` is one call into the library (`run`, timed) plus the check of its
output (`check`, untimed). Kind "op" items are the ops whose latency the
benchmark reports; kind "aux" items are timed work that is not an op, namely
tiny-mc's exact enumerations. `check` returns the problems it found (an empty
list when the output is correct), a sha256 digest of the output, and the bytes
the item wrote to disk.

Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import shutil
from typing import Callable, NamedTuple

LOSS_BOUND = 5.0  # the harness's default M; risks must lie in [0, M]

DESK_ITERS = 300
DESK_BATCH = 100
WIDE_N = 1_000_000
WIDE_ITERS = 20
WIDE_BATCH = 1000
TINY_SHAPES = [(n, T) for n in (2, 3, 4) for T in (2, 3, 4, 5)]
TINY_TRAIN_CALLS = 200  # seeded train calls per tiny instance
PROBE_PERTURBATIONS = 2
PROBE_SEEDS = 8
PROBE_N = 500
PROBE_ITERS = 500

METRIC_KEYS = ["iteration", "empirical_risk", "heldout_risk", "train_accuracy",
               "test_accuracy", "kl_stat", "conditional_kl"]


class Checked(NamedTuple):
    problems: list
    digest: str
    bytes_written: int = 0


class Item(NamedTuple):
    kind: str  # "op" or "aux"
    examples: int  # training examples the item steps
    run: Callable[[], object]
    check: Callable[[object], Checked]


def op_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one op, derived from the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _hex(*values: float) -> bytes:
    return " ".join(float(v).hex() for v in values).encode()


# ---- desk and wide: the CLI as users run it ----

def _run_cli(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_items(cli, argv_for, examples, check, seed, workdir, start):
    out = os.path.join(workdir, "op")
    for k in itertools.count(start):
        shutil.rmtree(out, ignore_errors=True)
        run = functools.partial(_run_cli, cli, argv_for(op_seed(seed, k), out))
        yield Item("op", examples, run, functools.partial(check, out))


def desk(seed: int, workdir: str, start: int = 0):
    from adasamp import cli

    def argv(s, out):
        return ["compare", "--n", "2000", "--test-n", "500", "--dim", "8", "--classes", "2",
                "--imbalance", "0.7", "--noise", "0.05", "--batch", str(DESK_BATCH),
                "--iters", str(DESK_ITERS), "--alphas", "2.0", "--lambda", "0.5",
                "--utility", "l1", "--cadence", "20", "--trials", "1",
                "--seed", str(s), "--out", out]

    return _cli_items(cli, argv, 2 * DESK_ITERS * DESK_BATCH, check_desk, seed, workdir, start)


def wide(seed: int, workdir: str, start: int = 0):
    from adasamp import cli

    def argv(s, out):
        return ["train", "--n", str(WIDE_N), "--batch", str(WIDE_BATCH), "--iters",
                str(WIDE_ITERS), "--alpha", "2.0", "--track-kl", "--trials", "1",
                "--seed", str(s), "--out", out]

    return _cli_items(cli, argv, WIDE_ITERS * WIDE_BATCH, check_wide, seed, workdir, start)


def _read(path) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _tree_bytes(root) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def check_metrics(jsonl: bytes | None, csv: bytes | None, iters: int, uniform: bool,
                  tracked: bool) -> list:
    """Problems in one trial's metrics JSONL and its CSV mirror.

    Every value is finite, risks lie in [0, M], accuracies in [0, 1], the KL
    statistic is nonnegative and exactly 0 on a uniform arm, the tracked
    conditional KL is nonnegative (and absent when not tracked), iterations
    rise from 1 to `iters`, and the CSV mirror holds the same numbers.
    """
    if jsonl is None or csv is None:
        return ["metrics JSONL or CSV missing"]
    try:
        rows = [json.loads(line) for line in jsonl.decode().splitlines()]
        cells = [line.split(",") for line in csv.decode().splitlines()]
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
        return [f"unparsable metrics: {exc}"]
    problems = []
    if not rows or cells[0] != METRIC_KEYS or len(cells) != len(rows) + 1:
        return ["metrics JSONL and CSV disagree on shape"]
    last = 0
    for row, cell in zip(rows, cells[1:]):
        if (not isinstance(row, dict) or list(row) != METRIC_KEYS
                or len(cell) != len(METRIC_KEYS)):
            return [f"malformed metrics row after iteration {last}"]
        it = row["iteration"]
        values = [row[k] for k in METRIC_KEYS[1:6]]
        cond = row["conditional_kl"]
        if not isinstance(it, int) or it <= last:
            problems.append(f"iteration {it!r} does not follow {last}")
        last = it if isinstance(it, int) else last
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"non-finite metric at iteration {it}")
            continue
        risk_e, risk_h, acc_tr, acc_te, kl = values
        if not (0 <= risk_e <= LOSS_BOUND and 0 <= risk_h <= LOSS_BOUND):
            problems.append(f"risk outside [0, M] at iteration {it}")
        if not (0 <= acc_tr <= 1 and 0 <= acc_te <= 1):
            problems.append(f"accuracy outside [0, 1] at iteration {it}")
        if kl < 0 or (uniform and kl != 0):
            problems.append(f"kl_stat {kl!r} at iteration {it}")
        if tracked != (cond is not None) or (
                cond is not None and not (isinstance(cond, (int, float))
                                          and math.isfinite(cond) and cond >= 0)):
            problems.append(f"conditional_kl {cond!r} at iteration {it}")
        try:
            mirror = [None if c == "" else float(c) for c in cell]
        except ValueError:
            mirror = None
        if mirror != [row[k] for k in METRIC_KEYS]:
            problems.append(f"CSV mirror differs from JSONL at iteration {it}")
    if last != iters:
        problems.append(f"metrics end at iteration {last}, not {iters}")
    return problems


def check_desk(out: str, rc) -> Checked:
    problems = [] if rc == 0 else [f"compare exited with {rc}"]
    blobs = []
    for arm, uniform in (("uniform", True), ("alpha_2", False)):
        base = os.path.join(out, arm, "trial_0.metrics")
        jsonl = _read(base + ".jsonl")
        problems += [f"{arm}: {p}" for p in
                     check_metrics(jsonl, _read(base + ".csv"), DESK_ITERS, uniform, False)]
        blobs.append(jsonl or b"")
    comparison = _read(os.path.join(out, "comparison.json"))
    try:
        arms = json.loads(comparison or b"")["arms"]
        if sorted(arms) != ["alpha_2", "uniform"] or arms["uniform"]["kl_stat_mean"] != 0:
            problems.append("comparison.json arms or uniform kl_stat_mean wrong")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"comparison.json unreadable: {exc!r}")
    blobs.append(comparison or b"")
    return Checked(problems, _sha(*blobs), _tree_bytes(out))


def check_wide(out: str, rc) -> Checked:
    problems = [] if rc == 0 else [f"train exited with {rc}"]
    base = os.path.join(out, "trial_0.metrics")
    jsonl = _read(base + ".jsonl")
    problems += check_metrics(jsonl, _read(base + ".csv"), WIDE_ITERS, False, True)
    return Checked(problems, _sha(jsonl or b""), _tree_bytes(out))


# ---- tiny-mc: the Monte Carlo criterion in miniature ----

def _tiny_instance(rng, n: int, T: int):
    """A tiny instance shaped like the acceptance suite's (n, T given)."""
    import numpy as np
    from adasamp import Dataset, SamplerConfig, StepSchedule, UpdateRuleState

    d = int(rng.integers(1, 4))
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, size=n)
    if len(set(y.tolist())) < 2:
        y[0] = 1 - y[0]
    cfg = SamplerConfig(amplitude=float(rng.uniform(0.2, 2.5)),
                        decay=float(rng.uniform(0.1, 0.9)),
                        utility="l1" if rng.random() < 0.5 else "zero_one",
                        iterations=T)
    rule = UpdateRuleState.adagrad((2, d)) if rng.random() < 0.3 else UpdateRuleState.sgd()
    mu = float(rng.uniform(0.0, 0.5))
    sched = StepSchedule.inverse_decay(float(rng.uniform(0.05, 0.3)), 0.01)
    return Dataset.from_arrays(X, y, 2), cfg, sched, rule, mu, np.zeros((2, d))


def tiny_mc(seed: int, workdir: str, start: int = 0):
    """Blocks of instances, one per (n, T) shape in a seeded order, so every
    seed runs the same mix of shapes; each instance gets one exact enumeration
    and TINY_TRAIN_CALLS seeded train calls."""
    import numpy as np

    import adasamp as lib  # looked up at call time, so the tracer's spans see the calls

    def enumerate_item(ds, cfg, sched, rule, mu, h0):
        def run():
            return lib.enumerate_posterior_divergence(ds, cfg, sched, rule.copy(), mu,
                                                      LOSS_BOUND, h0)

        def check(res):
            problems = []
            values = (res.kl, res.advantage_bound, res.sum_bound)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite enumeration {values}")
            elif not (res.kl <= res.advantage_bound + 1e-9 and res.kl <= res.sum_bound + 1e-9):
                problems.append(f"enumerated KL {res.kl!r} above a statistic's expectation")
            if res.paths != ds.n ** cfg.iterations:
                problems.append(f"{res.paths} paths, expected {ds.n ** cfg.iterations}")
            return Checked(problems, _sha(_hex(*values)))

        return Item("aux", 0, run, check)

    def train_item(ds, cfg, sched, rule, mu, h0, s):
        def run():
            _, trace = lib.train(ds, cfg, sched, rule.copy(), mu, LOSS_BOUND, h0,
                                 np.random.default_rng(s))
            return (trace.indices, trace.total_log_ratio(),
                    lib.kl_from_utility_advantage(trace), lib.kl_from_utility_sum(trace))

        def check(out):
            indices, *stats = out
            drawn = np.asarray(indices, dtype=np.int64).ravel()
            problems = []
            if not all(math.isfinite(v) for v in stats):
                problems.append(f"non-finite trace statistic {stats}")
            if drawn.size != cfg.iterations or drawn.min() < 0 or drawn.max() >= ds.n:
                problems.append("drawn indices out of range or miscounted")
            return Checked(problems, _sha(drawn.tobytes(), _hex(*stats)))

        return Item("op", cfg.iterations, run, check)

    def items():
        for block in itertools.count(start):
            rng = np.random.default_rng(op_seed(seed, block))
            for shape in rng.permutation(len(TINY_SHAPES)):
                inst = _tiny_instance(rng, *TINY_SHAPES[shape])
                yield enumerate_item(*inst)
                for s in rng.integers(0, 2**32, size=TINY_TRAIN_CALLS):
                    yield train_item(*inst, int(s))

    return items()


# ---- probe: scalar per-step gradient and update loop, no tree ----

def probe(seed: int, workdir: str, start: int = 0):
    from adasamp import harness  # looked up at call time, so the tracer's spans see the calls

    runs = PROBE_SEEDS * (1 + PROBE_PERTURBATIONS) + 2 * PROBE_PERTURBATIONS

    def check(res):
        import numpy as np

        values = (res.beta_emp, res.gamma_emp, res.beta_bound, res.gamma_bound)
        problems = []
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite probe result {values}")
        elif res.beta_emp > res.beta_bound or res.gamma_emp > res.gamma_bound:
            problems.append(f"empirical stability above the closed form {values}")
        diffs = np.concatenate([res.data_diffs, res.hyper_diffs])
        return Checked(problems, _sha(_hex(*values), diffs.tobytes()))

    def items():
        for k in itertools.count(start):
            cfg = harness.ExperimentConfig(mu=0.1, n=PROBE_N, iters=PROBE_ITERS,
                                           seed=op_seed(seed, k))

            def run(cfg=cfg):
                return harness.probe_stability(cfg, PROBE_PERTURBATIONS, probe_seeds=PROBE_SEEDS)

            yield Item("op", runs * PROBE_ITERS, run, check)

    return items()


WORKLOADS = {"desk": desk, "wide": wide, "tiny-mc": tiny_mc, "probe": probe}

# Workloads measured one op per fresh process, as a CLI user runs them. A wide
# op's first call in a process pays page faults on ~300 MB of new arrays that
# later calls in the same process mostly do not, and its ops are long, so a
# time-sliced worker would mix the two kinds of op in changing proportions.
ONE_OP_PER_PROCESS = {"wide"}

# Items of seed 0, from the first, whose digests are pinned in pinned_digests.json:
# one op each, and for tiny-mc its first instance (one enumeration, all its train calls).
REFERENCE_ITEMS = {"desk": 1, "wide": 1, "tiny-mc": 1 + TINY_TRAIN_CALLS, "probe": 1}


def reference(name: str, workdir: str) -> Checked:
    """Run the pinned items of seed 0 and return their problems and one digest."""
    problems, digests = [], []
    for item in itertools.islice(WORKLOADS[name](0, workdir), REFERENCE_ITEMS[name]):
        try:
            checked = item.check(item.run())
        except Exception as exc:  # reported as a failed reference item
            checked = Checked([f"reference item raised {exc!r}"], "")
        problems += checked.problems
        digests.append(checked.digest.encode())
    return Checked(problems, _sha(*digests))
