"""Self-test of the benchmark at its shortest length.

    python3 -m pytest -q perfbench/test_bench.py

Runs each workload for one second untraced and traced, and corrupts one byte
of a metrics JSONL to see the op fail its check.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def scratch(request):
    """A fresh directory inside the checkout's ignored benchmark output dir."""
    path = os.path.join(run.OUT, "selftest", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    lines, result = _bench(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        # every item both runs completed produced the same digest
        match = [line for line in lines if line.strip().startswith("trace digests:")]
        done, _, total = match[0].split(":")[1].split()[:3]
        assert int(done) == int(total) > 0


def test_flipped_byte_in_metrics_jsonl_fails_the_op(scratch):
    sys.path.insert(0, run.SRC)
    item = next(workloads.WORKLOADS["desk"](0, scratch))
    out = item.run()
    assert item.check(out).problems == []
    path = os.path.join(scratch, "op", "alpha_2", "trial_0.metrics.jsonl")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    key = b'"empirical_risk": '
    at = data.index(key) + len(key) + 3  # a digit of the first risk
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    assert item.check(out).problems


def test_bare_benchmark_directory_refuses_to_run(scratch):
    """Holding only BENCHMARK.json and perfbench/, there is nothing to measure."""
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
