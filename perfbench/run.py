"""adasamp benchmark: one workload per call, each in fresh child processes.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --pin

Run it from any directory; it benchmarks the `adasamp` source in `src/` next
to `perfbench/`. Workloads: desk, wide, tiny-mc, probe (see README.md).

`--trace 0` runs fresh worker processes one after another. Each times its
set-up and then runs the workload's closed loop (one client, one op at a time),
checking every op's output: WORKERS workers for `--seconds / WORKERS` each, or
on a workload in workloads.ONE_OP_PER_PROCESS one op per worker until the ops
add up to `--seconds`. Workers start at different ops, so a run sees more
inputs, and splitting it over fresh processes averages out what differs
between processes. One more worker checks the pinned seed-0
digests. Times are normalized by the host speed that the yardstick measures
(see `timing`). The launcher prints each end-to-end metric with its unit,
then, as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

`--trace 1` runs the same loop untraced and then traced, in two fresh
processes, checks that both produced the same output digests, and reports the
per-layer metrics of the traced one plus the tracing overhead.

`--pin` recomputes the seed-0 reference digests into pinned_digests.json.

Every child gets OPENBLAS_NUM_THREADS=1 (and the OMP/MKL equivalents). A run
record (machine, versions, commit, steal ticks around each child) goes to
.perfbench-out/ and to stdout, apart from the metrics. The exit code is 0 when
a result was printed and 1 or 2, with no result, when the benchmark could not
run; failed ops are reported in the result, not in the exit code.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
PINNED = os.path.join(HERE, "pinned_digests.json")

WORKERS = 5  # fresh worker processes per untraced run, each measuring seconds / WORKERS
WORKER_STRIDE = 1000  # worker k starts at op (tiny-mc: block) k * WORKER_STRIDE
BUDGET_S = 170.0  # the whole run, children included, must end well within 180 s
BLAS_THREADS = "1"

YARDSTICK_NOMINAL_S = 0.015  # *_norm are times at a host speed that runs the yardstick in 15 ms
YARDSTICK_SPAN_S = 2.0  # yardstick runs this close to an item tell the host's speed for it
END_TO_END_UNITS = {"setup_s": "s", "examples_per_s_norm": "1/s", "op_ms_p50_norm": "ms",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def layer_unit(name: str) -> str:
    metric = name.split(".", 1)[1]
    if name in ("trace.overhead", "trace.coverage"):
        return "ratio"
    if metric.startswith("ns_per") or metric.endswith("_ns"):
        return "ns"
    if metric.startswith("us_per"):
        return "us"
    if metric.endswith("_s"):
        return "s/op"
    if metric == "bytes_written":
        return "B/op"
    return "count/op"


# ---- children ----

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _steal_ticks() -> int | None:
    """Steal ticks of all CPUs from /proc/stat (read only); None where absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def run_child(role: str, args, deadline: float, seconds: float, trace: int, start: int = 0,
              max_items: int = 0, reference: bool = False) -> tuple[float, dict, dict]:
    """Start one worker, time it to its `ready` line, wait for it and read its
    result. Returns (setup seconds, result, record entry)."""
    tag = f"{os.getpid()}-{role}"
    workdir = os.path.join(OUT, f"work-{tag}")
    result_path = os.path.join(OUT, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", workdir, "--result", result_path]
    if start:
        cmd += ["--start", str(start)]
    if max_items:
        cmd += ["--max-items", str(max_items)]
    if reference:
        cmd.append("--reference")
    os.makedirs(workdir, exist_ok=True)
    steal0 = _steal_ticks()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"{role} worker did not finish set-up"
                             + ("" if ready else " in time"))
        rc = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        if rc != 0:
            raise BenchError(f"{role} worker exited with {rc}")
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    wall_s = time.perf_counter() - t0
    steal1 = _steal_ticks()
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    entry = {"role": role, "setup_s": setup_s, "wall_s": wall_s,
             "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0}
    return setup_s, result, entry


# ---- run record ----

def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _openblas_version() -> str:
    # numpy is imported here, after every child has ended, to read its build
    # configuration; the launcher's own imports are not part of any timing.
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the record notes what it could not read
        return f"unknown ({exc.__class__.__name__})"


def run_record(args, children) -> dict:
    steals = [c["steal_ticks"] for c in children]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "openblas": _openblas_version(),
        "blas_threads": int(BLAS_THREADS), "git_commit": _git_commit(),
        "steal_ticks_total": None if None in steals else sum(steals),
        "children": children,
    }


# ---- measuring ----

def _tail(op_s: list) -> str:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    n = len(op_s)
    if n < 11:
        return f"not defined: {n} ops, more than 10 needed"
    ranked = sorted(op_s)
    return (f"{ranked[n - 11] * 1e3:.4f} ms at p{100.0 * (n - 10) / n:.3f} "
            f"(10 of {n} ops beyond it)")


def timing(results: list) -> dict:
    """Timings of the closed loops of one or more workers, raw and host-normalized.

    Each item's duration is scaled by YARDSTICK_NOMINAL_S over its worker's
    yardstick time around it: the median of the yardstick runs that started
    within YARDSTICK_SPAN_S of the item, or of the two that bracket it. On a
    shared host whose speed for this kind of code drifts by up to 2x for
    minutes, the normalized times measure the program rather than its
    neighbours. The normalized throughput is the median of the workers'
    throughputs, so that one worker process that runs slow for its own reasons
    does not move it.
    """
    op_s, op_norm, yard_s, rates = [], [], [], []
    work_s = 0.0
    examples = 0
    for result in results:
        yard = result["yardstick"]
        starts = [s for s, _ in yard]
        yard_s += [d for _, d in yard]
        work_norm = 0.0
        worker_examples = 0
        for is_op, t0, dt, ex in result["items"]:
            lo = min(bisect.bisect_left(starts, t0 - YARDSTICK_SPAN_S),
                     bisect.bisect_right(starts, t0) - 1)
            hi = max(bisect.bisect_right(starts, t0 + dt + YARDSTICK_SPAN_S),
                     bisect.bisect_right(starts, t0) + 1)
            norm = dt * YARDSTICK_NOMINAL_S / statistics.median(d for _, d in yard[lo:hi])
            work_s += dt
            work_norm += norm
            worker_examples += ex
            if is_op:
                op_s.append(dt)
                op_norm.append(norm)
        rates.append(worker_examples / work_norm)
        examples += worker_examples
    return {
        "op_ms_p50_norm": statistics.median(op_norm) * 1e3,
        "examples_per_s_norm": statistics.median(rates),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "examples_per_s": examples / work_s,
        "ops": len(op_s), "tail": _tail(op_s), "examples": examples, "work_s": work_s,
        "yardstick_ms": statistics.median(yard_s) * 1e3, "yardsticks": len(yard_s),
    }


def _early_yardstick(result: dict) -> float:
    """The host's yardstick time just after a worker's set-up."""
    yard = result["yardstick"]
    return statistics.median(d for s, d in yard if s <= yard[0][0] + YARDSTICK_SPAN_S)


def _reference_failures(workload: str, result: dict) -> list:
    ref = result["reference"]
    failures = list(ref["problems"])
    try:
        with open(PINNED) as fh:
            pinned = json.load(fh)["digests"].get(workload)
    except (OSError, ValueError, KeyError):
        pinned = None
    if pinned != ref["digest"]:
        failures.append(f"seed-0 reference digest {ref['digest']} differs from pinned {pinned}")
    return failures


def untraced(args, deadline: float):
    """Fresh workers one after another: WORKERS of them, each measuring
    seconds / WORKERS, or for a ONE_OP_PER_PROCESS workload one op each until
    their ops add up to `--seconds`."""
    one_op = args.workload in workloads.ONE_OP_PER_PROCESS
    setups, results, children = [], [], []
    measured = 0.0
    while (measured < args.seconds) if one_op else (len(results) < WORKERS):
        k = len(results)
        setup_s, res, entry = run_child(f"run{k}", args, deadline, args.seconds / WORKERS, 0,
                                        start=k if one_op else k * WORKER_STRIDE,
                                        max_items=int(one_op))
        setups.append(setup_s * YARDSTICK_NOMINAL_S / _early_yardstick(res))
        results.append(res)
        children.append(entry)
        measured += sum(dt for _, _, dt, _ in res["items"])
    _, ref, entry = run_child("reference", args, deadline, 0.0, 0, reference=True)
    children.append(entry)
    failures = [f for res in results for f in res["failures"]]
    failures += _reference_failures(args.workload, ref)
    t = timing(results)
    metrics = {
        "setup_s": statistics.median(setups),
        "examples_per_s_norm": t["examples_per_s_norm"],
        "op_ms_p50_norm": t["op_ms_p50_norm"],
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
    }
    raw_setups = [c["setup_s"] for c in children[:-1]]
    notes = [
        f"setup_s is the median of {len(setups)} fresh workers, host-normalized; raw: "
        + ", ".join(f"{s:.4f}" for s in raw_setups),
        f"*_norm: host speed from {t['yardsticks']} yardstick runs, median "
        f"{t['yardstick_ms']:.3f} ms against {YARDSTICK_NOMINAL_S * 1e3:g} ms nominal",
        f"{'examples_per_s':28s} {t['examples_per_s']:>16.6g} 1/s (raw: "
        f"{t['examples']} examples in {t['work_s']:.4f} s of timed work)",
        f"{'op_ms_p50':28s} {t['op_ms_p50']:>16.6g} ms (raw, {t['ops']} ops)",
        f"{'op_ms_tail':28s} {t['tail']} (raw)",
    ]
    attempted = sum(len(res["items"]) for res in results) + 1
    return metrics, END_TO_END_UNITS, attempted, failures, notes, children


def traced(args, deadline: float):
    _, plain, e1 = run_child("untraced", args, deadline, args.seconds, 0, reference=True)
    _, trac, e2 = run_child("traced", args, deadline, args.seconds, 1)
    failures = plain["failures"] + trac["failures"] + _reference_failures(args.workload, plain)
    pairs = list(zip(plain["digests"], trac["digests"]))
    differ = sum(a != b for a, b in pairs)
    if differ:
        failures.append(f"{differ} of {len(pairs)} traced item digests differ from untraced")
    t_plain, t_trac = timing([plain]), timing([trac])
    metrics = dict(trac["layers"])
    metrics["trace.overhead"] = t_trac["op_ms_p50_norm"] / t_plain["op_ms_p50_norm"] - 1.0
    units = {name: layer_unit(name) for name in metrics}
    notes = [f"trace digests: {len(pairs) - differ} of {len(pairs)} items match untraced",
             f"traced ops {t_trac['ops']}, untraced ops {t_plain['ops']}; "
             "counts and s/op are means per traced op; trace.overhead compares "
             "op_ms_p50_norm"]
    attempted = len(plain["items"]) + len(trac["items"]) + 1
    return metrics, units, attempted, failures, notes, [e1, e2]


def pin() -> int:
    """Recompute the seed-0 reference digests of every workload."""
    deadline = time.monotonic() + 10 * BUDGET_S
    digests = {}
    for name in workloads.WORKLOADS:
        args = argparse.Namespace(workload=name, seed=0)
        _, res, _ = run_child("pin", args, deadline, 0.0, 0, reference=True)
        if res["reference"]["problems"]:
            raise BenchError(f"{name}: reference output fails its checks: "
                             + "; ".join(res["reference"]["problems"]))
        digests[name] = res["reference"]["digest"]
    with open(PINNED, "w") as fh:
        json.dump({"seed": 0, "items": workloads.REFERENCE_ITEMS, "digests": digests},
                  fh, indent=2)
        fh.write("\n")
    print(f"pinned {len(digests)} digests in {os.path.relpath(PINNED, ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", action="store_true", help="re-pin the seed-0 reference digests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adasamp", "__init__.py")):
        print(f"error: no adasamp source at {SRC}", file=sys.stderr)
        return 2
    if not args.pin and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.pin:
            return pin()
        deadline = time.monotonic() + BUDGET_S
        measure = traced if args.trace else untraced
        metrics, units, attempted, failures, notes, children = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = run_record(args, children)
    record_path = os.path.join(
        OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"run record ({os.path.relpath(record_path, ROOT)}): {json.dumps(record)}")
    print(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"one closed-loop client")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':28s} {len(failures) / attempted:>16.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    for note in notes:
        print(f"  {note}")
    for failure in failures[:5]:
        print(f"  FAILED: {failure.strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
