"""Run one workload in this fresh process and write what it measured as JSON.

    python3 perfbench/worker.py --workload desk --seed 0 --seconds 10 \
        --trace 0 --workdir DIR --result FILE [--start K] [--max-items N] [--reference]

`run.py` starts this with `src` on PYTHONPATH and the BLAS thread count fixed.
The worker does the workload's set-up, prints `ready` on stdout (the launcher
times set-up up to that line), then runs items in a closed loop (one item, its
check, then the next) until `--seconds` have passed, or for `--max-items`
items. Every quarter second, between items, it times the yardstick
(yardstick.py) to record the host's speed. With `--trace 1` the layer tracer
is installed after set-up. With `--reference`, the pinned items of seed 0 run
last, untimed, for the digest check.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback

import workloads
import yardstick

YARDSTICK_EVERY_S = 0.25


def run_loop(items, seconds: float, max_items: int = 0, tracer=None) -> dict:
    """Closed loop for `seconds`, or for `max_items` items when that is set.
    Records each item's kind, start, duration and examples stepped, and times
    the yardstick before the first item, after the last, and between items
    whenever YARDSTICK_EVERY_S has passed."""
    perf = time.perf_counter
    timed, yard, digests, failures = [], [], [], []
    bytes_written = 0

    def measure_host():
        t0 = perf()
        yardstick.run()
        yard.append((t0, perf() - t0))

    yardstick.run()  # warm-up, not recorded
    measure_host()
    start = perf()
    while len(timed) < max_items if max_items else perf() - start < seconds:
        if perf() - yard[-1][0] >= YARDSTICK_EVERY_S:
            measure_host()
        item = next(items)
        if tracer is not None:
            tracer.enter()
        t0 = perf()
        try:
            out = item.run()
            error = None
        except Exception:  # a raising op is a failed op; keep measuring
            error = traceback.format_exc(limit=3)
        dt = perf() - t0
        if tracer is not None:
            tracer.leave()
            tracer.harvest_trees()
        timed.append((int(item.kind == "op"), t0, dt, item.examples))
        if error is not None:
            failures.append(error)
            digests.append(None)
            continue
        try:
            checked = item.check(out)
        except Exception:  # a check that cannot read the output fails the op
            checked = workloads.Checked([traceback.format_exc(limit=3)], "")
        del out
        if checked.problems:
            failures.append("; ".join(checked.problems))
        digests.append(checked.digest)
        bytes_written += checked.bytes_written
    measure_host()
    return {"items": timed, "yardstick": yard, "failures": failures, "digests": digests,
            "bytes_written": bytes_written}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--start", type=int, default=0,
                    help="index of the first op (tiny-mc: block) to run")
    ap.add_argument("--max-items", type=int, default=0,
                    help="run this many items instead of running for --seconds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--reference", action="store_true",
                    help="after the loop, run the pinned seed-0 items and digest them")
    args = ap.parse_args()

    items = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.start)
    print("ready", flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
    result = run_loop(items, args.seconds, args.max_items, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        timed = result["items"]
        result["layers"] = layer_metrics(tracer, sum(op for op, *_ in timed),
                                         sum(dt for _, _, dt, _ in timed),
                                         result["bytes_written"])
    if args.reference:
        ref = workloads.reference(args.workload, args.workdir)
        result["reference"] = {"digest": ref.digest, "problems": ref.problems}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
