"""Outside-in layer tracer for the benchmark's traced run.

`Tracer.install` wraps, at every name that binds it, each public function of
every loaded `adasamp.*` module, plus the public methods and `__init__` of
every class those modules define. Methods added later (a batched
`descend_many`, say) get spans with no change here, because classes are
walked at install time. A span is named `<module>.<qualname>`, and its layer is
the module that defines the function: `adaptive`, `harness` and `cli` import
with `from .x import f`, so a call through that binding counts for layer `x`.

Spans are kept as per-(span, parent span) aggregates in memory: call count,
inclusive time, time covered by child spans and the number of child spans.
Self time is inclusive minus child time minus the calibrated per-span wrapper
cost that each child leaves in its parent. Private helpers (leading `_`) are
not wrapped, so their time counts for the layer that calls them.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

PACKAGE = "adasamp"
LAYERS = ("weight_tree", "adaptive", "model", "optim", "bounds", "data", "harness", "cli")

# span groups that the per-layer metrics sum over
_GRAD_SPANS = {"model.objective_grad", "model.batch_objective_grad"}
_EVAL_SPANS = {"model.mean_bounded_loss", "model.accuracy", "model.predict_proba_batch",
               "model.bounded_loss", "model.surrogate_loss", "adaptive.utilities",
               "adaptive.utility"}
_SERIALIZE_SPANS = {"harness.write_metrics", "harness.dumps_json", "harness.format_float"}
_TREE_INIT = "weight_tree.WeightTree.__init__"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count(key, pick):
    def hook(tracer, args, kwargs, result, parent):
        tracer.counters[key] += pick(args, kwargs, result)
    return hook


def _count_eval(pick):
    # rows count once, at the outermost evaluation span outside a gradient
    def hook(tracer, args, kwargs, result, parent):
        if parent not in _EVAL_SPANS and parent not in _GRAD_SPANS:
            tracer.counters["model.eval_rows"] += pick(args, kwargs)
    return hook


def _keep_tree(tracer, args, kwargs, result, parent):
    tracer.trees.append(args[0])


# Counts read from the arguments or result of a call, at the span boundary.
HOOKS = {
    _TREE_INIT: _keep_tree,
    "adaptive.train": _count("adaptive.iterations",
                             lambda a, k, r: _arg(a, k, 1, "cfg").iterations),
    "adaptive.conditional_kl": _count("adaptive.kl_leaves_scanned",
                                      lambda a, k, r: _arg(a, k, 0, "tree").n),
    "model.objective_grad": _count("model.grad_rows", lambda a, k, r: 1),
    "model.batch_objective_grad": _count("model.grad_rows",
                                         lambda a, k, r: len(_arg(a, k, 1, "X"))),
    "model.mean_bounded_loss": _count_eval(lambda a, k: _arg(a, k, 1, "ds").n),
    "model.accuracy": _count_eval(lambda a, k: _arg(a, k, 1, "ds").n),
    "model.predict_proba_batch": _count_eval(lambda a, k: len(_arg(a, k, 1, "X"))),
    "model.bounded_loss": _count_eval(lambda a, k: 1),
    "model.surrogate_loss": _count_eval(lambda a, k: 1),
    "adaptive.utilities": _count_eval(lambda a, k: len(_arg(a, k, 2, "X"))),
    "adaptive.utility": _count_eval(lambda a, k: 1),
    "bounds.enumerate_posterior_divergence": _count("bounds.paths", lambda a, k, r: r.paths),
    "data.synth_data": _count("data.rows", lambda a, k, r: r.n),
    "data.load_csv": _count("data.rows", lambda a, k, r: r.n),
    "harness.write_metrics": _count("harness.metrics_ticks",
                                    lambda a, k, r: len(_arg(a, k, 0, "records"))),
}


class Tracer:
    """Span aggregates for the calls into `adasamp`, recorded from outside."""

    def __init__(self):
        # (span, parent span or None) -> [calls, inclusive_s, child_s, child_spans]
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters = collections.Counter()
        self.trees = []
        self.span_cost_s = 0.0
        self._stack = []
        self._undo = []

    # ---- wrapping ----

    def _wrap(self, fn, name):
        stack, stats = self._stack, self.stats
        hook = HOOKS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not stack:  # outside an item: the benchmark's own set-up and checks
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1]
                agg = stats[(name, parent[0])]
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[1]
                agg[3] += frame[2]
                parent[1] += dt
                parent[2] += 1
            if hook is not None:
                hook(self, args, kwargs, result, parent[0])
            return result

        return span

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrapped = {}  # id(original function) -> span wrapper
        classes = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and _owned(obj) and not obj.__name__.startswith("_"):
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(obj, _span_name(obj))
                    self._undo.append((mod, attr, obj))
                elif inspect.isclass(obj) and _owned(obj):
                    classes[id(obj)] = obj
        for mod, attr, obj in self._undo:
            setattr(mod, attr, wrapped[id(obj)])
        for cls in classes.values():
            for attr, member in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    fn = member.__func__
                    new = type(member)(self._wrap(fn, _span_name(fn, cls)))
                elif inspect.isfunction(member):
                    new = self._wrap(member, _span_name(member, cls))
                else:
                    continue
                self._undo.append((cls, attr, member))
                setattr(cls, attr, new)

    def enter(self) -> None:
        """Start recording: spans are kept only between `enter` and `leave`,
        which the worker calls around each item's run, so the benchmark's own
        input generation and output checks leave no spans."""
        self._stack.append([None, 0.0, 0])

    def leave(self) -> None:
        self._stack.pop()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---- bookkeeping ----

    def calibrate(self, calls: int = 20000) -> float:
        """Measure the wrapper time a span leaves in its parent's self time: a
        wrapped call's wall time, less the loop that makes it, less the duration
        the span records for itself. The median of several rounds is kept, and
        the aggregates calibration makes are dropped."""
        def noop():
            return None

        key = ("calibrate.noop", None)
        span = self._wrap(noop, key[0])
        perf = time.perf_counter
        costs = []
        self.enter()
        for _ in range(7):
            t0 = perf()
            for _ in range(calls):
                pass
            loop = perf() - t0
            before = self.stats[key][1]
            t0 = perf()
            for _ in range(calls):
                span()
            wall = perf() - t0
            costs.append((wall - loop - (self.stats[key][1] - before)) / calls)
        self.leave()
        del self.stats[key]
        self.span_cost_s = max(0.0, sorted(costs)[len(costs) // 2])
        return self.span_cost_s

    def harvest_trees(self) -> None:
        """Fold the node counters of the trees built since the last harvest
        into the totals, then drop the references so the trees can be freed."""
        for tree in self.trees:
            visits = tree.sample_visits
            self.counters["weight_tree.node_touches"] += visits + tree.update_writes
            if tree.depth:
                self.counters["weight_tree.draws"] += visits // tree.depth
            self.counters["weight_tree.leaf_writes"] += tree.update_writes // (tree.depth + 1)
        self.trees.clear()

    def self_seconds(self) -> dict:
        """Corrected self time per span name."""
        out = collections.Counter()
        for (name, _), (calls, incl, child, nchild) in self.stats.items():
            out[name] += incl - child - self.span_cost_s * nchild
        return out


def _owned(obj) -> bool:
    return getattr(obj, "__module__", "").startswith(PACKAGE + ".")


def _span_name(fn, cls=None) -> str:
    module = (cls or fn).__module__.rsplit(".", 1)[-1]
    qual = f"{cls.__name__}.{fn.__name__}" if cls is not None else fn.__name__
    return f"{module}.{qual}"


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


def layer_metrics(tracer: Tracer, ops: int, work_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of a traced phase of `ops` ops. Counts and seconds are
    means per op; `ns_per_*` and `us_per_*` are ratios of totals. `work_s` is
    the time of every timed item, tiny-mc's enumerations included, and is the
    base of `trace.coverage`."""
    tracer.harvest_trees()
    c = tracer.counters
    self_s = tracer.self_seconds()
    calls = collections.Counter()
    inclusive = collections.Counter()
    for (name, _), (n, incl, _, _) in tracer.stats.items():
        calls[name] += n
        inclusive[name] += incl
    layer_self = collections.Counter()
    layer_calls = collections.Counter()
    for name, s in self_s.items():
        layer_self[layer_of(name)] += s
        layer_calls[layer_of(name)] += calls[name]

    def outer(group, exclude=frozenset()):
        # inclusive time of spans in `group` not nested in one of `group | exclude`
        return sum(incl for (name, parent), (_, incl, _, _) in tracer.stats.items()
                   if name in group and parent not in group and parent not in exclude)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    def per_op(v):
        return v / ops if ops else 0.0

    def tree_spans(*prefixes):
        return [s for s in calls if layer_of(s) == "weight_tree"
                and s.rsplit(".", 1)[-1].startswith(prefixes)]

    rebuild = "weight_tree.WeightTree.rebuild"
    relabels = [(n, incl) for (name, parent), (n, incl, _, _) in tracer.stats.items()
                if name == rebuild and parent != _TREE_INIT]
    draws, writes = c["weight_tree.draws"], c["weight_tree.leaf_writes"]
    iterations, grad_rows, eval_rows = (c["adaptive.iterations"], c["model.grad_rows"],
                                        c["model.eval_rows"])
    steps = calls["optim.apply_update"]
    data_spans = {s for s in calls if layer_of(s) == "data"}
    return {
        "weight_tree.calls": per_op(layer_calls["weight_tree"]),
        "weight_tree.draws": per_op(draws),
        "weight_tree.leaf_writes": per_op(writes),
        "weight_tree.node_touches": per_op(c["weight_tree.node_touches"]),
        "weight_tree.rebuilds": per_op(sum(n for n, _ in relabels)),
        "weight_tree.init_s": per_op(inclusive[_TREE_INIT]),
        "weight_tree.self_s": per_op(layer_self["weight_tree"]),
        "weight_tree.ns_per_draw": ratio(sum(self_s[s] for s in tree_spans("descend", "sample")),
                                         draws, 1e9),
        "weight_tree.ns_per_write": ratio(sum(self_s[s] for s in tree_spans("update"))
                                          + sum(t for _, t in relabels), writes, 1e9),
        "adaptive.train_calls": per_op(calls["adaptive.train"]),
        "adaptive.iterations": per_op(iterations),
        "adaptive.self_s": per_op(layer_self["adaptive"]),
        "adaptive.us_per_iteration": ratio(inclusive["adaptive.train"], iterations, 1e6),
        "adaptive.kl_leaves_scanned": per_op(c["adaptive.kl_leaves_scanned"]),
        "adaptive.conditional_kl_s": per_op(inclusive["adaptive.conditional_kl"]),
        "model.calls": per_op(layer_calls["model"]),
        "model.self_s": per_op(layer_self["model"]),
        "model.grad_rows": per_op(grad_rows),
        "model.ns_per_grad_row": ratio(outer(_GRAD_SPANS), grad_rows, 1e9),
        "model.eval_rows": per_op(eval_rows),
        "model.ns_per_eval_row": ratio(outer(_EVAL_SPANS, _GRAD_SPANS), eval_rows, 1e9),
        "optim.steps": per_op(steps),
        "optim.self_s": per_op(layer_self["optim"]),
        "optim.ns_per_step": ratio(inclusive["optim.apply_update"], steps, 1e9),
        "bounds.calls": per_op(layer_calls["bounds"]),
        "bounds.self_s": per_op(layer_self["bounds"]),
        "bounds.paths": per_op(c["bounds.paths"]),
        "bounds.enumerate_s": per_op(inclusive["bounds.enumerate_posterior_divergence"]),
        "data.rows": per_op(c["data.rows"]),
        "data.self_s": per_op(layer_self["data"]),
        "data.ns_per_row": ratio(outer(data_spans), c["data.rows"], 1e9),
        "harness.self_s": per_op(layer_self["harness"]),
        "harness.metrics_ticks": per_op(c["harness.metrics_ticks"]),
        "harness.bytes_written": per_op(bytes_written),
        "harness.serialize_s": per_op(outer(_SERIALIZE_SPANS)),
        "cli.self_s": per_op(layer_self["cli"]),
        "trace.coverage": ratio(sum(layer_self[layer] for layer in LAYERS), work_s, 1.0),
        "trace.span_cost_ns": tracer.span_cost_s * 1e9,
    }
