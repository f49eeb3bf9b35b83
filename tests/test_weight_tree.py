"""Weight tree: proportional sampling, O(log n) touch counts, update locality."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import adasamp.weight_tree as weight_tree
from adasamp import WeightTree
from oracles import naive_descend


def _leaves(tree):
    return tree._nodes[tree.capacity - 1:tree.capacity - 1 + tree.n]


def _delta_walk(tree, indices, weights, clamp=False):
    """Pure-Python `update_many` reference on a copy of the tree's labels: set
    each leaf and add its delta to its ancestors, one row after another,
    optionally clamping each label at 0 after its addition."""
    nodes = tree._nodes.tolist()
    for i, w in zip(indices, weights):
        j = tree.capacity - 1 + int(i)
        delta = float(w) - nodes[j]
        nodes[j] = float(w)
        while j > 0:
            j = (j - 1) // 2
            v = nodes[j] + delta
            nodes[j] = v if v > 0 or not clamp else 0.0
    return np.array(nodes)


def test_equal_weights_uniform_probs():
    tree = WeightTree([1, 1, 1, 1])
    assert np.allclose(tree.probs(np.arange(4)), 0.25, atol=1e-15)


def test_probs_proportional_to_weights():
    tree = WeightTree([1, 3])
    assert np.allclose(tree.probs([0, 1]), [0.25, 0.75], atol=1e-15)
    assert WeightTree([2, 2]).probs([0])[0] == pytest.approx(0.5, abs=1e-15)
    assert WeightTree([1, 0]).probs([1])[0] == 0.0


def test_depth_is_ceil_log2():
    assert WeightTree(np.ones(50000)).depth == 16
    assert WeightTree([1.0]).depth == 0
    assert WeightTree([1, 1]).depth == 1
    assert WeightTree(np.ones(5)).depth == 3


def test_distribution_examples():
    assert np.allclose(WeightTree([1, 1, 1, 1]).distribution(), 0.25, atol=1e-15)
    assert np.allclose(WeightTree([1, 3]).distribution(), [0.25, 0.75], atol=1e-15)


def test_forced_descend_branches():
    tree = WeightTree([1, 1])
    assert tree.descend_many(np.array([[0.4], [0.6]])).tolist() == [0, 1]
    # left needs u * total < left strictly: a tie, or u = 0 over a zero left, goes right
    assert tree.descend_many(np.array([[0.5]])).tolist() == [1]
    assert WeightTree([0, 1]).descend_many(np.array([[0.0]])).tolist() == [1]


def test_zero_weight_leaf_never_drawn():
    tree = WeightTree([0, 1, 0])
    rng = np.random.default_rng(0)
    assert np.all(tree.sample_many(100, rng) == 1)


def test_padding_leaves_never_drawn():
    # n = 5 pads to capacity 8; indices 5..7 must stay unreachable
    tree = WeightTree(np.ones(5))
    rng = np.random.default_rng(1)
    draws = tree.sample_many(5000, rng)
    assert draws.min() >= 0 and draws.max() <= 4
    tree.update_many([2], [7.5])
    assert np.all(tree._nodes[tree.capacity - 1 + 5:] == 0.0)


def test_chi_square_goodness_of_fit():
    tree = WeightTree([1, 2, 3, 4])
    rng = np.random.default_rng(7)
    counts = np.bincount(tree.sample_many(100000, rng), minlength=4)
    expected = np.array([0.1, 0.2, 0.3, 0.4]) * 100000
    assert stats.chisquare(counts, expected).pvalue > 1e-3


def test_chi_square_large_random_tree():
    rng = np.random.default_rng(11)
    w = rng.uniform(0.1, 5.0, size=1000)
    tree = WeightTree(w)
    counts = np.bincount(tree.sample_many(100000, rng), minlength=1000)
    assert stats.chisquare(counts, w / w.sum() * 100000).pvalue > 1e-3


def test_sample_consumes_exactly_depth_uniforms():
    w = np.arange(1.0, 9.0)
    tree = WeightTree(w)
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    draws = tree.sample_many(10, rng1)
    assert draws.tolist() == [naive_descend(w, rng2.random(tree.depth)) for _ in range(10)]
    # both generators must now sit at the same stream position
    assert rng1.random() == rng2.random()
    # one draw per call is the same stream as one call for all draws
    assert tree.sample_many(50, rng1).tolist() == [tree.sample_many(1, rng2)[0]
                                                   for _ in range(50)]
    assert rng1.random() == rng2.random()


def test_descend_rejects_wrong_uniform_count():
    tree = WeightTree(np.ones(8))
    with pytest.raises(ValueError):
        tree.descend_many(np.array([[0.5, 0.5]]))


def test_single_leaf_tree():
    tree = WeightTree([2.0])
    rng = np.random.default_rng(3)
    assert tree.sample_many(1, rng).tolist() == [0]
    # depth 0: no uniforms consumed
    assert rng.random() == np.random.default_rng(3).random()
    assert tree.descend_many(np.empty((3, 0))).tolist() == [0, 0, 0]
    tree.update_many([0], [5.0])
    assert tree.total == 5.0 and tree.update_writes == 1


def test_update_to_zero_renormalizes():
    tree = WeightTree([1, 1, 1, 1])
    tree.update_many([2], [0.0])
    assert np.allclose(tree.distribution(), [1 / 3, 1 / 3, 0, 1 / 3], atol=1e-15)


def test_identity_update_is_exact_noop():
    tree = WeightTree([1.5, 2.5, 3.5])
    before = tree._nodes.copy()
    tree.update_many([1], [2.5])
    assert np.array_equal(tree._nodes, before)


def test_update_changes_prob():
    tree = WeightTree([1, 1])
    tree.update_many([1], [3.0])
    assert tree.probs([1])[0] == pytest.approx(0.75, abs=1e-15)


def test_touch_counters_match_depth():
    for n in (2, 7, 64, 1000):
        tree = WeightTree(np.ones(n))
        rng = np.random.default_rng(n)
        v0, w0 = tree.sample_visits, tree.update_writes
        tree.sample_many(1, rng)
        assert tree.sample_visits - v0 == tree.depth
        tree.update_many([n // 2], [2.0])
        assert tree.update_writes - w0 == tree.depth + 1


def test_sum_consistency_under_many_updates():
    rng = np.random.default_rng(13)
    w = rng.uniform(0.0, 2.0, size=1000)
    w[0] = 1.0
    tree = WeightTree(w)
    for i, v in zip(rng.integers(0, 1000, size=100000),
                    rng.uniform(0.0, 2.0, size=100000)):
        tree.update_many([i], [v])
    assert abs(tree.total - _leaves(tree).sum()) <= 1e-9 * tree.total


def test_automatic_rebuild_resets_counter(monkeypatch):
    monkeypatch.setattr(weight_tree, "REBUILD_EVERY", 10)
    tree = WeightTree(np.ones(16))
    rng = np.random.default_rng(2)
    for k in range(9):
        tree.update_many([k % 16], [float(rng.uniform(0.5, 2.0))])
    assert tree._updates_since_rebuild == 9
    tree.update_many([3], [1.2])
    assert tree._updates_since_rebuild == 0
    assert abs(tree.total - _leaves(tree).sum()) == 0.0


def test_rebuild_preserves_distribution():
    rng = np.random.default_rng(17)
    w = rng.uniform(0.1, 3.0, size=50)
    tree = WeightTree(w)
    before = tree.distribution()
    tree.rebuild()
    assert np.allclose(tree.distribution(), before, atol=1e-15)


def test_invalid_constructions():
    with pytest.raises(ValueError):
        WeightTree([])
    with pytest.raises(ValueError):
        WeightTree([1.0, -0.5])
    with pytest.raises(ValueError):
        WeightTree([0.0, 0.0])
    with pytest.raises(ValueError):
        WeightTree([1.0, float("nan")])


def test_invalid_updates():
    tree = WeightTree([1, 1])
    with pytest.raises(ValueError):
        tree.update_many([0], [-1.0])
    with pytest.raises(ValueError):
        tree.update_many([0], [float("inf")])
    with pytest.raises(IndexError):
        tree.update_many([2], [1.0])
    with pytest.raises(IndexError):
        tree.probs([-1])


def test_subnormal_weights_are_rejected():
    # 0.7 * 5e-324 rounds back to 5e-324, so a draw would walk to the zero leaf
    with pytest.raises(ValueError):
        WeightTree([5e-324, 0.0])
    tree = WeightTree([1.0, 0.0])
    with pytest.raises(ValueError):
        tree.update_many([0], [5e-324])
    with pytest.raises(ValueError):
        tree.update_many([0, 1], [2.0, 1e-310])
    assert np.array_equal(tree._nodes, WeightTree([1.0, 0.0])._nodes)  # nothing written
    # (1 - 2**-53) * tiny ties to even back to tiny, so the smallest normal float
    # is rejected too; from 2**-1021 up the largest uniform stays on its side
    tiny = np.finfo(np.float64).tiny
    with pytest.raises(ValueError, match=r"2\*\*-1021"):
        WeightTree([tiny, 0.0])
    with pytest.raises(ValueError, match=r"2\*\*-1021"):
        tree.update_many([0], [tiny])
    floor = 2.0 ** -1021
    tree = WeightTree([floor, 0.0])
    assert tree.descend_many([[1 - 2**-53]]).tolist() == [0]
    tree.update_many([1], [floor])
    assert tree.total == 2 * floor


def _weight(max_value=1e3):
    # positive weights below 2**-1021 are rejected by the tree
    return st.one_of(st.just(0.0), st.floats(min_value=2.0**-1021, max_value=max_value))


@given(weights=st.lists(_weight(1e6), min_size=1, max_size=200).filter(lambda w: sum(w) > 0))
@settings(max_examples=200, deadline=None)
def test_prob_matches_naive_normalization(weights):
    w = np.asarray(weights)
    tree = WeightTree(w)
    exact = w / w.sum()
    assert np.all(np.abs(tree.distribution() - exact) <= 1e-12)
    assert np.all(np.abs(tree.probs(np.arange(len(w))) - exact) <= 1e-12)


@given(n=st.integers(min_value=1, max_value=64), seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_updates_keep_probs_in_sync_with_naive(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 4.0, size=n)
    w[rng.integers(0, n)] = 1.0
    tree = WeightTree(w)
    for _ in range(20):
        i = int(rng.integers(0, n))
        v = float(rng.uniform(0.0, 4.0))
        tree.update_many([i], [v])
        w[i] = v
        if w.sum() > 0:
            assert np.all(np.abs(tree.distribution() - w / w.sum()) <= 1e-12)


# ---- batched kernels against independent references ----

def _dyadic_weight():
    # multiples of 1/64 below 2**14: every sum and difference of at most 70 is exact
    return st.integers(0, 2**20).map(lambda k: k / 64)


def _weight_lists(element, max_size):
    return st.lists(element, min_size=1, max_size=max_size).filter(lambda w: sum(w) > 0)


def _drift(tree, rng):
    # nudge some internal labels by an ulp, as incremental updates do; the
    # clamp keeps labels nonnegative, so a zero only goes up
    for j in rng.integers(0, tree.capacity - 1, size=min(3, tree.capacity - 1)):
        down = rng.random() < 0.5 and tree._nodes[j] > 0
        tree._nodes[j] = np.nextafter(tree._nodes[j], -np.inf if down else np.inf)


def _ancestors(tree, indices):
    return np.array(sorted({(tree.capacity + int(i)) >> s for i in indices
                            for s in range(1, tree.depth + 1)}), dtype=np.int64) - 1


@given(weights=_weight_lists(_weight(), 70), k=st.integers(0, 20), seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_descend_many_matches_rowwise_descend(weights, k, seed):
    tree = WeightTree(weights)
    u = np.random.default_rng(seed).random((k, tree.depth))
    visits = tree.sample_visits
    got = tree.descend_many(u)
    assert tree.sample_visits - visits == k * tree.depth
    expect = [naive_descend(weights, row) for row in u]
    assert got.dtype == np.int64 and got.tolist() == expect
    assert all(0 <= i < tree.n and weights[i] > 0 for i in expect)


@given(weights=_weight_lists(_dyadic_weight(), 40), data=st.data())
@settings(max_examples=150, deadline=None)
def test_update_many_matches_sequential_updates(weights, data):
    n = len(weights)
    batched, rowwise = WeightTree(weights), WeightTree(weights)
    for _ in range(data.draw(st.integers(1, 6))):
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        new = data.draw(st.lists(_dyadic_weight(), min_size=len(idx), max_size=len(idx)))
        walked = _delta_walk(batched, idx, new)
        batched.update_many(np.array(idx), np.array(new))
        for i, v in zip(idx, new):
            rowwise.update_many([i], [v])
        assert batched._nodes.tobytes() == rowwise._nodes.tobytes() == walked.tobytes()
        assert (batched.update_writes, batched._updates_since_rebuild) == (
            rowwise.update_writes, rowwise._updates_since_rebuild)
        assert np.all(batched._nodes[batched.capacity - 1 + n:] == 0.0)  # padding untouched


@given(weights=_weight_lists(_weight(), 40), data=st.data())
@settings(max_examples=150, deadline=None)
def test_update_many_under_drift_stays_near_its_rebuild(weights, data):
    n = len(weights)
    tree = WeightTree(weights)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    scale = tree.total  # the largest root the labels have carried
    for _ in range(data.draw(st.integers(1, 6))):
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        new = data.draw(st.lists(_weight(), min_size=len(idx), max_size=len(idx)))
        _drift(tree, rng)
        one_row = copy.deepcopy(tree)
        one_row.update_many(idx[:1], new[:1])  # one row: the clamp after each addition
        assert one_row._nodes.tobytes() == _delta_walk(tree, idx[:1], new[:1], True).tobytes()
        tree.update_many(np.array(idx), np.array(new))
        exact = copy.deepcopy(tree)
        exact.rebuild()
        scale = max(scale, exact.total)
        anc = _ancestors(tree, idx)
        assert np.all(tree._nodes[anc] >= 0)
        assert np.all(np.abs(tree._nodes[anc] - exact._nodes[anc]) <= 1e-12 * scale)
        assert np.array_equal(_leaves(tree), _leaves(exact))


def test_update_many_shared_ancestors_and_counters():
    rng = np.random.default_rng(4)
    w = rng.uniform(0.5, 2.0, size=13)
    batched, rowwise = WeightTree(w), WeightTree(w)
    order = rng.permutation(13)
    new = rng.uniform(0.0, 3.0, size=13)
    walked = _delta_walk(batched, order, new)
    batched.update_many(order, new)  # every leaf: each label sees several deltas
    for i, v in zip(order, new):
        rowwise.update_many([i], [v])
    assert batched._nodes.tobytes() == rowwise._nodes.tobytes() == walked.tobytes()
    assert batched.update_writes == 13 * (batched.depth + 1)
    batched.update_many([], [])
    assert batched.update_writes == 13 * (batched.depth + 1)


def test_batched_methods_reject_bad_input():
    tree = WeightTree(np.ones(5))
    with pytest.raises(ValueError):
        tree.descend_many(np.full((2, 2), 0.5))  # depth is 3
    with pytest.raises(ValueError):
        tree.descend_many(np.full(3, 0.5))  # one row must still be 2-d
    for bad in ([5], [-1], [0, 7]):
        with pytest.raises(IndexError):
            tree.update_many(bad, np.ones(len(bad)))
        with pytest.raises(IndexError):
            tree.probs(bad)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            tree.update_many([0, 1], [1.0, bad])
    with pytest.raises(ValueError):
        tree.update_many([1, 1], [2.0, 3.0])  # indices must be distinct
    with pytest.raises(ValueError):
        tree.update_many([0, 1], [2.0])
    assert np.array_equal(tree._nodes, WeightTree(np.ones(5))._nodes)  # nothing written
    assert tree.update_writes == 0


def test_automatic_rebuild_runs_at_the_end_of_a_batch(monkeypatch):
    monkeypatch.setattr(weight_tree, "REBUILD_EVERY", 10)
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 2.0, size=16)
    tree = WeightTree(w)
    for batch in (rng.permutation(16)[:4], rng.permutation(16)[:4]):
        new = rng.uniform(0.5, 2.0, size=4)
        walked = _delta_walk(tree, batch, new)
        tree.update_many(batch, new)
        assert tree._nodes.tobytes() == walked.tobytes()  # no relabel yet
    assert tree._updates_since_rebuild == 8
    batch, new = rng.permutation(16)[:4], rng.uniform(0.5, 2.0, size=4)
    tree.update_many(batch, new)  # crosses 10 at its 2nd row; relabels after its 4th
    assert tree._updates_since_rebuild == 0
    assert tree._nodes.tobytes() == WeightTree(_leaves(tree))._nodes.tobytes()


def test_run_axis_matches_separate_trees(monkeypatch):
    # each run of a stacked tree draws, reads and writes bitwise as a tree of
    # its own, relabelling after the same write, whichever prefix of runs a call
    # addresses
    monkeypatch.setattr(weight_tree, "REBUILD_EVERY", 5)
    rng = np.random.default_rng(41)
    W = rng.uniform(0.5, 2.0, size=(3, 11))
    stacked, alone = WeightTree(W), [WeightTree(w) for w in W]
    assert (stacked.runs, stacked.n) == (3, 11)
    for _ in range(12):
        m = int(rng.integers(1, 4))
        u = rng.random((m, 4, stacked.depth))
        drawn = stacked.descend_many(u)
        probs = stacked.probs(drawn)
        idx, vals, runs = [], [], []
        for r in range(m):
            assert np.array_equal(drawn[r], alone[r].descend_many(u[r]))
            assert probs[r].tobytes() == alone[r].probs(drawn[r]).tobytes()
            leaves, new = rng.permutation(11)[: r + 1], rng.uniform(0.5, 2.0, size=r + 1)
            alone[r].update_many(leaves, new)
            idx.append(leaves), vals.append(new), runs.append(np.full(r + 1, r))
        stacked.update_many(np.concatenate(idx), np.concatenate(vals), np.concatenate(runs))
        rows = stacked._nodes.reshape(3, -1)
        for r in range(3):
            assert rows[r].tobytes() == alone[r]._nodes.tobytes()
            assert stacked._updates_since_rebuild[r] == alone[r]._updates_since_rebuild[0]
            assert stacked.totals[r] == alone[r].total
            assert stacked.distribution(r).tobytes() == alone[r].distribution().tobytes()
    with pytest.raises(ValueError):
        stacked.descend_many(rng.random((4, 2, stacked.depth)))  # more slabs than runs
    with pytest.raises(ValueError):
        stacked.descend_many(rng.random((2, stacked.depth)))  # the run axis is required
    with pytest.raises(IndexError):
        stacked.update_many([0], [1.0], [3])
    with pytest.raises(ValueError):
        stacked.update_many([4, 4], [1.0, 2.0], [1, 1])
    stacked.update_many([4, 4], [1.0, 2.0], [0, 1])  # one leaf in each of two runs
    with pytest.raises(ValueError):
        WeightTree([[1.0, 0.0], [0.0, 0.0]])  # every run needs a positive weight


def test_tracer_reads_these_names_and_counters():
    # perfbench/tracer.py keeps trees by the span weight_tree.WeightTree.__init__,
    # derives draws and leaf writes from the two counters, times draws by the
    # methods named descend*/sample*, writes by update* and relabels by rebuild
    assert (WeightTree.__module__, WeightTree.__qualname__) == ("adasamp.weight_tree",
                                                                "WeightTree")
    rng = np.random.default_rng(0)
    calls = {
        "descend_many": lambda t: t.descend_many(np.full((2, t.depth), 0.5)),
        "sample_many": lambda t: t.sample_many(2, rng),
        "update_many": lambda t: t.update_many([0, 1], [2.0, 3.0]),
        "probs": lambda t: t.probs([0, 1]),
        "distribution": lambda t: t.distribution(),
        "rebuild": lambda t: t.rebuild(),
    }
    methods = {name for name, v in vars(WeightTree).items()
               if callable(v) and not name.startswith("_")}
    assert methods == set(calls)
    for name, call in calls.items():
        tree = WeightTree(np.ones(5))
        assert (tree.depth, tree.sample_visits, tree.update_writes) == (3, 0, 0)
        call(tree)
        draws = tree.sample_visits // tree.depth
        writes = tree.update_writes // (tree.depth + 1)
        assert tree.sample_visits == draws * tree.depth
        assert tree.update_writes == writes * (tree.depth + 1)
        assert draws == (2 if name.startswith(("descend", "sample")) else 0)
        assert writes == (2 if name.startswith("update") else 0)
