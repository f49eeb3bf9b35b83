"""Weight tree: proportional sampling, O(log n) touch counts, update locality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from adasamp import WeightTree


def test_equal_weights_uniform_probs():
    tree = WeightTree([1, 1, 1, 1])
    for i in range(4):
        assert tree.prob(i) == pytest.approx(0.25, abs=1e-15)


def test_probs_proportional_to_weights():
    tree = WeightTree([1, 3])
    assert tree.prob(0) == pytest.approx(0.25, abs=1e-15)
    assert tree.prob(1) == pytest.approx(0.75, abs=1e-15)
    assert WeightTree([2, 2]).prob(0) == pytest.approx(0.5, abs=1e-15)
    assert WeightTree([1, 0]).prob(1) == 0.0


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
    assert tree.descend(np.array([0.4])) == 0
    assert tree.descend(np.array([0.6])) == 1


def test_zero_weight_leaf_never_drawn():
    tree = WeightTree([0, 1, 0])
    rng = np.random.default_rng(0)
    assert all(tree.sample(rng) == 1 for _ in range(100))


def test_padding_leaves_never_drawn():
    # n = 5 pads to capacity 8; indices 5..7 must stay unreachable
    tree = WeightTree(np.ones(5))
    rng = np.random.default_rng(1)
    draws = tree.sample_many(5000, rng)
    assert draws.min() >= 0 and draws.max() <= 4
    tree.update(2, 7.5)
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
    tree = WeightTree(np.arange(1.0, 9.0))
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    draws = [tree.sample(rng1) for _ in range(10)]
    for d in draws:
        assert tree.descend(rng2.random(tree.depth)) == d
    # both generators must now sit at the same stream position
    assert rng1.random() == rng2.random()
    # sample_many is the same stream as sequential samples
    assert tree.sample_many(50, rng1).tolist() == [tree.sample(rng2) for _ in range(50)]
    assert rng1.random() == rng2.random()


def test_descend_rejects_wrong_uniform_count():
    tree = WeightTree(np.ones(8))
    with pytest.raises(ValueError):
        tree.descend(np.array([0.5, 0.5]))


def test_single_leaf_tree():
    tree = WeightTree([2.0])
    rng = np.random.default_rng(3)
    assert tree.sample(rng) == 0
    # depth 0: no uniforms consumed
    assert rng.random() == np.random.default_rng(3).random()
    assert tree.descend_many(np.empty((3, 0))).tolist() == [0, 0, 0]
    tree.update_many([0], [5.0])
    assert tree.total == 5.0 and tree.update_writes == 1


def test_update_to_zero_renormalizes():
    tree = WeightTree([1, 1, 1, 1])
    tree.update(2, 0.0)
    assert np.allclose(tree.distribution(), [1 / 3, 1 / 3, 0, 1 / 3], atol=1e-15)


def test_identity_update_is_exact_noop():
    tree = WeightTree([1.5, 2.5, 3.5])
    before = tree._nodes.copy()
    tree.update(1, tree.weight(1))
    assert np.array_equal(tree._nodes, before)


def test_update_changes_prob():
    tree = WeightTree([1, 1])
    tree.update(1, 3.0)
    assert tree.prob(1) == pytest.approx(0.75, abs=1e-15)


def test_touch_counters_match_depth():
    for n in (2, 7, 64, 1000):
        tree = WeightTree(np.ones(n))
        rng = np.random.default_rng(n)
        v0, w0 = tree.sample_visits, tree.update_writes
        tree.sample(rng)
        assert tree.sample_visits - v0 == tree.depth
        tree.update(n // 2, 2.0)
        assert tree.update_writes - w0 == tree.depth + 1


def test_sum_consistency_under_many_updates():
    rng = np.random.default_rng(13)
    w = rng.uniform(0.0, 2.0, size=1000)
    w[0] = 1.0
    tree = WeightTree(w)
    for i, v in zip(rng.integers(0, 1000, size=100000),
                    rng.uniform(0.0, 2.0, size=100000)):
        tree.update(int(i), float(v))
    leaves = tree._nodes[tree.capacity - 1:tree.capacity - 1 + tree.n]
    assert abs(tree.total - leaves.sum()) <= 1e-9 * tree.total


def test_automatic_rebuild_resets_counter():
    tree = WeightTree(np.ones(16), rebuild_every=10)
    rng = np.random.default_rng(2)
    for k in range(9):
        tree.update(k % 16, float(rng.uniform(0.5, 2.0)))
    assert tree._updates_since_rebuild == 9
    tree.update(3, 1.2)
    assert tree._updates_since_rebuild == 0
    assert abs(tree.total - tree._nodes[tree.capacity - 1:tree.capacity - 1 + 16].sum()) == 0.0


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
        tree.update(0, -1.0)
    with pytest.raises(ValueError):
        tree.update(0, float("inf"))
    with pytest.raises(IndexError):
        tree.update(2, 1.0)
    with pytest.raises(IndexError):
        tree.prob(-1)


@given(weights=st.lists(st.floats(min_value=0.0, max_value=1e6),
                        min_size=1, max_size=200).filter(lambda w: sum(w) > 0))
@settings(max_examples=200, deadline=None)
def test_prob_matches_naive_normalization(weights):
    w = np.asarray(weights)
    tree = WeightTree(w)
    exact = w / w.sum()
    assert np.all(np.abs(tree.distribution() - exact) <= 1e-12)
    for i in range(len(w)):
        assert abs(tree.prob(i) - exact[i]) <= 1e-12


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
        tree.update(i, v)
        w[i] = v
        if w.sum() > 0:
            assert np.all(np.abs(tree.distribution() - w / w.sum()) <= 1e-12)


# ---- batched kernels against the scalar methods ----

def _positive_weights(max_size):
    # subnormal weights are left out: a product that underflows can pick a zero-weight leaf
    return st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3,
                                                      allow_subnormal=False)),
                    min_size=1, max_size=max_size).filter(lambda w: sum(w) > 0)


def _drift(tree, rng):
    # nudge some internal labels by an ulp, as incremental updates do; the
    # clamp in `update` keeps real labels nonnegative, so a zero only goes up
    for j in rng.integers(0, tree.capacity - 1, size=min(3, tree.capacity - 1)):
        down = rng.random() < 0.5 and tree._nodes[j] > 0
        tree._nodes[j] = np.nextafter(tree._nodes[j], -np.inf if down else np.inf)


@given(weights=_positive_weights(70), k=st.integers(0, 20), seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_descend_many_matches_rowwise_descend(weights, k, seed):
    tree = WeightTree(weights)
    u = np.random.default_rng(seed).random((k, tree.depth))
    visits = tree.sample_visits
    got = tree.descend_many(u)
    assert tree.sample_visits - visits == k * tree.depth
    expect = [tree.descend(row) for row in u]
    assert got.dtype == np.int64 and got.tolist() == expect
    assert all(0 <= i < tree.n and weights[i] > 0 for i in expect)


@given(weights=_positive_weights(40), data=st.data())
@settings(max_examples=150, deadline=None)
def test_update_many_matches_sequential_updates(weights, data):
    n = len(weights)
    batched, scalar = WeightTree(weights), WeightTree(weights)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    for _ in range(data.draw(st.integers(1, 6))):
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        new = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
                                 min_size=len(idx), max_size=len(idx)))
        if data.draw(st.booleans()):
            _drift(batched, rng)
            scalar._nodes[:] = batched._nodes
        batched.update_many(np.array(idx), np.array(new))
        for i, v in zip(idx, new):
            scalar.update(i, v)
        assert batched._nodes.tobytes() == scalar._nodes.tobytes()
        assert (batched.update_writes, batched.update_calls, batched._updates_since_rebuild) == (
            scalar.update_writes, scalar.update_calls, scalar._updates_since_rebuild)
        assert np.all(batched._nodes[batched.capacity - 1 + n:] == 0.0)  # padding untouched


def test_update_many_reproduces_the_clamp_under_drift():
    # leaves 0 and 1 go to zero while their shared label sits an ulp below 2, so
    # `update` clamps it at 0 before leaf 2's weight arrives
    def drifted():
        tree = WeightTree([1, 1, 0, 0, 1, 1, 1, 1])
        tree._nodes[1] = np.nextafter(2.0, 0.0)
        return tree

    batched, scalar = drifted(), drifted()
    batched.update_many([0, 1, 2], [0.0, 0.0, 1e-3])
    for i, v in ((0, 0.0), (1, 0.0), (2, 1e-3)):
        scalar.update(i, v)
    assert batched._nodes.tobytes() == scalar._nodes.tobytes()
    assert scalar._nodes[1] == 1e-3 != drifted()._nodes[1] - 2.0 + 1e-3  # the clamp mattered


def test_update_many_shared_ancestors_and_counters():
    rng = np.random.default_rng(4)
    w = rng.uniform(0.5, 2.0, size=13)
    batched, scalar = WeightTree(w), WeightTree(w)
    order = rng.permutation(13)
    new = rng.uniform(0.0, 3.0, size=13)
    batched.update_many(order, new)  # every leaf: each label sees several deltas
    for i, v in zip(order, new):
        scalar.update(int(i), float(v))
    assert batched._nodes.tobytes() == scalar._nodes.tobytes()
    assert batched.update_writes == 13 * (batched.depth + 1)
    assert batched.update_calls == 13
    batched.update_many([], [])
    assert batched.update_calls == 13


def test_batched_methods_reject_bad_input_like_scalar():
    tree = WeightTree(np.ones(5))
    with pytest.raises(ValueError):
        tree.descend_many(np.full((2, 2), 0.5))  # depth is 3
    with pytest.raises(ValueError):
        tree.descend_many(np.full(3, 0.5))  # one row must still be 2-d
    for bad in ([5], [-1], [0, 7]):
        with pytest.raises(IndexError):
            tree.update_many(bad, np.ones(len(bad)))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            tree.update_many([0, 1], [1.0, bad])
    with pytest.raises(ValueError):
        tree.update_many([1, 1], [2.0, 3.0])  # indices must be distinct
    with pytest.raises(ValueError):
        tree.update_many([0, 1], [2.0])
    assert np.array_equal(tree._nodes, WeightTree(np.ones(5))._nodes)  # nothing written
    assert tree.update_calls == 0


def test_automatic_rebuild_runs_at_the_end_of_a_batch():
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 2.0, size=16)
    tree = WeightTree(w, rebuild_every=10)
    reference = WeightTree(w, rebuild_every=1 << 20)
    for batch in (rng.permutation(16)[:4], rng.permutation(16)[:4]):
        new = rng.uniform(0.5, 2.0, size=4)
        tree.update_many(batch, new)
        reference.update_many(batch, new)
    assert tree._updates_since_rebuild == 8
    assert tree._nodes.tobytes() == reference._nodes.tobytes()
    batch, new = rng.permutation(16)[:4], rng.uniform(0.5, 2.0, size=4)
    tree.update_many(batch, new)  # crosses 10 at its 2nd row; rebuilds after its 4th
    reference.update_many(batch, new)
    reference.rebuild()
    assert tree._updates_since_rebuild == 0
    assert tree._nodes.tobytes() == reference._nodes.tobytes()
