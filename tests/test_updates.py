"""Hard-routed parameter updates: routing, counts, monotonicity, determinism.

The parameter-only update is ``learn_batch`` with frozen structure.
"""

import copy

import numpy as np
import pytest

from spnstream.evaluate import log_density, log_density_rows
from spnstream.gstats import GaussianStats
from spnstream.learner import LearnerConfig, learn_batch
from spnstream.nodes import LeafNode, NodePool, ProductNode, SumNode, make_scope, validate
from spnstream.updates import tie_break_argmax

from helpers import population_stats, random_pool


def leaf(scope, mean, var, count=1.0):
    return LeafNode(
        make_scope(scope),
        GaussianStats(np.array([float(mean)]), np.array([[float(var)]]), count),
        count,
    )


def absorb(pool, rows, rng):
    learn_batch(pool, rows, LearnerConfig(), rng, structure_frozen=True)


def mixture_1d(means, counts, mode="mle", var=1.0):
    pool = NodePool(dim=1, weight_mode=mode)
    ids = [pool.add(leaf([0], m, var, c)) for m, c in zip(means, counts)]
    pool.root = pool.add(
        SumNode(make_scope([0]), ids, [float(c) for c in counts], float(sum(counts)))
    )
    return pool, ids


def test_single_leaf_batch_reduces_to_stats_update():
    pool = NodePool(dim=1)
    nid = pool.add(leaf([0], 0.0, 1.0, 2.0))
    pool.root = nid
    batch = np.array([[1.0], [2.0], [6.0]])
    absorb(pool, batch, np.random.default_rng(0))
    node = pool.node(nid)
    assert node.count == 5.0
    assert node.stats.count == 5.0
    oracle = GaussianStats(np.zeros(1), np.eye(1), 2.0).update(batch)
    assert np.allclose(node.stats.mean, oracle.mean)
    assert np.allclose(node.stats.cov, oracle.cov)


def test_clear_winner_gets_the_count():
    pool, ids = mixture_1d([0.0, 10.0], [3.0, 1.0])
    absorb(pool, np.array([[0.5]]), np.random.default_rng(0))
    root = pool.node(pool.root)
    assert root.child_counts == [4.0, 1.0]
    assert root.count == 5.0
    assert pool.node(ids[0]).count == 4.0
    assert pool.node(ids[1]).count == 1.0
    # The loser's parameters are untouched.
    assert pool.node(ids[1]).stats.mean[0] == 10.0


def second_child_share(pool, row, n, rng):
    """Fraction of n copies of ``row`` that the root sum routes to its second child."""
    root = pool.node(pool.root)
    before = root.child_counts[1]
    absorb(pool, np.tile(row, (n, 1)), rng)
    return (root.child_counts[1] - before) / n


def test_winning_child_obvious_argmax():
    pool, _ = mixture_1d([0.0, 10.0], [1.0, 1.0])
    assert second_child_share(pool, [0.0], 1, np.random.default_rng(0)) == 0.0
    pool, _ = mixture_1d([0.0, 10.0], [1.0, 1.0])
    assert second_child_share(pool, [10.0], 1, np.random.default_rng(0)) == 1.0


def test_identical_children_split_evenly():
    # Every row is tied, and the tie-break draws once per tied row in row
    # order, so one batch makes the same picks as 10 000 single-row calls.
    pool, _ = mixture_1d([1.0, 1.0], [2.0, 2.0])
    freq = second_child_share(pool, [0.3], 10_000, np.random.default_rng(42))
    assert abs(freq - 0.5) < 0.05


def test_midpoint_between_equal_variance_children_is_a_tie():
    # N(0,1) and N(4,1) give the exact same pdf at x=2, so routing at the
    # midpoint must be random between the two.
    pool, _ = mixture_1d([0.0, 4.0], [1.0, 1.0])
    freq = second_child_share(pool, [2.0], 10_000, np.random.default_rng(7))
    assert 0.45 < freq < 0.55


def test_tie_break_consumes_no_randomness_without_ties():
    values = np.array([[0.0, 3.0], [-1.0, 2.0]])
    rng = np.random.default_rng(5)
    state = copy.deepcopy(rng.bit_generator.state)
    winners = tie_break_argmax(values, rng)
    assert winners.tolist() == [0, 0]
    assert rng.bit_generator.state == state


def test_update_batch_routes_each_row_independently():
    pool, ids = mixture_1d([0.0, 10.0], [1.0, 1.0])
    batch = np.array([[0.1], [9.9], [-0.2], [10.3]])
    absorb(pool, batch, np.random.default_rng(0))
    root = pool.node(pool.root)
    assert root.child_counts == [3.0, 3.0]
    assert pool.node(ids[0]).stats.count == 3.0  # two routed rows on top of one pseudo-row
    assert pool.node(ids[1]).stats.count == 3.0


def test_counts_conserved_across_levels():
    rng = np.random.default_rng(13)
    for _ in range(10):
        pool = random_pool(rng, dim=int(rng.integers(1, 5)))
        before = {nid: pool.node(nid).count for nid in pool.nodes}
        before_stats = {nid: n.stats.count for nid, n in pool.nodes.items()
                        if isinstance(n, ProductNode)}
        rows = rng.normal(size=(50, pool.dim))
        absorb(pool, rows, np.random.default_rng(1))
        root = pool.node(pool.root)
        assert root.count == before[pool.root] + 50.0
        for nid, node in pool.nodes.items():
            if isinstance(node, ProductNode):
                # Product statistics absorb exactly the rows routed through.
                assert node.stats.count - before_stats[nid] == node.count - before[nid]
            if isinstance(node, SumNode):
                routed = node.count - before[nid]
                routed_children = sum(
                    pool.node(c).count - before[c] for c in node.children
                )
                assert routed_children == routed
        assert validate(pool).ok


def test_update_never_changes_structure():
    rng = np.random.default_rng(19)
    pool = random_pool(rng, dim=3)
    ids = set(pool.nodes)
    version = pool.structure_version
    absorb(pool, rng.normal(size=(20, 3)), np.random.default_rng(2))
    assert set(pool.nodes) == ids
    assert pool.structure_version == version


def test_update_is_deterministic_given_seed():
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(30, 2))

    def run():
        r = np.random.default_rng(23)
        pool = random_pool(r, dim=2)
        absorb(pool, rows, np.random.default_rng(3))
        return pool

    a, b = run(), run()
    assert set(a.nodes) == set(b.nodes)
    for nid in a.nodes:
        na, nb = a.node(nid), b.node(nid)
        assert na.count == nb.count
        if isinstance(na, SumNode):
            assert na.child_counts == nb.child_counts
        if isinstance(na, LeafNode):
            assert np.array_equal(na.stats.mean, nb.stats.mean)
            assert np.array_equal(na.stats.cov, nb.stats.cov)


def test_single_point_update_raises_its_density_mle():
    # Count-ratio weights make the routed point's density non-decreasing
    # under a single-point update; quick spot check ahead of the full
    # property run in the acceptance suite.
    rng = np.random.default_rng(31)
    for _ in range(50):
        pool = random_pool(rng, dim=int(rng.integers(1, 5)), weight_mode="mle")
        x = rng.normal(scale=2.0, size=pool.dim)
        ev = {i: float(x[i]) for i in range(pool.dim)}
        before = log_density(pool, ev)
        absorb(pool, x.reshape(1, -1), np.random.default_rng(4))
        after = log_density(pool, ev)
        assert after >= before - 1e-9


def test_rejects_wrong_width():
    pool, _ = mixture_1d([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        absorb(pool, np.zeros((3, 2)), np.random.default_rng(0))


def test_empty_batch_is_a_noop():
    pool, _ = mixture_1d([0.0, 1.0], [1.0, 1.0])
    before = log_density_rows(pool, np.array([[0.5]]))
    absorb(pool, np.zeros((0, 1)), np.random.default_rng(0))
    assert pool.node(pool.root).count == 2.0
    assert log_density_rows(pool, np.array([[0.5]])) == pytest.approx(before)


def test_leaf_stats_match_batch_oracle_after_many_updates():
    pool = NodePool(dim=2)
    nid = pool.add(
        LeafNode(make_scope([0, 1]), GaussianStats.zeros(2), 0.0)
    )
    pool.root = nid
    rng = np.random.default_rng(37)
    chunks = [rng.normal(size=(int(rng.integers(1, 40)), 2)) for _ in range(25)]
    for chunk in chunks:
        absorb(pool, chunk, np.random.default_rng(0))
    all_rows = np.concatenate(chunks)
    mean, cov = population_stats(all_rows)
    node = pool.node(nid)
    assert node.stats.count == len(all_rows)
    assert np.allclose(node.stats.mean, mean, rtol=1e-9, atol=1e-12)
    assert np.allclose(node.stats.cov, cov, rtol=1e-9, atol=1e-12)
