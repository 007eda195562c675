"""The write pass against its per-node oracle, byte for byte.

``learn_batch`` defers the statistics update of every leaf and product it
reaches, structure checks included, and applies them together in one call
of ``gstats.update_each``, which sums and scatters each group of nodes
that receive the same number of rows over scopes of the same width
together, and closes all of a padded job's nodes in one step.  It routes a
single row without per-child numpy.
``helpers.reference_learn_batch`` is the write pass as a plain per-node
walk.  Both must leave identical model files, reports and generator
states, with and without structure edits, ties and
every batch size, including batches over 128 rows, where numpy's pairwise
sum of a one-variable node's rows recurses.
"""

import copy
import json

import numpy as np
import pytest

from spnstream import gstats, learner, toy
from spnstream.gstats import GaussianStats
from spnstream.learner import LearnerConfig, fit, init_factored_pool, learn_batch
from spnstream.model_io import pool_to_json
from spnstream.nodes import LeafNode, NodePool, ProductNode, SumNode, validate

from helpers import NOT_A_TREE, not_a_tree, random_pool, reference_learn_batch
from test_updates import mixture_1d


def model_bytes(pool) -> str:
    return json.dumps(pool_to_json(pool), sort_keys=True)


def assert_streams_agree(pool, rows, cfg, batch, frozen=False, seed=0):
    """Stream ``rows`` into two copies of ``pool``, one through each pass;
    returns the number of structure edits."""
    ours, oracle = copy.deepcopy(pool), copy.deepcopy(pool)
    rng_ours, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    edits = 0
    for lo in range(0, rows.shape[0], batch):
        chunk = rows[lo:lo + batch]
        got = learn_batch(ours, chunk, cfg, rng_ours, structure_frozen=frozen)
        want = reference_learn_batch(oracle, chunk, cfg, rng_oracle, structure_frozen=frozen)
        assert got == want, lo
        edits += got.mixtures_created + got.leaves_merged
    assert model_bytes(ours) == model_bytes(oracle)
    assert rng_ours.bit_generator.state == rng_oracle.bit_generator.state
    assert validate(ours).ok
    return edits


def planted_rows(rng, n):
    """A correlated pair, a two-cluster triple and three free variables."""
    a = rng.normal(size=(n, 1))
    pair = np.hstack([a, a + 0.3 * rng.normal(size=(n, 1))])
    triple = 4.0 * rng.integers(0, 2, size=(n, 1)) + rng.normal(size=(n, 3))
    return np.hstack([pair, triple, rng.normal(size=(n, 3))])


@pytest.mark.parametrize("batch", [1, 2, 16])
@pytest.mark.parametrize("max_leaf_vars", [1, 3])
def test_toy_stream_matches_the_oracle(batch, max_leaf_vars):
    rows = toy.generate(1200, np.random.default_rng(5))
    cfg = LearnerConfig(max_leaf_vars=max_leaf_vars, batch_size=batch, seed=5)
    assert assert_streams_agree(init_factored_pool(3), rows, cfg, batch) > 0


@pytest.mark.parametrize("batch", [1, 2, 16, 256])
@pytest.mark.parametrize("mode", ["laplace", "mle"])
def test_planted_blocks_with_edits_match_the_oracle(batch, mode):
    rng = np.random.default_rng(11)
    cfg = LearnerConfig(max_leaf_vars=3, batch_size=batch, weight_mode=mode, seed=11)
    pool = init_factored_pool(8, weight_mode=mode)
    # Enough batches for several edits at every batch size.
    edits = assert_streams_agree(pool, planted_rows(rng, max(1500, 24 * batch)), cfg, batch)
    assert edits >= 2
    # A trained model keeps agreeing, structure learning on.
    pool, _ = fit(planted_rows(rng, 2000), LearnerConfig(max_leaf_vars=3, batch_size=64,
                                                          weight_mode=mode, seed=12))
    assert_streams_agree(pool, planted_rows(rng, max(160, 2 * batch)), cfg, batch, seed=13)


def test_a_stream_without_a_sum_matches_the_oracle():
    # With max_leaf_vars above the dimension every edit is a merge, so the
    # pool never has a sum and the write pass evaluates nothing.
    rng = np.random.default_rng(19)
    cfg = LearnerConfig(max_leaf_vars=9, batch_size=256, seed=19)
    rows = planted_rows(rng, 24 * 256)
    pool = init_factored_pool(8)
    assert assert_streams_agree(pool, rows, cfg, 256) >= 2
    _, report = fit(rows, cfg, pool=copy.deepcopy(pool))
    assert report.mixtures_created == 0 and report.leaves_merged >= 2


@pytest.mark.parametrize("batch", [1, 2, 16])
@pytest.mark.parametrize("mode", ["laplace", "mle"])
def test_random_pools_match_the_oracle(batch, mode):
    rng = np.random.default_rng(17)
    for trial in range(6):
        dim = int(rng.integers(2, 7))
        pool = random_pool(rng, dim, weight_mode=mode)
        rows = rng.normal(0.0, 2.0, size=(48, dim))
        for frozen in (False, True):
            cfg = LearnerConfig(batch_size=batch, weight_mode=mode, seed=trial)
            assert_streams_agree(pool, rows, cfg, batch, frozen=frozen, seed=trial)


def two_products(next_check=1e9):
    """A sum over two products, each over its own leaves on variables 0 and 1."""
    pool = NodePool(2)

    def leaf(v, mean):
        return pool.add(LeafNode((v,), GaussianStats(np.array([mean]), np.eye(1), 4.0)))

    left = pool.add(ProductNode((0, 1), [leaf(0, 0.0), leaf(1, -3.0)],
                                GaussianStats.zeros(2, count=4.0), next_check=next_check))
    right = pool.add(ProductNode((0, 1), [leaf(0, 0.0), leaf(1, 3.0)],
                                 GaussianStats.zeros(2, count=4.0), next_check=next_check))
    pool.root = pool.add(SumNode((0, 1), [left, right], [4.0, 4.0]))
    assert validate(pool).ok
    return pool


def store_bits(pool) -> dict:
    return {k: (w.mean.tobytes(), w.cov.tobytes(), w.count.tobytes(), w.writes,
                w.used, list(w.free)) for k, w in pool.store.widths.items()}


@pytest.mark.parametrize("batch", [1, 2, 16])
def test_learn_batch_refuses_a_pool_that_is_not_a_tree_before_it_touches_anything(batch):
    rows = np.random.default_rng(3).normal(size=(batch, 2))
    for kind in NOT_A_TREE:
        for frozen in (False, True):
            pool, twice = not_a_tree(kind)
            before = (model_bytes(pool), store_bits(pool), pool.store.stamps,
                      pool.structure_version)
            rng = np.random.default_rng(3)
            with pytest.raises(ValueError, match=f"node {twice} is reached twice"):
                learn_batch(pool, rows, LearnerConfig(batch_size=batch), rng,
                            structure_frozen=frozen)
            assert (model_bytes(pool), store_bits(pool), pool.store.stamps,
                    pool.structure_version) == before
            assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


@pytest.mark.parametrize("batch", [1, 2, 16])
def test_a_leaf_reached_twice_in_one_pass_updates_in_visit_order(batch):
    # A leaf that two products share would be reached twice in one pass, so
    # learn_batch refuses it; split into one leaf per product, each copy
    # takes the rows that reach it through its own product.
    shared_pool, shared = not_a_tree("shared-leaf")
    two_rows = np.array([[0.5, -3.0], [1.5, 3.0]])
    with pytest.raises(ValueError, match=f"node {shared} is reached twice"):
        learn_batch(shared_pool, two_rows, LearnerConfig(batch_size=batch),
                    np.random.default_rng(3))
    pool = two_products()
    rng = np.random.default_rng(3)
    rows = np.column_stack([rng.normal(size=64), np.where(np.arange(64) % 2, 3.0, -3.0)])
    assert_streams_agree(pool, rows, LearnerConfig(batch_size=batch), batch)
    # One two-row batch routes a row down each product, so each copy of the
    # leaf takes one one-row update in that pass.
    split = copy.deepcopy(pool)
    learn_batch(split, two_rows, LearnerConfig(), rng)
    root = split.node(split.root)
    assert [split.node(split.node(p).children[0]).stats.count
            for p in root.children] == [5.0, 5.0]
    assert_streams_agree(pool, two_rows, LearnerConfig(), 2)


@pytest.mark.parametrize("batch", [2, 16])
def test_nodes_born_mid_pass_restructure_like_the_oracle(batch):
    # The products check early and mix their correlated pair, so nodes born
    # mid-pass take the rows that follow in that pass and are scored by the
    # graph walk.  With max_leaf_vars=3 the pair merges into a leaf instead,
    # and the pair's leaves are released mid-pass.
    pool = two_products(next_check=6.0)
    rng = np.random.default_rng(4)
    x = rng.normal(size=96)
    rows = np.column_stack([x, np.where(np.arange(96) % 2, 3.0, -3.0) + x])
    for max_leaf_vars in (1, 3):
        cfg = LearnerConfig(batch_size=batch, max_leaf_vars=max_leaf_vars, significance_z=1.0)
        assert assert_streams_agree(pool, rows, cfg, batch) > 0


def test_update_each_runs_only_at_structure_checks_and_at_the_end(monkeypatch):
    # A product over three variables whose last two correlate: its check
    # mixes them into a new sum in the place of the second, so the first
    # leaf is queued before the walk scores the sum's newborn children.
    # Their subtrees hold new nodes and the moved pair, which the walk has
    # not entered (the pool is a tree), so nothing is applied before that
    # scoring: update_each runs right before each structure check, and once
    # when the pass ends.
    rng = np.random.default_rng(5)
    x = rng.normal(size=64)
    rows = np.column_stack([rng.normal(size=64), x, x + 0.1 * rng.normal(size=64)])
    cfg = LearnerConfig(batch_size=64, max_leaf_vars=2)
    pool = init_factored_pool(3)
    assert_streams_agree(pool, rows, cfg, 64)
    events = []
    update_each, check = learner.update_each, learner._best_cross_child_pair

    def counted_update_each(*args):
        events.append("update")
        return update_each(*args)

    def counted_check(*args):
        events.append("check")
        return check(*args)

    monkeypatch.setattr(learner, "update_each", counted_update_each)
    monkeypatch.setattr(learner, "_best_cross_child_pair", counted_check)
    assert learn_batch(pool, rows, cfg, np.random.default_rng(0)).mixtures_created == 1
    assert events[-1] == "update" and events.count("check") >= 1
    assert all(after == "check" for event, after in zip(events, events[1:]) if event == "update")


@pytest.mark.parametrize("batch", [1, 2, 16])
@pytest.mark.parametrize("mode", ["laplace", "mle"])
def test_ties_draw_the_same_winners(batch, mode):
    pool, _ = mixture_1d([0.0, 0.0, 0.0], [2.0, 2.0, 2.0], mode=mode)
    rows = np.zeros((48, 1))
    rows[::3] = 1.0
    cfg = LearnerConfig(batch_size=batch, weight_mode=mode)
    assert_streams_agree(pool, rows, cfg, batch, frozen=True, seed=21)
    rng = np.random.default_rng(21)
    learn_batch(copy.deepcopy(pool), rows[:batch], cfg, rng, structure_frozen=True)
    assert rng.bit_generator.state != np.random.default_rng(21).bit_generator.state


def test_batch_one_writes_on_a_trained_model_skip_gaussian_stats_update(monkeypatch):
    rng = np.random.default_rng(9)
    cfg = LearnerConfig(max_leaf_vars=1, seed=9)
    pool, _ = fit(toy.generate(3000, rng), cfg)
    calls = []
    update = GaussianStats.update

    def counted(self, batch):
        calls.append(batch.shape[0])
        return update(self, batch)

    monkeypatch.setattr(gstats.GaussianStats, "update", counted)
    before = sum(n.count for n in pool.nodes.values())
    for row in toy.generate(50, rng):
        learn_batch(pool, row[None, :], cfg, rng, structure_frozen=True)
    assert calls == []
    assert sum(n.count for n in pool.nodes.values()) > before


def test_a_16_row_write_updates_nodes_of_one_shape_together(monkeypatch):
    rng = np.random.default_rng(9)
    pool, _ = fit(planted_rows(rng, 2000), LearnerConfig(max_leaf_vars=3, batch_size=64, seed=9))
    calls, groups, jobs, closes = [], [], [], []
    update, rows_terms, close = GaussianStats.update, gstats._rows_terms, gstats._close
    update_each = learner.update_each

    def counted(self, batch):
        calls.append(batch.shape[0])
        return update(self, batch)

    def counted_rows_terms(X, by_rows, *args):
        groups.extend(len(items) for items in by_rows.values())
        return rows_terms(X, by_rows, *args)

    def counted_close(*args):
        closes[-1] += 1
        return close(*args)

    def counted_update_each(X, slots, rows, cols):
        # The padded jobs of the call: the widths up to PAD_WIDTH, and each wider width.
        jobs.append(len({w.k if w.k > gstats.PAD_WIDTH else 0 for w, _ in slots}))
        closes.append(0)
        return update_each(X, slots, rows, cols)

    monkeypatch.setattr(gstats.GaussianStats, "update", counted)
    monkeypatch.setattr(gstats, "_rows_terms", counted_rows_terms)
    monkeypatch.setattr(gstats, "_close", counted_close)
    monkeypatch.setattr(learner, "update_each", counted_update_each)
    before = {nid: n.stats for nid, n in pool.nodes.items() if not isinstance(n, SumNode)}
    learn_batch(pool, planted_rows(rng, 16), LearnerConfig(batch_size=16, seed=9), rng,
                structure_frozen=True)
    # Every node that took two or more rows went through a stacked (rows,
    # width) group of gstats.update_each, in fewer groups than nodes; none
    # called update.
    updated = sum(pool.node(nid).stats.count - stats.count >= 2 for nid, stats in before.items())
    assert calls == []
    assert sum(groups) == updated
    assert len(groups) < updated
    # Each call closed its items in one step per padded job, not per group.
    assert jobs and closes == jobs
    assert sum(closes) < len(groups)


def test_structure_checks_skip_gaussian_stats_update(monkeypatch):
    calls = []
    update = GaussianStats.update

    def counted(self, batch):
        calls.append(batch.shape[0])
        return update(self, batch)

    monkeypatch.setattr(gstats.GaussianStats, "update", counted)
    _, report = fit(planted_rows(np.random.default_rng(9), 2000),
                    LearnerConfig(max_leaf_vars=3, batch_size=16, seed=9))
    assert report.mixtures_created + report.leaves_merged >= 1
    assert calls == []
