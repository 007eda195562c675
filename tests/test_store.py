"""The pool's statistics store: slots through births, deaths, copies and
refused assignments of another width, each checked bit for bit against a
deep copy taken before the change."""

import copy
import dataclasses

import numpy as np
import pytest

from spnstream import kernels, toy
from spnstream.evaluate import compile_pool, log_density, log_density_rows
from spnstream.gstats import GaussianStats
from spnstream.learner import (LearnerConfig, fit, init_factored_pool, learn_batch, make_mixture,
                               merge_into_leaf, simplify)
from spnstream.model_io import pool_to_json
from spnstream.nodes import LeafNode, NodePool, ProductNode, SumNode, validate

from test_write_pass import planted_rows, two_products


def stats_bits(node) -> tuple:
    return node.stats.mean.tobytes(), node.stats.cov.tobytes(), node.stats.count


def slot_of(node) -> tuple:
    width, i = node.slot
    return width.k, i


def assert_survivors_kept(pool, before) -> None:
    """Every leaf and product that ``before``, a deep copy, also holds has
    the same statistics and the same slot."""
    kept = [nid for nid, node in pool.nodes.items()
            if not isinstance(node, SumNode) and nid in before.nodes]
    assert kept
    for nid in kept:
        assert stats_bits(pool.node(nid)) == stats_bits(before.node(nid)), nid
        assert slot_of(pool.node(nid)) == slot_of(before.node(nid)), nid


def freed_slots(pool, before) -> set:
    """The slots of the leaves and products ``before`` held and ``pool`` lost."""
    return {slot_of(node) for nid, node in before.nodes.items()
            if not isinstance(node, SumNode) and nid not in pool.nodes}


def assert_reused(pool, freed: set) -> None:
    """New nodes of the freed slots' widths take exactly those slots."""
    taken = set()
    for k, _ in sorted(freed):
        node = LeafNode(tuple(range(k)), GaussianStats.zeros(k, 1.0))
        pool.add(node)
        taken.add(slot_of(node))
    assert taken == freed


def tree_children():
    """``two_products`` with the left product's two leaves: ``first`` on
    variable 0 and ``own`` on variable 1."""
    pool = two_products()
    left, right = pool.node(pool.root).children
    first, own = pool.node(left).children
    return pool, first, left, right, own


def test_merge_into_leaf_keeps_every_survivor_and_reuses_the_freed_slot():
    pool, first, left, _, own = tree_children()
    before = copy.deepcopy(pool)
    merged = merge_into_leaf(pool, left, first, own)
    # Both leaves go; the right product and its leaves stay.
    assert first not in pool and own not in pool
    assert_survivors_kept(pool, before)
    assert pool.node(merged).stats.dim == 2
    freed = freed_slots(pool, before)
    assert freed == {slot_of(before.node(first)), slot_of(before.node(own))}
    assert_reused(pool, freed)


def test_make_mixture_and_simplify_keep_every_survivor_and_reuse_the_freed_slot():
    pool, first, left, _, own = tree_children()
    before = copy.deepcopy(pool)
    make_mixture(pool, left, first, own)
    assert_survivors_kept(pool, before)
    assert freed_slots(pool, before) == set()
    before = copy.deepcopy(pool)
    assert simplify(pool)  # splices out the left product, left with one child
    assert left not in pool
    assert_survivors_kept(pool, before)
    freed = freed_slots(pool, before)
    assert freed == {slot_of(before.node(left))}
    assert_reused(pool, freed)


def test_remove_subtree_beside_a_sibling_keeps_it_and_reuses_the_freed_slots():
    pool, first, left, right, own = tree_children()
    root = pool.node(pool.root)
    root.children, root.child_counts = [right], [4.0]
    pool.remove_subtree(left)
    before_adds = copy.deepcopy(pool)
    assert right in pool and not {left, first, own} & set(pool.nodes)
    original = two_products()
    assert_survivors_kept(pool, original)
    freed = freed_slots(pool, original)
    assert freed == {slot_of(original.node(nid)) for nid in (left, first, own)}
    assert_reused(pool, freed)
    assert_survivors_kept(pool, before_adds)


def test_a_removed_node_keeps_its_statistics_and_a_later_write_leaves_them():
    pool, first, left, right, own = tree_children()
    node = pool.node(own)
    want = stats_bits(node)
    held = node.stats
    pool.node(pool.root).children.remove(left)
    pool.node(pool.root).child_counts.pop(0)
    pool.remove_subtree(left)
    assert node.slot is None and stats_bits(node) == want
    replacement = LeafNode((1,), GaussianStats(np.array([9.0]), np.eye(1), 2.0))
    pool.add(replacement)  # takes a freed slot, perhaps the one the node held
    assert stats_bits(node) == want
    assert (held.mean.tobytes(), held.cov.tobytes(), held.count) == want  # a snapshot


def test_rebinding_a_statistics_field_raises_and_leaves_the_slot():
    pool = init_factored_pool(2)
    leaf = pool.node(pool.node(pool.root).children[0])
    width, i = leaf.slot

    def held():
        return (width.mean[i].tobytes(), width.cov[i].tobytes(), width.count[i],
                width.stamp[i], pool.store.stamps)

    kept = held()
    snapshot = leaf.stats
    with pytest.raises(dataclasses.FrozenInstanceError):
        leaf.stats.count += 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        snapshot.mean = np.ones(1)
    assert held() == kept and leaf.count == 1.0 and snapshot.count == 1.0
    loose = LeafNode((0,), GaussianStats(np.zeros(1), np.eye(1), 1.0))
    for stats in (loose.stats, GaussianStats.zeros(1, 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.count += 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.mean = np.ones(1)
        assert stats.count == 1.0 and stats.mean.tolist() == [0.0]
    assert loose.count == 1.0


@pytest.mark.parametrize("batch", [1, 16])
def test_writes_with_births_and_deaths_mid_pass_keep_one_slot_per_node(batch):
    """After a fit whose passes edit the structure, every slot is held by
    one node or free, and each node reads its own slot."""
    rng = np.random.default_rng(5)
    pool, report = fit(planted_rows(rng, 1500), LearnerConfig(batch_size=batch, seed=5))
    assert report.mixtures_created + report.leaves_merged >= 2
    assert validate(pool).ok
    held = [node for node in pool.nodes.values() if not isinstance(node, SumNode)]
    slots = {slot_of(node) for node in held}
    assert len(slots) == len(held)  # no two nodes share a slot
    for width in pool.store.widths.values():  # every slot is held or free
        assert sorted([i for k, i in slots if k == width.k] + width.free) == \
            list(range(width.used))
    for node in held:
        width, i = node.slot
        assert (width.mean[i].tobytes(), width.cov[i].tobytes(), float(width.count[i])) == \
            stats_bits(node)


def test_a_deep_copy_has_its_own_arrays_and_factors_nothing_at_first(monkeypatch):
    rng = np.random.default_rng(9)
    pool, _ = fit(planted_rows(rng, 1000), LearnerConfig(batch_size=16, seed=9))
    log_density_rows(pool, planted_rows(rng, 4))
    original = copy.deepcopy(pool)
    twin = copy.deepcopy(pool)
    for k, width in pool.store.widths.items():
        for name in ("mean", "cov", "count", "stamp"):
            assert not np.shares_memory(getattr(width, name),
                                        getattr(twin.store.widths[k], name))
    calls = []

    def factors(covs, floor):
        calls.append(covs.shape)
        return real(covs, floor)

    real = kernels.factors
    monkeypatch.setattr(kernels, "factors", factors)
    log_density_rows(twin, planted_rows(rng, 4))
    assert calls == []
    cfg = LearnerConfig(batch_size=16, seed=9)
    learn_batch(twin, planted_rows(rng, 16), cfg, rng, structure_frozen=True)
    assert calls == []  # the write's own pass on the copied net needs no factor
    for nid, node in pool.nodes.items():
        if not isinstance(node, SumNode):
            assert stats_bits(node) == stats_bits(original.node(nid))
    assert pool_to_json(twin) != pool_to_json(original)


def test_statistics_of_another_width_are_refused_and_change_nothing():
    pool = NodePool(2)
    a = pool.add(LeafNode((0,), GaussianStats(np.zeros(1), np.eye(1), 1.0)))
    b = pool.add(LeafNode((1,), GaussianStats(np.ones(1), np.eye(1), 1.0)))
    pool.root = pool.add(ProductNode((0, 1), [a, b], GaussianStats.zeros(2, 1.0)))
    leaf = pool.node(a)
    width, i = leaf.slot
    X = np.array([[0.3, -0.2], [1.0, 2.0]])
    before = log_density_rows(pool, X).tobytes()
    net = pool.compiled

    def held():
        return ({k: (w.mean.tobytes(), w.cov.tobytes(), w.count.tobytes(), w.stamp.tobytes(),
                     w.used, list(w.free)) for k, w in pool.store.widths.items()},
                pool.store.stamps, net.key, net.floor, [g.seen.tobytes() for g in net.plan.leaves])

    kept = held()
    mean, cov = np.array([0.5, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]])
    with pytest.raises(ValueError, match="width 2 for a node of width 1"):
        leaf.stats = GaussianStats(mean, cov, 3.0)
    assert leaf.slot == (width, i) and held() == kept
    assert log_density_rows(pool, X).tobytes() == before and pool.compiled is net
    # Statistics of the node's width are written into its slot and show at once.
    leaf.stats = GaussianStats(np.array([2.0]), np.eye(1), 4.0)
    assert leaf.slot == (width, i) and leaf.count == 4.0
    assert log_density(pool, {0: 2.0}) == pytest.approx(-0.5 * np.log(2 * np.pi * (1 + 1e-4)))
    assert pool.compiled is net
    assert log_density_rows(pool, X).tobytes() == \
        compile_pool(pool).eval_rows(X)[net.index[pool.root]].tobytes()


@pytest.mark.parametrize("batch,frozen", [(1, True), (1, False), (16, True), (16, False)])
def test_a_write_constructs_no_gaussian_stats(monkeypatch, batch, frozen):
    rng = np.random.default_rng(13)
    if batch == 1:
        cfg = LearnerConfig(max_leaf_vars=1, seed=13)
        pool, _ = fit(toy.generate(1500, rng), cfg)
        rows = toy.generate(600, rng)
    else:
        cfg = LearnerConfig(batch_size=16, max_leaf_vars=3, seed=13)
        pool, _ = fit(planted_rows(rng, 1500), cfg)
        rows = planted_rows(rng, 1600)
    log_density_rows(pool, rows[:2])
    made = []
    init = GaussianStats.__init__

    def counted_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GaussianStats, "__init__", counted_init)
    checked = 0
    for lo in range(0, len(rows), batch):
        checks = [node.next_check for node in pool.nodes.values() if isinstance(node, ProductNode)]
        report = learn_batch(pool, rows[lo:lo + batch], cfg, rng, structure_frozen=frozen)
        checked += checks != [node.next_check for node in pool.nodes.values()
                              if isinstance(node, ProductNode)]
        if not report.restructured:
            assert made == [], lo
        del made[:]
    assert checked >= (0 if frozen else 1)
