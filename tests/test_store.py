"""The pool's statistics store: slots through births, deaths, copies and
refused assignments of another width, each checked bit for bit against a
deep copy taken before the change; and the sums' child counts held there,
their log weights, snapshots, copies and saved files."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnstream import kernels, toy
from spnstream.evaluate import log_density, log_density_rows, shared_net
from spnstream.gstats import GaussianStats
from spnstream.learner import (LearnerConfig, fit, init_factored_pool, learn_batch, make_mixture,
                               merge_into_leaf, simplify)
from spnstream.model_io import load_model, pool_to_json, save_model
from spnstream.nodes import WEIGHT_MODES, LeafNode, NodePool, ProductNode, SumNode, validate

from helpers import edge_weights, fresh_net
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
    pool.node(pool.root).child_counts = pool.node(pool.root).child_counts[1:]
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
                width.writes, pool.store.stamps)

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
        for name in ("mean", "cov", "count"):
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
        return ({k: (w.mean.tobytes(), w.cov.tobytes(), w.count.tobytes(), w.writes,
                     w.used, list(w.free)) for k, w in pool.store.widths.items()},
                pool.store.stamps, net.key, net.floor, [g.seen for g in net.plan.leaves])

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
        fresh_net(pool).eval_rows(X)[net.index[pool.root]].tobytes()


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


# ----------------------------------------------------------------------
# Sums' child counts in the store
# ----------------------------------------------------------------------

def counts_bits(node) -> tuple:
    """A sum's child counts as bytes, read from its slot when it has one."""
    if node.slot is None:
        return np.array(node.child_counts).tobytes()
    width, i = node.slot
    assert np.array(node.child_counts).tobytes() == width.counts[i].tobytes()
    return width.counts[i].tobytes()


def sums_over_leaves(count_lists: list, mode: str) -> tuple[NodePool, list[int]]:
    """One sum per variable, over one univariate leaf per child count, under
    a product when there are two or more; returns the pool and the sums' ids."""
    dim = len(count_lists)
    pool = NodePool(dim, weight_mode=mode)
    sums = []
    for v, counts in enumerate(count_lists):
        leaves = [pool.add(LeafNode((v,), GaussianStats(np.array([float(j)]), np.eye(1), 1.0)))
                  for j in range(len(counts))]
        sums.append(pool.add(SumNode((v,), leaves, counts)))
    pool.root = sums[0] if dim == 1 else pool.add(
        ProductNode(tuple(range(dim)), sums, GaussianStats.zeros(dim, 1.0)))
    return pool, sums


# Integer counts, or integer counts scaled as simplify scales them; zeros too.
_SCALED_COUNTS = st.tuples(st.lists(st.integers(0, 60), min_size=2, max_size=12),
                           st.one_of(st.just(1.0), st.floats(0.01, 10.0))).map(
    lambda drawn: [float(c) * drawn[1] for c in drawn[0]])


@settings(max_examples=80, deadline=None)
@given(count_lists=st.lists(_SCALED_COUNTS, min_size=1, max_size=4),
       mode=st.sampled_from(WEIGHT_MODES))
def test_sum_group_log_weights_match_edge_weights_bit_for_bit(count_lists, mode):
    # From 8 children on, a contiguous np.add.reduce would add the counts
    # pairwise and give other bits than the left-to-right count.
    pool, sums = sums_over_leaves(count_lists, mode)
    if mode == "mle" and any(pool.node(nid).count <= 0.0 for nid in sums):
        with pytest.raises(ValueError, match="zero count"):
            edge_weights([pool.node(nid) for nid in sums], mode)
        with pytest.raises(ValueError, match="zero count"):
            log_density(pool, {0: 0.0})
        return
    net = shared_net(pool)
    checked = set()
    for g in net.plan.sums:
        for j, i in enumerate(g.nodes.tolist()):
            node = pool.node(net.order[i])
            with np.errstate(divide="ignore"):
                want = np.log(edge_weights([node], mode))
            assert np.ascontiguousarray(g.logw[:, j]).tobytes() == want.tobytes()
            checked.add(net.order[i])
    assert checked == set(sums)


def test_a_zero_count_under_mle_weights_is_minus_infinity():
    pool, sums = sums_over_leaves([[0.0, 3.0, 0.0]], "mle")
    net = shared_net(pool)
    assert np.isneginf(net.plan.sums[0].logw[:, 0]).tolist() == [True, False, True]


def test_an_unknown_weight_mode_raises_at_every_read_until_set_right():
    pool = two_products()
    evidence = {0: 0.5}
    first = log_density(pool, evidence)
    pool.weight_mode = "equal"
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown weight mode: 'equal'"):
            log_density(pool, evidence)
    pool.weight_mode = "laplace"
    assert log_density(pool, evidence) == first


def test_a_weight_refresh_that_raises_midway_leaves_no_group_stale():
    # Under "mle" the group of two children is weighed, then the sum of
    # three with zero counts raises; back under "laplace" both are weighed again.
    pool, _ = sums_over_leaves([[3.0, 1.0], [0.0, 0.0, 0.0]], "laplace")
    evidence = {0: 0.2, 1: 0.5}
    first = log_density(pool, evidence)
    pool.weight_mode = "mle"
    for _ in range(2):
        with pytest.raises(ValueError, match="zero count"):
            log_density(pool, evidence)
    pool.weight_mode = "laplace"
    assert log_density(pool, evidence) == first
    assert [g.logw.tobytes() for g in pool.compiled.plan.sums] == \
        [g.logw.tobytes() for g in fresh_net(pool).plan.sums]


def test_an_in_place_edit_of_child_counts_raises_and_leaves_the_slot():
    pool = two_products()
    evidence = {0: 0.5}
    before = log_density(pool, evidence)
    root = pool.node(pool.root)
    width, i = root.slot

    def held():
        return width.counts[i].tobytes(), width.writes, pool.store.stamps

    kept = held()
    snapshot = root.child_counts
    edits = [lambda c: c.__setitem__(0, 9.0), lambda c: c.__setitem__(slice(0, 1), [9.0]),
             lambda c: c.__delitem__(0), lambda c: c.__iadd__([1.0]),
             lambda c: c.__imul__(2), lambda c: c.append(1.0), lambda c: c.extend([1.0]),
             lambda c: c.insert(0, 1.0), lambda c: c.pop(), lambda c: c.remove(4.0),
             lambda c: c.clear(), lambda c: c.sort(), lambda c: c.reverse()]
    for edit in edits:
        with pytest.raises(ValueError, match="read-only"):
            edit(snapshot)
    with pytest.raises(ValueError, match="read-only"):
        root.child_counts[1] += 1.0
    assert held() == kept and snapshot == [4.0, 4.0] and root.child_counts == [4.0, 4.0]
    assert log_density(pool, evidence) == before
    # A loose sum's counts refuse edits too, and a copy of a snapshot is a snapshot.
    loose = SumNode((0,), [1, 2], [1.0, 2.0])
    for counts in (loose.child_counts, copy.deepcopy(snapshot)):
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 5.0
    assert loose.child_counts == [1.0, 2.0] and copy.deepcopy(snapshot) == [4.0, 4.0]


def test_assigned_child_counts_write_the_slot_and_a_new_length_moves_the_sum():
    pool = two_products()
    root = pool.node(pool.root)
    width, i = root.slot
    writes = width.writes
    root.child_counts = [1.5, 2.5]
    assert root.slot == (width, i) and width.writes > writes
    assert width.counts[i].tolist() == [1.5, 2.5] and root.count == 4.0
    left, right = root.children
    leaf = pool.add(LeafNode((0, 1), GaussianStats(np.zeros(2), np.eye(2), 2.0)))
    root.children = [left, right, leaf]
    root.child_counts = [1.5, 2.5, 2.0]
    pool.bump()
    wider, j = root.slot
    assert wider is pool.store.counts[3] and wider.counts[j].tolist() == [1.5, 2.5, 2.0]
    assert width.free == [i]  # the old slot is freed, counted, for the next sum of two
    assert validate(pool).ok
    row = np.array([[0.3, -0.2]])
    assert log_density_rows(pool, row).tobytes() == fresh_net(pool).eval_rows(row)[
        pool.compiled.index[pool.root]].tobytes()


def test_a_deep_copied_pool_owns_its_counts():
    rng = np.random.default_rng(11)
    pool, _ = fit(planted_rows(rng, 1000), LearnerConfig(batch_size=16, seed=11))
    sums = [nid for nid, node in pool.nodes.items() if isinstance(node, SumNode)]
    assert sums
    X = planted_rows(rng, 4)
    before = log_density_rows(pool, X).tobytes()
    held = {nid: counts_bits(pool.node(nid)) for nid in sums}
    twin = copy.deepcopy(pool)
    for c, width in pool.store.counts.items():
        assert not np.shares_memory(width.counts, twin.store.counts[c].counts)
    learn_batch(twin, planted_rows(rng, 64), LearnerConfig(batch_size=64, seed=11), rng,
                structure_frozen=True)
    node = twin.node(sums[0])
    node.child_counts = [c + 3.0 for c in node.child_counts]
    assert {nid: counts_bits(twin.node(nid)) for nid in sums} != held
    assert {nid: counts_bits(pool.node(nid)) for nid in sums} == held
    assert log_density_rows(pool, X).tobytes() == before


def test_a_save_load_round_trip_keeps_the_counts_bits(tmp_path):
    rng = np.random.default_rng(13)
    pool, _ = fit(planted_rows(rng, 1000), LearnerConfig(batch_size=16, seed=13))
    sums = [nid for nid, node in pool.nodes.items() if isinstance(node, SumNode)]
    assert sums
    # Counts whose bits a decimal repr must carry: scaled, not whole.
    for j, nid in enumerate(sums):
        node = pool.node(nid)
        node.child_counts = [c * (0.1 + 0.2) / (3.0 + j) for c in node.child_counts]
    held = {nid: counts_bits(pool.node(nid)) for nid in sums}
    path = tmp_path / "model.spn"
    save_model(path, pool)
    loaded, _ = load_model(path)
    assert {nid: counts_bits(loaded.node(nid)) for nid in sums} == held
    X = planted_rows(rng, 4)
    assert log_density_rows(loaded, X).tobytes() == log_density_rows(pool, X).tobytes()
    # Loaded sums hold their slots once compiled, with the same bits.
    assert all(loaded.node(nid).slot is not None for nid in sums)
    assert {nid: counts_bits(loaded.node(nid)) for nid in sums} == held
