"""Structural checks: node pool bookkeeping, scopes, weights, validation."""

import numpy as np
import pytest

from spnstream.gstats import GaussianStats
from spnstream.learner import LearnerConfig, init_factored_pool, learn_batch, make_mixture
from spnstream.nodes import (
    LeafNode,
    NodePool,
    ProductNode,
    StructuralError,
    SumNode,
    derived_weights,
    make_scope,
    topological_order,
    validate,
)

from helpers import random_pool


def unit_leaf(scope):
    k = len(scope)
    return LeafNode(make_scope(scope), GaussianStats(np.zeros(k), np.eye(k), 1.0))


def test_single_leaf_pool_is_valid():
    pool = NodePool(dim=1)
    pool.root = pool.add(unit_leaf([0]))
    report = validate(pool)
    assert report.ok
    assert report.violations == []
    assert str(report) == "valid"


def test_product_children_sharing_a_variable_is_flagged():
    pool = NodePool(dim=2)
    a = pool.add(unit_leaf([0]))
    b = pool.add(unit_leaf([0]))
    prod = pool.add(
        ProductNode(make_scope([0]), [a, b], GaussianStats.zeros(1, 2.0))
    )
    pool.root = prod
    report = validate(pool)
    assert not report.ok
    codes = {(v.node, v.code) for v in report.violations}
    assert (prod, "overlapping-scopes") in codes


def test_a_scope_that_repeats_a_variable_is_flagged():
    pool = NodePool(dim=2)
    twice = pool.add(LeafNode((0, 0), GaussianStats(np.zeros(2), np.eye(2), 1.0)))
    pool.root = pool.add(ProductNode(make_scope([0, 1]), [twice, pool.add(unit_leaf([1]))],
                                     GaussianStats.zeros(2, 1.0)))
    assert [(v.node, v.code) for v in validate(pool).violations] == [(twice, "scope-repeat")]
    pool.node(twice).scope = (1, 0)  # unsorted, each variable once
    del pool.nodes[pool.node(pool.root).children.pop()]
    assert validate(pool).ok


def test_sum_children_with_different_scopes_is_flagged():
    pool = NodePool(dim=2)
    a = pool.add(unit_leaf([0]))
    b = pool.add(unit_leaf([1]))
    s = pool.add(SumNode(make_scope([0, 1]), [a, b], [1.0, 1.0]))
    pool.root = s
    report = validate(pool)
    assert not report.ok
    assert any(v.node == s and v.code == "incomplete" for v in report.violations)


def test_dangling_child_raises_structural_error():
    pool = NodePool(dim=1)
    pool.root = pool.add(
        ProductNode(make_scope([0]), [99], GaussianStats.zeros(1, 1.0))
    )
    with pytest.raises(StructuralError):
        validate(pool)


def test_cycle_is_reported_not_looped():
    pool = NodePool(dim=1)
    a = pool.add(ProductNode(make_scope([0]), [], GaussianStats.zeros(1, 1.0)))
    b = pool.add(ProductNode(make_scope([0]), [a], GaussianStats.zeros(1, 1.0)))
    pool.node(a).children.append(b)
    pool.root = a
    report = validate(pool)
    assert [(v.node, v.code) for v in report.violations] == [(a, "not-a-tree")]


def test_unreachable_nodes_are_reported():
    pool = NodePool(dim=1)
    pool.root = pool.add(unit_leaf([0]))
    orphan = pool.add(unit_leaf([0]))
    report = validate(pool)
    assert [(v.node, v.code) for v in report.violations] == [(orphan, "unreachable")]


def test_cycle_among_unreachable_nodes_is_reported_as_unreachable():
    pool = NodePool(dim=1)
    pool.root = pool.add(unit_leaf([0]))
    leaf = pool.add(unit_leaf([0]))
    a = pool.add(SumNode(make_scope([0]), [leaf], [1.0]))
    b = pool.add(SumNode(make_scope([0]), [a], [1.0]))
    pool.node(a).children.append(b)
    pool.node(a).child_counts = [*pool.node(a).child_counts, 1.0]
    report = validate(pool)
    assert [(v.node, v.code) for v in report.violations] == [
        (leaf, "unreachable"), (a, "unreachable"), (b, "unreachable")]


def test_root_that_misses_a_variable_is_reported():
    pool = NodePool(dim=2)
    pool.root = pool.add(unit_leaf([0]))
    report = validate(pool)
    assert [(v.node, v.code) for v in report.violations] == [(pool.root, "root-scope")]


def test_non_positive_definite_leaf_is_flagged():
    pool = NodePool(dim=2, variance_floor=1e-4)
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    leaf = pool.add(LeafNode(make_scope([0, 1]), GaussianStats(np.zeros(2), cov, 3.0)))
    pool.root = leaf
    report = validate(pool)
    assert any(v.node == leaf and v.code == "not-pd" for v in report.violations)


@pytest.mark.parametrize("mean, cov", [([np.nan, np.inf], np.eye(2)),
                                       ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]])])
def test_non_finite_product_statistics_are_flagged(mean, cov):
    pool = NodePool(dim=2)
    pool.root = pool.add(ProductNode(make_scope([0, 1]),
                                     [pool.add(unit_leaf([0])), pool.add(unit_leaf([1]))],
                                     GaussianStats(mean, cov, 1.0)))
    report = validate(pool)
    assert [(v.node, v.code) for v in report.violations] == [(pool.root, "non-finite")]


def test_derived_weights_mle_is_count_ratio():
    node = SumNode(make_scope([0]), [10, 11], [2.0, 3.0])
    w = derived_weights(node, "mle")
    assert np.allclose(w, [0.4, 0.6])


def test_derived_weights_laplace_adds_one_pseudocount_per_child():
    node = SumNode(make_scope([0]), [10, 11], [4.0, 6.0])
    w = derived_weights(node, "laplace")
    assert np.allclose(w, [5.0 / 12.0, 7.0 / 12.0])


def test_a_sum_count_adds_its_child_counts_left_to_right():
    node = SumNode(make_scope([0]), [10, 11, 12], [0.1, 0.2, 0.3])
    # 0.6000000000000001; a reversed, pairwise or compensated sum gives 0.6.
    assert node.count == (0.1 + 0.2) + 0.3 != 0.6
    assert derived_weights(node, "mle").tobytes() == \
        np.divide([0.1, 0.2, 0.3], (0.1 + 0.2) + 0.3).tobytes()


def test_every_count_has_one_source_and_no_setter():
    pool = init_factored_pool(2)
    root = pool.node(pool.root)
    make_mixture(pool, pool.root, *root.children)
    learn_batch(pool, np.random.default_rng(0).normal(size=(5, 2)), LearnerConfig(),
                np.random.default_rng(0))
    for node in pool.nodes.values():
        if isinstance(node, SumNode):
            assert node.count == node.child_counts[0] + node.child_counts[1]
        else:
            assert node.count == node.stats.count
        with pytest.raises(AttributeError):
            node.count = 1.0


def test_derived_weights_mle_rejects_zero_count():
    node = SumNode(make_scope([0]), [10, 11], [0.0, 0.0])
    with pytest.raises(ValueError):
        derived_weights(node, "mle")
    # Laplace stays defined: uniform over the children.
    assert np.allclose(derived_weights(node, "laplace"), [0.5, 0.5])
    childless = SumNode(make_scope([0]), [], [])
    with pytest.raises(ValueError, match="zero count"):
        derived_weights(childless, "mle")
    assert derived_weights(childless, "laplace").shape == (0,)


def test_topological_order_puts_children_before_parents():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pool = random_pool(rng, dim=int(rng.integers(1, 6)))
        seen = set()
        for nid in topological_order(pool):
            node = pool.node(nid)
            if not isinstance(node, LeafNode):
                assert all(c in seen for c in node.children)
            seen.add(nid)
        assert pool.root in seen


def test_remove_subtree_drops_all_descendants():
    pool = NodePool(dim=2)
    l0 = pool.add(unit_leaf([0]))
    l1 = pool.add(unit_leaf([1]))
    prod = pool.add(
        ProductNode(make_scope([0, 1]), [l0, l1], GaussianStats.zeros(2, 1.0))
    )
    keep = pool.add(unit_leaf([0]))
    pool.root = keep
    pool.remove_subtree(prod)
    assert prod not in pool and l0 not in pool and l1 not in pool
    assert keep in pool
    assert len(pool) == 1


def test_identifiers_are_never_reused():
    pool = NodePool(dim=1)
    a = pool.add(unit_leaf([0]))
    b = pool.add(unit_leaf([0]))
    pool.remove(a)
    c = pool.add(unit_leaf([0]))
    assert c > b
    assert a not in pool


def test_structure_version_tracks_edits():
    pool = NodePool(dim=1)
    v0 = pool.structure_version
    nid = pool.add(unit_leaf([0]))
    assert pool.structure_version > v0
    v1 = pool.structure_version
    pool.bump()
    assert pool.structure_version > v1
    pool.remove(nid)
    assert pool.structure_version > v1 + 1


def test_pool_rejects_bad_settings():
    with pytest.raises(ValueError):
        NodePool(dim=0)
    with pytest.raises(ValueError):
        NodePool(dim=2, weight_mode="map")
    for floor in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NodePool(dim=2, variance_floor=floor)


def test_random_pools_validate_clean():
    rng = np.random.default_rng(11)
    for _ in range(30):
        pool = random_pool(rng, dim=int(rng.integers(1, 7)))
        report = validate(pool)
        assert report.ok, str(report)
