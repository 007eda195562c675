"""Streaming structure learning: initialization, restructuring, simplification."""

import copy
import gc
from collections import Counter

import numpy as np
import pytest

from spnstream import evaluate, kernels, toy
from spnstream.evaluate import log_density, log_density_rows, sample
from spnstream.gstats import GaussianStats, correlation_matrix
from spnstream.learner import (
    EvalCache,
    _best_cross_child_pair,
    LearnerConfig,
    fit,
    init_factored_pool,
    learn_batch,
    make_factored_subtree,
    make_mixture,
    merge_into_leaf,
    simplify,
)
from spnstream.nodes import (
    LeafNode,
    NodePool,
    ProductNode,
    SumNode,
    make_scope,
    topological_order,
    validate,
)

from spnstream.model_io import pool_from_json, pool_to_json

from helpers import population_stats, random_pool, reference_best_cross_child_pair
from test_write_pass import planted_rows


def correlated_rows(rng, n, noise=0.0):
    x = rng.normal(size=(n, 1))
    return np.hstack([x, x + noise * rng.normal(size=(n, 1))])


def stream(pool, rows, cfg, rng=None, frozen=False):
    rng = rng or np.random.default_rng(cfg.seed)
    cache = EvalCache()
    for start in range(0, len(rows), cfg.batch_size):
        learn_batch(pool, rows[start:start + cfg.batch_size], cfg, rng,
                    structure_frozen=frozen, cache=cache)


# ----------------------------------------------------------------------
# Initialization
# ----------------------------------------------------------------------

def test_init_three_variables_is_product_of_univariate_leaves():
    pool = init_factored_pool(3)
    root = pool.node(pool.root)
    assert isinstance(root, ProductNode)
    assert len(root.children) == 3
    scopes = [pool.node(c).scope for c in root.children]
    assert scopes == [make_scope([0]), make_scope([1]), make_scope([2])]
    for c in root.children:
        node = pool.node(c)
        assert isinstance(node, LeafNode)
        assert node.stats.mean[0] == 0.0
        assert node.stats.cov[0, 0] == 1.0
        assert node.count == 1.0
    assert root.count == 1.0


def test_init_one_variable_is_a_bare_leaf():
    pool = init_factored_pool(1)
    assert isinstance(pool.node(pool.root), LeafNode)


def test_init_validates_across_dimensions():
    for d in range(1, 65):
        assert validate(init_factored_pool(d)).ok


def test_init_rejects_zero_dimension():
    with pytest.raises(ValueError):
        init_factored_pool(0)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------

def test_config_bounds_are_enforced():
    LearnerConfig(correlation_threshold=1.0)  # closed upper end is legal
    for bad in [
        dict(correlation_threshold=0.0),
        dict(correlation_threshold=1.5),
        dict(max_leaf_vars=0),
        dict(batch_size=0),
        dict(weight_mode="soft"),
        dict(early_stop_fraction=0.0),
        dict(early_stop_fraction=1.1),
        dict(variance_floor=0.0),
        dict(variance_floor=float("nan")),
        dict(variance_floor=float("inf")),
        dict(significance_z=-1.0),
        dict(significance_z=float("nan")),
        dict(significance_z=float("inf")),
    ]:
        with pytest.raises(ValueError):
            LearnerConfig(**bad)


@pytest.mark.parametrize("bad", [
    dict(batch_size=1.5), dict(batch_size=2.0), dict(batch_size=True),
    dict(max_leaf_vars=2.5), dict(max_leaf_vars=3.0), dict(max_leaf_vars=True),
    dict(seed=-1), dict(seed=1.5), dict(seed=False), dict(seed=None),
], ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))))
def test_config_rejects_counts_and_seeds_that_are_not_whole(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        LearnerConfig(**bad)


def test_config_takes_numpy_integers():
    cfg = LearnerConfig(batch_size=np.int64(4), max_leaf_vars=np.int32(2), seed=np.uint8(7))
    ref = LearnerConfig(batch_size=4, max_leaf_vars=2, seed=7)
    rows = toy.generate(40, np.random.default_rng(0))
    assert pool_to_json(fit(rows, cfg)[0]) == pool_to_json(fit(rows, ref)[0])


# ----------------------------------------------------------------------
# Mixture creation
# ----------------------------------------------------------------------

def build_parent_product(dim=3, count=100.0):
    pool = NodePool(dim=dim)
    ids = []
    for i in range(dim):
        ids.append(pool.add(LeafNode(
            make_scope([i]),
            GaussianStats(np.array([float(i)]), np.eye(1), count),
        )))
    mean = np.arange(dim, dtype=np.float64)
    cov = np.eye(dim) + 0.2
    root = pool.add(ProductNode(make_scope(range(dim)), list(ids),
                                GaussianStats(mean, cov, count)))
    pool.root = root
    return pool, ids


def test_new_mixture_starts_at_laplace_weights_101_over_102():
    pool, ids = build_parent_product(count=100.0)
    mix_id = make_mixture(pool, pool.root, ids[0], ids[1])
    mix = pool.node(mix_id)
    assert isinstance(mix, SumNode)
    assert mix.child_counts == [100.0, 0.0]
    from spnstream.nodes import derived_weights
    w = derived_weights(mix, "laplace")
    assert np.allclose(w, [101.0 / 102.0, 1.0 / 102.0])


def test_new_mixture_scope_is_the_joint_scope():
    pool, ids = build_parent_product()
    mix_id = make_mixture(pool, pool.root, ids[0], ids[2])
    assert pool.node(mix_id).scope == make_scope([0, 2])
    assert validate(pool).ok  # includes the stored-vs-recomputed scope check


def test_mixture_first_component_inherits_parent_slice():
    pool, ids = build_parent_product()
    parent = pool.node(pool.root)
    mean = parent.stats.mean.copy()
    cov = parent.stats.cov.copy()
    mix_id = make_mixture(pool, pool.root, ids[0], ids[2])
    comp = pool.node(pool.node(mix_id).children[0])
    assert isinstance(comp, ProductNode)
    assert comp.count == 100.0
    assert np.array_equal(comp.stats.mean, mean[[0, 2]])
    assert np.array_equal(comp.stats.cov, cov[np.ix_([0, 2], [0, 2])])


def test_mixture_second_component_is_fresh_and_empty():
    pool, ids = build_parent_product()
    mix_id = make_mixture(pool, pool.root, ids[0], ids[1])
    comp_new = pool.node(pool.node(mix_id).children[1])
    assert comp_new.count == 0.0
    assert comp_new.stats.count == 0.0
    # Each fresh leaf holds its anchor (parent marginal) as one
    # pseudo-observation, like the leaves of the initial model.
    for c in comp_new.children:
        assert pool.node(c).stats.count == 1.0


def test_mixture_rejects_non_children():
    pool, ids = build_parent_product()
    with pytest.raises(ValueError):
        make_mixture(pool, pool.root, ids[0], ids[0])
    with pytest.raises(ValueError):
        make_mixture(pool, pool.root, ids[0], 999)


def test_mixture_on_random_products_stays_valid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        pool, ids = build_parent_product(dim=d, count=float(rng.integers(1, 60)))
        a, b = rng.choice(len(ids), size=2, replace=False)
        make_mixture(pool, pool.root, ids[a], ids[b])
        report = validate(pool)
        assert report.ok, str(report)


# ----------------------------------------------------------------------
# Multivariate-leaf creation
# ----------------------------------------------------------------------

def test_merged_leaf_mean_is_the_parent_slice():
    pool, ids = build_parent_product(dim=3)
    parent = pool.node(pool.root)
    parent.stats = GaussianStats(np.array([1.0, 2.0, 3.0]), parent.stats.cov, 100.0)
    leaf_id = merge_into_leaf(pool, pool.root, ids[0], ids[2])
    leaf = pool.node(leaf_id)
    assert np.array_equal(leaf.stats.mean, [1.0, 3.0])
    assert leaf.count == 100.0


def test_merged_leaf_covariance_is_the_parent_submatrix():
    pool, ids = build_parent_product(dim=3)
    cov = pool.node(pool.root).stats.cov.copy()
    leaf_id = merge_into_leaf(pool, pool.root, ids[0], ids[2])
    leaf = pool.node(leaf_id)
    assert np.array_equal(leaf.stats.cov, cov[np.ix_([0, 2], [0, 2])])
    assert validate(pool).ok


def test_merge_releases_both_subtrees():
    pool, ids = build_parent_product(dim=3)
    n_before = len(pool)
    merge_into_leaf(pool, pool.root, ids[0], ids[1])
    assert ids[0] not in pool and ids[1] not in pool
    assert len(pool) == n_before - 1  # two leaves out, one leaf in


# ----------------------------------------------------------------------
# Fresh factored components
# ----------------------------------------------------------------------

def test_factored_subtree_takes_parent_diagonal_variances():
    pool = NodePool(dim=5)
    diag = np.array([1.0, 2.0, 1.0, 1.0, 5.0])
    parent_stats = GaussianStats(np.zeros(5), np.diag(diag), 50.0)
    sub = make_factored_subtree(pool, make_scope([1, 4]), parent_stats,
                                make_scope(range(5)))
    node = pool.node(sub)
    assert isinstance(node, ProductNode)
    variances = [pool.node(c).stats.cov[0, 0] for c in node.children]
    assert variances == [2.0, 5.0]
    means = [pool.node(c).stats.mean[0] for c in node.children]
    assert means == [0.0, 0.0]


def test_factored_subtree_centers_on_the_parent_mean():
    # Fresh components sit on the running mean of the region they are born
    # into, so they can win rows the incumbent explains badly.
    pool = NodePool(dim=3)
    parent_stats = GaussianStats(np.array([7.0, -1.0, 4.0]), np.eye(3) * 2.0, 10.0)
    sub = make_factored_subtree(pool, make_scope([0, 2]), parent_stats,
                                make_scope(range(3)))
    means = [pool.node(c).stats.mean[0] for c in pool.node(sub).children]
    assert means == [7.0, 4.0]


def test_factored_subtree_floors_zero_variance():
    pool = NodePool(dim=2, variance_floor=1e-4)
    parent_stats = GaussianStats.zeros(2)
    sub = make_factored_subtree(pool, make_scope([0, 1]), parent_stats,
                                make_scope([0, 1]))
    for c in pool.node(sub).children:
        assert pool.node(c).stats.cov[0, 0] == 1e-4


def test_factored_subtree_singleton_scope_is_a_bare_leaf():
    pool = NodePool(dim=2)
    parent_stats = GaussianStats(np.array([0.0, 3.0]), np.eye(2), 5.0)
    sub = make_factored_subtree(pool, make_scope([1]), parent_stats, make_scope([0, 1]))
    assert isinstance(pool.node(sub), LeafNode)


# ----------------------------------------------------------------------
# Simplification
# ----------------------------------------------------------------------

def test_single_child_product_is_spliced_out():
    pool = NodePool(dim=1)
    inner = pool.add(LeafNode(make_scope([0]), GaussianStats.zeros(1, 1.0)))
    chain = pool.add(ProductNode(make_scope([0]), [inner], GaussianStats.zeros(1, 1.0)))
    pool.root = chain
    assert simplify(pool)
    assert pool.root == inner
    assert chain not in pool


def test_sum_under_sum_children_are_promoted_with_counts():
    pool = NodePool(dim=1, weight_mode="mle")
    a = pool.add(LeafNode(make_scope([0]), GaussianStats(np.zeros(1), np.eye(1), 2.0)))
    b = pool.add(LeafNode(make_scope([0]), GaussianStats(np.ones(1), np.eye(1), 3.0)))
    c = pool.add(LeafNode(make_scope([0]), GaussianStats(-np.ones(1), np.eye(1), 5.0)))
    inner = pool.add(SumNode(make_scope([0]), [a, b], [2.0, 3.0]))
    outer = pool.add(SumNode(make_scope([0]), [inner, c], [5.0, 5.0]))
    pool.root = outer
    X = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    before = log_density_rows(pool, X)
    assert simplify(pool)
    root = pool.node(pool.root)
    assert root.children == [a, b, c]
    assert root.child_counts == [2.0, 3.0, 5.0]
    assert inner not in pool
    assert np.allclose(log_density_rows(pool, X), before, atol=1e-9)
    assert validate(pool).ok


def inject_redundancy(pool, rng):
    """Nest runs of sum children in new sums and put single-child product
    chains on random edges; under mle weights the density is unchanged."""
    for _ in range(2):
        for node in list(pool.nodes.values()):
            if isinstance(node, SumNode) and rng.random() < 0.7:
                lo = int(rng.integers(0, len(node.children)))
                hi = int(rng.integers(lo + 1, len(node.children) + 1))
                counts = node.child_counts[lo:hi]
                inner = pool.add(SumNode(node.scope, node.children[lo:hi], counts))
                node.children[lo:hi] = [inner]
                outer = list(node.child_counts)
                outer[lo:hi] = [sum(counts)]
                node.child_counts = outer

    def chain(nid):
        for _ in range(int(rng.integers(1, 4))):
            k = len(pool.node(nid).scope)
            nid = pool.add(ProductNode(pool.node(nid).scope, [nid],
                                       GaussianStats.zeros(k, 1.0)))
        return nid

    for node in list(pool.nodes.values()):
        if not isinstance(node, LeafNode):
            node.children = [chain(c) if rng.random() < 0.3 else c for c in node.children]
    if rng.random() < 0.3:
        pool.root = chain(pool.root)


def test_simplify_is_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(10):
        pool = random_pool(rng, dim=int(rng.integers(1, 5)))
        simplify(pool)
        assert not simplify(pool)
    for _ in range(60):
        # The first call flattens random_pool's own nesting, whose counts
        # disagree (checked by the test below); this one checks the
        # injected nesting and product chains.
        pool = random_pool(rng, dim=int(rng.integers(1, 5)), weight_mode="mle")
        simplify(pool)
        inject_redundancy(pool, rng)
        X = rng.normal(size=(6, pool.dim))
        before = log_density_rows(pool, X)
        simplify(pool)
        order = topological_order(pool)
        assert len(order) == len(pool)  # nothing left dangling or unreachable
        for nid in order:
            node = pool.node(nid)
            if isinstance(node, ProductNode):
                assert len(node.children) > 1
            if isinstance(node, SumNode):
                assert not any(isinstance(pool.node(c), SumNode) for c in node.children)
        assert not simplify(pool)
        assert np.allclose(log_density_rows(pool, X), before, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("batch", [1, 16, 256])
def test_fits_that_edit_the_structure_leave_a_tree(batch):
    rng = np.random.default_rng(5)
    pool, report = fit(planted_rows(rng, max(1500, 24 * batch)),
                       LearnerConfig(max_leaf_vars=3, batch_size=batch, seed=5))
    assert report.mixtures_created >= 1 and report.leaves_merged >= 1
    parents = Counter(c for node in pool.nodes.values() if not isinstance(node, LeafNode)
                      for c in node.children)
    # Every node but the root has exactly one parent, and the root none.
    assert parents.keys() == pool.nodes.keys() - {pool.root}
    assert set(parents.values()) == {1}


def test_simplify_keeps_mle_density_when_nested_counts_disagree():
    # Under mle weights a nested sum's children carry the share the parent
    # keeps for the nested sum, whatever the nested sum's own count is.
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(100):
        pool = random_pool(rng, dim=int(rng.integers(1, 5)), weight_mode="mle")
        sums = [n for n in pool.nodes.values() if isinstance(n, SumNode)]
        if not sums:
            continue
        outer = sums[int(rng.integers(len(sums)))]
        pos = int(rng.integers(len(outer.children)))
        count = outer.child_counts[pos] + float(rng.integers(1, 50))
        outer.children[pos] = pool.add(
            SumNode(outer.scope, [outer.children[pos]], [count]))
        assert validate(pool).ok
        X = rng.normal(size=(6, pool.dim))
        before = log_density_rows(pool, X)
        assert simplify(pool)
        assert validate(pool).ok
        assert np.allclose(log_density_rows(pool, X), before, rtol=0.0, atol=1e-9)
        checked += 1
    assert checked >= 40


# ----------------------------------------------------------------------
# Cross-child pair search
# ----------------------------------------------------------------------

def tied_columns(rng, n: int, d: int) -> np.ndarray:
    """Rows whose columns repeat a few base columns, some negated or scaled,
    with constant and nearly constant ones among them, so that correlations
    tie exactly across child pairs and some variances are degenerate."""
    kind = rng.integers(4)
    if kind == 0:
        return np.zeros((n, d))
    base = rng.normal(size=(n, int(rng.integers(1, 4))))
    base[:, 0] *= 1e-7 if kind == 1 else 1.0  # variance below the degenerate floor
    cols = base[:, rng.integers(base.shape[1], size=d)]
    cols *= rng.choice([1.0, -1.0, 1.0, 2.0], size=d)
    cols[:, rng.random(d) < 0.2] = 3.0  # constant columns
    return cols


def test_pair_search_matches_the_pairwise_scan_on_ties_and_degenerate_data():
    rng = np.random.default_rng(181)
    ties = found = 0
    for _ in range(400):
        d = int(rng.integers(2, 9))
        data = tied_columns(rng, int(rng.integers(2, 6)), d)
        # Children over a random partition of the variables, in random order.
        cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(1, d)), replace=False))
        parts = np.split(rng.permutation(d), cuts)
        pool = NodePool(dim=d)
        kids = [pool.add(LeafNode(make_scope(p), GaussianStats(np.zeros(len(p)), np.eye(len(p)),
                                                               1.0)))
                for p in parts]
        mean, cov = population_stats(data)
        node = ProductNode(make_scope(range(d)), kids,
                           GaussianStats(mean, cov, float(len(data))))
        want = reference_best_cross_child_pair(pool, node)
        assert _best_cross_child_pair(pool, node) == want
        if want[1] is not None:
            found += 1
            corr = correlation_matrix(node.stats.cov)
            hits = {(a, b) for a in range(len(kids)) for b in range(a + 1, len(kids))
                    if corr[np.ix_(parts[a], parts[b])].max() == want[0]}
            ties += len(hits) > 1
    assert found > 100 and ties > 50
    # Fewer than two children: nothing to compare.
    pool = init_factored_pool(1)
    lone = ProductNode((0,), [pool.root], GaussianStats.zeros(1, count=1.0))
    assert _best_cross_child_pair(pool, lone) == (0.0, None, None)


# ----------------------------------------------------------------------
# Streaming behaviour
# ----------------------------------------------------------------------

def test_independent_stream_keeps_the_factored_structure():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(10_000, 2))
        cfg = LearnerConfig(batch_size=64, seed=seed)
        pool, _ = fit(rows, cfg)
        root = pool.node(pool.root)
        assert isinstance(root, ProductNode)
        assert len(root.children) == 2
        assert all(isinstance(pool.node(c), LeafNode) for c in root.children)


def test_perfect_correlation_merges_into_a_bivariate_leaf():
    rng = np.random.default_rng(1)
    rows = correlated_rows(rng, 100)
    cfg = LearnerConfig(max_leaf_vars=3, seed=0)
    pool, report = fit(rows, cfg)
    root = pool.node(pool.root)
    assert isinstance(root, LeafNode)
    assert root.scope == make_scope([0, 1])
    assert report.leaves_merged == 1
    assert report.mixtures_created == 0


def test_correlation_below_threshold_changes_nothing():
    rng = np.random.default_rng(2)
    rows = correlated_rows(rng, 300, noise=1.0)  # correlation about 0.7
    cfg = LearnerConfig(correlation_threshold=0.95, seed=0)
    pool, report = fit(rows, cfg)
    assert not report.mixtures_created and not report.leaves_merged
    assert len(pool) == 3


def test_small_joint_scope_takes_the_mixture_branch_when_limit_is_one():
    rng = np.random.default_rng(3)
    rows = correlated_rows(rng, 200)
    cfg = LearnerConfig(max_leaf_vars=1, seed=0)
    pool, report = fit(rows, cfg)
    assert report.mixtures_created >= 1
    assert report.leaves_merged == 0
    assert any(isinstance(n, SumNode) for n in pool.nodes.values())


def test_frozen_structure_still_learns_parameters():
    rng = np.random.default_rng(4)
    rows = correlated_rows(rng, 120)
    cfg = LearnerConfig(seed=0)
    pool = init_factored_pool(2, cfg.weight_mode, cfg.variance_floor)
    before = len(pool)
    stream(pool, rows, cfg, frozen=True)
    assert len(pool) == before
    root = pool.node(pool.root)
    assert root.count == 1.0 + 120.0
    # Leaves moved toward the data mean even though structure is frozen.
    leaf0 = pool.node(root.children[0])
    assert abs(leaf0.stats.mean[0] - rows[:, 0].mean()) < 0.2


def test_early_stop_fraction_freezes_midway():
    rng = np.random.default_rng(5)
    rows = np.hstack([rng.normal(size=(600, 1))] * 2) + rng.normal(
        scale=0.05, size=(600, 2)
    )
    full_cfg = LearnerConfig(max_leaf_vars=1, seed=0)
    frozen_cfg = LearnerConfig(max_leaf_vars=1, seed=0, early_stop_fraction=0.05)
    full_pool, full_rep = fit(rows, full_cfg)
    froz_pool, froz_rep = fit(rows, frozen_cfg)
    assert full_rep.frozen_after_rows is None
    assert froz_rep.frozen_after_rows == 30
    assert len(froz_pool) <= len(full_pool)
    assert pool_counts_equal_stream_length(froz_pool, 600)


def pool_counts_equal_stream_length(pool, n):
    return pool.node(pool.root).count == 1.0 + n


def test_root_count_tracks_stream_length():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(257, 3))
    for bs in [1, 8, 256, 1000]:
        pool, _ = fit(rows, LearnerConfig(batch_size=bs, seed=0))
        assert pool_counts_equal_stream_length(pool, 257)


def test_oversized_batch_equals_single_shot():
    rng = np.random.default_rng(7)
    rows = correlated_rows(rng, 90)
    cfg_big = LearnerConfig(batch_size=10_000, max_leaf_vars=1, seed=0)
    pool_fit, _ = fit(rows, cfg_big)

    pool_one = init_factored_pool(2, cfg_big.weight_mode, cfg_big.variance_floor)
    learn_batch(pool_one, rows, cfg_big, np.random.default_rng(cfg_big.seed))
    assert len(pool_fit) == len(pool_one)
    X = rng.normal(size=(12, 2))
    assert np.allclose(log_density_rows(pool_fit, X), log_density_rows(pool_one, X))


def test_validity_holds_after_every_batch():
    rng = np.random.default_rng(8)
    for run in range(10):
        d = int(rng.integers(2, 6))
        base = rng.normal(size=(400, d))
        base[:, 0] = base[:, 1] * 0.9 + base[:, 0] * 0.1  # one strong pair
        cfg = LearnerConfig(
            batch_size=int(rng.integers(1, 65)),
            correlation_threshold=float(rng.uniform(0.05, 0.9)),
            max_leaf_vars=int(rng.integers(1, 4)),
            seed=run,
        )
        pool = init_factored_pool(d, cfg.weight_mode, cfg.variance_floor)
        learner_rng = np.random.default_rng(cfg.seed)
        cache = EvalCache()
        for start in range(0, 400, cfg.batch_size):
            learn_batch(pool, base[start:start + cfg.batch_size], cfg, learner_rng,
                        cache=cache)
            report = validate(pool)
            assert report.ok, f"run {run} after {start}: {report}"


def test_fit_is_deterministic():
    rng = np.random.default_rng(10)
    rows = correlated_rows(rng, 300, noise=0.3)
    outs = []
    for _ in range(2):
        pool, _ = fit(rows, LearnerConfig(max_leaf_vars=1, seed=5))
        X = np.linspace(-2, 2, 7).reshape(-1, 1)
        X = np.hstack([X, X])
        outs.append((len(pool), log_density_rows(pool, X)))
    assert outs[0][0] == outs[1][0]
    assert np.array_equal(outs[0][1], outs[1][1])


def test_restructure_checks_follow_a_doubling_schedule():
    # Correlation checks run when a product's evidence count (one
    # pseudo-observation plus the points seen) crosses 2, 4, 8, 16, ...
    # With a perfectly correlated pair, r*sqrt(n) is about 4 at the
    # 16-evidence check, so a gate of 3 fires there and not before: at
    # the 15th point, never the 14th or 16th.
    rng = np.random.default_rng(11)
    rows = correlated_rows(rng, 40)
    cfg = LearnerConfig(seed=0, significance_z=3.0)
    pool = init_factored_pool(2, cfg.weight_mode, cfg.variance_floor)
    learner_rng = np.random.default_rng(0)
    cache = EvalCache()
    merged_at = None
    for i in range(40):
        rep = learn_batch(pool, rows[i:i+1], cfg, learner_rng, cache=cache)
        if rep.leaves_merged and merged_at is None:
            merged_at = i + 1
    assert merged_at == 15


def test_non_finite_rows_are_rejected_before_the_pool_changes():
    pool = init_factored_pool(3)
    counts = {nid: n.count for nid, n in pool.nodes.items()}
    version = pool.structure_version
    bad = np.array([[0.1, 0.2, 0.3], [np.nan, 1.0, 2.0]])
    with pytest.raises(ValueError, match="row 1"):
        learn_batch(pool, bad, LearnerConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="non-finite"):
        fit(np.vstack([np.zeros((5, 3)), [[0.0, np.inf, 0.0]]]), LearnerConfig(), pool=pool)
    assert {nid: n.count for nid, n in pool.nodes.items()} == counts
    assert pool.structure_version == version
    assert validate(pool).ok


def test_learn_batch_routes_through_a_very_deep_chain():
    # sum(leaf, sum(leaf, ... sum(leaf, leaf))) with 1500 sums: deeper than
    # Python's default recursion limit.
    pool = NodePool(dim=1)
    stats = GaussianStats(np.array([0.0]), np.array([[1.0]]), 1.0)
    inner = pool.add(LeafNode((0,), stats.copy()))
    for _ in range(1500):
        leaf = pool.add(LeafNode((0,), stats.copy()))
        inner = pool.add(SumNode((0,), [leaf, inner], [1.0, 1.0]))
    pool.root = inner
    rows = np.random.default_rng(0).normal(size=(32, 1))
    learn_batch(pool, rows, LearnerConfig(), np.random.default_rng(0))
    assert validate(pool).ok
    assert pool.node(pool.root).count == 2.0 + 32
    leaves = [n for n in pool.nodes.values() if isinstance(n, LeafNode)]
    assert sum(n.count for n in leaves) == len(leaves) + 32


def test_learn_batch_leaves_no_reference_cycles():
    rows = toy.generate(400, np.random.default_rng(4))
    cfg = LearnerConfig(batch_size=16, max_leaf_vars=1, seed=4)
    pool = init_factored_pool(3)
    rng = np.random.default_rng(cfg.seed)
    cache = EvalCache()
    learn_batch(pool, rows[:16], cfg, rng, cache=cache)
    gc.collect()
    gc.disable()
    try:
        for lo in range(16, len(rows), 16):
            learn_batch(pool, rows[lo:lo + 16], cfg, rng, cache=cache)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_cache_serves_two_loaded_models():
    cfg = LearnerConfig(batch_size=16, max_leaf_vars=1)
    docs = [pool_to_json(fit(toy.generate(1500, np.random.default_rng(seed)), cfg)[0])
            for seed in (5, 6)]
    batch = toy.generate(64, np.random.default_rng(7))

    def learned(cache):
        out = []
        for doc in docs:
            pool = pool_from_json(doc)
            learn_batch(pool, batch, cfg, np.random.default_rng(0),
                        cache=EvalCache() if cache is None else cache)
            out.append(pool_to_json(pool))
        return out

    assert learned(EvalCache()) == learned(None)


def test_learner_sees_a_variance_floor_change_at_once():
    # Leaf A fits 0.6 better under the old floor, leaf B under a floor of 10.
    pool = NodePool(dim=1)
    a = pool.add(LeafNode((0,), GaussianStats(np.array([0.0]), np.array([[0.01]]), 5.0)))
    b = pool.add(LeafNode((0,), GaussianStats(np.array([1.0]), np.array([[0.0]]), 5.0)))
    pool.root = pool.add(SumNode((0,), [a, b], [5.0, 5.0]))
    cache = EvalCache()
    cache.ensure(pool)
    pool.variance_floor = 10.0
    fresh = pool_from_json(pool_to_json(pool))
    row, cfg = np.array([[0.6]]), LearnerConfig()
    learn_batch(pool, row, cfg, np.random.default_rng(0), cache=cache)
    learn_batch(fresh, row, cfg, np.random.default_rng(0), cache=EvalCache())
    assert pool.node(pool.root).child_counts == [5.0, 6.0]
    assert pool_to_json(pool) == pool_to_json(fresh)


class CompileCounter:
    """Counts compiles, ``refresh_leaf`` calls and factored leaves (one per
    leaf in each stack of leaf statistics handed to ``kernels.factors``: (m,)
    variances or (m, k, k) covariances; the (patterns, m, k, k) stacks of
    restricted factors a partial read builds are not leaves), inside
    compiles too.  ``calls`` counts the calls of ``CompiledNet.eval_rows``,
    ``kernels.factors`` and ``CompiledNet.refresh_weights`` made outside a
    compile."""

    def __init__(self, monkeypatch):
        self.compiles = self.refresh_leaf = self.factored = 0
        self.calls = Counter()
        self.compiling = False
        self.compile_pool = evaluate.compile_pool
        counter = self

        def compile_pool(pool):
            counter.compiles += 1
            counter.compiling = True
            try:
                return counter.compile_pool(pool)
            finally:
                counter.compiling = False

        def outside_compiles(name, fn):
            def counted(*args, **kwargs):
                if not counter.compiling:
                    counter.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        factors = outside_compiles("factors", kernels.factors)

        def counted_factors(covs, floor):
            if covs.ndim in (1, 3):
                counter.factored += covs.shape[0]
            return factors(covs, floor)

        for name in ("eval_rows", "refresh_weights"):
            monkeypatch.setattr(evaluate.CompiledNet, name,
                                outside_compiles(name, getattr(evaluate.CompiledNet, name)))

        refresh_leaf = evaluate.CompiledNet.refresh_leaf

        def counted_refresh_leaf(net, pool, nid):
            counter.refresh_leaf += 1
            return refresh_leaf(net, pool, nid)

        monkeypatch.setattr(evaluate, "compile_pool", compile_pool)
        monkeypatch.setattr(kernels, "factors", counted_factors)
        monkeypatch.setattr(evaluate.CompiledNet, "refresh_leaf", counted_refresh_leaf)

    def take(self) -> tuple[int, int, int]:
        out = self.compiles, self.factored, self.refresh_leaf
        self.compiles = self.refresh_leaf = self.factored = 0
        return out

    def assert_matches_fresh_compile(self, net, pool):
        """The net's parameter arrays equal a fresh compile of ``pool`` brought
        up to date, bit for bit; the fresh net's factorizations are not
        counted."""
        counted = self.factored, self.calls.copy()
        fresh = self.compile_pool(pool)
        fresh.refresh_params(pool)
        self.factored, self.calls = counted
        assert [None if g.logw is None else g.logw.tobytes() for g in net.groups] == [
            None if f.logw is None else f.logw.tobytes() for f in fresh.groups]
        assert len(net.leaves) == len(fresh.leaves)
        for g, f in zip(net.leaves, fresh.leaves):
            for name in ("mean", "ichol", "chol", "cov", "const"):
                assert getattr(g, name).tobytes() == getattr(f, name).tobytes(), (g.k, name)


def reads(pool):
    """One of each read query, as plain values."""
    return (log_density(pool, {0: 0.3, 5: -1.0}), log_density_rows(pool, np.ones((2, 8))).tolist(),
            sample(pool, np.random.default_rng(3), size=4).tolist())


def blocks_model(seed: int):
    """A learned 8-variable model: a correlated pair that becomes a 2-variable
    leaf, a two-cluster triple that becomes a mixture, three free variables."""
    rng = np.random.default_rng(seed)
    n = 3000
    a = rng.normal(size=(n, 1))
    pair = np.hstack([a, a + 0.3 * rng.normal(size=(n, 1))])
    triple = 4.0 * rng.integers(0, 2, size=(n, 1)) + rng.normal(size=(n, 3))
    rows = np.hstack([pair, triple, rng.normal(size=(n, 3))])
    pool, _ = fit(rows, LearnerConfig(batch_size=64, max_leaf_vars=3, seed=seed))
    return pool, rng


def leaf_stats(pool) -> dict:
    return {nid: n.stats for nid, n in pool.nodes.items() if isinstance(n, LeafNode)}


def leaf_writes(pool) -> dict:
    """The count of writes of each leaf's width in the pool's statistics store."""
    return {nid: n.slot[0].writes for nid, n in pool.nodes.items() if isinstance(n, LeafNode)}


def test_writes_and_reads_share_one_net_and_factor_each_leaf_once(monkeypatch):
    pool, rng = blocks_model(41)
    assert {s.dim for s in leaf_stats(pool).values()} == {1, 2}
    cfg = LearnerConfig(batch_size=16, max_leaf_vars=3, seed=41)
    frozen = dict(structure_frozen=True)
    cache = EvalCache()
    reads(pool)
    counter = CompileCounter(monkeypatch)

    # write -> read -> write: the read factors each leaf of the widths the
    # first write reached once, a group at a time; nothing compiles and
    # refresh_leaf is never called.
    snapshot = copy.deepcopy(pool)
    before = leaf_writes(pool)
    learn_batch(pool, rng.normal(size=(16, 8)), cfg, rng, cache=cache, **frozen)
    counter.assert_matches_fresh_compile(pool.compiled, snapshot)
    written = {nid for nid, n in leaf_writes(pool).items() if n != before[nid]}
    assert {len(pool.node(nid).scope) for nid in written} == {1, 2}
    assert counter.take() == (0, 0, 0)
    reads(pool)
    counter.assert_matches_fresh_compile(pool.compiled, pool)
    assert counter.take() == (0, len(written), 0)
    learn_batch(pool, rng.normal(size=(16, 8)), cfg, rng, cache=cache, **frozen)
    assert counter.take() == (0, 0, 0)
    reads(pool)
    counter.assert_matches_fresh_compile(pool.compiled, pool)
    counter.take()

    # A structure edit compiles once, for the write and the reads after it.
    parent = next(nid for nid in topological_order(pool)
                  if isinstance(pool.node(nid), ProductNode) and len(pool.node(nid).children) >= 2)
    make_mixture(pool, parent, *pool.node(parent).children[:2])
    learn_batch(pool, rng.normal(size=(16, 8)), cfg, rng, **frozen)
    reads(pool)
    learn_batch(pool, rng.normal(size=(16, 8)), cfg, rng, cache=cache, **frozen)
    reads(pool)
    counter.assert_matches_fresh_compile(pool.compiled, pool)
    compiles, _, refresh_leaf_calls = counter.take()
    assert (compiles, refresh_leaf_calls) == (1, 0)


def test_two_pools_in_turn_compile_once_each(monkeypatch):
    docs = [pool_to_json(blocks_model(seed)[0]) for seed in (42, 43)]
    p, q = (pool_from_json(doc) for doc in docs)
    rng = np.random.default_rng(44)
    cfg = LearnerConfig(batch_size=16, max_leaf_vars=3)
    counter = CompileCounter(monkeypatch)
    for pool, op in [(p, "write"), (q, "read"), (p, "read"), (q, "write"), (p, "write"),
                     (q, "read"), (p, "read")]:
        if op == "write":
            learn_batch(pool, rng.normal(size=(16, 8)), cfg, rng, structure_frozen=True)
        else:
            reads(pool)
            counter.assert_matches_fresh_compile(pool.compiled, pool)
    assert counter.take()[0] == 2
    assert counter.refresh_leaf == 0


def test_learn_batch_without_a_cache_compiles_once(monkeypatch):
    pool = pool_from_json(pool_to_json(blocks_model(45)[0]))
    rng = np.random.default_rng(46)
    counter = CompileCounter(monkeypatch)
    for _ in range(2):
        learn_batch(pool, rng.normal(size=(16, 8)), LearnerConfig(batch_size=16), rng,
                    structure_frozen=True)
    assert counter.take()[0] == 1


def test_a_deep_copy_writes_without_changing_the_original(monkeypatch):
    pool, rng = blocks_model(47)
    cfg = LearnerConfig(batch_size=16, max_leaf_vars=3, seed=47)
    cache = EvalCache()
    learn_batch(pool, rng.normal(size=(16, 8)), cfg, rng, cache=cache)
    before = reads(pool)
    counter = CompileCounter(monkeypatch)
    twin, twin_cache = copy.deepcopy((pool, cache))
    for _ in range(3):
        learn_batch(twin, rng.normal(2.0, 1.0, size=(16, 8)), cfg, rng, cache=twin_cache)
        assert reads(twin) != before
        counter.assert_matches_fresh_compile(twin.compiled, twin)
        assert reads(pool) == before
        counter.assert_matches_fresh_compile(pool.compiled, pool)


def sum_free_pools() -> list:
    """Two 8-variable pools without a sum: the factorized start, and the
    same with variables 0 and 1, and 2 and 3, merged into 2-variable leaves."""
    merged = init_factored_pool(8)
    for pair in ((0, 1), (2, 3)):
        by_scope = {merged.node(c).scope: c for c in merged.node(merged.root).children}
        merge_into_leaf(merged, merged.root, *(by_scope[(v,)] for v in pair))
    assert {len(n.scope) for n in merged.nodes.values() if isinstance(n, LeafNode)} == {1, 2}
    return [init_factored_pool(8), merged]


def has_sum(pool) -> bool:
    return any(isinstance(n, SumNode) for n in pool.nodes.values())


@pytest.mark.parametrize("frozen", [False, True])
def test_writes_into_a_pool_without_a_sum_evaluate_and_factor_nothing(monkeypatch, frozen):
    # Correlated pairs, so that with the structure learning on the factorized
    # start merges them (max_leaf_vars=3 keeps every edit a merge here) and
    # the writes after an edit compile.
    rng = np.random.default_rng(53)
    a, b = rng.normal(size=(2, 1024, 1))
    rows = np.hstack([a, a + 0.3 * rng.normal(size=(1024, 1)), b,
                      b + 0.3 * rng.normal(size=(1024, 1)), rng.normal(size=(1024, 4))])
    cfg = LearnerConfig(batch_size=64, max_leaf_vars=3, seed=53)
    counter = CompileCounter(monkeypatch)
    for start, pool in zip(("factorized", "merged"), sum_free_pools()):
        reads(pool)
        counter.take()
        counter.calls.clear()
        keys, edits = set(), 0
        for lo in range(0, rows.shape[0], cfg.batch_size):
            keys.add((pool.structure_version, pool.root))
            report = learn_batch(pool, rows[lo:lo + cfg.batch_size], cfg, rng,
                                 structure_frozen=frozen)
            edits += report.mixtures_created + report.leaves_merged
            assert report.mixtures_created == 0 and not has_sum(pool)
        assert not counter.calls, counter.calls
        # The writes factor no leaf, not even in the compiles after an edit.
        compiles, factored, _ = counter.take()
        assert factored == 0
        assert compiles < len(keys)  # the key at the first write was compiled by the read
        # Only the factorized start has pairs left to merge, one edit each.
        assert (edits, compiles) == ((2, 2) if start == "factorized" and not frozen else (0, 0))
        # The next read factors the leaves the writes changed, every one, once.
        reads(pool)
        counter.assert_matches_fresh_compile(pool.compiled, pool)
        leaves = sum(isinstance(n, LeafNode) for n in pool.nodes.values())
        assert counter.take()[:2] == (0, leaves)
        assert counter.calls["eval_rows"] > 0


@pytest.mark.parametrize("frozen", [False, True])
def test_writes_into_a_pool_with_a_sum_evaluate_once_each(monkeypatch, frozen):
    pool, rng = blocks_model(55)
    assert has_sum(pool)
    cfg = LearnerConfig(batch_size=16, max_leaf_vars=3, seed=55)
    reads(pool)
    counter = CompileCounter(monkeypatch)
    for _ in range(4):
        learn_batch(pool, rng.normal(size=(16, 8)), cfg, rng, structure_frozen=frozen)
        assert counter.calls["eval_rows"] == 1
        counter.calls.clear()
