"""Density evaluation, conditionals, and sampling against hand values and oracles."""

import collections
import copy
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spnstream
from spnstream import evaluate, kernels
from spnstream.evaluate import (
    _leaf_factor,
    analytic_mean,
    compile_pool,
    conditional_log_density,
    log_density,
    log_density_rows,
    sample,
    shared_net,
    subtree_log_density_rows,
)
from spnstream.gstats import GaussianStats
from spnstream.learner import LearnerConfig, init_factored_pool, learn_batch, make_mixture
from spnstream.nodes import (LeafNode, NodePool, ProductNode, SumNode, derived_weights,
                             make_scope, validate)

from bench_eval import wide_mixture
from helpers import (expand_mixture, fresh_net, oracle_cov, oracle_log_density,
                     oracle_log_density_rows, oracle_mean, random_pool, reference_partial_rows,
                     scalar_eval_rows)

# log pdf of a standard normal at zero.
LOG_STD_NORMAL_AT_0 = -0.9189385332046727
# log(0.5 * pdf_N(0,1)(0) + 0.5 * pdf_N(4,1)(0)).
LOG_HALF_MIX_AT_0 = -1.611750307391722


def leaf(scope, mean, cov, count=1.0):
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    return LeafNode(make_scope(scope), GaussianStats(mean, cov, count))


def single_leaf_pool(mean=0.0, var=1.0, floor=1e-4):
    pool = NodePool(dim=1, variance_floor=floor)
    pool.root = pool.add(leaf([0], [mean], [[var - floor]]))
    return pool


def two_leaf_mixture(counts, mode="mle"):
    pool = NodePool(dim=1, weight_mode=mode)
    a = pool.add(leaf([0], [0.0], [[1.0 - pool.variance_floor]], counts[0]))
    b = pool.add(leaf([0], [4.0], [[1.0 - pool.variance_floor]], counts[1]))
    pool.root = pool.add(SumNode(make_scope([0]), [a, b], list(counts)))
    return pool


def test_standard_normal_leaf_at_zero():
    pool = single_leaf_pool()
    assert log_density(pool, {0: 0.0}) == pytest.approx(LOG_STD_NORMAL_AT_0, abs=1e-12)


def test_empty_evidence_is_log_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pool = random_pool(rng, dim=int(rng.integers(1, 6)))
        assert abs(log_density(pool, {})) < 1e-9


def test_even_mixture_of_two_normals_at_zero():
    pool = two_leaf_mixture([5.0, 5.0], mode="mle")
    assert log_density(pool, {0: 0.0}) == pytest.approx(LOG_HALF_MIX_AT_0, abs=1e-12)


def test_assignment_outside_dimension_rejected():
    pool = single_leaf_pool()
    with pytest.raises(ValueError):
        log_density(pool, {1: 0.0})
    with pytest.raises(ValueError):
        log_density(pool, {0: float("nan")})


def test_partial_evidence_marginalizes_a_multivariate_leaf():
    # Leaf over (x0, x1) with correlated covariance; evidence on x0 alone
    # must integrate x1 out, which for a Gaussian is a coordinate slice.
    pool = NodePool(dim=2)
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    pool.root = pool.add(leaf([0, 1], [1.0, -1.0], cov, 4.0))
    got = log_density(pool, {0: 0.5})
    var = cov[0, 0] + pool.variance_floor
    want = -0.5 * math.log(2.0 * math.pi * var) - 0.5 * (0.5 - 1.0) ** 2 / var
    assert got == pytest.approx(want, abs=1e-12)


def test_marginal_matches_grid_integration():
    rng = np.random.default_rng(5)
    pool = random_pool(rng, dim=2, max_sums=2)
    a = 0.3
    ts = np.linspace(-60.0, 60.0, 24001)
    vals = np.array([log_density(pool, {0: a, 1: float(t)}) for t in ts])
    integral = np.trapezoid(np.exp(vals), ts)
    marginal = math.exp(log_density(pool, {0: a}))
    assert integral == pytest.approx(marginal, rel=1e-3)


def test_density_matches_mixture_expansion_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        pool = random_pool(rng, dim=int(rng.integers(1, 6)), max_sums=4)
        X = rng.normal(size=(8, pool.dim))
        got = log_density_rows(pool, X)
        want = oracle_log_density_rows(pool, X)
        assert np.allclose(got, want, rtol=0.0, atol=1e-9), float(np.abs(got - want).max())


def test_partial_evidence_matches_oracle():
    rng = np.random.default_rng(29)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        pool = random_pool(rng, dim=d, max_sums=4)
        keep = rng.permutation(d)[: int(rng.integers(1, d))]
        evidence = {int(v): float(rng.normal()) for v in keep}
        assert log_density(pool, evidence) == pytest.approx(
            oracle_log_density(pool, evidence), abs=1e-9
        )


def test_conditional_of_empty_query_is_zero():
    rng = np.random.default_rng(41)
    pool = random_pool(rng, dim=3)
    assert conditional_log_density(pool, {}, {1: 0.7}) == 0.0


def test_conditional_in_factored_model_ignores_evidence():
    pool = init_factored_pool(3)
    q = conditional_log_density(pool, {0: 0.4}, {1: -2.0})
    assert q == pytest.approx(log_density(pool, {0: 0.4}), abs=1e-12)


def test_conditional_matches_expansion_ratio():
    rng = np.random.default_rng(53)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        pool = random_pool(rng, dim=d, max_sums=3)
        perm = rng.permutation(d)
        query = {int(perm[0]): float(rng.normal())}
        evidence = {int(perm[1]): float(rng.normal())}
        want = oracle_log_density(pool, {**query, **evidence}) - oracle_log_density(
            pool, evidence
        )
        got = conditional_log_density(pool, query, evidence)
        assert got == pytest.approx(want, abs=1e-9)


def test_assignment_keys_must_be_integers():
    pool = init_factored_pool(3)
    with pytest.raises(ValueError, match=r"1\.7"):
        log_density(pool, {1.7: 0.3})
    with pytest.raises(ValueError, match=r"1\.2"):
        log_density(pool, {1: 0.3, 1.2: 5.0})
    with pytest.raises(ValueError, match=r"0\.5") as err:
        conditional_log_density(pool, {0: 0.1}, {0.5: 2.0})
    assert "share" not in str(err.value)
    assert log_density(pool, {np.int64(1): 0.3}) == log_density(pool, {1: 0.3})


@pytest.mark.parametrize("key", [True, False, np.True_, np.False_])
def test_assignment_keys_must_not_be_bools(key):
    # True is no stand-in for variable 1.
    pool = init_factored_pool(3)
    with pytest.raises(ValueError, match="is not an integer"):
        log_density(pool, {key: 0.5})
    with pytest.raises(ValueError, match="is not an integer"):
        conditional_log_density(pool, {key: 0.5}, {2: 0.1})
    with pytest.raises(ValueError, match="is not an integer"):
        conditional_log_density(pool, {2: 0.1}, {key: 0.5})


@pytest.mark.parametrize("value", ["1.5", True, np.bool_(True), b"2", np.array([1.5]), None,
                                   1.5 + 0j, [1.5]])
def test_assignment_values_must_be_real_numbers(value):
    pool = init_factored_pool(3)
    with pytest.raises(ValueError, match="variable 1 is not a number"):
        log_density(pool, {0: 0.2, 1: value})
    with pytest.raises(ValueError, match="variable 2 is not a number"):
        conditional_log_density(pool, {2: value}, {0: 0.2})
    with pytest.raises(ValueError, match="variable 0 is not a number"):
        conditional_log_density(pool, {2: 0.4}, {0: value})


def test_assignment_values_take_numpy_and_integer_numbers():
    pool = init_factored_pool(3)
    want = log_density(pool, {0: 2.0, 1: 1.5})
    for value in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
        assert log_density(pool, {0: value, 1: 1.5}) == want
        assert (conditional_log_density(pool, {0: value}, {1: 1.5})
                == conditional_log_density(pool, {0: 2.0}, {1: 1.5}))


@pytest.mark.parametrize("bad", [[(0, 1.0)], None, ((0, 1.0),), "0", 3, 0.5, {0, 1},
                                 np.array([1.5, 2.0])])
def test_evidence_and_query_must_be_mappings(bad):
    # Refused by the evidence pass, before the pool's net is compiled.
    pool = init_factored_pool(3)
    name = type(bad).__name__
    with pytest.raises(ValueError, match=f"must be a mapping .*, got {name}$"):
        log_density(pool, bad)
    with pytest.raises(ValueError, match=f"got {name}$"):
        conditional_log_density(pool, bad, {0: 0.1})
    with pytest.raises(ValueError, match=f"got {name}$"):
        conditional_log_density(pool, {1: 0.1}, bad)
    assert pool.compiled is None


def test_any_mapping_is_evidence():
    class Evidence(Mapping):
        def __init__(self, pairs):
            self.pairs = dict(pairs)

        def __getitem__(self, key):
            return self.pairs[key]

        def __iter__(self):
            return iter(self.pairs)

        def __len__(self):
            return len(self.pairs)

    pool = random_pool(np.random.default_rng(7), 4)
    ev, q = {2: 0.3, 0: -1.5}, {3: 0.7}
    for wrap in (Evidence, types.MappingProxyType, collections.OrderedDict):
        assert log_density(pool, wrap(ev)) == log_density(pool, ev)
        assert (conditional_log_density(pool, wrap(q), wrap(ev))
                == conditional_log_density(pool, q, ev))


# Variable indices as Python and numpy integers, values as Python floats,
# Python integers and numpy floats.
_KEY_TYPES = st.sampled_from([int, np.int64, np.int32, np.intp, np.uint8])
_VALUES = st.one_of(st.floats(-8.0, 8.0), st.integers(-8, 8),
                    st.floats(-8.0, 8.0).map(np.float64),
                    st.floats(-8.0, 8.0, width=32).map(np.float32))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_queries_lay_out_their_evidence_as_the_reference_bit_for_bit(seed, data):
    rng = np.random.default_rng(seed)
    pool = random_pool(rng, int(rng.integers(2, 7)))
    sizes = {g.k for g in shared_net(pool).leaves}
    assume(1 in sizes and max(sizes) >= 2)
    variables = data.draw(st.permutations(range(pool.dim)))
    n_ev = data.draw(st.integers(0, pool.dim))
    n_q = data.draw(st.integers(0, pool.dim - n_ev))

    def assignment(vs):
        return {data.draw(_KEY_TYPES)(v): data.draw(_VALUES) for v in vs}

    ev, q = assignment(variables[:n_ev]), assignment(variables[n_ev:n_ev + n_q])
    want = reference_partial_rows(pool, ev)[0]
    assert log_density(pool, ev).hex() == float(want).hex()
    denom, joint = reference_partial_rows(pool, ev, {**ev, **q})
    assert conditional_log_density(pool, q, ev).hex() == float(joint - denom).hex()


def test_conditional_rejects_overlapping_keys():
    pool = init_factored_pool(2)
    with pytest.raises(ValueError):
        conditional_log_density(pool, {0: 1.0}, {0: 2.0})


def test_full_assignment_density_is_positive_finite():
    rng = np.random.default_rng(61)
    for _ in range(20):
        pool = random_pool(rng, dim=int(rng.integers(1, 7)))
        x = rng.normal(scale=3.0, size=pool.dim)
        val = log_density(pool, {i: float(x[i]) for i in range(pool.dim)})
        assert math.isfinite(val)
        assert math.exp(val) > 0.0 or val < -700.0  # underflow of exp, not of the log value


def test_compiled_rows_agree_with_scalar_walk():
    rng = np.random.default_rng(67)
    for _ in range(10):
        pool = random_pool(rng, dim=int(rng.integers(1, 6)))
        X = rng.normal(size=(5, pool.dim))
        rows = log_density_rows(pool, X)
        for r in range(5):
            ev = {i: float(X[r, i]) for i in range(pool.dim)}
            assert rows[r] == pytest.approx(log_density(pool, ev), abs=1e-10)


def test_subtree_rows_at_root_match_full_evaluation():
    rng = np.random.default_rng(71)
    pool = random_pool(rng, dim=3)
    X = rng.normal(size=(6, 3))
    assert np.allclose(
        subtree_log_density_rows(pool, pool.root, X),
        log_density_rows(pool, X),
        atol=1e-12,
    )


def test_non_finite_rows_are_rejected():
    pool = init_factored_pool(3)
    with pytest.raises(ValueError, match="row 0 contains a non-finite value"):
        log_density_rows(pool, np.array([[np.nan, 1.0, 2.0]]))


def test_rows_of_more_than_two_dimensions_are_rejected():
    pool = init_factored_pool(3)
    X = np.zeros((2, 3, 4))
    with pytest.raises(ValueError, match=r"\(2, 3, 4\)"):
        log_density_rows(pool, X)
    with pytest.raises(ValueError, match=r"\(2, 3, 4\)"):
        learn_batch(pool, X, LearnerConfig(), np.random.default_rng(0))
    assert pool.node(pool.root).count == 1.0


def test_refresh_leaf_tracks_parameter_change():
    pool = two_leaf_mixture([3.0, 2.0])
    net = fresh_net(pool)
    X = np.array([[0.25], [1.5]])
    before = net.eval_rows(X)[net.index[pool.root]]
    first = next(nid for nid, n in pool.nodes.items() if isinstance(n, LeafNode))
    node = pool.node(first)
    node.stats = GaussianStats(node.stats.mean + 1.0, node.stats.cov, node.stats.count)
    net.refresh_leaf(pool, first)
    after = net.eval_rows(X)[net.index[pool.root]]
    fresh = log_density_rows(pool, X)
    assert np.allclose(after, fresh, atol=1e-12)
    assert not np.allclose(before, fresh)


def test_refresh_weights_tracks_count_change():
    pool = two_leaf_mixture([3.0, 2.0])
    net = fresh_net(pool)
    root = pool.node(pool.root)
    root.child_counts = [root.child_counts[0] + 10.0, root.child_counts[1]]
    net.refresh_weights(pool)
    X = np.array([[0.0], [4.0]])
    assert np.allclose(
        net.eval_rows(X)[net.index[pool.root]], log_density_rows(pool, X), atol=1e-12
    )


def assert_kernels_agree(pool: NodePool, X: np.ndarray) -> None:
    """The level kernel against the scalar loop over every node and the graph walk at the root."""
    net = fresh_net(pool)
    got = net.eval_rows(X)
    assert got.shape == (len(net.order), X.shape[0])
    np.testing.assert_allclose(got, scalar_eval_rows(net, pool, X), rtol=0.0, atol=1e-12)
    walk = subtree_log_density_rows(pool, pool.root, X)
    np.testing.assert_allclose(got[net.index[pool.root]], walk, rtol=0.0, atol=1e-12)


def deep_chain(heights: int) -> NodePool:
    """Products and sums alternating up ``heights`` levels, a tree.

    Above the leaf on variable 0, step i adds a sum over two products: one
    joins the node below with a leaf on variable i, the other joins a fresh
    leaf over variables 0..i-1 with another leaf on variable i.
    """
    dim = heights // 2 + 1
    pool = NodePool(dim=dim)
    below = pool.add(leaf([0], [0.0], [[1.0]]))
    for i in range(1, dim):
        fresh = pool.add(leaf(range(i), np.zeros(i), 0.8 * np.eye(i) + 0.1))
        pair = []
        for left, mean in ((below, -0.5), (fresh, 0.5)):
            right = pool.add(leaf([i], [mean], [[0.7]]))
            pair.append(pool.add(ProductNode(make_scope(range(i + 1)), [left, right],
                                             GaussianStats.zeros(i + 1, 1.0))))
        below = pool.add(SumNode(make_scope(range(i + 1)), pair, [2.0, 3.0]))
    pool.root = below
    return pool


def test_level_kernel_agrees_on_random_pools():
    rng = np.random.default_rng(83)
    leaf_sizes = set()
    for _ in range(40):
        pool = random_pool(rng, dim=int(rng.integers(1, 9)), max_sums=int(rng.integers(0, 8)),
                           weight_mode=str(rng.choice(["mle", "laplace"])), max_leaf_vars=4)
        leaf_sizes |= {len(n.scope) for n in pool.nodes.values() if isinstance(n, LeafNode)}
        for rows in (1, 7):
            assert_kernels_agree(pool, rng.normal(scale=2.0, size=(rows, pool.dim)))
    assert leaf_sizes == {1, 2, 3, 4}


def test_univariate_partial_rows_read_the_same_bits_in_any_batch():
    # A univariate leaf group gathers partial evidence with take; its rows
    # of a 40-row batch equal each row read alone.
    rng = np.random.default_rng(89)
    checked = 0
    while checked < 10:
        pool = random_pool(rng, dim=5, max_leaf_vars=3)
        net = shared_net(pool)
        spans = [g.span for g in net.leaves if g.k == 1]
        if not spans:
            continue
        X = rng.normal(scale=2.0, size=(40, pool.dim))
        X[rng.random(X.shape) < 0.4] = np.nan
        alone = np.hstack([net.eval_rows(X[i:i + 1], partial=True) for i in range(40)])
        got = net.eval_rows(X, partial=True)
        for span in spans:
            assert got[span].tobytes() == alone[span].tobytes()
        checked += 1


def test_level_kernel_agrees_on_a_200_level_chain():
    pool = deep_chain(200)
    assert validate(pool).ok
    assert_kernels_agree(pool, np.random.default_rng(89).normal(size=(3, pool.dim)))


def test_level_kernel_agrees_with_a_zero_count_mle_child():
    pool = two_leaf_mixture([0.0, 3.0], mode="mle")
    sums = [g for g in fresh_net(pool).groups if g.is_sum]
    assert sum(np.isneginf(g.logw).sum() for g in sums) == 1
    assert_kernels_agree(pool, np.array([[0.0], [4.0], [-3.0]]))


def test_level_kernel_agrees_on_an_empty_batch():
    pool = random_pool(np.random.default_rng(97), dim=5, max_leaf_vars=4)
    assert_kernels_agree(pool, np.empty((0, 5)))
    assert log_density_rows(pool, np.empty((0, 5))).shape == (0,)


def test_level_kernel_agrees_on_a_1251_node_wide_mixture():
    rng = np.random.default_rng(101)
    pool = wide_mixture(250, 16, 4, rng)
    assert len(pool) == 1251
    assert_kernels_agree(pool, rng.normal(0.0, 5.0, size=(20, 16)))


@pytest.mark.parametrize("make, most_parents", [
    (lambda: deep_chain(8), 1),
    (lambda: single_leaf_pool(mean=1.5, var=2.0), 0),
    (lambda: wide_mixture(30, 16, 4, np.random.default_rng(7)), 1),
], ids=["chain", "leaf-rooted", "wide-mixture"])
def test_level_plan_routes_every_node_and_edge_to_its_group(make, most_parents):
    pool = make()
    net = compile_pool(pool)
    members = [g.nodes.tolist() for g in net.groups] + [g.nodes.tolist() for g in net.leaves]
    assert sorted(itertools.chain(*members)) == list(range(len(net.order)))
    for gi, nodes in enumerate(members):
        assert net.group_of[nodes].tolist() == [gi] * len(nodes)
        assert net.pos_of[nodes].tolist() == list(range(len(nodes)))
    parents = {}  # dense child -> number of parents
    for g in net.groups:
        assert g.target.shape == g.pos.shape == g.children.shape
        if g.is_sum:
            assert g.logw.shape == g.children.shape
        else:
            assert g.logw is None
        for t, p, child in zip(g.target.flat, g.pos.flat, g.children.flat):
            assert members[t][p] == child
            parents[child] = parents.get(child, 0) + 1
        assert g.targets == tuple(sorted(set(g.target.flat)))
        for j, i in enumerate(g.nodes.tolist()):  # children in child-list order
            assert [net.order[c] for c in g.children[:, j]] == pool.node(net.order[i]).children
    inner = [pool.node(nid) for nid in net.order if not isinstance(pool.node(nid), LeafNode)]
    assert sum(g.children.size for g in net.groups) == sum(len(n.children) for n in inner)
    assert max(parents.values(), default=0) == most_parents


def _random_pools(seed: int = 107, count: int = 20) -> list:
    rng = np.random.default_rng(seed)
    return [random_pool(rng, dim=int(rng.integers(1, 9)), max_sums=int(rng.integers(0, 8)),
                        max_leaf_vars=4) for _ in range(count)]


@pytest.mark.parametrize("make", [
    _random_pools,
    lambda: [deep_chain(8), deep_chain(200)],
    lambda: [single_leaf_pool(mean=1.5, var=2.0)],
    lambda: [wide_mixture(30, 16, 4, np.random.default_rng(7))],
], ids=["random", "chain", "leaf-rooted", "wide-mixture"])
def test_plan_groups_own_contiguous_ranges_in_plan_order(make):
    # The kernel writes each group's rows by slice: every group's nodes are
    # one ascending range, the ranges tile 0..N-1 leaf groups first (by k),
    # then the node groups in plan order, and every child comes before its
    # parent, at the (target, pos) its parent's group records.  The root,
    # the one node of the greatest height, is the last node, alone in the
    # last group.
    for pool in make():
        net = compile_pool(pool)
        lo = 0
        for g in net.leaves + net.groups:
            assert g.nodes.tolist() == list(range(lo, lo + g.nodes.size))
            assert g.span == slice(lo, lo + g.nodes.size)
            lo += g.nodes.size
        assert lo == len(net.order) == len(net.index)
        assert [g.k for g in net.leaves] == sorted({g.k for g in net.leaves})
        members = [g.nodes for g in net.groups + net.leaves]
        for g in net.groups:
            assert (g.children < g.nodes).all()
            for t, p, child in zip(g.target.flat, g.pos.flat, g.children.flat):
                assert members[t][p] == child
        assert net.index[pool.root] == lo - 1
        assert (net.groups or net.leaves)[-1].nodes.tolist() == [lo - 1]
        for nid, i in net.index.items():
            assert net.order[i] == nid
            node = pool.node(nid)
            if not isinstance(node, LeafNode):
                assert all(net.index[c] < i for c in node.children)


def test_univariate_refresh_matches_leaf_factor_to_one_ulp():
    floor = 1e-4
    variances = [0.0, floor, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.7, 1e10, 3.3e10]
    for var in variances:
        pool = single_leaf_pool(mean=1.5, var=var + floor, floor=floor)
        net = fresh_net(pool)
        mean, ichol, const = _leaf_factor(pool.node(pool.root).stats, floor)
        g = net.leaves[0]
        for got, want in ((g.mean[0], mean[0]), (g.ichol[0], ichol[0, 0]), (g.const[0], const)):
            assert abs(got - want) <= np.spacing(abs(want)), (var, got, want)


def test_log_density_rows_evaluates_in_bounded_blocks():
    rng = np.random.default_rng(103)
    pool = wide_mixture(250, 16, 4, rng)
    # One node x row matrix for all these rows would take 40 MB.
    X = rng.normal(0.0, 5.0, size=(4000, 16))
    tracemalloc.start()
    try:
        got = log_density_rows(pool, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    walk = subtree_log_density_rows(pool, pool.root, X)
    np.testing.assert_allclose(got, walk, rtol=0.0, atol=1e-12)


def test_partial_rows_evaluate_in_bounded_blocks():
    rng = np.random.default_rng(191)
    pool = wide_mixture(250, 16, 4, rng)

    def hidden(n):
        X = rng.normal(0.0, 3.0, size=(n, 16))
        X[rng.random(X.shape) < 0.4] = np.nan
        return X

    net = shared_net(pool)
    net.eval_rows(hidden(64), partial=True)  # fills the pattern tables
    # In one block, every (row, leaf) pair of the 1 000 leaves over four
    # variables would gather a 4 x 4 factor: 128 kB a row.
    beyond_output = []
    for n in (256, 1024):
        X = hidden(n)
        tracemalloc.start()
        try:
            got = net.eval_rows(X, partial=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beyond_output.append(peak - got.nbytes)
    assert beyond_output[1] <= 1.1 * beyond_output[0], beyond_output
    # Blocks change no bit: each row read alone gives the same values.
    alone = np.hstack([net.eval_rows(X[i:i + 1], partial=True) for i in range(8)])
    assert got[:, :8].tobytes() == alone.tobytes()


def test_runtime_needs_no_scipy(tmp_path):
    # A None entry in sys.modules makes every import of scipy fail.
    result = run_child(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from spnstream import (LearnerConfig, conditional_log_density, fit, load_model,\n"
        "                       log_density, sample, save_model, toy)\n"
        "pool, _ = fit(toy.generate(300, np.random.default_rng(0)),\n"
        "              LearnerConfig(batch_size=8, max_leaf_vars=1))\n"
        f"save_model({str(tmp_path / 'm.spn')!r}, pool)\n"
        f"pool, _ = load_model({str(tmp_path / 'm.spn')!r})\n"
        "draws = sample(pool, np.random.default_rng(1), size=5)\n"
        "print(json.dumps({'scipy': any(m.startswith('scipy.') for m in sys.modules),\n"
        "                  'marginal': log_density(pool, {0: 0.5}),\n"
        "                  'conditional': conditional_log_density(pool, {0: 0.5}, {2: 1.0}),\n"
        "                  'draws': draws.shape}))\n"
    )
    assert result["scipy"] is False
    assert math.isfinite(result["marginal"]) and math.isfinite(result["conditional"])
    assert result["draws"] == [5, 3]


def run_child(code: str) -> dict:
    """Run ``code`` in a fresh Python on this checkout's spnstream; parse its JSON."""
    # The child imports the same spnstream source as this process, ahead of
    # any inherited (possibly relative) PYTHONPATH.
    src_root = str(Path(spnstream.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_root, inherited])))
    out = subprocess.run(
        [sys.executable, "-c", "import json\nimport numpy as np\n" + code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, f"child exited with {out.returncode}:\n{out.stderr}"
    return json.loads(out.stdout)


def test_point_like_leaf_samples_concentrate():
    pool = NodePool(dim=1, variance_floor=1e-4)
    pool.root = pool.add(leaf([0], [5.0], [[0.0]], 2.0))
    draws = sample(pool, np.random.default_rng(0), size=2000)
    assert draws.shape == (2000, 1)
    assert abs(draws.mean() - 5.0) < 0.01
    assert draws.std() < 0.02


def test_zero_weight_child_is_never_selected():
    pool = NodePool(dim=1, weight_mode="mle")
    a = pool.add(leaf([0], [0.0], [[0.01]], 7.0))
    b = pool.add(leaf([0], [4.0], [[0.01]], 0.0))
    pool.root = pool.add(SumNode(make_scope([0]), [a, b], [7.0, 0.0]))
    draws = sample(pool, np.random.default_rng(1), size=4000)
    # Second component sits at mean 4 with sd 0.1; every draw must come
    # from the first.
    assert np.all(draws < 2.0)


def test_single_draw_shape_and_determinism():
    rng = np.random.default_rng(9)
    pool = random_pool(rng, dim=3)
    one = sample(pool, np.random.default_rng(5))
    assert one.shape == (3,)
    again = sample(pool, np.random.default_rng(5))
    assert np.array_equal(one, again)
    assert sample(pool, np.random.default_rng(5), size=0).shape == (0, 3)


def test_sample_mean_matches_analytic_mean():
    rng = np.random.default_rng(97)
    for _ in range(5):
        pool = random_pool(rng, dim=int(rng.integers(1, 5)), max_sums=3)
        mean = analytic_mean(pool)
        assert np.allclose(mean, oracle_mean(pool), atol=1e-9)
        draws = sample(pool, np.random.default_rng(123), size=20000)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.5 * se + 1e-6)


def test_queries_refuse_a_leaf_shared_by_two_products_and_sample_once_it_is_split():
    # The x0 leaf has two product parents under the root sum: not a tree.
    pool = NodePool(dim=2)
    shared = pool.add(leaf([0], [1.5], [[0.5]], 30.0))
    low = pool.add(leaf([1], [-2.0], [[0.3]], 10.0))
    high = pool.add(leaf([1], [3.0], [[0.8]], 20.0))
    scope = make_scope([0, 1])
    left = pool.add(ProductNode(scope, [shared, low], GaussianStats.zeros(2, 10.0)))
    right = pool.add(ProductNode(scope, [shared, high], GaussianStats.zeros(2, 20.0)))
    pool.root = pool.add(SumNode(scope, [left, right], [10.0, 20.0]))
    reached_twice = f"node {shared} is reached twice"
    with pytest.raises(ValueError, match=reached_twice):
        sample(pool, np.random.default_rng(7), size=10)
    with pytest.raises(ValueError, match=reached_twice):
        log_density_rows(pool, np.zeros((3, 2)))
    with pytest.raises(ValueError, match=reached_twice):
        log_density(pool, {0: 1.0})
    # Each product with its own copy of the leaf: a tree, and the same density.
    pool.node(right).children[0] = pool.add(leaf([0], [1.5], [[0.5]], 30.0))
    pool.bump()
    assert validate(pool).ok
    draws = sample(pool, np.random.default_rng(7), size=20000)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - oracle_mean(pool)) < 4.5 * se)


def assert_sample_moments(pool: NodePool, n: int, seed: int) -> None:
    """Sample mean and covariance within 5 standard errors of the model's."""
    draws = sample(pool, np.random.default_rng(seed), size=n)
    mean, cov = oracle_mean(pool), oracle_cov(pool)
    dev = draws - mean
    for i, j in itertools.product(range(pool.dim), repeat=2):
        prod = dev[:, i] * dev[:, j]
        se = prod.std() / math.sqrt(n)
        assert abs(prod.mean() - cov[i, j]) < 5.0 * se, (i, j, prod.mean(), cov[i, j])


# A covariance whose Cholesky factor L is far from symmetric: draws made
# with L transposed have covariance L^T L, which differs by over one unit.
SKEWED_COV = np.array([[4.0, 1.8, -1.2], [1.8, 1.5, 0.3], [-1.2, 0.3, 2.0]])


def test_sample_covariance_of_a_three_variable_leaf():
    pool = NodePool(dim=3)
    pool.root = pool.add(leaf([0, 1, 2], [1.0, -2.0, 0.5], SKEWED_COV, 10.0))
    chol = np.linalg.cholesky(SKEWED_COV + pool.variance_floor * np.eye(3))
    assert np.abs(chol.T @ chol - chol @ chol.T).max() > 1.0
    assert_sample_moments(pool, 100_000, 131)


def test_sample_covariance_of_a_mixture_over_multivariate_leaves():
    pool = NodePool(dim=5)
    scope = make_scope(range(5))
    kids = []
    for shift, count in ((0.0, 30.0), (3.0, 70.0)):
        pair = pool.add(leaf([0, 4], [shift, -shift], [[1.0, 0.7], [0.7, 2.0]], count))
        triple = pool.add(leaf([1, 2, 3], [0.5 * shift, shift, -1.0], SKEWED_COV / (1 + shift),
                               count))
        kids.append(pool.add(ProductNode(scope, [pair, triple], GaussianStats.zeros(5, count))))
    pool.root = pool.add(SumNode(scope, kids, [30.0, 70.0]))
    assert validate(pool).ok
    assert_sample_moments(pool, 100_000, 137)


class ConstantRng:
    """Every uniform ``u``, every normal 0."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)

    def standard_normal(self, size):
        return np.zeros(size)


def test_zero_weight_children_are_never_drawn_at_either_end_of_the_range():
    # One mle sum alone, and two in one level group, each with zero-count
    # first and last children: the smallest and the largest uniform must
    # pick the children next to them.  A uniform in between checks that
    # each sum of a group picks from its own weights.
    for n_sums in (1, 2):
        pool = NodePool(dim=n_sums, weight_mode="mle")
        sums = []
        for v in range(n_sums):
            kids = [pool.add(leaf([v], [mean], [[0.01]], 7.0)) for mean in (-30.0, -1.0, 2.0, 50.0)]
            sums.append(pool.add(SumNode(make_scope([v]), kids, [0.0, 0.1, 0.2, 0.0])))
        pool.root = sums[0] if n_sums == 1 else pool.add(
            ProductNode(make_scope(range(n_sums)), sums, GaussianStats.zeros(n_sums, 0.3)))
        assert validate(pool).ok
        for u, want in ((0.0, -1.0), (0.25, -1.0), (np.nextafter(1.0, 0.0), 2.0)):
            draws = sample(pool, ConstantRng(u), size=64)
            assert np.array_equal(draws, np.full((64, n_sums), want)), (n_sums, u)


@pytest.mark.parametrize("size", [2.7, 3.0, np.float64(2.0), True, False, np.bool_(True), "3",
                                  -1, [2]])
def test_sample_size_must_be_a_non_negative_integer(size):
    pool = init_factored_pool(2)
    with pytest.raises(ValueError, match="size"):
        sample(pool, np.random.default_rng(0), size)


def test_sample_size_takes_numpy_integers():
    pool = init_factored_pool(2)
    assert sample(pool, np.random.default_rng(0), np.int64(3)).shape == (3, 2)
    assert sample(pool, np.random.default_rng(0), np.uint8(0)).shape == (0, 2)
    want = sample(pool, np.random.default_rng(5), 4)
    assert sample(pool, np.random.default_rng(5), np.int32(4)).tobytes() == want.tobytes()


def test_sample_draws_in_bounded_blocks():
    rng = np.random.default_rng(149)
    pool = wide_mixture(250, 16, 4, rng)
    sample(pool, rng, size=1)
    # The 8 000 rows' (leaf, row) pairs and their 4 x 4 factors alone would
    # take 8 MB in one block; the output takes 1 MB.
    tracemalloc.start()
    try:
        draws = sample(pool, rng, size=8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - analytic_mean(pool)) < 5.0 * se)


def test_validate_then_evaluate_round_trip_on_random_pools():
    rng = np.random.default_rng(101)
    for _ in range(10):
        pool = random_pool(rng, dim=int(rng.integers(1, 6)))
        assert validate(pool).ok
        X = rng.normal(size=(4, pool.dim))
        assert np.all(np.isfinite(log_density_rows(pool, X)))


# ----------------------------------------------------------------------
# Partial evidence on the compiled net
# ----------------------------------------------------------------------

def leaf_patterns(pool: NodePool, rng):
    """Evidence under which each leaf sees each subset of its scope observed,
    the variables outside it observed at random."""
    for node in pool.nodes.values():
        if not isinstance(node, LeafNode):
            continue
        others = [v for v in range(pool.dim) if v not in node.scope]
        for r in range(len(node.scope) + 1):
            for seen in itertools.combinations(node.scope, r):
                rest = [v for v in others if rng.random() < 0.5]
                yield {v: float(rng.normal(0.0, 2.0)) for v in (*seen, *rest)}


def test_every_leaf_evidence_pattern_matches_oracle():
    rng = np.random.default_rng(109)
    leaf_sizes = set()
    for mode in ("mle", "laplace"):
        for _ in range(5):
            pool = random_pool(rng, dim=int(rng.integers(2, 7)), max_sums=3, weight_mode=mode,
                               max_leaf_vars=4)
            leaf_sizes |= {len(n.scope) for n in pool.nodes.values() if isinstance(n, LeafNode)}
            components = expand_mixture(pool)
            assert abs(log_density(pool, {})) < 1e-9
            for evidence in leaf_patterns(pool, rng):
                assert log_density(pool, evidence) == pytest.approx(
                    oracle_log_density(pool, evidence, components), abs=1e-9), evidence
            x = rng.normal(size=pool.dim)
            full = log_density(pool, dict(enumerate(x.tolist())))
            assert full == pytest.approx(oracle_log_density(pool, dict(enumerate(x)), components),
                                         abs=1e-9)
            assert full == pytest.approx(log_density_rows(pool, x)[0], abs=1e-12)
    assert leaf_sizes == {1, 2, 3, 4}


def test_partial_evidence_with_a_zero_count_mle_child_has_no_nan():
    pool = NodePool(dim=3, weight_mode="mle")
    scope = make_scope(range(3))
    kids = []
    for shift in (0.0, 3.0):
        a = pool.add(leaf([0, 1], [shift, -shift], [[1.0, 0.4], [0.4, 2.0]], 4.0))
        b = pool.add(leaf([2], [shift], [[0.5]], 4.0))
        kids.append(pool.add(ProductNode(scope, [a, b], GaussianStats.zeros(3, 4.0))))
    pool.root = pool.add(SumNode(scope, kids, [0.0, 4.0]))
    assert validate(pool).ok
    for evidence in ({}, {0: 0.5}, {1: -1.0, 2: 0.2}, {0: 0.5, 1: -1.0, 2: 0.2}):
        got = log_density(pool, evidence)
        assert math.isfinite(got)
        assert got == pytest.approx(oracle_log_density(pool, evidence), abs=1e-9)
    got = conditional_log_density(pool, {0: 0.5}, {1: -1.0})
    want = oracle_log_density(pool, {0: 0.5, 1: -1.0}) - oracle_log_density(pool, {1: -1.0})
    assert got == pytest.approx(want, abs=1e-9)


def test_conditionals_over_multivariate_leaves_match_expansion_ratio():
    rng = np.random.default_rng(113)
    for _ in range(12):
        d = int(rng.integers(2, 7))
        pool = random_pool(rng, dim=d, max_sums=3, weight_mode=str(rng.choice(["mle", "laplace"])),
                           max_leaf_vars=4)
        components = expand_mixture(pool)
        perm = rng.permutation(d).tolist()
        cut = int(rng.integers(1, d))
        stop = int(rng.integers(cut, d + 1))
        query = {v: float(rng.normal()) for v in perm[:cut]}
        evidence = {v: float(rng.normal()) for v in perm[cut:stop]}
        want = (oracle_log_density(pool, {**query, **evidence}, components)
                - oracle_log_density(pool, evidence, components))
        assert conditional_log_density(pool, query, evidence) == pytest.approx(want, abs=1e-9)


def two_rooted_pool(rng) -> NodePool:
    """A random network under a sum whose second child is a factored
    alternative, so the root can be moved without a structure bump."""
    pool = random_pool(rng, dim=4, max_sums=3, max_leaf_vars=3)
    scope = make_scope(range(4))
    leaves = [pool.add(leaf([v], [0.5 * v], [[1.5]], 10.0)) for v in range(4)]
    alt = pool.add(ProductNode(scope, leaves, GaussianStats.zeros(4, 10.0)))
    pool.root = pool.add(SumNode(scope, [pool.root, alt], [30.0, 10.0]))
    return pool


def test_read_queries_follow_every_kind_of_edit():
    rng = np.random.default_rng(127)
    pool = two_rooted_pool(rng)
    X = rng.normal(size=(5, 4))
    evidence, query = {0: 0.3, 2: -1.1}, {1: 0.8}
    # Marginals over several observation patterns, so the pool's net answers
    # from restricted factors it cached before the edit.
    marginals = [{0: 0.3}, {1: -0.4, 3: 0.9}, {0: 0.3, 1: 0.8, 2: -1.1}, {2: 0.5, 3: -0.2}]

    def answers(p):
        return (log_density(p, evidence), conditional_log_density(p, query, evidence),
                [log_density(p, m) for m in marginals],
                log_density_rows(p, X).tolist(), analytic_mean(p).tolist(),
                sample(p, np.random.default_rng(5), size=3).tolist())

    def check():
        # The pool's answer comes from the net it held before the edit; the
        # copy drops the net it was copied with, so it is compiled afresh.
        got = answers(pool)
        fresh = copy.deepcopy(pool)
        fresh.compiled = None
        assert got == answers(fresh)
        return got

    seen = [check()]
    cfg = LearnerConfig(weight_mode=pool.weight_mode)
    learn_batch(pool, rng.normal(size=(8, 4)), cfg, rng, structure_frozen=True)
    seen.append(check())
    root = pool.node(pool.root)
    counts = list(root.child_counts)
    counts[1] += 25.0
    root.child_counts = counts
    seen.append(check())
    first = next(n for n in pool.nodes.values() if isinstance(n, LeafNode))
    first.stats = GaussianStats(first.stats.mean + 0.7, 1.3 * first.stats.cov, first.stats.count)
    seen.append(check())
    pool.variance_floor = 3e-2
    seen.append(check())
    multi = next(n for n in pool.nodes.values() if isinstance(n, LeafNode) and len(n.scope) > 1)
    cov = multi.stats.cov.copy()
    cov[0, 1] = cov[1, 0] = 0.5 * cov[0, 1]
    multi.stats = GaussianStats(multi.stats.mean + 0.4, cov, multi.stats.count)
    seen.append(check())
    alt = pool.node(root.children[1])
    make_mixture(pool, root.children[1], alt.children[0], alt.children[1])
    seen.append(check())
    top = pool.root
    pool.root = root.children[0]
    seen.append(check())
    pool.root = top  # not in the net compiled for the previous root
    seen.append(check())
    assert all(a != b for a, b in zip(seen, seen[1:]))


def test_read_cache_keeps_no_pool_alive():
    pool = random_pool(np.random.default_rng(131), dim=3)
    log_density(pool, {0: 0.1})
    log_density_rows(pool, np.zeros((2, 3)))
    ref = weakref.ref(pool)
    del pool
    gc.collect()
    assert ref() is None


def test_queries_on_a_cached_net_walk_no_graph(monkeypatch):
    rng = np.random.default_rng(137)
    pool = random_pool(rng, dim=6, max_sums=4, max_leaf_vars=4)
    log_density(pool, {0: 0.2})
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("topological_order", "_leaf_factor", "compile_pool"):
        monkeypatch.setattr(evaluate, name, counted(getattr(evaluate, name)))
    log_density(pool, {0: 0.2, 3: 1.0})
    conditional_log_density(pool, {1: 0.5}, {2: -0.4, 5: 1.5})
    log_density_rows(pool, rng.normal(size=(3, 6)))
    assert calls == []


def test_sample_and_mean_on_a_cached_net_factor_only_written_groups(monkeypatch):
    rng = np.random.default_rng(151)
    pool = random_pool(rng, dim=8, max_sums=4, max_leaf_vars=4)
    multi = [n for n in pool.nodes.values() if isinstance(n, LeafNode) and len(n.scope) > 1]
    assert len(multi) >= 2
    log_density(pool, {0: 0.2})
    calls, stacks = [], []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    def factors(covs, floor):
        if covs.ndim == 3:  # a stack of k > 1 leaves' covariances
            stacks.append(covs.shape[0])
        return real_factors(covs, floor)

    real_factors = kernels.factors
    for name in ("topological_order", "_leaf_factor", "compile_pool"):
        monkeypatch.setattr(evaluate, name, counted(getattr(evaluate, name)))
    monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky))
    monkeypatch.setattr(kernels, "factors", factors)
    sample(pool, rng, size=40)
    analytic_mean(pool)
    log_density_rows(pool, rng.normal(size=(3, 8)))
    assert calls == [] and stacks == []
    multi[0].stats = GaussianStats(multi[0].stats.mean + 1.0, multi[0].stats.cov, 3.0)
    sample(pool, rng, size=40)
    # The replaced leaf's group is factored whole; the other width's is not.
    k = len(multi[0].scope)
    assert stacks == [sum(len(n.scope) == k for n in multi)] and stacks[0] < len(multi)
    pool.variance_floor = 2e-4
    analytic_mean(pool)
    assert sum(stacks[1:]) == len(multi)
    assert "topological_order" not in calls and "compile_pool" not in calls


def test_a_group_factors_each_observation_pattern_once_between_refreshes(monkeypatch):
    rng = np.random.default_rng(163)
    pool = random_pool(rng, dim=8, max_sums=4, max_leaf_vars=4)
    multi = [n for n in pool.nodes.values() if isinstance(n, LeafNode) and len(n.scope) > 1]
    assert len(multi) >= 2
    log_density_rows(pool, rng.normal(size=(2, 8)))  # compiled and factored
    stacks = []
    real_cholesky = np.linalg.cholesky

    def cholesky(a):
        stacks.append(a.shape)
        return real_cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    queries = [{int(v): float(rng.normal()) for v in rng.permutation(8)[:4]} for _ in range(12)]
    first = [log_density(pool, q) for q in queries]
    # The first partial read fills each group's table with one stack of the
    # 2^k - 2 - k patterns that leave two or more variables observed, for
    # every leaf of the group; the k that leave one are closed form, so a
    # k = 2 group factors nothing.
    group_size = {len(n.scope): 0 for n in multi}
    for n in multi:
        group_size[len(n.scope)] += 1
    assert 2 in group_size and max(group_size) >= 3
    assert sorted(stacks) == sorted((2 ** k - 2 - k, m, k, k)
                                    for k, m in group_size.items() if k >= 3)
    built = len(stacks)
    assert [log_density(pool, q) for q in queries] == first
    assert len(stacks) == built  # warm: no factorization at all
    # A replaced leaf empties its group's table, and only that group's: a
    # write to the k = 3 leaf leaves the k = 2 group's table filled.
    k = 3
    three = next(n for n in multi if len(n.scope) == k)
    pairs = next(g for g in pool.compiled.leaves if g.k == 2)
    ichol, const = pairs.table_ichol, pairs.table_const
    held = (ichol.tobytes(), const.tobytes())
    three.stats = GaussianStats(three.stats.mean + 0.5, three.stats.cov, 3.0)
    again = [log_density(pool, q) for q in queries]
    # refresh_params factors the group whole, then the first read refills it.
    assert stacks[built:] == [(group_size[k], k, k), (2 ** k - 2 - k, group_size[k], k, k)]
    assert pairs.table_ichol is ichol and pairs.table_const is const
    assert (ichol.tobytes(), const.tobytes()) == held
    fresh = copy.deepcopy(pool)
    fresh.compiled = None
    assert again == [log_density(fresh, q) for q in queries]
    # Over two variables the first partial read fills every pattern, and
    # only the refresh before it factors.
    pair = NodePool(dim=2)
    pair.root = pair.add(leaf([0, 1], [1.0, -1.0], [[2.0, 0.8], [0.8, 1.0]], 4.0))
    del stacks[:]
    log_density(pair, {0: 0.5})
    assert stacks == [(1, 2, 2)]
    log_density(pair, {1: 0.5})
    assert stacks == [(1, 2, 2)] and pair.compiled.leaves[0].table_ichol.shape == (4, 2, 2)


def closed_form_marginal(stats: GaussianStats, floor: float, evidence: dict) -> float:
    """log N(x_obs; mean_obs, cov_obs + floor I) of one leaf over 0..k-1."""
    obs = sorted(evidence)
    cov = stats.cov[np.ix_(obs, obs)] + floor * np.eye(len(obs))
    dev = np.array([evidence[v] for v in obs]) - stats.mean[obs]
    _, logdet = np.linalg.slogdet(cov)
    return float(-0.5 * (len(obs) * math.log(2.0 * math.pi) + logdet
                         + dev @ np.linalg.solve(cov, dev)))


def wide_leaf_pool(rng, k: int) -> NodePool:
    a = rng.normal(size=(k, k))
    pool = NodePool(dim=k)
    pool.root = pool.add(leaf(range(k), rng.normal(size=k), a @ a.T / k + 0.5 * np.eye(k), 9.0))
    return pool


def test_a_leaf_over_70_variables_marginalizes_by_pattern():
    rng = np.random.default_rng(167)
    pool = wide_leaf_pool(rng, 70)
    stats = pool.node(pool.root).stats
    x = rng.normal(size=70)
    # Patterns that differ only beyond variable 63, then one that repeats.
    patterns = [set(range(70)) - {68}, set(range(70)) - {69}, set(range(0, 70, 3)),
                set(range(64)), set(range(70)) - {68}]
    for obs in patterns:
        evidence = {v: float(x[v]) for v in obs}
        want = closed_form_marginal(stats, pool.variance_floor, evidence)
        assert log_density(pool, evidence) == pytest.approx(want, abs=1e-9)
    # 2^70 patterns pass any budget: each pair is factored per call.
    assert pool.compiled.leaves[0].table_ichol is None


def test_distinct_patterns_on_a_wide_leaf_keep_the_table_within_its_budget(monkeypatch):
    rng = np.random.default_rng(173)
    k = 66
    pool = wide_leaf_pool(rng, k)
    stats = pool.node(pool.root).stats
    x = rng.normal(size=k)
    for _ in range(10):
        obs = rng.permutation(k)[:int(rng.integers(1, k))].tolist()
        evidence = {v: float(x[v]) for v in obs}
        want = closed_form_marginal(stats, pool.variance_floor, evidence)
        assert log_density(pool, evidence) == pytest.approx(want, abs=1e-9)
        assert pool.compiled.leaves[0].table_ichol is None
    # One call of many patterns answers each row and keeps nothing.
    X = np.tile(x, (5, 1))
    for i in range(5):
        X[i, rng.permutation(k)[:i + 1]] = np.nan
    got = pool.compiled.eval_rows(X, partial=True)[0]
    for row, value in zip(X, got):
        evidence = {v: float(row[v]) for v in np.flatnonzero(~np.isnan(row))}
        assert value == pytest.approx(closed_form_marginal(stats, pool.variance_floor, evidence),
                                      abs=1e-9)
    assert pool.compiled.leaves[0].table_ichol is None
    # A table that just fits its budget keeps every pattern; one byte less
    # keeps none and reads the same bits.
    small = wide_leaf_pool(rng, 4)
    X = np.tile(rng.normal(size=4), (16, 1))
    X[(np.arange(16)[:, None] >> np.arange(4) & 1) == 1] = np.nan
    need = 2 ** 4 * 8 * (4 * 4 + 1)
    reads = []
    for budget in (need, need - 1):
        monkeypatch.setattr(kernels, "_PATTERN_BYTES", budget)
        net = fresh_net(small)
        reads.append(net.eval_rows(X, partial=True))
        g = net.leaves[0]
        kept = 0 if g.table_ichol is None else g.table_ichol.nbytes + g.table_const.nbytes
        assert kept == (need if budget == need else 0)
    assert reads[0].tobytes() == reads[1].tobytes()


def blocks_mixture(rng, components: int = 3) -> NodePool:
    """A sum of products over 9 variables, each product with one leaf over
    each of the blocks {0, 1}, {2, 3, 4} and {5, 6, 7, 8}: three leaf groups
    of k = 2, 3 and 4 with ``components`` leaves each."""
    pool = NodePool(dim=9)
    blocks = [(0, 1), (2, 3, 4), (5, 6, 7, 8)]
    kids, counts = [], []
    for _ in range(components):
        leaves = []
        for block in blocks:
            a = rng.normal(size=(len(block), len(block)))
            leaves.append(pool.add(leaf(block, rng.normal(size=len(block)),
                                        a @ a.T / len(block) + 0.5 * np.eye(len(block)), 5.0)))
        kids.append(pool.add(ProductNode(make_scope(range(9)), leaves,
                                         GaussianStats.zeros(9, count=1.0))))
        counts.append(float(rng.integers(1, 9)))
    pool.root = pool.add(SumNode(make_scope(range(9)), kids, counts))
    return pool


def test_partial_rows_mix_observed_partial_and_unobserved_pairs_in_each_group():
    rng = np.random.default_rng(179)
    pool = blocks_mixture(rng)
    net = fresh_net(pool)
    assert sorted(g.k for g in net.leaves) == [2, 3, 4]
    x = rng.normal(size=(6, 9))
    X = x.copy()
    hidden = [[], [0, 1, 2, 5], [1, 2, 3, 4, 8], [0, 5, 6, 7, 8], [0, 1, 2, 3, 4, 5, 6, 7, 8],
              [1, 3, 6, 7]]
    for row, hide in zip(X, hidden):
        row[hide] = np.nan
    got = net.eval_rows(X, partial=True)
    # Every group sees all three kinds of pair in this one call.
    for g in net.leaves:
        seen = np.isnan(X[:, g.cols[0]]).sum(axis=1)
        assert {0, g.k} < set(seen.tolist()), g.k
    for nid, node in pool.nodes.items():
        if not isinstance(node, LeafNode):
            continue
        for r, row in enumerate(X):
            evidence = {j: float(row[v]) for j, v in enumerate(node.scope) if not np.isnan(row[v])}
            want = (closed_form_marginal(node.stats, pool.variance_floor, evidence)
                    if evidence else 0.0)
            assert got[net.index[nid], r] == pytest.approx(want, abs=1e-9), (node.scope, r)
    components = expand_mixture(pool)
    root = got[net.index[pool.root]]
    for r, row in enumerate(X):
        evidence = {v: float(row[v]) for v in np.flatnonzero(~np.isnan(row))}
        assert root[r] == pytest.approx(oracle_log_density(pool, evidence, components), abs=1e-9)
    # Complete rows read the leaves' own factors.
    complete = net.eval_rows(x[:3], partial=True)
    np.testing.assert_allclose(complete, net.eval_rows(x[:3]), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got[:, 0], net.eval_rows(x[:1])[:, 0], rtol=0.0, atol=1e-12)
    # Nothing observed anywhere: every leaf contributes exactly 0.
    empty = net.eval_rows(np.full((2, 9), np.nan), partial=True)
    for g in net.leaves:
        assert not empty[g.nodes].any()


def test_restricted_factors_are_lower_triangular_cholesky_inverses():
    rng = np.random.default_rng(191)
    pool = blocks_mixture(rng)
    net = fresh_net(pool)
    g = next(g for g in net.leaves if g.k == 4)
    k, m = g.k, g.nodes.size
    X = rng.normal(size=(1, 9))
    X[0, g.cols[0][1]] = np.nan
    net.eval_rows(X, partial=True)
    assert g.table_ichol.shape == (2 ** k * m, k, k) and g.table_const.shape == (2 ** k * m,)
    # Pattern 0 is the leaves' own factor, pattern 2^k - 1 a zero one.
    assert g.table_ichol[:m].tobytes() == g.ichol.tobytes()
    assert g.table_const[:m].tobytes() == g.const.tobytes()
    assert not g.table_ichol[-m:].any() and not g.table_const[-m:].any()
    log_2pi = math.log(2.0 * math.pi)
    for code in range(1, 2 ** k - 1):
        obs = (code >> np.arange(k) & 1) == 0
        for j in range(m):
            ichol = g.table_ichol[code * m + j]
            assert not np.triu(ichol, 1).any()
            chol = np.linalg.cholesky(g.cov[j][np.ix_(obs, obs)])
            np.testing.assert_allclose(ichol[np.ix_(obs, obs)], np.linalg.inv(chol),
                                       rtol=0.0, atol=1e-12)
            want = -0.5 * obs.sum() * log_2pi - np.log(np.diag(chol)).sum()
            assert g.table_const[code * m + j] == pytest.approx(want, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.sampled_from([0.0, 1e-9, 1e-4, 0.3]),
       st.integers(0, 2**32 - 1), st.data())
def test_one_observed_table_entries_are_the_bits_of_restricted_factors(k, m, floor, seed, data):
    # Each variable's scale is drawn apart, so one covariance spans up to 16
    # decades: variances from 1e-8 to 1e8 before the floor.
    scales = 10.0 ** np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=m * k,
                                                 max_size=m * k))).reshape(m, k)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k, k))
    covs = (a @ a.transpose(0, 2, 1) / k + 0.1 * np.eye(k)) * scales[:, :, None] * scales[:, None]
    pool = NodePool(dim=k)
    kids = [pool.add(leaf(range(k), np.zeros(k), np.eye(k))) for _ in range(m)]
    pool.root = kids[0] if m == 1 else pool.add(SumNode(make_scope(range(k)), kids, [1.0] * m))
    g = fresh_net(pool).leaves[0]
    # A refresh with this floor, as LeafGroup.refresh writes it.
    g.cov[:], g.chol[:], g.ichol[:], g.const[:] = kernels.factors(covs, floor)
    g.table_ichol = g.table_const = None
    kernels._pair_factors(g, np.zeros((1, m, k), dtype=bool))
    codes = np.arange(1, 2 ** k - 1)
    masks = (codes[:, None] >> np.arange(k) & 1).astype(bool)
    ichol, const = kernels._restricted(g.cov, masks[:, None])
    table_ichol = g.table_ichol.reshape(2 ** k, m, k, k)[1:-1]
    table_const = g.table_const.reshape(2 ** k, m)[1:-1]
    one = masks.sum(axis=1) == k - 1
    assert one.sum() == k
    # A LAPACK zero may carry a sign, so the factors compare by value.
    assert np.array_equal(table_ichol, ichol)
    assert table_const.tobytes() == const.tobytes()
    assert not np.triu(table_ichol[one], 1).any() and not np.tril(table_ichol[one], -1).any()


def test_a_pair_group_fills_its_table_without_linalg(monkeypatch):
    pool = NodePool(dim=3)
    kids = [pool.add(ProductNode(make_scope(range(3)), [
        pool.add(leaf([0, 1], [float(i), -1.0], [[2.0 + i, 0.8], [0.8, 1.0]], 4.0)),
        pool.add(leaf([2], [0.5 * i], [[1.0 + i]], 4.0))], GaussianStats.zeros(3, count=1.0)))
        for i in range(3)]
    pool.root = pool.add(SumNode(make_scope(range(3)), kids, [1.0, 2.0, 3.0]))
    pairs = [n for n in pool.nodes.values() if isinstance(n, LeafNode) and len(n.scope) == 2]
    evidence = [{0: 0.5, 2: 0.1}, {1: -0.3}, {0: 0.2, 1: 0.4}]
    # The reference: every pair factored per call, by LAPACK.
    with mock.patch.object(kernels, "_PATTERN_BYTES", 0):
        want = [log_density(copy.deepcopy(pool), e) for e in evidence]

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for _ in range(2):
        log_density_rows(pool, np.zeros((1, 3)))  # refreshed, with LAPACK
        g = next(g for g in pool.compiled.leaves if g.k == 2)
        assert g.table_ichol is None
        with monkeypatch.context() as patch:
            for name in dir(np.linalg):
                if callable(getattr(np.linalg, name)) and not name[0].isupper():
                    patch.setattr(np.linalg, name, refused)
            got = [log_density(pool, e) for e in evidence]
        assert g.table_ichol is not None
        assert got == want
        # A write empties the table for the next first read.
        pairs[0].stats = GaussianStats(pairs[0].stats.mean + 0.0, pairs[0].stats.cov, 4.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.data())
def test_a_group_over_its_budget_reads_the_bits_of_its_pattern_table(seed, components, data):
    rng = np.random.default_rng(seed)
    pool = blocks_mixture(rng, components)
    rows = data.draw(st.integers(1, 5))
    X = rng.normal(size=(rows, 9))
    # Each (row, leaf) pair fully observed, partly observed or unobserved.
    X[np.array(data.draw(st.lists(st.booleans(), min_size=9 * rows, max_size=9 * rows)))
      .reshape(rows, 9)] = np.nan
    table_net, pair_net = fresh_net(pool), fresh_net(pool)
    # The budget is read at every partial read.
    with mock.patch.object(kernels, "_PATTERN_BYTES", 0):
        per_pair = pair_net.eval_rows(X, partial=True)
        pairs = [kernels._pair_factors(g, np.isnan(X[:, g.cols])) for g in pair_net.leaves]
    assert table_net.eval_rows(X, partial=True).tobytes() == per_pair.tobytes()
    assert all(g.table_ichol is None for g in pair_net.leaves)
    for g, (ichol, const) in zip(pair_net.leaves, pairs):
        hidden = np.isnan(X[:, g.cols]).sum(axis=-1)
        for r, j in zip(*np.nonzero(hidden == 0)):
            assert ichol[r, j].tobytes() == g.ichol[j].tobytes()
            assert const[r, j].tobytes() == g.const[j].tobytes()
        assert not ichol[hidden == g.k].any() and not const[hidden == g.k].any()


def test_a_read_after_a_read_does_not_recompute_the_weights(monkeypatch):
    rng = np.random.default_rng(181)
    pool = blocks_mixture(rng)
    calls = []
    real_log_weights = kernels.log_weights

    def log_weights(counts, mode):
        calls.append(mode)
        return real_log_weights(counts, mode)

    monkeypatch.setattr(kernels, "log_weights", log_weights)
    evidence = {0: 0.3, 4: -0.2, 6: 1.1}
    first = log_density(pool, evidence)
    assert calls == ["laplace"]  # the first read weighs the new net
    assert [log_density(pool, evidence) for _ in range(3)] == [first] * 3
    sample(pool, rng, size=4)
    analytic_mean(pool)
    assert calls == ["laplace"]

    def fresh_read() -> float:
        fresh = copy.deepcopy(pool)
        fresh.compiled = None
        return log_density(fresh, evidence)

    # An assigned child count shows at the next read, also when the
    # assignment leaves the sum's own count as it was.
    root = pool.node(pool.root)
    counts = list(root.child_counts)
    moved = min(counts[0], 1.0)
    counts[0] -= moved
    counts[1] += moved
    root.child_counts = counts
    shifted = log_density(pool, evidence)
    assert calls == ["laplace"] * 2 and shifted != first
    assert shifted == fresh_read()
    counts[1] += 7.0
    root.child_counts = counts
    edited = log_density(pool, evidence)
    assert calls[-1] == "laplace" and edited != shifted
    assert edited == fresh_read()
    # So does a new weight mode.
    pool.weight_mode = "mle"
    mle = log_density(pool, evidence)
    assert calls[-1] == "mle" and mle != edited
    assert mle == fresh_read()
    del calls[:]
    log_density(pool, evidence)
    assert calls == []


def test_a_read_after_a_read_refreshes_no_leaf_group(monkeypatch):
    rng = np.random.default_rng(191)
    pool = blocks_mixture(rng)
    evidence = {0: 0.3, 4: -0.2, 6: 1.1}
    first = log_density(pool, evidence)
    calls = []
    real_refresh = kernels.LeafGroup.refresh

    def refresh(group, floor):
        calls.append(group.k)
        return real_refresh(group, floor)

    monkeypatch.setattr(kernels.LeafGroup, "refresh", refresh)
    assert log_density(pool, evidence) == first
    conditional_log_density(pool, {1: 0.5}, evidence)
    log_density_rows(pool, rng.normal(size=(3, 9)))
    sample(pool, rng, size=4)
    assert calls == []
    # A write moves the store's count of writes, so the next read looks at
    # every group again (and re-factors the groups of the written widths).
    learn_batch(pool, rng.normal(size=(2, 9)), LearnerConfig(), rng, structure_frozen=True)
    log_density(pool, evidence)
    assert sorted(calls) == [2, 3, 4]


def _assign_stats(pool):
    multi = next(n for n in pool.nodes.values() if isinstance(n, LeafNode) and len(n.scope) > 2)
    multi.stats = GaussianStats(multi.stats.mean + 0.4, 1.3 * multi.stats.cov, multi.stats.count)


def _move_a_child_count(pool):
    # The sum's own count stays as it was.
    counts = list(pool.node(pool.root).child_counts)
    counts[0], counts[1] = counts[0] + 2.0, counts[1] - 1.0
    counts[2] -= 1.0
    pool.node(pool.root).child_counts = counts


def _new_variance_floor(pool):
    pool.variance_floor = 3e-2


def _reorder_children_and_bump(pool):
    pool.node(pool.root).children.reverse()  # the counts stay where they were
    pool.bump()


@pytest.mark.parametrize("edit", [_assign_stats, _move_a_child_count, _new_variance_floor,
                                  _reorder_children_and_bump],
                         ids=["node-stats", "child-counts", "variance-floor", "bump"])
def test_an_edit_after_reads_shows_in_the_next_read_bit_for_bit(edit):
    rng = np.random.default_rng(193)
    pool = blocks_mixture(rng)
    assert len(set(pool.node(pool.root).child_counts)) == 3
    evidence = {0: 0.3, 4: -0.2, 6: 1.1}
    X = rng.normal(size=(4, 9))
    X[1, [0, 3, 5]] = X[2, :5] = X[3, 1:] = np.nan
    before = [log_density(pool, evidence) for _ in range(2)]  # a warm net, then a read after a read
    assert before[0] == before[1]
    edit(pool)
    got = log_density(pool, evidence)  # the next read
    fresh = fresh_net(pool)
    row = np.full((1, 9), np.nan)
    row[0, list(evidence)] = list(evidence.values())
    assert got != before[0]
    assert got == fresh.eval_rows(row, partial=True)[fresh.index[pool.root], 0]
    net = pool.compiled
    assert net.order == fresh.order
    for partial in (False, True):
        Y = X if partial else np.nan_to_num(X)
        assert net.eval_rows(Y, partial).tobytes() == fresh.eval_rows(Y, partial).tobytes()


def test_in_place_stats_write_raises_and_changes_nothing():
    rng = np.random.default_rng(157)
    pool = random_pool(rng, dim=4, max_sums=3, max_leaf_vars=3)
    evidence = {0: 0.3, 2: -0.5}
    before = (log_density(pool, evidence), analytic_mean(pool).tolist())
    first = next(n for n in pool.nodes.values() if isinstance(n, LeafNode))
    width, i = first.slot
    held = (width.mean[i].tobytes(), width.cov[i].tobytes(), width.count[i], width.writes)
    stats = first.stats
    with pytest.raises(ValueError, match="read-only"):
        stats.mean += 0.8
    with pytest.raises(ValueError, match="read-only"):
        stats.cov *= 1.5
    with pytest.raises(ValueError, match="read-only"):
        first.stats.cov[0, 0] = 2.0
    assert (width.mean[i].tobytes(), width.cov[i].tobytes(), width.count[i],
            width.writes) == held
    assert (log_density(pool, evidence), analytic_mean(pool).tolist()) == before
    fresh = copy.deepcopy(pool)
    fresh.compiled = None
    assert (log_density(fresh, evidence), analytic_mean(fresh).tolist()) == before


@pytest.mark.parametrize("mode", ["laplace", "mle"])
def test_sum_edge_weights_match_derived_weights_bit_for_bit(mode):
    rng = np.random.default_rng(31)
    zero_edges = 0
    for _ in range(25):
        pool = random_pool(rng, int(rng.integers(1, 7)), weight_mode=mode)
        for node in pool.nodes.values():  # counts that are not whole, some of them zero
            if isinstance(node, SumNode):
                drawn = [c * float(rng.uniform(0.1, 3.0)) * float(rng.random() < 0.8)
                         for c in node.child_counts]
                if any(drawn):  # a sum's count is its child counts' sum; mle needs it positive
                    node.child_counts = drawn
        net = fresh_net(pool)
        seen = []  # the sums, group after group
        for g in net.groups:
            for j, i in enumerate(g.nodes.tolist() if g.is_sum else []):
                node = pool.node(net.order[i])
                with np.errstate(divide="ignore"):
                    want = np.log(derived_weights(node, mode))
                got = np.ascontiguousarray(g.logw[:, j])
                assert got.tobytes() == want.tobytes()
                zero_edges += int(np.count_nonzero(got == -np.inf))
                seen.append(net.order[i])
        assert seen == [net.order[i] for g in net.sums for i in g.nodes.tolist()]
        assert sorted(seen) == sorted(nid for nid in net.order
                                      if isinstance(pool.node(nid), SumNode))
    assert (zero_edges > 0) == (mode == "mle")
