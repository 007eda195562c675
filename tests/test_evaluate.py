"""Density evaluation, conditionals, and sampling against hand values and oracles."""

import copy
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

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
    subtree_log_density_rows,
)
from spnstream.gstats import GaussianStats
from spnstream.learner import LearnerConfig, init_factored_pool, learn_batch, make_mixture
from spnstream.nodes import LeafNode, NodePool, ProductNode, SumNode, make_scope, validate

from bench_eval import wide_mixture
from helpers import (expand_mixture, oracle_cov, oracle_log_density, oracle_log_density_rows,
                     oracle_mean, random_pool)

# log pdf of a standard normal at zero.
LOG_STD_NORMAL_AT_0 = -0.9189385332046727
# log(0.5 * pdf_N(0,1)(0) + 0.5 * pdf_N(4,1)(0)).
LOG_HALF_MIX_AT_0 = -1.611750307391722


def leaf(scope, mean, cov, count=1.0):
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    return LeafNode(make_scope(scope), GaussianStats(mean, cov, count), count)


def single_leaf_pool(mean=0.0, var=1.0, floor=1e-4):
    pool = NodePool(dim=1, variance_floor=floor)
    pool.root = pool.add(leaf([0], [mean], [[var - floor]]))
    return pool


def two_leaf_mixture(counts, mode="mle"):
    pool = NodePool(dim=1, weight_mode=mode)
    a = pool.add(leaf([0], [0.0], [[1.0 - pool.variance_floor]], counts[0]))
    b = pool.add(leaf([0], [4.0], [[1.0 - pool.variance_floor]], counts[1]))
    pool.root = pool.add(SumNode(make_scope([0]), [a, b], list(counts), float(sum(counts))))
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


def test_refresh_leaf_tracks_parameter_change():
    pool = two_leaf_mixture([3.0, 2.0])
    net = compile_pool(pool)
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
    net = compile_pool(pool)
    root = pool.node(pool.root)
    root.child_counts[0] += 10.0
    root.count += 10.0
    net.refresh_weights(pool)
    X = np.array([[0.0], [4.0]])
    assert np.allclose(
        net.eval_rows(X)[net.index[pool.root]], log_density_rows(pool, X), atol=1e-12
    )


def assert_kernels_agree(pool: NodePool, X: np.ndarray) -> None:
    """The runtime and level kernels against the un-jitted scalar loop and the graph walk.

    The scalar loop is the body numba compiles, so this also checks the numba
    kernel's logic where numba is not installed; the level kernel is called
    directly, so it is checked where numba is installed.
    """
    net = compile_pool(pool)
    got = net.eval_rows(X)
    assert got.shape == (len(net.order), X.shape[0])
    want = kernels._eval_flat_scalar(net.kind, net.child_ptr, net.child_idx, net.child_logw,
                                     net.leaf_ptr, net.leaf_vars, net.leaf_mean, net.mat_ptr,
                                     net.leaf_ichol, net.leaf_const, X, np.empty_like(got))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    plan = kernels.level_plan(net.kind, net.child_ptr, net.child_idx, net.leaf_ptr,
                              net.leaf_vars, net.mat_ptr)
    level = kernels.eval_flat_numpy(plan, net.child_logw, net.leaf_mean, net.leaf_ichol,
                                    net.leaf_const, X, np.empty_like(got))
    np.testing.assert_allclose(level, want, rtol=0.0, atol=1e-12)
    walk = subtree_log_density_rows(pool, pool.root, X)
    np.testing.assert_allclose(got[net.index[pool.root]], walk, rtol=0.0, atol=1e-12)


def deep_chain(heights: int) -> NodePool:
    """Products and sums alternating up ``heights`` levels.

    Above the leaf on variable 0, step i adds two products that join the node
    below (shared by both) with a leaf on variable i, and a sum over the two.
    """
    dim = heights // 2 + 1
    pool = NodePool(dim=dim)
    below = pool.add(leaf([0], [0.0], [[1.0]]))
    for i in range(1, dim):
        pair = []
        for mean in (-0.5, 0.5):
            right = pool.add(leaf([i], [mean], [[0.7]]))
            pair.append(pool.add(ProductNode(make_scope(range(i + 1)), [below, right], 1.0,
                                             GaussianStats.zeros(i + 1, 1.0))))
        below = pool.add(SumNode(make_scope(range(i + 1)), pair, [2.0, 3.0], 5.0))
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


def test_level_kernel_agrees_on_a_200_level_chain():
    pool = deep_chain(200)
    assert validate(pool).ok
    assert_kernels_agree(pool, np.random.default_rng(89).normal(size=(3, pool.dim)))


def test_level_kernel_agrees_with_a_zero_count_mle_child():
    pool = two_leaf_mixture([0.0, 3.0], mode="mle")
    assert np.isneginf(compile_pool(pool).child_logw).sum() == 1
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


def test_numba_branch_needs_no_plan(monkeypatch):
    # Stand the un-jitted scalar loop in for numba: compile_pool then builds
    # no level plan, and eval_rows runs the scalar kernel.
    monkeypatch.setattr(kernels, "NUMBA_ENABLED", True)
    monkeypatch.setattr(kernels, "eval_flat_numba", kernels._eval_flat_scalar)
    rng = np.random.default_rng(107)
    pool = random_pool(rng, dim=5, max_leaf_vars=4)
    net = compile_pool(pool)
    assert net.plan is None
    X = rng.normal(size=(4, 5))
    np.testing.assert_allclose(net.eval_rows(X)[net.index[pool.root]],
                               subtree_log_density_rows(pool, pool.root, X), rtol=0.0, atol=1e-12)


def test_univariate_refresh_matches_leaf_factor_to_one_ulp():
    floor = 1e-4
    variances = [0.0, floor, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.7, 1e10, 3.3e10]
    for var in variances:
        pool = single_leaf_pool(mean=1.5, var=var + floor, floor=floor)
        net = compile_pool(pool)
        mean, ichol, const = _leaf_factor(pool.node(pool.root).stats, floor)
        for got, want in ((net.leaf_mean[0], mean[0]), (net.leaf_ichol[0], ichol[0, 0]),
                          (net.leaf_const[0], const)):
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
    pool.root = pool.add(SumNode(make_scope([0]), [a, b], [7.0, 0.0], 7.0))
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


def test_sample_mean_on_a_leaf_shared_by_two_products():
    # The x0 leaf has two product parents under the root sum, so it is
    # reached by the rows of both mixture components.
    pool = NodePool(dim=2)
    shared = pool.add(leaf([0], [1.5], [[0.5]], 30.0))
    low = pool.add(leaf([1], [-2.0], [[0.3]], 10.0))
    high = pool.add(leaf([1], [3.0], [[0.8]], 20.0))
    scope = make_scope([0, 1])
    left = pool.add(ProductNode(scope, [shared, low], 10.0, GaussianStats.zeros(2, 10.0)))
    right = pool.add(ProductNode(scope, [shared, high], 20.0, GaussianStats.zeros(2, 20.0)))
    pool.root = pool.add(SumNode(scope, [left, right], [10.0, 20.0], 30.0))
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
        kids.append(pool.add(ProductNode(scope, [pair, triple], count,
                                         GaussianStats.zeros(5, count))))
    pool.root = pool.add(SumNode(scope, kids, [30.0, 70.0], 100.0))
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
            sums.append(pool.add(SumNode(make_scope([v]), kids, [0.0, 0.1, 0.2, 0.0], 0.3)))
        pool.root = sums[0] if n_sums == 1 else pool.add(
            ProductNode(make_scope(range(n_sums)), sums, 0.3, GaussianStats.zeros(n_sums, 0.3)))
        assert validate(pool).ok
        for u, want in ((0.0, -1.0), (0.25, -1.0), (np.nextafter(1.0, 0.0), 2.0)):
            draws = sample(pool, ConstantRng(u), size=64)
            assert np.array_equal(draws, np.full((64, n_sums), want)), (n_sums, u)


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
        kids.append(pool.add(ProductNode(scope, [a, b], 4.0, GaussianStats.zeros(3, 4.0))))
    pool.root = pool.add(SumNode(scope, kids, [0.0, 4.0], 4.0))
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
    alt = pool.add(ProductNode(scope, leaves, 10.0, GaussianStats.zeros(4, 10.0)))
    pool.root = pool.add(SumNode(scope, [pool.root, alt], [30.0, 10.0], 40.0))
    return pool


def test_read_queries_follow_every_kind_of_edit():
    rng = np.random.default_rng(127)
    pool = two_rooted_pool(rng)
    X = rng.normal(size=(5, 4))
    evidence, query = {0: 0.3, 2: -1.1}, {1: 0.8}

    def answers(p):
        return (log_density(p, evidence), conditional_log_density(p, query, evidence),
                log_density_rows(p, X).tolist(), analytic_mean(p).tolist(),
                sample(p, np.random.default_rng(5), size=3).tolist())

    def check():
        # The pool's answer comes from the net cached before the edit; the
        # copy's evicts it and is compiled afresh, so the pool is queried
        # once more to cache its net for the next edit.
        got = answers(pool)
        assert got == answers(copy.deepcopy(pool))
        answers(pool)
        return got

    seen = [check()]
    cfg = LearnerConfig(weight_mode=pool.weight_mode)
    learn_batch(pool, rng.normal(size=(8, 4)), cfg, rng, structure_frozen=True)
    seen.append(check())
    root = pool.node(pool.root)
    root.child_counts[1] += 25.0
    root.count += 25.0
    seen.append(check())
    first = next(n for n in pool.nodes.values() if isinstance(n, LeafNode))
    first.stats = GaussianStats(first.stats.mean + 0.7, 1.3 * first.stats.cov, first.stats.count)
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


def test_sample_and_mean_on_a_cached_net_factor_only_replaced_leaves(monkeypatch):
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
        stacks.append(covs.shape[0])
        return real_factors(covs, floor)

    real_factors = evaluate._factors
    for name in ("topological_order", "_leaf_factor", "compile_pool"):
        monkeypatch.setattr(evaluate, name, counted(getattr(evaluate, name)))
    monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky))
    monkeypatch.setattr(evaluate, "_factors", factors)
    sample(pool, rng, size=40)
    analytic_mean(pool)
    log_density_rows(pool, rng.normal(size=(3, 8)))
    assert calls == [] and stacks == []
    multi[0].stats = GaussianStats(multi[0].stats.mean + 1.0, multi[0].stats.cov, 3.0)
    sample(pool, rng, size=40)
    assert stacks == [1]
    pool.variance_floor = 2e-4
    analytic_mean(pool)
    assert sum(stacks[1:]) == len(multi)
    assert "topological_order" not in calls and "compile_pool" not in calls


def test_in_place_stats_write_shows_after_bump():
    rng = np.random.default_rng(157)
    pool = random_pool(rng, dim=4, max_sums=3, max_leaf_vars=3)
    evidence = {0: 0.3, 2: -0.5}
    before = (log_density(pool, evidence), analytic_mean(pool).tolist())
    first = next(n for n in pool.nodes.values() if isinstance(n, LeafNode))
    first.stats.mean += 0.8
    first.stats.cov *= 1.5
    pool.bump()
    after = (log_density(pool, evidence), analytic_mean(pool).tolist())
    fresh = copy.deepcopy(pool)
    assert after == (log_density(fresh, evidence), analytic_mean(fresh).tolist())
    assert after != before


def test_partial_evidence_runs_the_level_kernel_where_numba_is_installed(monkeypatch):
    monkeypatch.setattr(kernels, "NUMBA_ENABLED", True)
    monkeypatch.setattr(kernels, "eval_flat_numba", kernels._eval_flat_scalar)
    rng = np.random.default_rng(139)
    pool = random_pool(rng, dim=5, max_sums=3, max_leaf_vars=4)
    evidence = {0: 0.4, 2: -0.3, 3: 1.2}
    assert log_density(pool, evidence) == pytest.approx(oracle_log_density(pool, evidence),
                                                        abs=1e-9)
    X = rng.normal(size=(4, 5))
    np.testing.assert_allclose(log_density_rows(pool, X), oracle_log_density_rows(pool, X),
                               rtol=0.0, atol=1e-9)
