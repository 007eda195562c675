"""End-to-end guarantees of the package, run at full scale.

Each test here states one promise the library makes: parameter updates
only raise the likelihood of the point they absorb, running statistics
are exact, streaming structure edits never break validity, inference
matches a brute-force mixture expansion, the synthetic benchmark stream
is recovered, held-out likelihood approaches the truth, the knobs move
model size in the documented direction, early structure freezing trades
size for little accuracy, sampling is consistent with inference, and
everything is reproducible byte for byte.

These are heavier than the unit suites but each stays within an explicit
wall-clock budget on commodity hardware.
"""

import time

import numpy as np
import pytest

from helpers import expand_mixture, oracle_log_density, oracle_mean, population_stats, random_pool
from spnstream.evaluate import conditional_log_density, log_density, log_density_rows, sample
from spnstream.gstats import GaussianStats
from spnstream.learner import EvalCache, LearnerConfig, fit, init_factored_pool, learn_batch
from spnstream.model_io import load_model, save_model
from spnstream.nodes import LeafNode, SumNode, validate
from spnstream import toy


def test_updates_never_decrease_likelihood_of_the_absorbed_point():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    config = LearnerConfig()
    pairs = 0
    for _ in range(250):
        pool = random_pool(rng, dim=int(rng.integers(1, 7)), weight_mode="mle")
        for _ in range(4):
            point = rng.normal(0.0, 3.0, size=pool.dim)
            before = log_density_rows(pool, point[None, :])[0]
            learn_batch(pool, point[None, :], config, rng, structure_frozen=True)
            after = log_density_rows(pool, point[None, :])[0]
            assert after >= before - 1e-9
            pairs += 1
    assert pairs == 1000
    assert time.perf_counter() - start < 60.0


def test_running_statistics_match_batch_recomputation():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(1, 17))
        n = int(rng.integers(2, 10_001))
        scale = rng.uniform(0.5, 4.0, size=k)
        data = rng.normal(rng.normal(0.0, 5.0, size=k), scale, size=(n, k))
        stats = GaussianStats.zeros(k)
        pos = 0
        while pos < n:
            step = int(rng.integers(1, n - pos + 1))
            stats = stats.update(data[pos:pos + step])
            pos += step
        mean, cov = population_stats(data)
        assert stats.count == n
        assert np.allclose(stats.mean, mean, rtol=1e-9, atol=1e-9)
        assert np.allclose(stats.cov, cov, rtol=1e-9, atol=1e-9)
    assert time.perf_counter() - start < 60.0


def test_streaming_updates_preserve_validity_across_randomized_runs():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for run in range(500):
        d = int(rng.integers(1, 11))
        config = LearnerConfig(
            correlation_threshold=float(rng.uniform(0.02, 0.9)),
            max_leaf_vars=int(rng.integers(1, 5)),
            batch_size=int(rng.integers(1, 33)),
            weight_mode="mle" if rng.random() < 0.5 else "laplace",
            significance_z=float(rng.uniform(0.0, 5.0)),
            seed=run,
        )
        # Correlated stream so structure changes actually fire.
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.2 * np.eye(d)
        data = rng.multivariate_normal(rng.normal(0.0, 2.0, size=d), cov,
                                       size=int(rng.integers(40, 320)))
        pool = init_factored_pool(d, config.weight_mode, config.variance_floor)
        update_rng = np.random.default_rng(config.seed)
        cache = EvalCache()
        for lo in range(0, data.shape[0], config.batch_size):
            learn_batch(pool, data[lo:lo + config.batch_size], config,
                        update_rng, cache=cache)
            report = validate(pool)
            assert report.ok, f"run {run} after row {lo}: {report}"
    assert time.perf_counter() - start < 300.0


def test_densities_and_conditionals_match_the_mixture_expansion():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        pool = random_pool(rng, dim=dim, max_sums=8,
                           weight_mode="mle" if rng.random() < 0.5 else "laplace")
        full = {v: float(rng.normal(0.0, 3.0)) for v in range(dim)}
        assert log_density(pool, full) == pytest.approx(
            oracle_log_density(pool, full), abs=1e-9)

        kept = sorted(rng.choice(dim, size=int(rng.integers(1, dim + 1)),
                                 replace=False).tolist())
        partial = {v: full[v] for v in kept}
        assert log_density(pool, partial) == pytest.approx(
            oracle_log_density(pool, partial), abs=1e-9)

        if len(kept) >= 2:
            split = int(rng.integers(1, len(kept)))
            query = {v: full[v] for v in kept[:split]}
            given = {v: full[v] for v in kept[split:]}
            want = oracle_log_density(pool, partial) - oracle_log_density(pool, given)
            assert conditional_log_density(pool, query, given) == pytest.approx(
                want, abs=1e-9)


def _components_over_first_two(pool) -> int:
    best = 1
    for node in pool.nodes.values():
        if isinstance(node, SumNode) and set(node.scope) == {0, 1}:
            best = max(best, len(node.children))
    return best


def _third_variable_mixed_in(pool) -> bool:
    for node in pool.nodes.values():
        s = set(node.scope)
        if 2 in s and (0 in s or 1 in s) and len(s) < 3:
            return True
        if isinstance(node, LeafNode) and 2 in s and len(s) > 1:
            return True
    return False


def test_toy_stream_isolates_x3_and_grows_components_over_x1_x2():
    start = time.perf_counter()
    kept_x3_clean = 0
    found_mixture = 0
    kept_growing = 0
    n_seeds = 100
    for seed in range(n_seeds):
        data = toy.generate(500, np.random.default_rng(1000 + seed))
        config = LearnerConfig(max_leaf_vars=1, seed=seed)
        pool = init_factored_pool(3, config.weight_mode, config.variance_floor)
        rng = np.random.default_rng(config.seed)
        cache = EvalCache()
        contaminated = False
        at_200 = 1
        for i in range(500):
            learn_batch(pool, data[i:i + 1], config, rng, cache=cache)
            if _third_variable_mixed_in(pool):
                contaminated = True
            if i == 199:
                at_200 = _components_over_first_two(pool)
        at_500 = _components_over_first_two(pool)
        if not contaminated:
            kept_x3_clean += 1
        if at_500 >= 2:
            found_mixture += 1
        if at_500 > at_200:
            kept_growing += 1
    assert kept_x3_clean >= 95, f"x3 stayed independent in only {kept_x3_clean}/100"
    assert found_mixture >= 95, f"multiple components in only {found_mixture}/100"
    assert kept_growing >= 90, f"components grew 200->500 in only {kept_growing}/100"
    assert time.perf_counter() - start < 120.0


def test_cross_validated_likelihood_approaches_the_generating_density():
    start = time.perf_counter()
    data = toy.generate(100_000, np.random.default_rng(7))
    config = LearnerConfig(batch_size=256, max_leaf_vars=1, seed=0)
    n = data.shape[0]
    folds = 10
    perm = np.random.default_rng(0).permutation(n)
    bounds = [round(i * n / folds) for i in range(folds + 1)]
    model_lls, true_lls = [], []
    for i in range(folds):
        test_idx = perm[bounds[i]:bounds[i + 1]]
        train_idx = np.concatenate([perm[:bounds[i]], perm[bounds[i + 1]:]])
        pool, _ = fit(data[train_idx], config)
        model_lls.append(float(log_density_rows(pool, data[test_idx]).mean()))
        true_lls.append(float(toy.true_log_density(data[test_idx]).mean()))
    gap = abs(float(np.mean(model_lls)) - float(np.mean(true_lls)))
    assert gap < 0.2, f"cv mean {np.mean(model_lls):.4f} vs true {np.mean(true_lls):.4f}"
    assert time.perf_counter() - start < 300.0


def test_stricter_settings_produce_smaller_networks():
    stream = toy.generate(500, np.random.default_rng(77))
    by_threshold = []
    for threshold in [0.05, 0.1, 0.3, 0.7]:
        pool, _ = fit(stream, LearnerConfig(correlation_threshold=threshold, seed=2))
        by_threshold.append(len(pool.nodes))
    assert all(a >= b for a, b in zip(by_threshold, by_threshold[1:])), by_threshold

    by_leaf_cap = []
    for cap in [1, 2, 3]:
        pool, _ = fit(stream, LearnerConfig(max_leaf_vars=cap, seed=2))
        by_leaf_cap.append(len(pool.nodes))
    assert all(a >= b for a, b in zip(by_leaf_cap, by_leaf_cap[1:])), by_leaf_cap


def test_early_structure_freeze_shrinks_the_model_at_similar_quality():
    for seed in [10, 3]:
        stream = toy.generate(2700, np.random.default_rng(500 + seed))
        test = toy.generate(4000, np.random.default_rng(9000 + seed))
        full, _ = fit(stream, LearnerConfig(max_leaf_vars=1, seed=seed,
                                            significance_z=3.0))
        frozen, _ = fit(stream, LearnerConfig(max_leaf_vars=1, seed=seed,
                                              significance_z=3.0,
                                              early_stop_fraction=1.0 / 9.0))
        assert len(frozen.nodes) < len(full.nodes)
        gap = abs(float(log_density_rows(full, test).mean())
                  - float(log_density_rows(frozen, test).mean()))
        assert gap < 0.5, f"seed {seed}: gap {gap:.3f}"


def test_sample_means_match_the_analytic_model_means():
    train = toy.generate(2000, np.random.default_rng(11))
    pool, _ = fit(train, LearnerConfig(max_leaf_vars=1, seed=0))
    mu = oracle_mean(pool)
    # Per-dimension second moment from the same expansion for the SE scale.
    second = np.zeros(pool.dim)
    norm = 0.0
    for lw, blocks in expand_mixture(pool):
        w = np.exp(lw)
        for vars_, mean, cov in blocks:
            for i, v in enumerate(vars_):
                second[v] += w * (cov[i, i] + mean[i] ** 2)
        norm += w
    var = second / norm - mu ** 2
    n = 100_000
    draws = sample(pool, np.random.default_rng(123), size=n)
    stderr = np.sqrt(var / n)
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 4.0 * stderr)


def test_identical_inputs_reproduce_models_byte_for_byte(tmp_path):
    data = toy.generate(800, np.random.default_rng(21))
    config = LearnerConfig(max_leaf_vars=1, seed=5)
    first, _ = fit(data, config)
    second, _ = fit(data, config)
    path_a = tmp_path / "a.spn"
    path_b = tmp_path / "b.spn"
    save_model(path_a, first, config=config)
    save_model(path_b, second, config=config)
    assert path_a.read_bytes() == path_b.read_bytes()

    loaded, _doc = load_model(path_a)
    points = toy.generate(100, np.random.default_rng(22))
    before = log_density_rows(first, points)
    after = log_density_rows(loaded, points)
    assert np.array_equal(before, after)
