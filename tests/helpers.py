"""Shared test utilities: random valid pools and brute-force oracles.

The oracles deliberately share no code with the library's evaluation path.
Densities come from expanding the network into an explicit Gaussian
mixture over the induced sum-branch combinations and evaluating it with
scipy, or from a scalar loop over a compiled net's flat arrays; statistics
come from recomputing over the concatenated raw data.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from spnstream.gstats import GaussianStats
from spnstream.kernels import KIND_LEAF, KIND_PRODUCT
from spnstream.nodes import (LeafNode, NodePool, ProductNode, SumNode,
                             derived_weights, make_scope)


def healthy_stats(rng: np.random.Generator, k: int, count=None) -> GaussianStats:
    """Random statistics with well-conditioned covariance."""
    mean = rng.normal(0.0, 2.0, size=k)
    a = rng.normal(size=(k, k))
    cov = a @ a.T / k + 0.3 * np.eye(k)
    if count is None:
        count = float(rng.integers(5, 400))
    return GaussianStats(mean, cov, float(count))


def random_pool(rng: np.random.Generator, dim: int, max_sums: int = 6,
                weight_mode: str = "laplace", variance_floor: float = 1e-4,
                max_leaf_vars: int = 3) -> NodePool:
    """Random valid network over ``dim`` variables.

    Sum nodes have 2-3 same-scope children with positive integer counts
    summing to the node count, products partition their scope, and leaves
    over at most ``max_leaf_vars`` variables carry well-conditioned
    covariances, so the result passes validation in either weight mode.
    """
    pool = NodePool(dim, weight_mode=weight_mode, variance_floor=variance_floor)
    budget = {"sums": max_sums}

    def build(scope: tuple, depth: int) -> int:
        k = len(scope)
        can_sum = budget["sums"] > 0 and depth < 4
        if k == 1:
            kind = "sum" if can_sum and rng.random() < 0.25 else "leaf"
        elif k <= max_leaf_vars and rng.random() < 0.35:
            kind = "leaf"
        elif can_sum and rng.random() < 0.45:
            kind = "sum"
        else:
            kind = "product"
        if kind == "leaf":
            return pool.add(LeafNode(scope=scope, stats=healthy_stats(rng, k),
                                     count=float(rng.integers(1, 300))))
        if kind == "sum":
            budget["sums"] -= 1
            n_children = int(rng.integers(2, 4))
            children = [build(scope, depth + 1) for _ in range(n_children)]
            counts = [float(rng.integers(1, 50)) for _ in children]
            return pool.add(SumNode(scope=scope, children=children,
                                    child_counts=counts, count=sum(counts)))
        parts = max(2, min(k, int(rng.integers(2, 4))))
        assignment = rng.integers(0, parts, size=k)
        # guarantee no empty part
        for p in range(parts):
            if not np.any(assignment == p):
                assignment[rng.integers(0, k)] = p
        groups = {}
        for v, p in zip(scope, assignment):
            groups.setdefault(int(p), []).append(v)
        children = [build(make_scope(g), depth + 1) for g in groups.values()]
        return pool.add(ProductNode(scope=scope, children=children,
                                    count=float(rng.integers(1, 300)),
                                    stats=healthy_stats(rng, k)))

    pool.root = build(make_scope(range(dim)), 0)
    return pool


# ----------------------------------------------------------------------
# Scalar oracle of the compiled net's kernel
# ----------------------------------------------------------------------

def scalar_eval_rows(net, X: np.ndarray) -> np.ndarray:
    """Per-node log-densities (n_nodes, n_rows) of a ``CompiledNet`` at
    complete rows, one node and one row at a time over its flat arrays.

    The oracle of the level kernel: it reads the same arrays but writes out
    each leaf's quadratic form and each sum's log-sum-exp, so the two agree
    to rounding.
    """
    kind, child_ptr, child_idx, child_logw = net.kind, net.child_ptr, net.child_idx, net.child_logw
    leaf_ptr, leaf_vars, leaf_mean = net.leaf_ptr, net.leaf_vars, net.leaf_mean
    mat_ptr, leaf_ichol, leaf_const = net.mat_ptr, net.leaf_ichol, net.leaf_const
    n_nodes = kind.shape[0]
    n_rows = X.shape[0]
    out = np.empty((n_nodes, n_rows))
    for i in range(n_nodes):
        if kind[i] == KIND_LEAF:
            lo = leaf_ptr[i]
            k = leaf_ptr[i + 1] - lo
            mp = mat_ptr[i]
            for p in range(n_rows):
                q = 0.0
                for r in range(k):
                    acc = 0.0
                    for c in range(r + 1):
                        dev = X[p, leaf_vars[lo + c]] - leaf_mean[lo + c]
                        acc += leaf_ichol[mp + r * k + c] * dev
                    q += acc * acc
                out[i, p] = leaf_const[i] - 0.5 * q
        elif kind[i] == KIND_PRODUCT:
            lo, hi = child_ptr[i], child_ptr[i + 1]
            for p in range(n_rows):
                acc = 0.0
                for e in range(lo, hi):
                    acc += out[child_idx[e], p]
                out[i, p] = acc
        else:
            lo, hi = child_ptr[i], child_ptr[i + 1]
            for p in range(n_rows):
                best = -np.inf
                for e in range(lo, hi):
                    v = child_logw[e] + out[child_idx[e], p]
                    if v > best:
                        best = v
                if best == -np.inf:
                    out[i, p] = -np.inf
                else:
                    acc = 0.0
                    for e in range(lo, hi):
                        acc += math.exp(child_logw[e] + out[child_idx[e], p] - best)
                    out[i, p] = best + math.log(acc)
    return out


# ----------------------------------------------------------------------
# Mixture-expansion density oracle
# ----------------------------------------------------------------------

def expand_mixture(pool: NodePool):
    """All induced components as (log_weight, [(vars, mean, cov), ...])."""

    def rec(nid: int):
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            return [(0.0, [(node.scope, node.stats.mean.copy(), node.stats.cov.copy())])]
        if isinstance(node, ProductNode):
            out = []
            for combo in itertools.product(*(rec(c) for c in node.children)):
                lw = sum(part[0] for part in combo)
                blocks = [b for part in combo for b in part[1]]
                out.append((lw, blocks))
            return out
        weights = derived_weights(node, pool.weight_mode)
        out = []
        for w, c in zip(weights, node.children):
            if w == 0.0:
                continue
            for lw, blocks in rec(c):
                out.append((np.log(w) + lw, blocks))
        return out

    return rec(pool.root)


def oracle_log_density(pool: NodePool, evidence: dict, components=None) -> float:
    """Marginal log-density of a partial assignment via the expansion."""
    if components is None:
        components = expand_mixture(pool)
    terms = []
    for lw, blocks in components:
        t = lw
        for vars_, mean, cov in blocks:
            pos = [i for i, v in enumerate(vars_) if v in evidence]
            if not pos:
                continue
            x = np.array([evidence[vars_[i]] for i in pos])
            sub = cov[np.ix_(pos, pos)] + pool.variance_floor * np.eye(len(pos))
            t += multivariate_normal.logpdf(x, mean=mean[pos], cov=sub)
        terms.append(t)
    return float(logsumexp(terms))


def oracle_log_density_rows(pool: NodePool, X: np.ndarray) -> np.ndarray:
    components = expand_mixture(pool)
    X = np.atleast_2d(X)
    return np.array([
        oracle_log_density(pool, dict(enumerate(row)), components) for row in X
    ])


def oracle_mean(pool: NodePool) -> np.ndarray:
    """Model mean from the expansion: weighted average of component means."""
    total = np.zeros(pool.dim)
    norm = 0.0
    for lw, blocks in expand_mixture(pool):
        w = np.exp(lw)
        vec = np.zeros(pool.dim)
        for vars_, mean, _cov in blocks:
            vec[list(vars_)] = mean
        total += w * vec
        norm += w
    return total / norm


def oracle_cov(pool: NodePool) -> np.ndarray:
    """Model covariance from the expansion: the mixture of the components'
    block-diagonal regularized covariances, about the model mean."""
    second = np.zeros((pool.dim, pool.dim))
    norm = 0.0
    for lw, blocks in expand_mixture(pool):
        w = np.exp(lw)
        vec = np.zeros(pool.dim)
        cov = np.zeros((pool.dim, pool.dim))
        for vars_, mean, block in blocks:
            vec[list(vars_)] = mean
            cov[np.ix_(vars_, vars_)] = block + pool.variance_floor * np.eye(len(vars_))
        second += w * (cov + np.outer(vec, vec))
        norm += w
    mean = oracle_mean(pool)
    return second / norm - np.outer(mean, mean)


# ----------------------------------------------------------------------
# Raw-data statistics oracle
# ----------------------------------------------------------------------

def population_stats(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain recomputed mean and population (1/n) covariance."""
    data = np.atleast_2d(data)
    mean = data.mean(axis=0)
    dev = data - mean
    return mean, dev.T @ dev / data.shape[0]


def reference_update(stats: GaussianStats, batch) -> GaussianStats:
    """``GaussianStats.update`` as first written, with every conversion and
    ``np.outer``: the oracle its faster form must match bit for bit."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    m = batch.shape[0]
    if m == 0:
        return GaussianStats(stats.mean.copy(), stats.cov.copy(), stats.count)
    if batch.shape[1] != stats.dim:
        raise ValueError(f"batch width {batch.shape[1]} does not match stats dimension {stats.dim}")
    n = stats.count
    total = n + m
    new_mean = (n * stats.mean + batch.sum(axis=0)) / total
    dev = batch - stats.mean
    scatter = dev.T @ dev
    delta = new_mean - stats.mean
    new_cov = (n * stats.cov + scatter) / total - np.outer(delta, delta)
    new_cov = 0.5 * (new_cov + new_cov.T)
    return GaussianStats(new_mean, new_cov, total)
