"""Shared test utilities: random valid pools and brute-force oracles.

The oracles deliberately share no code with the library's evaluation path.
Densities come from expanding the network into an explicit Gaussian
mixture over the induced sum-branch combinations and evaluating it with
scipy, or from a scalar loop over the pool's nodes and a compiled net's
leaves; statistics come from recomputing over the concatenated raw data.
``reference_partial_rows`` is the one exception: it checks how the read
queries lay out their evidence, not the kernel, so it runs the pool's net.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from spnstream.evaluate import compile_pool, shared_net
from spnstream.gstats import DEGENERATE_VARIANCE, GaussianStats, correlation_matrix
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

    Sum nodes have 2-3 same-scope children with positive integer counts,
    products partition their scope, and leaves
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
            stats = healthy_stats(rng, k)
            rng.integers(1, 300)  # the old count field's draw: seeded pools stay as they were
            return pool.add(LeafNode(scope=scope, stats=stats))
        if kind == "sum":
            budget["sums"] -= 1
            n_children = int(rng.integers(2, 4))
            children = [build(scope, depth + 1) for _ in range(n_children)]
            counts = [float(rng.integers(1, 50)) for _ in children]
            return pool.add(SumNode(scope=scope, children=children, child_counts=counts))
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
        rng.integers(1, 300)  # the draw of the old count field, as for leaves
        return pool.add(ProductNode(scope=scope, children=children,
                                    stats=healthy_stats(rng, k)))

    pool.root = build(make_scope(range(dim)), 0)
    return pool


def fresh_net(pool: NodePool):
    """A fresh compile of ``pool`` with its parameters brought up to date:
    ``compile_pool`` leaves them unset, for the first refresh to fill."""
    net = compile_pool(pool)
    net.refresh_params(pool)
    return net


NOT_A_TREE = ["shared-leaf", "repeated-child", "product-shared-leaf", "product-repeated-child"]


def not_a_tree(kind: str) -> tuple[NodePool, int]:
    """A pool that is not a tree, and the node a walk from its root reaches
    twice: "shared-leaf", a sum over two products that share their leaf on
    variable 0, or "repeated-child", a sum that lists one product twice.
    The "product-" kinds have no sum: the same with a product root."""
    pool = NodePool(2)

    def leaf(v, mean):
        return pool.add(LeafNode((v,), GaussianStats(np.array([mean]), np.eye(1), 4.0)))

    shared = leaf(0, 0.0)
    left = pool.add(ProductNode((0, 1), [shared, leaf(1, -3.0)], GaussianStats.zeros(2, 4.0)))
    if kind in ("shared-leaf", "product-shared-leaf"):
        right = pool.add(ProductNode((0, 1), [shared, leaf(1, 3.0)],
                                     GaussianStats.zeros(2, 4.0)))
        twice = shared
    else:
        right = twice = left
    if kind.startswith("product-"):
        pool.root = pool.add(ProductNode((0, 1), [left, right], GaussianStats.zeros(2, 4.0)))
    else:
        pool.root = pool.add(SumNode((0, 1), [left, right], [4.0, 4.0]))
    return pool, twice


# ----------------------------------------------------------------------
# Scalar oracle of the compiled net's kernel
# ----------------------------------------------------------------------

def scalar_eval_rows(net, pool: NodePool, X: np.ndarray) -> np.ndarray:
    """Per-node log-densities (n_nodes, n_rows) of a ``CompiledNet`` of
    ``pool`` at complete rows, one node and one row at a time.

    The oracle of the level kernel: it reads the leaves' parameters from the
    net's leaf groups but the structure from the pool (children through
    ``net.index``) and the sum weights from ``derived_weights``, and writes
    out each leaf's quadratic form and each sum's log-sum-exp, so the two
    agree to rounding.
    """
    leaves = {}  # dense index -> (columns, mean, inverse factor, log-constant)
    for g in net.leaves:
        for j, i in enumerate(g.nodes.tolist()):
            leaves[i] = (np.reshape(g.cols[j], g.k), np.reshape(g.mean[j], g.k),
                         np.reshape(g.ichol[j], (g.k, g.k)), g.const[j])
    n_rows = X.shape[0]
    out = np.empty((len(net.order), n_rows))
    for i, nid in enumerate(net.order):
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            cols, mean, ichol, const = leaves[i]
            k = cols.shape[0]
            for p in range(n_rows):
                q = 0.0
                for r in range(k):
                    acc = 0.0
                    for c in range(r + 1):
                        dev = X[p, cols[c]] - mean[c]
                        acc += ichol[r, c] * dev
                    q += acc * acc
                out[i, p] = const - 0.5 * q
            continue
        kids = [net.index[c] for c in node.children]
        if isinstance(node, ProductNode):
            for p in range(n_rows):
                acc = 0.0
                for c in kids:
                    acc += out[c, p]
                out[i, p] = acc
            continue
        with np.errstate(divide="ignore"):
            logw = np.log(derived_weights(node, pool.weight_mode))
        for p in range(n_rows):
            best = -np.inf
            for w, c in zip(logw, kids):
                v = w + out[c, p]
                if v > best:
                    best = v
            if best == -np.inf:
                out[i, p] = -np.inf
            else:
                acc = 0.0
                for w, c in zip(logw, kids):
                    acc += math.exp(w + out[c, p] - best)
                out[i, p] = best + math.log(acc)
    return out


def reference_partial_rows(pool: NodePool, *assignments) -> np.ndarray:
    """Root log-density of each assignment, all in one batch, laid out
    without the queries' own evidence pass: a row of NaN per assignment
    (``np.full``) with its values stored at its variables, run through the
    pool's own net (``CompiledNet.eval_rows`` with ``partial``).
    ``log_density`` is a batch of one assignment and
    ``conditional_log_density`` one of the evidence and the evidence plus
    the query, so each must match this bit for bit.
    """
    X = np.full((len(assignments), pool.dim), np.nan)
    for row, assignment in zip(X, assignments):
        row[[int(k) for k in assignment]] = [float(v) for v in assignment.values()]
    net = shared_net(pool)
    return net.eval_rows(X, partial=True)[net.index[pool.root]]


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
    ``np.outer``: the oracle its faster form must match bit for bit.

    The batch is copied C-ordered first, as the package's ``take`` copies
    it: numpy sums each column of a column-major batch of 8 rows or more
    pairwise, so the last bits would otherwise follow the batch's layout.
    """
    batch = np.ascontiguousarray(np.atleast_2d(np.asarray(batch, dtype=np.float64)))
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


def correlation(stats: GaussianStats, i: int, j: int) -> float:
    """Absolute correlation between coordinates i and j of ``stats``, one
    pair at a time: the oracle for ``gstats.correlation_matrix``.

    Returns 0.0 when either variance is below ``DEGENERATE_VARIANCE``,
    so freshly created or constant coordinates never look correlated.
    """
    vi = stats.cov[i, i]
    vj = stats.cov[j, j]
    if vi < DEGENERATE_VARIANCE or vj < DEGENERATE_VARIANCE:
        return 0.0
    return float(abs(stats.cov[i, j]) / np.sqrt(vi * vj))


def edge_weights(sums: list[SumNode], mode: str) -> np.ndarray:
    """Mixture weights of every sum in ``sums``, concatenated, from Python
    lists: the scalar oracle for ``gstats.weights``.

    Each edge is divided by its own sum's total (``SumNode.count``), so
    every weight has the bits that sum alone would give it.
    """
    totals = [node.count for node in sums]
    if mode == "mle":
        if any(t <= 0.0 for t in totals):
            raise ValueError("cannot derive mle weights from a sum node with zero count")
        num = [c for node in sums for c in node.child_counts]
        den = [t for node, t in zip(sums, totals) for _ in node.child_counts]
    elif mode == "laplace":
        num = [c + 1.0 for node in sums for c in node.child_counts]
        den = [t + len(node.child_counts) for node, t in zip(sums, totals)
               for _ in node.child_counts]
    else:
        raise ValueError(f"unknown weight mode: {mode!r}")
    return np.divide(num, den, dtype=np.float64)


# ----------------------------------------------------------------------
# Write-pass oracle
# ----------------------------------------------------------------------

def reference_tie_break_argmax(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``updates.tie_break_argmax`` as first written: every column goes
    through the tie count."""
    winners = np.argmax(values, axis=0)
    top = values[winners, np.arange(values.shape[1])]
    tied_mask = (values == top)
    n_tied = tied_mask.sum(axis=0)
    for col in np.flatnonzero(n_tied > 1):
        candidates = np.flatnonzero(tied_mask[:, col])
        winners[col] = candidates[rng.integers(len(candidates))]
    return winners


def reference_best_cross_child_pair(pool: NodePool, node: ProductNode):
    """``learner._best_cross_child_pair`` as first written: child pairs in
    child-list order, one ``np.ix_`` block each, and only a strictly larger
    correlation replaces the incumbent."""
    if len(node.children) < 2:
        return 0.0, None, None
    corr = correlation_matrix(node.stats.cov)
    pos = {v: i for i, v in enumerate(node.scope)}
    child_pos = [np.array([pos[v] for v in pool.node(c).scope], dtype=np.intp)
                 for c in node.children]
    best = 0.0
    best_pair = (None, None)
    for a in range(len(node.children)):
        for b in range(a + 1, len(node.children)):
            block = corr[np.ix_(child_pos[a], child_pos[b])]
            r = float(block.max()) if block.size else 0.0
            if r > best:
                best = r
                best_pair = (node.children[a], node.children[b])
    return best, best_pair[0], best_pair[1]


def reference_learn_batch(pool: NodePool, rows: np.ndarray, config, rng: np.random.Generator,
                          structure_frozen: bool = False):
    """``learner.learn_batch`` as a per-node walk: every node a row reaches
    absorbs it on the spot through ``reference_update``, every sum routes
    through ``reference_tie_break_argmax`` and every structure check picks
    its pair through ``reference_best_cross_child_pair``.  The oracle of the
    write pass, which must leave the pool, the report and ``rng`` as this
    walk does."""
    from spnstream.evaluate import check_rows, shared_net, subtree_log_density_rows
    from spnstream.learner import BatchReport, make_mixture, merge_into_leaf, simplify
    from spnstream.nodes import scope_union

    rows = check_rows(rows, pool.dim)
    report = BatchReport(rows=rows.shape[0])
    if rows.shape[0] == 0:
        return report
    net = shared_net(pool)
    values = net.eval_rows(rows)

    def restructure(nid, node, prev_stats):
        r, child_a, child_b = reference_best_cross_child_pair(pool, node)
        if child_a is None or r < config.correlation_threshold:
            return
        if r * math.sqrt(max(node.stats.count, 0.0)) < config.significance_z:
            return
        joint = scope_union(pool.node(child_a).scope, pool.node(child_b).scope)
        if len(joint) >= config.max_leaf_vars:
            make_mixture(pool, nid, child_a, child_b, birth_stats=prev_stats,
                         next_check=2.0 * node.stats.count)
            report.mixtures_created += 1
        else:
            merge_into_leaf(pool, nid, child_a, child_b, birth_stats=prev_stats)
            report.leaves_merged += 1

    def child_values(c, idx):
        pos = net.index.get(c)
        if pos is not None:
            return values[pos][idx]
        return subtree_log_density_rows(pool, c, rows[idx])

    stack = [(pool.root, np.arange(rows.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            node.stats = reference_update(node.stats, rows[idx[:, None], node.scope])
        elif isinstance(node, ProductNode):
            prev_stats = node.stats
            node.stats = reference_update(node.stats, rows[idx[:, None], node.scope])
            if (not structure_frozen and len(node.children) >= 2
                    and node.stats.count >= node.next_check):
                node.next_check = 2.0 * node.stats.count
                restructure(nid, node, prev_stats)
            stack.extend((c, idx) for c in reversed(node.children))
        else:
            stacked = np.stack([child_values(c, idx) for c in node.children])
            winners = reference_tie_break_argmax(stacked, rng)
            routed = []
            for j, c in enumerate(node.children):
                sub = idx[winners == j]
                if len(sub):
                    counts = list(node.child_counts)
                    counts[j] += float(len(sub))
                    node.child_counts = counts
                    routed.append((c, sub))
            stack.extend(reversed(routed))

    if report.restructured:
        simplify(pool)
    return report
