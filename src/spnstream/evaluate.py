"""Density queries, conditionals, sampling and moments.

Every query runs the level kernel of the kernels module over a
``CompiledNet``, the pool flattened into arrays and grouped into a level
plan.  ``log_density_rows`` scores complete rows.
``log_density`` and ``conditional_log_density`` pass their evidence as rows
in which NaN marks an unassigned variable; each Gaussian leaf integrates
its unassigned variables out, so a leaf with no assigned variable
contributes a factor of one.  ``sample`` draws rows in one top-down pass
over the net's level plan and ``analytic_mean`` is one bottom-up pass.
Each pool holds one compiled net (``shared_net``), which these queries and
``learner.learn_batch`` share, so a write and the reads after it compile
and factor the network once between them.  The net's parameters live on
the groups of its plan: each leaf group re-factors only the leaves whose
statistics object was replaced (every leaf after a change of
``pool.variance_floor``, which shows at once), and the sum groups' log
weights are recomputed when a count or the weight mode changed, so no
caller sees stale parameters.  The net is rebuilt after a structure edit;
a write into a statistics array in place needs ``pool.bump()``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import kernels
from .gstats import GaussianStats
from .nodes import (LeafNode, NodePool, ProductNode, SumNode, derived_weights, edge_weights,
                    is_integer, topological_order)

# Bytes of the widest per-row array in one block of log_density_rows; with
# the kernel's temporaries a block then peaks near 2 MB, whatever the
# number of rows.
_BLOCK_BYTES = 1 << 19
# Bytes one block of sample may take (kernels.LevelPlan.row_words per row).
_SAMPLE_BYTES = 1 << 20
# Bytes the restricted factors of one leaf group's kernels.PatternTable may
# take; a table about to pass it is emptied.
_PATTERN_BYTES = 1 << 22


def _leaf_factor(stats: GaussianStats, floor: float):
    """(mean, inverse Cholesky factor, log normalization constant) of one
    leaf's regularized Gaussian N(mean, cov + floor * I); the (k, k) input
    takes the stacked path of ``kernels.factors`` even at k = 1."""
    _, _, ichol, const = kernels.factors(stats.cov, floor)
    return stats.mean, ichol, float(const)


# ======================================================================
# Compiled (flattened) evaluation
# ======================================================================

@dataclass(eq=False)
class CompiledNet:
    """A pool flattened into one ``kernels.LevelPlan``.

    The plan drives both the kernel and sampling, and its groups hold the
    parameters: the leaves' on the leaf groups (``kernels.LeafGroup``), the
    sums' log weights on the sum groups (``kernels.NodeGroup.logw``), which
    ``refresh_params`` brings up to date in place.
    """

    order: list[int]
    index: dict[int, int]
    key: tuple[int, int]  # (pool.structure_version, pool.root) it was compiled at
    plan: kernels.LevelPlan
    sums: list[int]  # sum node ids, group after group of the plan
    # Rows per block of log_density_rows: the widest per-row array (nodes,
    # edges or leaf variables) then takes at most _BLOCK_BYTES.
    block_rows: int
    # Rows per block of a partial eval_rows, which also gathers a k x k
    # factor for each of a leaf group's m leaves: m * k * k words a row.
    partial_block_rows: int
    # The variance floor the leaves were last factored with; refresh_params
    # re-factors a leaf only when its stats object was replaced (see
    # LeafGroup.refresh) or the floor changed.
    floor: float = math.nan
    # The weight mode, then each sum's count and child counts, that the sum
    # groups' logw was last computed from; refresh_weights skips a pool
    # that still has them.
    weight_inputs: list | None = None

    def row_blocks(self, n_rows: int, block_rows: int) -> list[slice]:
        """Equal blocks of at most ``block_rows`` rows.  Equal sizes avoid a
        one-row tail, which BLAS would multiply by another routine."""
        if n_rows <= block_rows:
            return [slice(None)]
        count = -(-n_rows // block_rows)
        return [slice(j * n_rows // count, (j + 1) * n_rows // count) for j in range(count)]

    def eval_rows(self, X: np.ndarray, partial: bool = False) -> np.ndarray:
        """Per-node log-density matrix, shape (n_nodes, n_rows).

        With ``partial`` a NaN in X marks an unobserved value, integrated out
        inside its leaf; those rows go through the kernel in blocks of
        ``partial_block_rows``, so its temporaries do not grow with the rows.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        out = np.empty((len(self.order), X.shape[0]), dtype=np.float64)
        if not partial or X.shape[0] <= self.partial_block_rows:
            return kernels.eval_flat_numpy(self.plan, X, out, partial)
        for rows in self.row_blocks(X.shape[0], self.partial_block_rows):
            kernels.eval_flat_numpy(self.plan, X[rows], out[:, rows], True)
        return out

    def refresh_leaf(self, pool: NodePool, nid: int) -> None:
        """Bring the parameters up to date after a stats update of leaf
        ``nid``: every leaf is factored again.  Nothing in the package
        calls it; it stays for perfbench/tracing.py, which wraps it by name."""
        self.floor = math.nan  # the records no longer say what the arrays hold
        self.refresh_params(pool)

    def refresh_params(self, pool: NodePool) -> None:
        """Bring the groups' parameters up to date with the pool.

        Each leaf group re-factors the leaves whose ``stats`` object is not
        the one they were last factored from, every leaf after a change of
        the variance floor (``kernels.LeafGroup.refresh``).  A write into a
        stats array in place is not seen; ``pool.bump()`` after one
        recompiles.  The sums' log weights are recomputed when a count, a
        child count or the weight mode differs from the last values used
        (``refresh_weights``); counts are edited in place, so they are
        compared by value.
        """
        floor = pool.variance_floor
        every, self.floor = floor != self.floor, floor
        for g in self.plan.leaves:
            g.refresh([pool.nodes[nid].stats for nid in g.ids], floor, every)
        self.refresh_weights(pool)

    def refresh_weights(self, pool: NodePool) -> None:
        """Recompute the sum groups' log weights from current counts, in one
        pass over every sum, when the weight mode or any sum's count or child
        counts differ from the ones they were last computed from; a zero
        count under "mle" weights gives -inf."""
        if not self.sums:
            return
        sums = [pool.nodes[nid] for nid in self.sums]
        seen = [pool.weight_mode]
        for node in sums:
            seen.append(node.count)
            seen += node.child_counts
        if seen == self.weight_inputs:
            return
        with np.errstate(divide="ignore"):
            logw = np.log(edge_weights(sums, pool.weight_mode))
        lo = 0  # self.sums runs group after group, each sum's weights in turn
        for g in self.plan.groups:
            if g.is_sum:
                c, m = g.logw.shape
                g.logw[:] = logw[lo:lo + c * m].reshape(m, c).T
                lo += c * m
        self.weight_inputs = seen


def compile_pool(pool: NodePool) -> CompiledNet:
    """Flatten the pool (reachable part, topological order) into a level plan.

    One walk, children before parents: a leaf's height is 0 and an inner
    node's one more than its highest child's.
    """
    order = topological_order(pool)
    index = {nid: i for i, nid in enumerate(order)}
    n = len(order)
    height = [0] * n
    inner = []  # (height, kind, dense index, dense children)
    scopes = {}  # dense index -> scope, for each leaf
    for i, nid in enumerate(order):
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            scopes[i] = node.scope
            continue
        kids = [index[c] for c in node.children]
        height[i] = 1 + max((height[c] for c in kids), default=0)
        kind = kernels.KIND_SUM if isinstance(node, SumNode) else kernels.KIND_PRODUCT
        inner.append((height[i], kind, i, kids))
    plan = kernels.level_plan(n, inner, scopes, order, _PATTERN_BYTES)
    n_edges = sum(g.children.size for g in plan.groups)
    width = max(n, n_edges, sum(map(len, scopes.values())))
    partial_width = max([width] + [g.nodes.size * g.k * g.k for g in plan.leaves])
    sums = [order[i] for g in plan.groups if g.is_sum for i in g.nodes.tolist()]
    net = CompiledNet(order, index, (pool.structure_version, pool.root), plan, sums,
                      max(1, _BLOCK_BYTES // (8 * width)),
                      max(1, _BLOCK_BYTES // (8 * partial_width)))
    net.refresh_params(pool)
    return net


def shared_net(pool: NodePool) -> CompiledNet:
    """The pool's compiled net, up to date with its parameters.

    One net per pool, held on the pool itself (``pool.compiled``), so it
    lives exactly as long as the pool and a deep copy of the pool gets its
    own.  ``learner.learn_batch`` and every read query use it.  The net is
    rebuilt when the structure version or the root differs from the ones it
    was compiled at (tests and users may reassign the root without a
    version bump); otherwise ``refresh_params`` brings it up to date:
    replaced leaf statistics, edited counts, a new weight mode and a new
    variance floor show at once, while a write into a statistics array in
    place needs ``pool.bump()``.  A read that follows a read with nothing
    changed re-factors nothing and recomputes no weight.
    """
    net = pool.compiled
    if net is None or net.key != (pool.structure_version, pool.root):
        pool.compiled = None  # let the old net go before compiling the new one
        net = pool.compiled = compile_pool(pool)
    else:
        net.refresh_params(pool)
    return net


def check_rows(X: np.ndarray, dim: int) -> np.ndarray:
    """Complete rows as a float (n, dim) array; ValueError on bad shape or values."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError(f"rows must be a 2-d array, got shape {X.shape}")
    if X.shape[1] != dim:
        raise ValueError(f"rows have width {X.shape[1]}, pool dimension is {dim}")
    if not np.isfinite(X).all():
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise ValueError(f"row {bad} contains a non-finite value")
    return X


def log_density_rows(pool: NodePool, X: np.ndarray) -> np.ndarray:
    """Joint log-density at complete rows, shape (n_rows,).

    Rows are evaluated in blocks and only the root's row of each block is
    kept, so memory does not grow with the number of rows.
    """
    X = check_rows(X, pool.dim)
    net = shared_net(pool)
    root = net.index[pool.root]
    out = np.empty(X.shape[0], dtype=np.float64)
    for rows in net.row_blocks(X.shape[0], net.block_rows):
        out[rows] = net.eval_rows(X[rows])[root]
    return out


def subtree_log_density_rows(pool: NodePool, nid: int, X: np.ndarray) -> np.ndarray:
    """Reference graph-walk evaluation of one subtree at complete rows."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    values: dict[int, np.ndarray] = {}
    for cur in topological_order(pool, nid):
        node = pool.node(cur)
        if isinstance(node, LeafNode):
            mean, ichol, const = _leaf_factor(node.stats, pool.variance_floor)
            y = (X[:, list(node.scope)] - mean) @ ichol.T
            values[cur] = const - 0.5 * np.einsum("ij,ij->i", y, y)
        elif isinstance(node, ProductNode):
            values[cur] = np.sum([values[c] for c in node.children], axis=0)
        else:
            w = derived_weights(node, pool.weight_mode)
            stacked = np.stack([values[c] for c in node.children])
            with np.errstate(divide="ignore"):
                values[cur] = np.logaddexp.reduce(stacked + np.log(w)[:, None], axis=0)
    return values[nid]


# ======================================================================
# Partial-evidence queries
# ======================================================================

def _check_assignment(pool: NodePool, assignment: Mapping[int, float]) -> dict[int, float]:
    out = {}
    for key, value in assignment.items():
        try:
            k = operator.index(key)
        except TypeError:
            raise ValueError(f"assignment variable {key!r} is not an integer") from None
        if k < 0 or k >= pool.dim:
            raise ValueError(f"assignment variable {k} is outside dimension {pool.dim}")
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"assignment value for variable {k} is not finite")
        out[k] = v
    return out


def _partial_rows(pool: NodePool, *assignments: dict[int, float]) -> np.ndarray:
    """Root log-density of each assignment, all in one batch; NaN marks the
    variables an assignment leaves out."""
    X = np.full((len(assignments), pool.dim), np.nan)
    for row, assignment in zip(X, assignments):
        row[list(assignment)] = list(assignment.values())
    net = shared_net(pool)
    return net.eval_rows(X, partial=True)[net.index[pool.root]]


def log_density(pool: NodePool, evidence: Mapping[int, float]) -> float:
    """Log of the joint density marginalized over unassigned variables.

    With empty evidence this is log of the total mass, which is 0.0 for any
    valid network.
    """
    return float(_partial_rows(pool, _check_assignment(pool, evidence))[0])


def conditional_log_density(pool: NodePool, query: Mapping[int, float],
                            evidence: Mapping[int, float]) -> float:
    """log f(query | evidence): a batch of the evidence and of evidence plus query."""
    q = _check_assignment(pool, query)
    ev = _check_assignment(pool, evidence)
    overlap = set(q) & set(ev)
    if overlap:
        raise ValueError(f"query and evidence share variables {sorted(overlap)}")
    denom, joint = _partial_rows(pool, ev, {**ev, **q})
    if denom == -np.inf:
        raise ValueError("evidence has zero density under the model")
    return float(joint - denom)


# ======================================================================
# Sampling and moments
# ======================================================================

def sample(pool: NodePool, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw rows from the network's distribution.

    One top-down pass over the cached net's level plan per block of rows
    (``kernels.sample_flat``): each sum node picks one child per row that
    reaches it by its weights, each product node passes the row to every
    child, and each leaf draws its variables from its regularized Gaussian
    with the Cholesky factor kept in the net.  Returns shape (d,) when size
    is None, otherwise (size, d); ``size`` must be a non-negative integer.
    """
    n = 1 if size is None else _size(size)
    out = np.empty((n, pool.dim), dtype=np.float64)
    net = shared_net(pool)
    root = net.index[pool.root]
    for rows in net.row_blocks(n, max(1, _SAMPLE_BYTES // (8 * net.plan.row_words))):
        kernels.sample_flat(net.plan, root, rng, out[rows])
    return out[0] if size is None else out


def _size(size) -> int:
    """``size`` if it is a non-negative integer (a numpy one too), else
    ValueError: ``int()`` would truncate 2.7 and take ``True`` or ``"3"``."""
    if not is_integer(size) or size < 0:
        raise ValueError(f"size must be a non-negative integer, got {size!r}")
    return int(size)


def analytic_mean(pool: NodePool) -> np.ndarray:
    """Exact per-variable mean of the network's distribution.

    One bottom-up pass over the cached net's level plan: a leaf's mean sits
    on its scope, a product adds its children's means and a sum weights
    them by its weights.
    """
    net = shared_net(pool)
    means = np.zeros((len(net.order), pool.dim))
    for g in net.plan.leaves:
        means[g.nodes if g.k == 1 else g.nodes[:, None], g.cols] = g.mean
    for g in net.plan.groups:
        terms = means[g.children]
        if g.is_sum:
            terms *= np.exp(g.logw)[:, :, None]
        means[g.nodes] = terms.sum(axis=0)
    return means[net.index[pool.root]]
