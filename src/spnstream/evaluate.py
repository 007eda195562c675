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
and factor the network once between them.  The net is rebuilt after a
structure edit; otherwise each use re-factors only the leaves whose
statistics object was replaced (every leaf after a change of
``pool.variance_floor``, which shows at once) and recomputes every sum
weight from the counts, so no caller sees stale parameters; a write into a
statistics array in place needs ``pool.bump()``.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import kernels
from .gstats import GaussianStats
from .nodes import (LeafNode, NodePool, ProductNode, SumNode, derived_weights,
                    topological_order)

LOG_2PI = kernels.LOG_2PI
# Bytes of the widest per-row array in one block of log_density_rows; with
# the kernel's temporaries a block then peaks near 2 MB, whatever the
# number of rows.
_BLOCK_BYTES = 1 << 19
# Bytes one block of sample may take (kernels.DrawPlan.row_words per row).
_SAMPLE_BYTES = 1 << 20


def _factors(covs: np.ndarray, floor: float):
    """Cholesky pieces of regularized Gaussians over k variables.

    From a (k, k) covariance, or a stack of them, returns the regularized
    covariances cov + floor * I, their Cholesky factors, the inverses of
    those and the log normalization constants, one LAPACK call each for the
    whole stack.
    """
    k = covs.shape[-1]
    reg = covs + floor * np.eye(k)
    chol = np.linalg.cholesky(reg)
    # LAPACK's inverse leaves ~1e-16 above the diagonal; the kernel reads it.
    ichol = np.tril(np.linalg.inv(chol))
    const = -0.5 * k * LOG_2PI - np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return reg, chol, ichol, const


def _univariate_factors(var: np.ndarray, floor: float):
    """``_factors`` in closed form for univariate leaves of variances ``var``,
    shape (m,): the Cholesky factor of a 1x1 matrix is its square root."""
    reg = var + floor
    chol = np.sqrt(reg)
    return reg, chol, 1.0 / chol, -0.5 * LOG_2PI - np.log(chol)


def _leaf_factor(stats: GaussianStats, floor: float):
    """(mean, inverse Cholesky factor, log normalization constant) of one
    leaf's regularized Gaussian N(mean, cov + floor * I)."""
    _, _, ichol, const = _factors(stats.cov, floor)
    return stats.mean, ichol, float(const)


# ======================================================================
# Compiled (flattened) evaluation
# ======================================================================

@dataclass(eq=False)
class CompiledNet:
    """Flat-array view of a pool, consumed by the kernels module."""

    order: list[int]
    index: dict[int, int]
    kind: np.ndarray
    child_ptr: np.ndarray
    child_idx: np.ndarray
    child_logw: np.ndarray
    leaf_ptr: np.ndarray
    leaf_vars: np.ndarray
    leaf_mean: np.ndarray
    mat_ptr: np.ndarray
    leaf_ichol: np.ndarray
    leaf_chol: np.ndarray  # Cholesky factors, laid out like leaf_ichol
    leaf_cov: np.ndarray  # regularized covariances, laid out like leaf_ichol
    leaf_const: np.ndarray
    key: tuple[int, int]  # (pool.structure_version, pool.root) it was compiled at
    plan: kernels.LevelPlan
    sums: list[tuple[int, int]]  # (sum node id, offset of its first edge)
    # Rows per block of log_density_rows: the widest per-row array (nodes,
    # edges or leaf variables) then takes at most _BLOCK_BYTES.
    block_rows: int
    leaf_ids: list[list[int]]  # node ids of each plan.leaves group's leaves
    # Per leaf group, weak references to the GaussianStats objects its leaves
    # were last factored from, and the variance floor used; refresh_params
    # re-factors a leaf only when its stats object was replaced or the floor
    # changed.  Weak, so replaced statistics are freed by the write that
    # replaces them, not by the next read.
    factored: list[list] = field(default_factory=list)
    floor: float = math.nan
    draws: kernels.DrawPlan | None = None  # routing tables, built by the first sample

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
        inside its leaf.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        out = np.empty((self.kind.shape[0], X.shape[0]), dtype=np.float64)
        return kernels.eval_flat_numpy(self.plan, self.child_logw, self.leaf_mean,
                                       self.leaf_ichol, self.leaf_const, X, out,
                                       self.leaf_cov if partial else None)

    def refresh_leaf(self, pool: NodePool, nid: int) -> None:
        """Bring the flattened parameters up to date after a stats update of
        leaf ``nid``: every leaf is factored again.  Nothing in the package
        calls it; it stays for perfbench/tracing.py, which wraps it by name."""
        self.floor = math.nan  # the records no longer say what the arrays hold
        self.refresh_params(pool)

    def refresh_params(self, pool: NodePool) -> None:
        """Bring the flattened parameters up to date with the pool.

        Leaves whose ``stats`` object is not the one they were last factored
        from are re-factored (all leaves after a change of the variance
        floor): univariate ones in closed form, those over k > 1 variables
        with one stacked factorization per k.  A write into a stats array in
        place is not seen; ``pool.bump()`` after one recompiles.  Every
        sum-edge weight is recomputed, since child counts are edited in place.
        """
        floor = pool.variance_floor
        if floor != self.floor:
            self.factored = [[None] * len(ids) for ids in self.leaf_ids]
            self.floor = floor
        nodes = pool.nodes
        for g, ids, done in zip(self.plan.leaves, self.leaf_ids, self.factored):
            stats = [nodes[nid].stats for nid in ids]
            fresh = [d is None or d() is not s for d, s in zip(done, stats)]
            if not any(fresh):
                continue
            if all(fresh):  # every leaf after a write to each: no gathers
                at, todo = slice(None), stats
            else:
                at = np.flatnonzero(fresh)
                todo = [stats[j] for j in at.tolist()]
            mean_at, mat_at, node_at = g.mean[at], g.ichol[at], g.nodes[at]
            if g.k == 1:
                means = np.array([s.mean[0] for s in todo])
                reg, chol, ichol, const = _univariate_factors(
                    np.array([s.cov[0, 0] for s in todo]), floor)
            else:
                means = np.array([s.mean for s in todo])
                reg, chol, ichol, const = _factors(np.array([s.cov for s in todo]), floor)
            self.leaf_mean[mean_at] = means
            self.leaf_ichol[mat_at] = ichol
            self.leaf_chol[mat_at] = chol
            self.leaf_cov[mat_at] = reg
            self.leaf_const[node_at] = const
            # weakref.ref hands back an object's existing reference, so
            # recording the unchanged leaves again costs next to nothing.
            done[:] = map(weakref.ref, stats)
        self.refresh_weights(pool)

    def refresh_weights(self, pool: NodePool) -> None:
        """Recompute sum-edge log weights from current counts."""
        with np.errstate(divide="ignore"):
            for nid, lo in self.sums:
                node = pool.node(nid)
                self.child_logw[lo:lo + len(node.children)] = np.log(
                    derived_weights(node, pool.weight_mode))


def compile_pool(pool: NodePool) -> CompiledNet:
    """Flatten the pool (reachable part, topological order) for the kernels."""
    order = topological_order(pool)
    index = {nid: i for i, nid in enumerate(order)}
    n = len(order)
    kind = np.zeros(n, dtype=np.int8)
    child_counts = []
    leaf_sizes = []
    for i, nid in enumerate(order):
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            child_counts.append(0)
            leaf_sizes.append(len(node.scope))
        else:
            kind[i] = kernels.KIND_SUM if isinstance(node, SumNode) else kernels.KIND_PRODUCT
            child_counts.append(len(node.children))
            leaf_sizes.append(0)

    child_ptr = np.zeros(n + 1, dtype=np.int64)
    child_ptr[1:] = np.cumsum(child_counts)
    child_idx = np.zeros(child_ptr[-1], dtype=np.int64)
    child_logw = np.zeros(child_ptr[-1], dtype=np.float64)

    leaf_ptr = np.zeros(n + 1, dtype=np.int64)
    leaf_ptr[1:] = np.cumsum(leaf_sizes)
    leaf_vars = np.zeros(leaf_ptr[-1], dtype=np.int64)
    leaf_mean = np.zeros(leaf_ptr[-1], dtype=np.float64)
    mat_ptr = np.zeros(n + 1, dtype=np.int64)
    mat_ptr[1:] = np.cumsum([s * s for s in leaf_sizes])
    leaf_ichol = np.zeros(mat_ptr[-1], dtype=np.float64)
    leaf_chol = np.zeros(mat_ptr[-1], dtype=np.float64)
    leaf_cov = np.zeros(mat_ptr[-1], dtype=np.float64)
    mat_ptr = mat_ptr[:-1].copy()  # only a start offset per node
    leaf_const = np.zeros(n, dtype=np.float64)

    sums = []
    for i, nid in enumerate(order):
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            leaf_vars[leaf_ptr[i]:leaf_ptr[i + 1]] = node.scope
        else:
            lo = int(child_ptr[i])
            child_idx[lo:lo + len(node.children)] = [index[c] for c in node.children]
            if isinstance(node, SumNode):
                sums.append((nid, lo))
    plan = kernels.level_plan(kind, child_ptr, child_idx, leaf_ptr, leaf_vars, mat_ptr)
    width = max(n, child_idx.size, leaf_vars.size)
    net = CompiledNet(order, index, kind, child_ptr, child_idx, child_logw,
                      leaf_ptr, leaf_vars, leaf_mean, mat_ptr, leaf_ichol, leaf_chol,
                      leaf_cov, leaf_const, (pool.structure_version, pool.root), plan, sums,
                      max(1, _BLOCK_BYTES // (8 * width)),
                      [[order[i] for i in g.nodes.tolist()] for g in plan.leaves])
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
    replaced leaf statistics, edited child counts and a new variance floor
    show at once, while a write into a statistics array in place needs
    ``pool.bump()``.
    """
    net = pool.compiled
    if net is None or net.key != (pool.structure_version, pool.root):
        pool.compiled = None  # let the old net go before compiling the new one
        net = pool.compiled = compile_pool(pool)
    else:
        net.refresh_params(pool)
    return net


def check_rows(X: np.ndarray, dim: int) -> np.ndarray:
    """Complete rows as a float (n, dim) array; ValueError on bad width or values."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
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
        if not np.isfinite(v):
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
    is None, otherwise (size, d).
    """
    n = 1 if size is None else int(size)
    out = np.empty((n, pool.dim), dtype=np.float64)
    net = shared_net(pool)
    if net.draws is None:  # built on the first draw, so reads that never sample skip it
        net.draws = kernels.draw_plan(net.plan, len(net.order))
    root = net.index[pool.root]
    for rows in net.row_blocks(n, max(1, _SAMPLE_BYTES // (8 * net.draws.row_words))):
        kernels.sample_flat(net.plan, net.draws, net.child_logw, net.leaf_mean, net.leaf_chol,
                            root, rng, out[rows])
    return out[0] if size is None else out


def analytic_mean(pool: NodePool) -> np.ndarray:
    """Exact per-variable mean of the network's distribution.

    One bottom-up pass over the cached net's level plan: a leaf's mean sits
    on its scope, a product adds its children's means and a sum weights
    them by its edge weights.
    """
    net = shared_net(pool)
    means = np.zeros((len(net.order), pool.dim))
    for g in net.plan.leaves:
        means[g.nodes if g.k == 1 else g.nodes[:, None], g.cols] = net.leaf_mean[g.mean]
    for g in net.plan.groups:
        terms = means[g.children]
        if g.is_sum:
            terms *= np.exp(net.child_logw[g.edges])[:, :, None]
        means[g.nodes] = terms.sum(axis=0)
    return means[net.index[pool.root]]
