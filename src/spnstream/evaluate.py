"""Density queries, conditionals, and sampling.

Two evaluation paths exist.  ``log_density_rows`` flattens the pool into a
``CompiledNet`` and runs the batched kernel over complete rows; this is the
path training uses.  ``log_density`` walks the graph directly and accepts
partial evidence, marginalizing unassigned variables inside each Gaussian
leaf; a leaf with no assigned variable contributes a factor of one.
``sample`` draws all requested rows in one top-down pass over the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import kernels
from .gstats import GaussianStats
from .nodes import (LeafNode, NodePool, ProductNode, SumNode, derived_weights,
                    topological_order)

LOG_2PI = float(np.log(2.0 * np.pi))
# Bytes of the widest per-row array in one block of log_density_rows; with
# the numpy kernel's temporaries a block then peaks near 2 MB, whatever the
# number of rows.
_BLOCK_BYTES = 1 << 19


def _leaf_factor(stats: GaussianStats, floor: float, positions=None):
    """Cholesky pieces of a (possibly restricted) regularized leaf Gaussian.

    Returns (mean, inverse Cholesky factor, log normalization constant) for
    N(mean, cov + floor * I) restricted to the given coordinate positions.
    """
    if positions is None:
        mean = stats.mean
        cov = stats.cov
    else:
        idx = np.asarray(positions, dtype=np.intp)
        mean = stats.mean[idx]
        cov = stats.cov[np.ix_(idx, idx)]
    k = mean.shape[0]
    reg = cov + floor * np.eye(k)
    chol = np.linalg.cholesky(reg)
    # LAPACK's inverse leaves ~1e-16 above the diagonal; the numpy kernel reads it.
    ichol = np.tril(np.linalg.inv(chol))
    const = -0.5 * k * LOG_2PI - float(np.log(np.diag(chol)).sum())
    return mean, ichol, const


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
    leaf_const: np.ndarray
    structure_version: int
    plan: kernels.LevelPlan | None  # None where the numba kernel runs
    sums: list[tuple[int, int]]  # (sum node id, offset of its first edge)
    # Rows per block of log_density_rows: the widest per-row array (nodes,
    # edges or leaf variables) then takes at most _BLOCK_BYTES.
    block_rows: int

    def row_blocks(self, n_rows: int) -> list[slice]:
        """Equal blocks of at most ``block_rows`` rows.  Equal sizes avoid a
        one-row tail, which BLAS would multiply by another routine."""
        if n_rows <= self.block_rows:
            return [slice(None)]
        count = -(-n_rows // self.block_rows)
        return [slice(j * n_rows // count, (j + 1) * n_rows // count) for j in range(count)]

    def eval_rows(self, X: np.ndarray) -> np.ndarray:
        """Per-node log-density matrix, shape (n_nodes, n_rows)."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        out = np.empty((self.kind.shape[0], X.shape[0]), dtype=np.float64)
        if kernels.NUMBA_ENABLED:
            kernels.eval_flat_numba(self.kind, self.child_ptr, self.child_idx, self.child_logw,
                                    self.leaf_ptr, self.leaf_vars, self.leaf_mean,
                                    self.mat_ptr, self.leaf_ichol, self.leaf_const, X, out)
            return out
        return kernels.eval_flat_numpy(self.plan, self.child_logw, self.leaf_mean,
                                       self.leaf_ichol, self.leaf_const, X, out)

    def refresh_leaf(self, pool: NodePool, nid: int) -> None:
        """Recompute one leaf's flattened parameters after a stats update."""
        i = self.index[nid]
        stats = pool.node(nid).stats
        lo, hi = self.leaf_ptr[i], self.leaf_ptr[i + 1]
        m = self.mat_ptr[i]
        if hi - lo == 1:
            # _leaf_factor in closed form: the Cholesky factor of a 1x1 matrix is
            # its square root.  np.log, not math.log, rounds as _leaf_factor does.
            sd = math.sqrt(stats.cov[0, 0] + pool.variance_floor)
            self.leaf_mean[lo] = stats.mean[0]
            self.leaf_ichol[m] = 1.0 / sd
            self.leaf_const[i] = -0.5 * LOG_2PI - np.log(sd)
            return
        mean, ichol, const = _leaf_factor(stats, pool.variance_floor)
        self.leaf_mean[lo:hi] = mean
        self.leaf_ichol[m:m + ichol.size] = ichol.ravel()
        self.leaf_const[i] = const

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
    mat_ptr = mat_ptr[:-1].copy()  # only a start offset per node
    leaf_const = np.zeros(n, dtype=np.float64)

    leaves, sums = [], []
    for i, nid in enumerate(order):
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            leaf_vars[leaf_ptr[i]:leaf_ptr[i + 1]] = node.scope
            leaves.append(nid)
        else:
            lo = int(child_ptr[i])
            child_idx[lo:lo + len(node.children)] = [index[c] for c in node.children]
            if isinstance(node, SumNode):
                sums.append((nid, lo))
    plan = None if kernels.NUMBA_ENABLED else kernels.level_plan(
        kind, child_ptr, child_idx, leaf_ptr, leaf_vars, mat_ptr)
    width = max(n, child_idx.size, leaf_vars.size)
    net = CompiledNet(order, index, kind, child_ptr, child_idx, child_logw,
                      leaf_ptr, leaf_vars, leaf_mean, mat_ptr, leaf_ichol,
                      leaf_const, pool.structure_version, plan, sums,
                      max(1, _BLOCK_BYTES // (8 * width)))
    for nid in leaves:
        net.refresh_leaf(pool, nid)
    net.refresh_weights(pool)
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
    net = compile_pool(pool)
    root = net.index[pool.root]
    out = np.empty(X.shape[0], dtype=np.float64)
    for rows in net.row_blocks(X.shape[0]):
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
        k = int(key)
        if k < 0 or k >= pool.dim:
            raise ValueError(f"assignment variable {k} is outside dimension {pool.dim}")
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"assignment value for variable {k} is not finite")
        out[k] = v
    return out


def log_density(pool: NodePool, evidence: Mapping[int, float]) -> float:
    """Log of the joint density marginalized over unassigned variables.

    With empty evidence this is log of the total mass, which is 0.0 for any
    valid network.
    """
    ev = _check_assignment(pool, evidence)
    values: dict[int, float] = {}
    for cur in topological_order(pool):
        node = pool.node(cur)
        if isinstance(node, LeafNode):
            assigned = [v for v in node.scope if v in ev]
            if not assigned:
                values[cur] = 0.0
                continue
            positions = [i for i, v in enumerate(node.scope) if v in ev]
            mean, ichol, const = _leaf_factor(node.stats, pool.variance_floor, positions)
            dev = np.array([ev[v] for v in assigned]) - mean
            y = ichol @ dev
            values[cur] = const - 0.5 * float(y @ y)
        elif isinstance(node, ProductNode):
            values[cur] = float(sum(values[c] for c in node.children))
        else:
            w = derived_weights(node, pool.weight_mode)
            vals = np.array([values[c] for c in node.children])
            with np.errstate(divide="ignore"):
                values[cur] = float(np.logaddexp.reduce(vals + np.log(w)))
    return values[pool.root]


def conditional_log_density(pool: NodePool, query: Mapping[int, float],
                            evidence: Mapping[int, float]) -> float:
    """log f(query | evidence) via two marginal evaluations."""
    q = _check_assignment(pool, query)
    ev = _check_assignment(pool, evidence)
    overlap = set(q) & set(ev)
    if overlap:
        raise ValueError(f"query and evidence share variables {sorted(overlap)}")
    denom = log_density(pool, ev)
    if denom == -np.inf:
        raise ValueError("evidence has zero density under the model")
    joint = dict(ev)
    joint.update(q)
    return log_density(pool, joint) - denom


# ======================================================================
# Sampling and moments
# ======================================================================

def sample(pool: NodePool, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw rows from the network's distribution.

    One top-down pass, vectorized over rows: each node receives the indices
    of the rows that reach it, a sum node splits them among its children
    according to its derived weights (deterministically, without consuming
    randomness, when only one weight is positive), a product node passes
    them to every child, and a leaf draws its scope columns from its
    regularized Gaussian.  Returns shape (d,) when size is None, otherwise
    (size, d).
    """
    n = 1 if size is None else int(size)
    out = np.empty((n, pool.dim), dtype=np.float64)
    # Decomposability keeps the row sets arriving from different parents
    # disjoint, so every row is drawn once per variable.
    reach: dict[int, list[np.ndarray]] = {pool.root: [np.arange(n)]}
    for nid in reversed(topological_order(pool)):
        if nid not in reach:
            continue
        rows = np.concatenate(reach.pop(nid))
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            k = len(node.scope)
            chol = np.linalg.cholesky(node.stats.cov + pool.variance_floor * np.eye(k))
            z = rng.standard_normal((len(rows), k))
            out[rows[:, None], list(node.scope)] = node.stats.mean + z @ chol.T
        elif isinstance(node, ProductNode):
            for c in node.children:
                reach.setdefault(c, []).append(rows)
        else:
            w = derived_weights(node, pool.weight_mode)
            positive = np.flatnonzero(w > 0.0)
            if len(positive) == 1:
                reach.setdefault(node.children[int(positive[0])], []).append(rows)
                continue
            picks = rng.choice(len(w), size=len(rows), p=w / w.sum())
            for j, c in enumerate(node.children):
                sub = rows[picks == j]
                if len(sub):
                    reach.setdefault(c, []).append(sub)
    return out[0] if size is None else out


def analytic_mean(pool: NodePool) -> np.ndarray:
    """Exact per-variable mean of the network's distribution."""
    means: dict[int, np.ndarray] = {}
    for cur in topological_order(pool):
        node = pool.node(cur)
        vec = np.zeros(pool.dim)
        if isinstance(node, LeafNode):
            vec[list(node.scope)] = node.stats.mean
        elif isinstance(node, ProductNode):
            for c in node.children:
                vec += means[c]
        else:
            w = derived_weights(node, pool.weight_mode)
            for wi, c in zip(w, node.children):
                vec += wi * means[c]
        means[cur] = vec
    return means[pool.root]
