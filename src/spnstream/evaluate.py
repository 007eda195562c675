"""Density queries, conditionals, sampling and moments.

Every query runs the level kernel of the kernels module over a
``CompiledNet``, the pool flattened into arrays and grouped into a level
plan.  ``log_density_rows`` scores complete rows.
``log_density`` and ``conditional_log_density`` pass their evidence as rows
in which NaN marks an unassigned variable: one pass over each assignment
checks it and writes it into a Python list of NaN, and one ``np.array``
makes the batch, so laying out the evidence takes one numpy call a
query.  Each Gaussian leaf integrates its unassigned variables out, so a
leaf with no assigned variable contributes a factor of one.  ``sample``
draws rows in one top-down pass over the net's level plan and
``analytic_mean`` is one bottom-up pass.
Each pool holds one compiled net (``current_net``), which these queries and
``learner.learn_batch`` share, so a write and the reads after it compile
the network once between them.  A write reads densities only at sums, so
it refreshes and evaluates the net only when the pool has a sum; the
first read after writes into a pool without one factors the leaf groups
those writes reached.  A new net starts with no parameters, so a compile for a write
that reads no density factors nothing.  The net's parameters live on
the groups of its plan.  A leaf group re-derives all its leaves when its
width of the pool's statistics store was written since it last did, or
``pool.variance_floor`` changed, and a sum group recomputes all its log
weights when its width of child counts was written or the weight mode
changed, so no caller sees stale parameters.  Statistics and child
counts change only by a write into their slot, which moves its width's
count of writes and the store's, so every change shows, and a read after
a read, with the store's count where it was, looks at no group; the net
is rebuilt after a structure edit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import kernels
from .gstats import GaussianStats
from .nodes import (LeafNode, NodePool, ProductNode, SumNode, derived_weights, is_integer,
                    is_real, topological_order)

# Bytes of the widest per-row array in one block of log_density_rows; with
# the kernel's temporaries a block then peaks near 2 MB, whatever the
# number of rows.
_BLOCK_BYTES = 1 << 19
# Bytes one block of sample may take (kernels.LevelPlan.row_words per row).
_SAMPLE_BYTES = 1 << 20


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
    ``refresh_params`` sets and brings up to date in place.
    """

    order: list[int]        # node ids by dense index: plan order, children first
    index: dict[int, int]   # node id -> dense index
    # (pool.structure_version, pool.root) it was compiled at
    key: tuple[int, int]
    plan: kernels.LevelPlan
    # Rows per block of log_density_rows: the widest per-row array (nodes,
    # edges or leaf variables) then takes at most _BLOCK_BYTES.
    block_rows: int
    # Rows per block of a partial eval_rows, which also gathers a k x k
    # factor for each of a leaf group's m leaves: m * k * k words a row.
    partial_block_rows: int
    # The variance floor, the weight mode and the pool's store.stamps the
    # groups were last brought up to date with; while all three hold,
    # refresh_params looks at no group.  A new net holds none of them, and
    # its groups have seen no write, so its first refresh sets every group.
    floor: float = math.nan
    weight_mode: str | None = None
    stamps: int = -1

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

        The store counts its writes and frees (``StatsStore.stamps``), so
        while that count, the variance floor and the weight mode are the
        ones last seen no group is looked at: a read after a read costs
        O(1) here.  Otherwise each leaf group whose width was written since
        factors all its leaves again (``kernels.LeafGroup.refresh``), every
        group after a change of the floor, and the sums' log weights follow
        (``refresh_weights``).  A refresh that raises leaves the groups it
        did not set to the next one.
        """
        floor, stamps = pool.variance_floor, pool.store.stamps
        if floor == self.floor and stamps == self.stamps and pool.weight_mode == self.weight_mode:
            return
        self.stamps = -1  # until every group is up to date
        if floor != self.floor:
            for g in self.plan.leaves:
                g.seen = -1
            self.floor = floor
        for g in self.plan.leaves:
            g.refresh(floor)
        self.refresh_weights(pool)
        self.stamps = stamps

    def refresh_weights(self, pool: NodePool) -> None:
        """Recompute the log weights of each sum group whose width of child
        counts was written since (``kernels.NodeGroup.refresh``), every
        group's after a change of the weight mode; a zero count under "mle"
        weights gives -inf, and an unknown mode raises ValueError here, at
        every read until it is set right."""
        mode = pool.weight_mode
        if mode != self.weight_mode:
            for g in self.plan.sums:
                g.seen = -1
            self.weight_mode = mode
        for g in self.plan.sums:
            g.refresh(mode)


def compile_pool(pool: NodePool) -> CompiledNet:
    """Flatten the pool (its reachable part) into a level plan.

    One walk, children before parents: a leaf's height is 0 and an inner
    node's one more than its highest child's.  A node that holds its
    statistics or child counts itself gets its slot in the pool's store
    here.  ``kernels.level_plan`` then numbers the nodes densely in plan
    order, children first, so each plan group owns a range of the kernel's
    output.  The net's parameters are left unset: its first
    ``refresh_params`` factors every leaf and weighs every sum, so a
    compile for a write that reads no density factors nothing.
    """
    height: dict[int, int] = {}
    inner = []  # (height, kind, node id, child ids)
    scopes = {}  # node id -> scope, for each leaf
    slots = {}  # node id -> slot, for each leaf (statistics) and sum (child counts)
    for nid in topological_order(pool):
        node = pool.node(nid)
        slot = pool.slot_of(node)
        if isinstance(node, LeafNode):
            if slot[0].k != len(node.scope):
                raise ValueError(f"leaf {nid} has statistics of width {slot[0].k} "
                                 f"over {len(node.scope)} variables")
            scopes[nid], slots[nid] = node.scope, slot
            height[nid] = 0
            continue
        if isinstance(node, SumNode):
            if slot[0].c != len(node.children):
                raise ValueError(f"sum {nid} has {slot[0].c} child counts "
                                 f"for {len(node.children)} children")
            slots[nid] = slot
        height[nid] = h = 1 + max((height[c] for c in node.children), default=0)
        kind = kernels.KIND_SUM if isinstance(node, SumNode) else kernels.KIND_PRODUCT
        inner.append((h, kind, nid, node.children))
    plan, order = kernels.level_plan(inner, scopes, slots)
    n = len(order)
    n_edges = sum(g.children.size for g in plan.groups)
    width = max(n, n_edges, sum(map(len, scopes.values())))
    partial_width = max([width] + [g.nodes.size * g.k * g.k for g in plan.leaves])
    return CompiledNet(order, {nid: i for i, nid in enumerate(order)},
                       (pool.structure_version, pool.root), plan,
                       max(1, _BLOCK_BYTES // (8 * width)),
                       max(1, _BLOCK_BYTES // (8 * partial_width)))


def current_net(pool: NodePool) -> CompiledNet:
    """The pool's compiled net for its current structure, parameters as they
    were last brought up to date.

    One net per pool, held on the pool itself (``pool.compiled``), so it
    lives exactly as long as the pool and a deep copy of the pool gets its
    own.  The net is rebuilt when the structure version or the root differs
    from the ones it was compiled at (tests and users may reassign the root
    without a version bump); compiling walks the pool, so a pool that is
    not a tree raises here, before anything reads or writes it.
    ``learner.learn_batch`` takes the net from here and refreshes its
    parameters only when it evaluates, that is when the pool has a sum.
    """
    net = pool.compiled
    if net is None or net.key != (pool.structure_version, pool.root):
        pool.compiled = None  # let the old net go before compiling the new one
        net = pool.compiled = compile_pool(pool)
    return net


def shared_net(pool: NodePool) -> CompiledNet:
    """The pool's compiled net (``current_net``), up to date with its
    parameters.

    Every read query uses it.  ``refresh_params`` brings the net up to
    date: assigned statistics, assigned child counts, a new weight mode
    and a new variance floor show at once, and so do the leaf groups that
    writes without a sum left unfactored (all of them on a net compiled
    for such writes).  A read that follows a read with nothing changed
    looks at no group (the store's write count has not moved),
    re-factors nothing and recomputes no weight: its refresh is O(1).
    """
    net = current_net(pool)
    net.refresh_params(pool)
    return net


def check_rows(X: np.ndarray, dim: int) -> np.ndarray:
    """Complete rows as a float (n, dim) array; ValueError on bad shape or values."""
    if not (type(X) is np.ndarray and X.ndim == 2 and X.dtype == np.float64):
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
    kept, so memory does not grow with the number of rows.  With leaves
    over k >= 2 variables a row's value can differ in its last bits with
    the batch it is scored in, so a digest over scores holds only at a
    fixed split into blocks: the batched matrix products that score such a
    leaf group are the only per-row reductions whose operand shape follows
    the batch.  Univariate leaves give the same bits at every batch.
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

def _check_assignment(pool: NodePool, assignment: Mapping[int, float],
                      row: list[float]) -> list[int]:
    """Check ``assignment`` and write it into ``row`` in one pass.

    ``row`` is a list of ``pool.dim`` floats, NaN where nothing is
    assigned; each value is written as a float at its variable, and the
    variables are returned in the order met.  ValueError, before anything
    is compiled, on anything but a mapping (its type is named) of integer
    variables inside the dimension to finite real values.  No dict or
    array comes in between: the row goes straight into the batch of
    ``_partial_rows``.
    """
    if not isinstance(assignment, Mapping):
        raise ValueError(f"assignment must be a mapping of variables to values, "
                         f"got {type(assignment).__name__}")
    keys = []
    for key, value in assignment.items():
        if not is_integer(key):  # a bool is no variable index
            raise ValueError(f"assignment variable {key!r} is not an integer")
        k = int(key)
        if k < 0 or k >= pool.dim:
            raise ValueError(f"assignment variable {k} is outside dimension {pool.dim}")
        if not is_real(value):
            raise ValueError(f"assignment value for variable {k} is not a number: {value!r}")
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"assignment value for variable {k} is not finite")
        row[k] = v
        keys.append(k)
    return keys


def _partial_rows(pool: NodePool, *rows: list[float]) -> np.ndarray:
    """Root log-density of each evidence row, all in one batch: each row is
    a list of ``pool.dim`` floats from ``_check_assignment``, NaN where the
    assignment leaves a variable out, and one ``np.array`` makes the batch."""
    X = np.array(rows)
    net = shared_net(pool)
    return net.eval_rows(X, partial=True)[net.index[pool.root]]


def log_density(pool: NodePool, evidence: Mapping[int, float]) -> float:
    """Log of the joint density marginalized over unassigned variables.

    With empty evidence this is log of the total mass, which is 0.0 for any
    valid network.
    """
    row = [math.nan] * pool.dim
    _check_assignment(pool, evidence, row)
    return float(_partial_rows(pool, row)[0])


def conditional_log_density(pool: NodePool, query: Mapping[int, float],
                            evidence: Mapping[int, float]) -> float:
    """log f(query | evidence): a batch of the evidence and of evidence plus
    query, the second row a copy of the first with the query written in."""
    q = [math.nan] * pool.dim
    keys = _check_assignment(pool, query, q)
    ev = [math.nan] * pool.dim
    _check_assignment(pool, evidence, ev)
    overlap = {k for k in keys if not math.isnan(ev[k])}  # assigned values are finite
    if overlap:
        raise ValueError(f"query and evidence share variables {sorted(overlap)}")
    joint = ev.copy()
    for k in keys:
        joint[k] = q[k]
    denom, joint = _partial_rows(pool, ev, joint)
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
        terms = means.take(g.children, axis=0)
        if g.is_sum:
            terms *= np.exp(g.logw)[:, :, None]
        means[g.span] = terms.sum(axis=0)
    return means[net.index[pool.root]]
