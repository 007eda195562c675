"""The bottom-up evaluation kernel and top-down sampling over a flattened network.

The hot loop of both training and evaluation is computing, for a batch of
rows, the log-density of every node in the network.  The network is
flattened into plain arrays (see ``evaluate.CompiledNet``) and handed to one
kernel, ``eval_flat_numpy``, which every write and read runs.

Array layout (N nodes in topological order, children before parents):
    kind[i]          0 leaf, 1 sum, 2 product
    child_ptr/child_idx   CSR child lists over dense node indices
    child_logw[e]    log mixture weight of edge e (0.0 for product edges)
    leaf_ptr/leaf_vars    CSR variable columns per leaf
    leaf_mean        flat per-leaf means, aligned with leaf_vars
    mat_ptr/leaf_ichol    flat row-major inverse Cholesky factors, k*k per leaf
    leaf_chol        the Cholesky factors themselves, laid out like leaf_ichol
    leaf_const[i]    log normalization constant of leaf i

The kernel follows a ``LevelPlan`` that ``level_plan`` builds from the index
arrays, once per structure (see ``evaluate.compile_pool``).  The parameter
arrays are read at every call, so refreshing leaves or weights in place
needs no new plan.  The plan holds index arrays into the flat arrays above,
grouped so that each group costs a fixed number of numpy calls whatever its
size:

* one ``LeafGroup`` per leaf scope size k.  For k = 1 the group is one
  elementwise expression over all univariate leaves; for k > 1 it is one
  batched ``matmul`` against the stacked inverse factors.
* one ``NodeGroup`` per (height, kind, number of children), in order of
  height, where a leaf has height 0 and an inner node one more than its
  highest child.  A group gathers its children's rows into a (children,
  nodes, rows) block and reduces the first axis: ``add`` for products,
  ``logaddexp`` after adding the edge log weights for sums.

Given the regularized leaf covariances (``leaf_cov``, laid out like
``leaf_ichol``) the kernel also takes partial evidence: NaN marks an
unobserved value, which is integrated out inside its leaf.  A leaf with
every variable unobserved contributes 0, a univariate leaf otherwise its
closed form, and the (row, leaf) pairs of one k > 1 group with some but not
all variables observed go through one stacked Cholesky factorization of
their restricted covariances.

``sample_flat`` walks the same plan top-down to draw rows: the (node, row)
pairs that reach a group are handled by a few numpy calls, with routing
tables (``DrawPlan``) that ``draw_plan`` builds once per structure.

Reducing the first axis adds a node's children left to right, as a scalar
loop over nodes does, so a model routes its rows exactly as under the
per-node numpy loop this kernel replaced.  (numpy sums pairwise only a
block of one node and one row with eight or more children, as that loop
did for every node at batch 1.)  A segmented ``reduceat`` over a level's
edges would not keep the order: it adds each segment's first child to a
pairwise sum of the others.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

KIND_LEAF = 0
KIND_SUM = 1
KIND_PRODUCT = 2
LOG_2PI = float(np.log(2.0 * np.pi))
# There is no other kernel; perfbench/run.py reads this name to label its runs.
NUMBA_ENABLED = False


@dataclass(frozen=True)
class LeafGroup:
    """All leaves over k variables; index arrays are (m,) for k = 1, else (m, k[, k])."""

    k: int
    nodes: np.ndarray   # (m,) dense node indices
    cols: np.ndarray    # data columns
    mean: np.ndarray    # positions in leaf_mean
    ichol: np.ndarray   # positions in leaf_ichol


@dataclass(frozen=True)
class NodeGroup:
    """Inner nodes of one height and kind with the same number of children c."""

    is_sum: bool
    nodes: np.ndarray     # (m,) dense node indices
    children: np.ndarray  # (c, m) dense child indices; column j belongs to nodes[j]
    edges: np.ndarray     # (c, m) edge positions in child_logw


@dataclass(frozen=True)
class LevelPlan:
    leaves: tuple[LeafGroup, ...]
    groups: tuple[NodeGroup, ...]  # children's groups come first


@dataclass(frozen=True)
class DrawGroup:
    """Where the children of one ``NodeGroup`` sit, for ``sample_flat``.

    ``target`` holds each child's group (an index into ``LevelPlan.groups``,
    or len(groups) plus an index into ``LevelPlan.leaves``) and ``pos`` its
    position in that group's arrays, both (c, m) like ``NodeGroup.children``;
    ``targets`` lists the groups that occur.
    """

    target: np.ndarray
    pos: np.ndarray
    targets: tuple[int, ...]


@dataclass(frozen=True)
class DrawPlan:
    group_of: np.ndarray  # (N,) group of each node, numbered as in DrawGroup.target
    pos_of: np.ndarray    # (N,) its position in that group
    groups: tuple[DrawGroup, ...]  # one per LevelPlan.groups entry
    # Bound on the 8-byte words one drawn row takes: a (node, row) pair for
    # every node it can reach and a leaf's draw.
    row_words: int


def level_plan(kind, child_ptr, child_idx, leaf_ptr, leaf_vars, mat_ptr) -> LevelPlan:
    """Group the nodes of a flattened network for ``eval_flat_numpy``: the
    leaves by scope size, the inner nodes by height, kind and child count."""
    sizes = np.diff(leaf_ptr)
    leaves = []
    # Not np.unique, whose first call imports numpy.ma (about 1 MB).
    for k in sorted(set(sizes[kind == KIND_LEAF].tolist())):
        nodes = np.flatnonzero((kind == KIND_LEAF) & (sizes == k))
        mean, ichol = leaf_ptr[nodes], mat_ptr[nodes]
        if k > 1:
            mean = mean[:, None] + np.arange(k)
            ichol = ichol[:, None, None] + np.arange(k * k).reshape(k, k)
        leaves.append(LeafGroup(k, nodes, leaf_vars[mean], mean, ichol))

    ptr = child_ptr.tolist()
    kids = child_idx.tolist()
    height = [0] * kind.shape[0]
    by_level: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    for i, kd in enumerate(kind.tolist()):
        if kd == KIND_LEAF:
            continue
        lo, hi = ptr[i], ptr[i + 1]
        height[i] = 1 + max((height[c] for c in kids[lo:hi]), default=0)
        by_level[(height[i], kd, hi - lo)].append(i)

    groups = []
    for (_, kd, c), members in sorted(by_level.items()):
        nodes = np.array(members, dtype=np.int64)
        edges = child_ptr[nodes] + np.arange(c)[:, None]
        groups.append(NodeGroup(kd == KIND_SUM, nodes, child_idx[edges], edges))
    return LevelPlan(tuple(leaves), tuple(groups))


def draw_plan(plan: LevelPlan, n_nodes: int) -> DrawPlan:
    """Routing tables of ``sample_flat`` for a network of ``n_nodes`` nodes."""
    members = [g.nodes for g in plan.groups] + [g.nodes for g in plan.leaves]
    sizes = [m.size for m in members]
    everyone = np.concatenate(members)
    group_of = np.empty(n_nodes, dtype=np.int64)
    pos_of = np.empty(n_nodes, dtype=np.int64)
    group_of[everyone] = np.repeat(np.arange(len(members)), sizes)
    pos_of[everyone] = np.arange(everyone.size) - np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    words = np.zeros(n_nodes)
    for g in plan.leaves:
        words[g.nodes] = 2 + 4 * g.k + g.k * g.k
    draws = []
    for g in plan.groups:
        kids = words[g.children]
        words[g.nodes] = 2 + (kids.max(axis=0) if g.is_sum else kids.sum(axis=0))
        target, pos = group_of[g.children], pos_of[g.children]
        draws.append(DrawGroup(target, pos, tuple(sorted(set(target.ravel().tolist())))))
    return DrawPlan(group_of, pos_of, tuple(draws), int(words.max()))


def eval_flat_numpy(plan: LevelPlan, child_logw, leaf_mean, leaf_ichol, leaf_const, X, out,
                    leaf_cov=None):
    """Level kernel: a few numpy calls per plan group, batched over rows.

    With ``leaf_cov`` a NaN in X marks an unobserved value.
    """
    for g in plan.leaves:
        if leaf_cov is None:
            out[g.nodes] = _leaf_rows(g, X[:, g.cols] - leaf_mean[g.mean], leaf_ichol, leaf_const)
        else:
            out[g.nodes] = _partial_leaf_rows(g, leaf_mean, leaf_ichol, leaf_const, leaf_cov, X)
    for g in plan.groups:
        terms = out[g.children]
        if g.is_sum:
            terms += child_logw[g.edges][:, :, None]
            out[g.nodes] = np.logaddexp.reduce(terms, axis=0)
        else:
            out[g.nodes] = np.add.reduce(terms, axis=0)
    return out


def _leaf_rows(g: LeafGroup, dev, leaf_ichol, leaf_const):
    """(leaves, rows) log-densities of one leaf group at deviations ``dev``
    from the means, shape (rows, leaves[, k])."""
    if g.k == 1:
        y = dev * leaf_ichol[g.ichol]
        return (leaf_const[g.nodes] - 0.5 * (y * y)).T
    y = np.matmul(dev.transpose(1, 0, 2), leaf_ichol[g.ichol].transpose(0, 2, 1))
    return leaf_const[g.nodes, None] - 0.5 * np.einsum("lij,lij->li", y, y)


def _partial_leaf_rows(g: LeafGroup, leaf_mean, leaf_ichol, leaf_const, leaf_cov, X):
    """``_leaf_rows`` where NaN in X marks an unobserved value."""
    dev = X[:, g.cols] - leaf_mean[g.mean]
    miss = np.isnan(dev)
    dev[miss] = 0.0
    val = _leaf_rows(g, dev, leaf_ichol, leaf_const)
    if g.k == 1:
        val[miss.T] = 0.0
        return val
    n_miss = miss.sum(axis=2).T
    val[n_miss == g.k] = 0.0
    leaf, row = np.nonzero((n_miss > 0) & (n_miss < g.k))
    if leaf.size:
        # Each restricted covariance sits in a k x k matrix that is the
        # identity on the unobserved variables, where the deviation is 0:
        # they then add nothing to the quadratic form and log 1 to the
        # log-determinant, and 0.5 log 2 pi each is added back.
        hide = miss[row, leaf]
        cov = np.where(hide[:, :, None] | hide[:, None, :], np.eye(g.k), leaf_cov[g.ichol[leaf]])
        chol = np.linalg.cholesky(cov)
        z = np.linalg.solve(chol, dev[row, leaf][:, :, None])[:, :, 0]
        val[leaf, row] = (-0.5 * (g.k - n_miss[leaf, row]) * LOG_2PI
                          - np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
                          - 0.5 * np.einsum("ij,ij->i", z, z))
    return val


def sample_flat(plan: LevelPlan, draws: DrawPlan, child_logw, leaf_mean, leaf_chol, root: int,
                rng, out):
    """Draw every row of ``out`` top-down from node ``root``; returns ``out``.

    The (node, row) pairs that reach a node are filed under its group, so
    each group costs a few numpy calls for all its nodes and rows.  Walking
    the groups in reverse, a product sends its rows to every child and a sum
    draws one uniform per pair and picks the child whose cumulative weight
    first exceeds it.  Each leaf group then draws its pairs as mean + L z,
    with L the Cholesky factor from ``leaf_chol`` (laid out like
    ``leaf_ichol``).  Decomposability keeps the pairs that reach a node from
    different parents on disjoint rows, so every row gets each variable once.
    """
    n_rows = out.shape[0]
    if n_rows == 0:
        return out
    n_inner = len(plan.groups)
    pending = [[] for _ in range(n_inner + len(plan.leaves))]
    pending[draws.group_of[root]].append((draws.pos_of[root:root + 1].repeat(n_rows),
                                          np.arange(n_rows)))
    for gi in range(n_inner - 1, -1, -1):
        parts, pending[gi] = pending[gi], None  # let the pieces go once joined
        if not parts:
            continue
        pos, rows = _joined(parts)
        g, d = plan.groups[gi], draws.groups[gi]
        if g.is_sum:
            # The group's edge weights node after node in one running sum, so
            # one binary search picks for every pair: node p's children cover
            # (lo, hi], lo the weight of nodes 0..p-1 and hi = cum[p c + c - 1].
            # Each node's weights sum to one, so the running sum's rounding
            # grows only with the number of nodes in the group.
            c = g.edges.shape[0]
            cum = np.cumsum(np.exp(child_logw[g.edges.T]))
            hi = cum[c - 1::c]
            lo = np.concatenate(([0.0], hi[:-1]))[pos]
            hi = hi[pos]
            # Held in [lo, hi), so the first cumulative weight above it
            # belongs to a child of this node with positive weight.
            u = np.minimum(lo + rng.random(rows.size) * (hi - lo), np.nextafter(hi, 0.0))
            pick = np.searchsorted(cum, u, side="right") - pos * c
            _route(pending, d, (pick, pos), rows)
        else:
            _route(pending, d, (slice(None), pos), np.concatenate([rows] * len(d.pos)))
    for li, g in enumerate(plan.leaves):
        parts, pending[n_inner + li] = pending[n_inner + li], None
        if not parts:
            continue
        pos, rows = _joined(parts)
        z = rng.standard_normal((rows.size, g.k))
        # take, not fancy indexing, which is ~10x slower on (p, k, k) gathers.
        mean = leaf_mean[g.mean].take(pos, axis=0)
        chol = leaf_chol[g.ichol].take(pos, axis=0)
        cols = g.cols.take(pos, axis=0)
        if g.k == 1:
            out[rows, cols] = mean + chol * z[:, 0]
        else:
            out[rows[:, None], cols] = mean + np.einsum("pij,pj->pi", chol, z)
    return out


def _joined(parts):
    """One (positions, rows) pair from the pieces filed under a group."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([p for p, _ in parts]), np.concatenate([r for _, r in parts])


def _route(pending, d: DrawGroup, idx, rows):
    """File the pairs (child ``d.pos[idx]``, ``rows``) under the children's groups."""
    pos = d.pos[idx].ravel()
    if len(d.targets) == 1:
        pending[d.targets[0]].append((pos, rows))
        return
    group = d.target[idx].ravel()
    for t in d.targets:
        sel = group == t
        if sel.any():
            pending[t].append((pos[sel], rows[sel]))
