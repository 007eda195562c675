"""The bottom-up evaluation kernel and top-down sampling over a flattened network.

The hot loop of both training and evaluation is computing, for a batch of
rows, the log-density of every node in the network.  One kernel,
``eval_flat_numpy``, which every write and read runs, follows the
network's one ``LevelPlan``, which ``level_plan`` builds from each inner
node's height, kind and children and the leaves' scopes, once per
structure, after one walk of the network (see ``evaluate.compile_pool``).
Each group of the plan holds its own parameters, which its owner writes in
place, so a refresh needs no new plan, and each costs a fixed number of
numpy calls whatever its size:

* one ``LeafGroup`` per leaf scope size k, which holds its leaves'
  parameters as stacked arrays: ``mean`` (m, k), ``ichol`` (the inverse
  Cholesky factors), ``chol`` and the regularized ``cov``, each (m, k, k),
  and the log normalization constants ``const`` (m,); for k = 1 the
  trailing axes are dropped.  ``LeafGroup.refresh`` writes them from the
  leaves' slots in the pool's statistics store with ``factors``, the one
  place the Cholesky pieces of a Gaussian are computed.  For k = 1 the
  group is one elementwise expression over all univariate leaves; for
  k > 1 it is one batched ``matmul`` against the stacked inverse factors.
* one ``NodeGroup`` per (height, kind, number of children), in order of
  height, where a leaf has height 0 and an inner node one more than its
  highest child.  A group gathers its children's rows into a (children,
  nodes, rows) block and reduces the first axis: ``add`` for products,
  ``logaddexp`` after adding the sums' log weights ``logw``, (children,
  nodes) like the block, for sums.

The N nodes are numbered densely in plan order: the leaf groups by k,
then the node groups in order.  That is children before parents, since
the node groups run by height, and each group owns one contiguous range
``span`` of the kernel's (N, rows) output.  A leaf group writes its range
by slice assignment, and a node group gathers its children's rows with
``take`` and reduces them straight into its range (``out=``), so no group
pays for a scattered index on the small batches of a stream.  A leaf
group gathers its columns of X by fancy indexing, whose layout the k > 1
``matmul`` is fastest on, except a univariate group on partial evidence,
which gathers them with ``take`` (see ``_partial_leaf_rows``).

The kernel also takes partial evidence: NaN marks an unobserved value,
which is integrated out inside its leaf.  A leaf with every variable
unobserved contributes 0 and a univariate leaf otherwise its closed form.
In a k > 1 group every (row, leaf) pair takes its inverse factor and
log-constant in one gather from the group's ``PatternTable``, and one
batched ``matmul`` and one ``einsum`` finish the group: a fully observed
pair reads its leaf's own factor, an unobserved one a zero factor with
constant 0, and any other the factor of its leaf's covariance restricted
to the observed variables.  The table keeps those restricted factors per
observation pattern (which of the k variables are unobserved) for every
leaf of the group; the kernel factors a pattern the first time a query
uses it (every pattern at once when that at most doubles the work), and
``LeafGroup.refresh`` empties it whenever a leaf of the group is factored
again.

``sample_flat`` walks the same plan top-down to draw rows: the (node, row)
pairs that reach a group are handled by a few numpy calls, routed by the
plan's record of each node's group and position (``group_of``/``pos_of``,
and each ``NodeGroup``'s ``target``/``pos`` for its children).

Reducing the first axis adds a node's children left to right, as a scalar
loop over nodes does, so every row's sums are taken in child-list order.
(numpy sums pairwise only a block of one node and one row with eight or
more children.)  A segmented ``reduceat`` over a level's edges would not
keep the order: it adds each segment's first child to a pairwise sum of
the others.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .gstats import StatsWidth

KIND_SUM = 1
KIND_PRODUCT = 2
LOG_2PI = float(np.log(2.0 * np.pi))
# There is no other kernel; perfbench/run.py reads this name to label its runs.
NUMBA_ENABLED = False
# Indices of the strict upper triangle of a k x k matrix, by k.
_UPPER: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def factors(covs: np.ndarray, floor: float):
    """Cholesky pieces of regularized Gaussians: the regularized covariances,
    their Cholesky factors, the inverses of those and the log normalization
    constants.

    An input of shape (m,) holds the variances of m univariate Gaussians,
    which take the closed form: the factor of a 1 x 1 matrix is its square
    root.  A (k, k) covariance, or a stack (..., k, k) of them, regularized
    as cov + floor * I, takes one LAPACK call per piece for the whole stack;
    with floor 0 the regularized covariances are ``covs`` itself.
    """
    if covs.ndim == 1:
        reg = covs + floor
        chol = np.sqrt(reg)
        return reg, chol, 1.0 / chol, -0.5 * LOG_2PI - np.log(chol)
    k = covs.shape[-1]
    reg = covs + floor * np.eye(k) if floor else covs
    chol = np.linalg.cholesky(reg)
    ichol = np.linalg.inv(chol)
    # LAPACK's inverse leaves ~1e-16 above the diagonal; the kernel reads it.
    upper = _UPPER.get(k)
    if upper is None:
        upper = _UPPER[k] = np.triu_indices(k, 1)
    ichol[..., upper[0], upper[1]] = 0.0
    const = -0.5 * k * LOG_2PI - np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return reg, chol, ichol, const


@dataclass(frozen=True, eq=False)
class LeafGroup:
    """All m leaves over k variables and their parameters, which ``refresh``
    writes in place; arrays are (m,) for k = 1, else (m, k[, k])."""

    k: int
    nodes: np.ndarray   # (m,) dense node indices, the range span
    span: slice         # the group's rows of the kernel's output
    cols: np.ndarray    # data columns
    mean: np.ndarray
    ichol: np.ndarray   # inverse Cholesky factors
    chol: np.ndarray    # Cholesky factors
    cov: np.ndarray     # regularized covariances; partial reads only
    const: np.ndarray   # (m,) log normalization constants
    table: PatternTable
    stats: StatsWidth   # the store's width k, which holds the leaves' statistics
    slots: np.ndarray   # (m,) each leaf's slot there
    seen: np.ndarray    # (m,) the slots' write stamps when last factored

    def refresh(self, floor: float, every: bool) -> None:
        """Factor again the leaves whose slot was written since they were
        last factored (every leaf with ``every``), with variance floor
        ``floor``, in one ``factors`` call, and empty the table of
        restricted factors if any leaf changed.  Every change to a slot
        goes through ``StatsWidth.write``, which stamps it, so none is missed.
        """
        stamp = self.stats.stamp.take(self.slots)
        at = slice(None)
        if not every:
            fresh = stamp != self.seen
            if not fresh.any():
                return
            if not fresh.all():
                at = np.flatnonzero(fresh)
        slots = self.slots[at]
        if self.k == 1:
            self.mean[at] = self.stats.mean[slots, 0]
            covs = self.stats.cov[slots, 0, 0]
        else:
            self.mean[at] = self.stats.mean[slots]
            covs = self.stats.cov[slots]
        self.cov[at], self.chol[at], self.ichol[at], self.const[at] = factors(covs, floor)
        self.seen[:] = stamp
        self.table.clear()


@dataclass(frozen=True)
class NodeGroup:
    """Inner nodes of one height and kind with the same number of children c.

    A sum group holds its log weights in ``logw``, written in place by the
    owner of the plan; a product group has none.  ``target`` holds each
    child's group (an index into ``LevelPlan.groups``, or len(groups) plus
    an index into ``LevelPlan.leaves``) and ``pos`` its position in that
    group's arrays, both (c, m) like ``children``;
    ``targets`` lists the groups that occur.  ``sample_flat`` routes by them.
    """

    is_sum: bool
    nodes: np.ndarray     # (m,) dense node indices, the range span
    span: slice           # the group's rows of the kernel's output
    children: np.ndarray  # (c, m) dense child indices; column j belongs to nodes[j]
    logw: np.ndarray | None  # (c, m) log weight of each child, for sums
    target: np.ndarray
    pos: np.ndarray
    targets: tuple[int, ...]


# The fixed slots at the front of every PatternTable: a zero factor with
# constant 0 for a leaf with no variable observed, and the leaf's own factor
# for one with every variable observed.  They are copied, never factored.
_UNOBSERVED, _OBSERVED = 0, 1
_FIXED = 2


@dataclass(eq=False)
class PatternTable:
    """Inverse factors of one k > 1 ``LeafGroup`` per observation pattern,
    in one array that a partial read gathers from once.

    A pattern is the (k,) boolean mask of a leaf's unobserved variables,
    keyed by its bytes, so keys do not overflow for any k.  Slot s holds, for
    each of the group's m leaves j, an inverse Cholesky factor
    ``ichol[s, j]`` and log normalization constant ``const[s, j]``.  The
    first ``_FIXED`` slots hold the two fixed patterns, unobserved and fully
    observed (a zero factor and the leaf's own).  Every other pattern has its
    slot in ``slots``: the factor of the leaf's regularized covariance
    restricted to its observed variables, padded to k x k by a diagonal
    block on the unobserved variables.  The arrays are allocated at the
    first partial read, with room for every pattern or as many as ``budget``
    bytes hold; when a new pattern would not fit, the table is emptied
    first.  The fixed slots count toward neither ``nbytes`` nor the budget.
    """

    budget: int
    slots: dict[bytes, int] = field(default_factory=dict)
    ichol: np.ndarray | None = None  # (_FIXED + capacity, m, k, k)
    const: np.ndarray | None = None  # (_FIXED + capacity, m)

    def clear(self) -> None:
        self.slots, self.ichol, self.const = {}, None, None

    @property
    def nbytes(self) -> int:
        """Bytes of the pattern slots, the fixed ones left out."""
        if self.ichol is None:
            return 0
        return self.ichol[_FIXED:].nbytes + self.const[_FIXED:].nbytes


@dataclass(frozen=True)
class LevelPlan:
    leaves: tuple[LeafGroup, ...]
    groups: tuple[NodeGroup, ...]  # children's groups come first
    group_of: np.ndarray  # (N,) group of each node, numbered as in NodeGroup.target
    pos_of: np.ndarray    # (N,) its position in that group
    # Bound on the 8-byte words one drawn row takes: a (node, row) pair for
    # every node it can reach and a leaf's draw.
    row_words: int


def level_plan(inner, scopes: dict, slots, table_bytes: int):
    """Group the nodes of a flattened network for ``eval_flat_numpy`` and
    ``sample_flat`` (the leaves by scope size, the inner nodes by height,
    kind and child count) and number them densely in plan order; returns
    the plan and the nodes' labels in that order.

    ``inner`` lists the inner nodes children first as (height, kind, label,
    child labels); ``scopes`` maps each leaf's label, children first too,
    to its variables and ``slots`` to its statistics' slot, a
    (``gstats.StatsWidth``, index) pair.  A label is any hashable, such as
    a node id.  The leaf groups by k come first in the numbering, then the
    node groups by (height, kind, child count), each group's nodes in the
    order given, so every group owns the range ``span`` of the numbering
    and a child is numbered before its parent.  The groups' parameter
    arrays (the sums' ``logw`` and the leaves') start zeroed, and each leaf
    group gets an empty ``PatternTable`` of ``table_bytes``.
    """
    by_size: dict[int, list] = defaultdict(list)
    for label, scope in scopes.items():
        by_size[len(scope)].append(label)
    sizes = sorted(by_size.items())
    by_level: dict[tuple[int, int, int], list] = defaultdict(list)
    for height, kd, label, kids in inner:
        by_level[(height, kd, len(kids))].append((label, kids))
    levels = sorted(by_level.items())
    # Plan order: the leaf groups, then the node groups.  NodeGroup.target
    # numbers the node groups first, then the leaf groups.
    members = [at for _, at in sizes] + [[label for label, _ in at] for _, at in levels]
    numbers = [len(levels) + li for li in range(len(sizes))] + list(range(len(levels)))
    order = [label for at in members for label in at]
    index = {label: i for i, label in enumerate(order)}
    spans, group_of, pos_of = [], [], []
    for gi, at in zip(numbers, members):
        spans.append(slice(len(group_of), len(group_of) + len(at)))
        group_of += [gi] * len(at)
        pos_of += range(len(at))
    group_arr, pos_arr = np.array(group_of, dtype=np.int64), np.array(pos_of, dtype=np.int64)

    words = [0] * len(order)
    leaves = []
    for (k, at), span in zip(sizes, spans):
        words[span] = [2 + 4 * k + k * k] * len(at)
        m = len(at)
        vec, mat = ((m,), (m,)) if k == 1 else ((m, k), (m, k, k))
        leaves.append(LeafGroup(k, np.arange(span.start, span.stop), span,
                                np.array([scopes[x] for x in at], dtype=np.int64).reshape(vec),
                                np.zeros(vec), np.zeros(mat), np.zeros(mat), np.zeros(mat),
                                np.zeros(m), PatternTable(table_bytes), slots[at[0]][0],
                                np.array([slots[x][1] for x in at], dtype=np.intp),
                                np.zeros(m, dtype=np.int64)))

    groups = []
    for ((_, kd, c), at), span in zip(levels, spans[len(sizes):]):
        is_sum, m = kd == KIND_SUM, len(at)
        kid_index = [[index[x] for x in kids] for _, kids in at]
        for i, kids in zip(range(span.start, span.stop), kid_index):
            w = [words[x] for x in kids]
            words[i] = 2 + (max(w, default=0) if is_sum else sum(w))
        children = np.array([kids[e] for e in range(c) for kids in kid_index],
                            dtype=np.intp).reshape(c, m)
        groups.append(NodeGroup(is_sum, np.arange(span.start, span.stop), span, children,
                                np.zeros((c, m)) if is_sum else None,
                                group_arr[children], pos_arr[children],
                                tuple(sorted({group_of[x] for kids in kid_index for x in kids}))))
    return LevelPlan(tuple(leaves), tuple(groups), group_arr, pos_arr, max(words)), order


def eval_flat_numpy(plan: LevelPlan, X, out, partial: bool = False):
    """Level kernel: a few numpy calls per plan group, batched over rows.

    Each group writes its own rows of ``out``, the range ``g.span``: a leaf
    group by slice assignment, a node group by reducing its children's
    rows, gathered with ``take``, straight into them (``out=``).  With
    ``partial`` a NaN in X marks an unobserved value; the leaf groups'
    tables then fill as queries use new patterns.
    """
    for g in plan.leaves:
        out[g.span] = _partial_leaf_rows(g, X) if partial else _leaf_rows(g, X[:, g.cols] - g.mean)
    for g in plan.groups:
        terms = out.take(g.children, axis=0)
        if g.is_sum:
            terms += g.logw[:, :, None]
            np.logaddexp.reduce(terms, axis=0, out=out[g.span])
        else:
            np.add.reduce(terms, axis=0, out=out[g.span])
    return out


def _leaf_rows(g: LeafGroup, dev):
    """(leaves, rows) log-densities of one leaf group at deviations ``dev``
    from the means, shape (rows, leaves[, k])."""
    if g.k == 1:
        y = dev * g.ichol
        return (g.const - 0.5 * (y * y)).T
    y = np.matmul(dev.transpose(1, 0, 2), g.ichol.transpose(0, 2, 1))
    return g.const[:, None] - 0.5 * np.einsum("lij,lij->li", y, y)


def _partial_leaf_rows(g: LeafGroup, X):
    """``_leaf_rows`` where NaN in X marks an unobserved value.

    For k > 1 every (row, leaf) pair takes its inverse factor and
    log-constant from one gather over its group's table (``_pair_factors``),
    then one batched ``matmul`` and one ``einsum`` finish the group.  A
    k = 1 group gathers its columns with ``take``, about 1 us less than
    fancy indexing on the one or two rows of a query; the unobserved
    deviations are set to 0 and, for k = 1, their rows of the result too,
    by two mask stores."""
    dev = (X.take(g.cols, axis=1) if g.k == 1 else X[:, g.cols]) - g.mean
    miss = np.isnan(dev)
    dev[miss] = 0.0
    if g.k == 1:
        val = _leaf_rows(g, dev)
        val[miss.T] = 0.0
        return val
    ichol, const = _pair_factors(g, miss)
    y = np.matmul(ichol, dev[..., None])[..., 0]
    return (const - 0.5 * np.einsum("rli,rli->rl", y, y)).T


def _pair_factors(g: LeafGroup, hide):
    """Inverse Cholesky factors (rows, m, k, k) and log-constants (rows, m) of
    every (row, leaf) pair of a k > 1 group, given the unobserved masks
    ``hide`` (rows, m, k), in one gather from ``g.table``.

    A fully observed pair reads its leaf's own factor and an unobserved one
    a zero factor with constant 0, both from the table's fixed slots.  The
    patterns the table lacks are factored for all m leaves of the group in
    one stack; all 2^k - 2 patterns instead, when that at most doubles the
    work and fits the budget, so that later queries find every pattern (for
    k = 2 one miss fills the table).  A call whose own patterns pass the
    budget factors them in stacks of at most the budget, uses them once and
    leaves the table empty.
    """
    table, k, m = g.table, g.k, g.nodes.size
    keys = np.frombuffer(hide.tobytes(), dtype=f"V{k}").tolist()  # each pair's pattern
    # Where each pattern's m entries start in the flattened table.
    start = {b"\x01" * k: _UNOBSERVED * m, bytes(k): _OBSERVED * m}
    patterns = [key for key in dict.fromkeys(keys) if key not in start]
    new = [key for key in patterns if key not in table.slots]
    if new or table.ichol is None:
        slot_bytes = 8 * m * (k * k + 1)
        # All of them, when they cost at most twice the new ones and fit.
        if new and 2 ** k - 2 <= min(2 * len(new), table.budget // slot_bytes):
            new = [bytes(p) for p in itertools.product((0, 1), repeat=k)
                   if 0 < sum(p) < k and bytes(p) not in table.slots]
        if (len(table.slots) + len(new)) * slot_bytes > table.budget:
            table.clear()
            new = patterns
        if table.ichol is None:  # room for every pattern, or as many as the budget holds
            cap = _FIXED + max(len(new), min(2 ** k - 2, table.budget // slot_bytes))
            table.ichol, table.const = np.empty((cap, m, k, k)), np.empty((cap, m))
            table.ichol[_UNOBSERVED], table.const[_UNOBSERVED] = 0.0, 0.0
            table.ichol[_OBSERVED], table.const[_OBSERVED] = g.ichol, g.const
        used = _FIXED + len(table.slots)
        # The unobserved block is I / (2 pi): each such variable then adds
        # 0.5 log 2 pi to the log-constant, which cancels its share of the
        # full leaf's -0.5 k log 2 pi, and a deviation of 0 there adds nothing
        # to the quadratic form.
        pad = np.eye(k) / (2.0 * np.pi)
        masks = np.frombuffer(b"".join(new), dtype=bool).reshape(-1, 1, k)
        step = max(1, table.budget // slot_bytes)
        for lo in range(0, len(new), step):
            h = masks[lo:lo + step]
            at = slice(used + lo, used + lo + h.shape[0])
            # g.cov is regularized already, so no floor is added.
            _, _, table.ichol[at], table.const[at] = factors(
                np.where(h[..., :, None] | h[..., None, :], pad, g.cov), 0.0)
        table.slots.update(zip(new, range(used, used + len(new))))
    start.update((key, table.slots[key] * m) for key in patterns)
    # Pairs run row by row, leaf by leaf.
    at = np.array([start[key] + j for key, j in zip(keys, itertools.cycle(range(m)))],
                  dtype=np.intp).reshape(hide.shape[:2])
    # take, not fancy indexing, which is ~10x slower on (p, k, k) gathers.
    ichol = table.ichol.reshape(-1, k, k).take(at, axis=0)
    const = table.const.reshape(-1).take(at)
    if table.nbytes > table.budget:
        table.clear()
    return ichol, const


def sample_flat(plan: LevelPlan, root: int, rng, out):
    """Draw every row of ``out`` top-down from node ``root``; returns ``out``.

    The (node, row) pairs that reach a node are filed under its group, so
    each group costs a few numpy calls for all its nodes and rows.  Walking
    the groups in reverse, a product sends its rows to every child and a sum
    draws one uniform per pair and picks the child whose cumulative weight
    first exceeds it.  Each leaf group then draws its pairs as mean + L z,
    with L the leaf's Cholesky factor from ``chol``.
    """
    n_rows = out.shape[0]
    if n_rows == 0:
        return out
    n_inner = len(plan.groups)
    pending = [[] for _ in range(n_inner + len(plan.leaves))]
    pending[plan.group_of[root]].append((plan.pos_of[root:root + 1].repeat(n_rows),
                                         np.arange(n_rows)))
    for gi in range(n_inner - 1, -1, -1):
        parts, pending[gi] = pending[gi], None  # let the pieces go once joined
        if not parts:
            continue
        pos, rows = _joined(parts)
        g = plan.groups[gi]
        if g.is_sum:
            # The group's weights node after node in one running sum, so
            # one binary search picks for every pair: node p's children cover
            # (lo, hi], lo the weight of nodes 0..p-1 and hi = cum[p c + c - 1].
            # Each node's weights sum to one, so the running sum's rounding
            # grows only with the number of nodes in the group.
            c = g.logw.shape[0]
            cum = np.cumsum(np.exp(g.logw.T))
            hi = cum[c - 1::c]
            lo = np.concatenate(([0.0], hi[:-1]))[pos]
            hi = hi[pos]
            # Held in [lo, hi), so the first cumulative weight above it
            # belongs to a child of this node with positive weight.
            u = np.minimum(lo + rng.random(rows.size) * (hi - lo), np.nextafter(hi, 0.0))
            pick = np.searchsorted(cum, u, side="right") - pos * c
            _route(pending, g, (pick, pos), rows)
        else:
            _route(pending, g, (slice(None), pos), np.concatenate([rows] * len(g.pos)))
    for li, g in enumerate(plan.leaves):
        parts, pending[n_inner + li] = pending[n_inner + li], None
        if not parts:
            continue
        pos, rows = _joined(parts)
        z = rng.standard_normal((rows.size, g.k))
        # take, not fancy indexing, which is ~10x slower on (p, k, k) gathers.
        mean = g.mean.take(pos, axis=0)
        chol = g.chol.take(pos, axis=0)
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


def _route(pending, g: NodeGroup, idx, rows):
    """File the pairs (child ``g.pos[idx]``, ``rows``) under the children's groups."""
    pos = g.pos[idx].ravel()
    if len(g.targets) == 1:
        pending[g.targets[0]].append((pos, rows))
        return
    group = g.target[idx].ravel()
    for t in g.targets:
        sel = group == t
        if sel.any():
            pending[t].append((pos[sel], rows[sel]))
