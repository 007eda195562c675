"""Single-pass structure and parameter learning from streaming data.

The model starts fully factorized: one product node over independent
univariate Gaussian leaves.  Each incoming batch is pushed down the
network.  Product nodes maintain running statistics over their scope and
periodically check the correlations between the scopes of different
children; checks follow a doubling schedule of each node's own evidence,
so a node is re-examined only once the data since its last check has
doubled.  When a check finds a cross-child correlation that is above the
configured threshold and statistically significant, the two children are
either merged into a multivariate Gaussian leaf (small joint scope) or
replaced by a mixture of the old pair and a freshly factorized component
(large joint scope).  Sum nodes route rows to their best child, so mixture
components specialize and newly created components pick up the regions
their siblings explain badly.

Mixtures created inside mixtures are flattened after every batch, which is
how a component count larger than two emerges over time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .evaluate import (CompiledNet, check_rows, current_net, shared_net,
                       subtree_log_density_rows)
from .gstats import GaussianStats, correlation_matrix, update_each
from .nodes import (LeafNode, NodePool, ProductNode, Scope, SumNode,
                    WEIGHT_MODES, is_integer, make_scope, scope_positions, scope_union,
                    topological_order)
from .updates import tie_break_argmax


@dataclass
class LearnerConfig:
    """Knobs for the streaming learner.

    correlation_threshold: minimum cross-child correlation that justifies a
        structure change.
    max_leaf_vars: joint scopes at least this large become mixtures; smaller
        ones collapse into a multivariate leaf.  An integer.
    batch_size: rows per update step, an integer.
    weight_mode: "laplace" (add-one smoothing) or "mle" (count ratios).
    early_stop_fraction: fraction of the stream after which structure
        changes stop (parameters keep updating).
    variance_floor: added to every covariance diagonal before it is used as
        a density or sampled from.
    seed: seed for routing tie breaks and any other learner randomness, a
        non-negative integer.
    significance_z: structure changes additionally require the detected
        correlation to be significant, |r| * sqrt(n) >= significance_z,
        which keeps the small-sample noise of a young node from triggering
        spurious merges.
    """

    correlation_threshold: float = 0.1
    max_leaf_vars: int = 3
    batch_size: int = 1
    weight_mode: str = "laplace"
    early_stop_fraction: float = 1.0
    variance_floor: float = 1e-4
    seed: int = 0
    significance_z: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.correlation_threshold <= 1.0):
            raise ValueError("correlation_threshold must be in (0, 1]")
        if not _whole(self.max_leaf_vars, 1):
            raise ValueError("max_leaf_vars must be an integer of at least 1")
        if not _whole(self.batch_size, 1):
            raise ValueError("batch_size must be an integer of at least 1")
        if not _whole(self.seed, 0):
            raise ValueError("seed must be a non-negative integer")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode: {self.weight_mode!r}")
        if not (0.0 < self.early_stop_fraction <= 1.0):
            raise ValueError("early_stop_fraction must be in (0, 1]")
        if not 0.0 < self.variance_floor < math.inf:
            raise ValueError("variance_floor must be positive and finite")
        if not 0.0 <= self.significance_z < math.inf:
            raise ValueError("significance_z must be non-negative and finite")


def _whole(value, least: int) -> bool:
    """Whether ``value`` is an integer, not a bool, of at least ``least``."""
    return is_integer(value) and value >= least


def init_factored_pool(dim: int, weight_mode: str = "laplace",
                       variance_floor: float = 1e-4) -> NodePool:
    """Fully factorized starting model: standard normal leaf per variable.

    All counts start at one.  With a single variable the pool is just the
    bare leaf, with no wrapping product node.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    pool = NodePool(dim, weight_mode=weight_mode, variance_floor=variance_floor)
    leaf_ids = []
    for v in range(dim):
        leaf = LeafNode(scope=(v,), stats=GaussianStats(np.zeros(1), np.ones((1, 1)), 1.0))
        leaf_ids.append(pool.add(leaf))
    if dim == 1:
        pool.root = leaf_ids[0]
        return pool
    root = ProductNode(scope=make_scope(range(dim)), children=leaf_ids,
                       stats=GaussianStats.zeros(dim, count=1.0), next_check=2.0)
    pool.root = pool.add(root)
    return pool


def make_factored_subtree(pool: NodePool, scope: Scope, parent_stats: GaussianStats,
                          parent_scope: Scope) -> int:
    """Fresh fully factorized component over ``scope``.

    Each leaf starts at the parent's running mean for its variable with the
    parent's running variance (floored), held with one pseudo-observation,
    so the new component initially mimics the marginals of the data that
    flowed through the parent and can win rows anywhere in its range.  A
    singleton scope yields a bare leaf.  The component's product node
    starts with zeroed statistics and count zero.
    """
    positions = scope_positions(parent_scope, scope)
    leaf_ids = []
    for v, p in zip(sorted(scope), positions):
        var = max(float(parent_stats.cov[p, p]), pool.variance_floor)
        mean = float(parent_stats.mean[p])
        leaf = LeafNode(scope=(v,),
                        stats=GaussianStats(np.array([mean]), np.array([[var]]), 1.0))
        leaf_ids.append(pool.add(leaf))
    if len(leaf_ids) == 1:
        return leaf_ids[0]
    product = ProductNode(scope=make_scope(scope), children=leaf_ids,
                          stats=GaussianStats.zeros(len(scope), count=0.0))
    return pool.add(product)


def _replace_pair(pool: NodePool, parent_id: int, child_a: int, child_b: int,
                  birth_stats: GaussianStats | None, build) -> int:
    """Replace two distinct children of a product node by the node ``build`` adds.

    ``build(parent, joint, stats)`` adds the replacement over the pair's
    joint scope and returns its id; ``stats`` is ``birth_stats``, by
    default the parent's.  The replacement takes ``child_a``'s position in
    the parent's child list.
    """
    parent = pool.node(parent_id)
    if not isinstance(parent, ProductNode):
        raise ValueError(f"node {parent_id} is not a product node")
    if child_a not in parent.children or child_b not in parent.children or child_a == child_b:
        raise ValueError("both children must be distinct children of the parent")
    stats = parent.stats if birth_stats is None else birth_stats
    new_id = build(parent, scope_union(pool.node(child_a).scope, pool.node(child_b).scope),
                   stats)
    parent.children[parent.children.index(child_a)] = new_id
    parent.children.remove(child_b)
    pool.bump()
    return new_id


def make_mixture(pool: NodePool, parent_id: int, child_a: int, child_b: int,
                 birth_stats: GaussianStats | None = None,
                 next_check: float | None = None) -> int:
    """Replace two children of a product node by a two-component mixture.

    The first component is a new product over the original pair, keeping
    the parent's count and inheriting the parent's statistics restricted to
    the joint scope.  The second is a fresh factorized component with count
    zero.  Returns the id of the new sum node, which takes the first
    removed child's position in the parent's child list.

    ``birth_stats`` overrides the inherited statistics and count (the
    streaming learner passes the parent's pre-batch state here so the batch
    that triggered the change can then descend without being counted
    twice).  ``next_check`` sets the first correlation-check point of the
    inheriting component; default is twice the inherited evidence.
    """
    def build(parent, joint, stats):
        old = pool.add(ProductNode(scope=joint, children=[child_a, child_b],
                                   stats=stats.restrict(scope_positions(parent.scope, joint)),
                                   next_check=2.0 * stats.count if next_check is None
                                   else next_check))
        new = make_factored_subtree(pool, joint, stats, parent.scope)
        return pool.add(SumNode(scope=joint, children=[old, new],
                                child_counts=[stats.count, 0.0]))

    return _replace_pair(pool, parent_id, child_a, child_b, birth_stats, build)


def merge_into_leaf(pool: NodePool, parent_id: int, child_a: int, child_b: int,
                    birth_stats: GaussianStats | None = None) -> int:
    """Collapse two children of a product node into one multivariate leaf.

    The leaf's Gaussian is the parent's running statistics restricted to
    the pair's joint scope; the subtrees under both children are released.
    Returns the new leaf's id.  ``birth_stats`` overrides the inherited
    state, see ``make_mixture``.
    """
    def build(parent, joint, stats):
        return pool.add(LeafNode(scope=joint,
                                 stats=stats.restrict(scope_positions(parent.scope, joint))))

    leaf_id = _replace_pair(pool, parent_id, child_a, child_b, birth_stats, build)
    pool.remove_subtree(child_a, child_b)
    return leaf_id


def simplify(pool: NodePool) -> bool:
    """Normalize the structure; returns True if anything changed.

    Product nodes left with a single child are spliced out, and a sum node
    appearing as a child of another sum node is dissolved into its parent,
    its children promoted with their counts scaled by the parent's count for
    it over its own count, which are assigned to the parent's
    ``child_counts``.  Density under count-ratio weights is unchanged.
    One pass, children before parents, so every node sees its children
    already normalized and the result is idempotent.
    """
    spliced: dict[int, int] = {}  # removed single-child product -> its replacement
    changed = False
    for nid in topological_order(pool):
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            continue
        node.children = [spliced.get(c, c) for c in node.children]
        if isinstance(node, ProductNode) and len(node.children) == 1:
            spliced[nid] = node.children[0]
            if pool.root == nid:
                pool.root = node.children[0]
            pool.remove(nid)
            changed = True
        elif isinstance(node, SumNode):
            # Right to left, so expanding one position keeps the others valid.
            for pos in reversed(range(len(node.children))):
                inner_id = node.children[pos]
                inner = pool.node(inner_id)
                if isinstance(inner, SumNode):
                    counts = list(node.child_counts)
                    scale = counts[pos] / inner.count if inner.count else 1.0
                    node.children[pos:pos + 1] = inner.children
                    counts[pos:pos + 1] = [c * scale for c in inner.child_counts]
                    node.child_counts = counts
                    pool.remove(inner_id)
                    changed = True
    return changed


# Holds no state; it stays, with learn_batch(cache=...), because perfbench/workloads.py passes one.
class EvalCache:
    """Handle on a pool's compiled net, for callers that hold one.

    The net lives on the pool (``evaluate.shared_net``) and is shared with
    the read queries, so a cache adds no state: ``learn_batch`` finds the
    same net with or without one.  A structure edit forces a rebuild,
    which leaves the net's parameters for its first refresh to set;
    otherwise a leaf group re-derives all its leaves once its width of the
    pool's statistics store was written since it last did (every group
    after a change of ``pool.variance_floor``), and a sum group recomputes
    all its weights once its width of child counts was written or the
    weight mode changed.  A write refreshes
    and evaluates the net only when the pool has a sum, whose routing reads
    densities; after writes into a pool without one, the next read (or
    ``ensure``) factors the leaf groups those writes reached.
    """

    def ensure(self, pool: NodePool) -> CompiledNet:
        return shared_net(pool)


def _best_cross_child_pair(pool: NodePool, node: ProductNode):
    """Strongest correlation between variables of two different children.

    Returns (correlation, child_a, child_b), or (0.0, None, None) when the
    node has fewer than two children or no positive correlation.  All pairs
    are scored at once: each scope position is labelled with its child's
    index, and of the entries with label_i < label_j that hold the maximum
    the first by (label_i, label_j) wins, which is the pair a scan in
    child-list order keeping only strictly larger values would pick.
    """
    c = len(node.children)
    if c < 2:
        return 0.0, None, None
    width, slot = pool.slot_of(node)
    corr = correlation_matrix(width.cov[slot])
    pos = {v: i for i, v in enumerate(node.scope)}
    label = np.empty(len(node.scope), dtype=np.intp)
    for j, child in enumerate(node.children):
        label[[pos[v] for v in pool.node(child).scope]] = j
    cross = label[:, None] < label
    best = corr.max(initial=0.0, where=cross)
    if not best > 0.0:
        return 0.0, None, None
    i, j = np.nonzero(cross & (corr == best))
    a, b = divmod(int((label[i] * c + label[j]).min()), c)
    return float(best), node.children[a], node.children[b]


@dataclass
class BatchReport:
    rows: int = 0
    mixtures_created: int = 0
    leaves_merged: int = 0

    @property
    def restructured(self) -> bool:
        return self.mixtures_created > 0 or self.leaves_merged > 0


def learn_batch(pool: NodePool, rows: np.ndarray, config: LearnerConfig,
                rng: np.random.Generator, structure_frozen: bool = False,
                cache: EvalCache | None = None) -> BatchReport:
    """One streaming update: push a batch through the network once.

    Per-node log-likelihoods for the whole batch are computed bottom-up
    first (on a pool with a sum, see below), then one top-down pass updates counts, routes rows at sum nodes,
    folds rows into product statistics, triggers structure changes, and
    updates leaves.  That pass is one iterative depth-first walk in
    pre-order over an explicit stack, so network depth is not limited by
    Python's recursion limit.  A sum adds the rows it routes to each child
    into its slot of child counts in the pool's store, which moves the
    width's count of writes, so the next refresh recomputes the weights of
    the sum groups of that width.
    Structure decisions use a product's
    statistics after absorbing the current batch, but the nodes a change
    creates are born from the pre-batch state; the batch then continues
    down into them like any other data, so every row is counted exactly
    once on every path.
    A component inheriting evidence n is first re-examined at 2n, so a
    change can never cascade within the batch that triggered it.

    Leaves and products are not updated on the spot: the walk queues each
    with its rows, and the queue is applied when the walk ends, or earlier
    when statistics are about to be read, at a product's structure check,
    the product's own update included.  The pool is a tree, so no node is
    queued twice, and the graph walk that scores a node created in this
    pass reads only its subtree: new nodes and the subtrees of the pair
    the check moved, which the walk had not entered yet, so none of them
    is queued.
    Applying the queue is one call of
    ``gstats.update_each`` on the nodes' slots in the pool's statistics
    store.  It reads and writes each scope width's slots once, sums and
    scatters the rows of each group of nodes of one (row count, width)
    together, and closes all the nodes of a padded job in one step, so the
    result has the bits of updating every node as the walk reaches it and
    no statistics object is built.
    Rows of the wrong width or with a non-finite value raise ValueError
    before the pool is touched.
    Only a sum reads densities, to route its rows, so the bottom-up pass
    runs only on a pool that has a sum when the batch arrives.  It runs on
    the pool's compiled net, the one the read queries use
    (``evaluate.current_net``, compiled if the structure changed, which
    also refuses a pool that is not a tree), after ``refresh_params``;
    ``cache`` is optional, since the net is found through the pool either
    way.  On a pool without a sum the net's parameters are left as they
    are: any sum the pass meets was born in it, so its children are all
    new and the graph walk scores them, and the first read after such
    writes factors the leaf groups they reached; a compile for such a write
    factors nothing either.
    """
    rows = check_rows(rows, pool.dim)
    report = BatchReport(rows=rows.shape[0])
    if rows.shape[0] == 0:
        return report
    net = current_net(pool)
    values = None
    if net.sums:  # only a sum reads densities
        net.refresh_params(pool)
        values = net.eval_rows(rows)

    def restructure(nid: int, node: ProductNode, count: float, prev: tuple) -> None:
        """Check product ``nid``, whose statistics now hold ``count`` rows
        and held ``prev`` (mean, cov, count) before this batch."""
        r, child_a, child_b = _best_cross_child_pair(pool, node)
        if child_a is None or r < config.correlation_threshold:
            return
        if r * math.sqrt(max(count, 0.0)) < config.significance_z:
            return
        joint = scope_union(pool.node(child_a).scope, pool.node(child_b).scope)
        if len(joint) >= config.max_leaf_vars:
            make_mixture(pool, nid, child_a, child_b, birth_stats=GaussianStats(*prev),
                         next_check=2.0 * count)
            report.mixtures_created += 1
        else:
            merge_into_leaf(pool, nid, child_a, child_b, birth_stats=GaussianStats(*prev))
            report.leaves_merged += 1

    # Visits are applied together, at the end of the pass or before the next
    # structure check, whichever is first: each queued node's statistics'
    # slot, its rows and its scope.
    slots, idxs, scopes = [], [], []

    def flush() -> None:
        if slots:
            update_each(rows, slots, idxs, scopes)
            for queue in (slots, idxs, scopes):
                queue.clear()

    # A sum pushes only the children it routed rows to.
    stack = [(pool.root, np.arange(rows.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        node = pool.node(nid)
        if isinstance(node, SumNode):
            pos = [net.index.get(c) for c in node.children]
            if None in pos:  # a child created in this pass is not compiled yet
                stacked = np.stack([values[p][idx] if p is not None
                                    else subtree_log_density_rows(pool, c, rows[idx])
                                    for p, c in zip(pos, node.children)])
            elif len(idx) == rows.shape[0]:  # every row of the batch, in order
                stacked = values.take(pos, axis=0)
            else:
                stacked = values.take(pos, axis=0)[:, idx]
            winners = tie_break_argmax(stacked, rng)
            counts, i = pool.slot_of(node)
            if len(idx) == 1:
                j = int(winners[0])
                counts.add(i, j, 1.0)
                stack.append((node.children[j], idx))
                continue
            routed = []
            for j, c in enumerate(node.children):
                sub = idx[winners == j]
                if len(sub):
                    counts.add(i, j, float(len(sub)))
                    routed.append((c, sub))
            stack.extend(reversed(routed))
            continue
        width, i = slot = pool.slot_of(node)
        slots.append(slot)
        idxs.append(idx)
        scopes.append(node.scope)
        if isinstance(node, LeafNode):
            continue
        if (not structure_frozen and len(node.children) >= 2
                and width.count[i] + len(idx) >= node.next_check):
            prev = (width.mean[i].copy(), width.cov[i].copy(), width.count[i])
            flush()
            count = float(width.count[i])
            node.next_check = 2.0 * count
            restructure(nid, node, count, prev)
        stack.extend((c, idx) for c in reversed(node.children))
    flush()

    if report.restructured:
        simplify(pool)
    return report


@dataclass
class FitReport:
    rows: int = 0
    batches: int = 0
    mixtures_created: int = 0
    leaves_merged: int = 0
    seconds: float = 0.0
    frozen_after_rows: int | None = None


def fit(rows: np.ndarray, config: LearnerConfig,
        pool: NodePool | None = None) -> tuple[NodePool, FitReport]:
    """Train on an in-memory stream in one pass of ``batch_size`` chunks.

    With ``early_stop_fraction`` f < 1, structure changes stop once f of
    the stream has been consumed; parameters keep updating to the end.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if pool is None:
        pool = init_factored_pool(rows.shape[1], weight_mode=config.weight_mode,
                                  variance_floor=config.variance_floor)
    rows = check_rows(rows, pool.dim)
    n = rows.shape[0]
    rng = np.random.default_rng(config.seed)
    report = FitReport(rows=n)
    freeze_at = None
    if config.early_stop_fraction < 1.0:
        freeze_at = config.early_stop_fraction * n
    start = time.perf_counter()
    consumed = 0
    for lo in range(0, n, config.batch_size):
        batch = rows[lo:lo + config.batch_size]
        frozen = freeze_at is not None and consumed >= freeze_at
        if frozen and report.frozen_after_rows is None:
            report.frozen_after_rows = consumed
        br = learn_batch(pool, batch, config, rng, structure_frozen=frozen)
        report.batches += 1
        report.mixtures_created += br.mixtures_created
        report.leaves_merged += br.leaves_merged
        consumed += batch.shape[0]
    report.seconds = time.perf_counter() - start
    return pool, report
