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
from dataclasses import dataclass, field

import numpy as np

from .evaluate import CompiledNet, check_rows, compile_pool, subtree_log_density_rows
from .gstats import GaussianStats
from .nodes import (LeafNode, NodePool, ProductNode, Scope, SumNode,
                    WEIGHT_MODES, make_scope, scope_positions, scope_union,
                    topological_order)
from .updates import tie_break_argmax


@dataclass
class LearnerConfig:
    """Knobs for the streaming learner.

    correlation_threshold: minimum cross-child correlation that justifies a
        structure change.
    max_leaf_vars: joint scopes at least this large become mixtures; smaller
        ones collapse into a multivariate leaf.
    batch_size: rows per update step.
    weight_mode: "laplace" (add-one smoothing) or "mle" (count ratios).
    early_stop_fraction: fraction of the stream after which structure
        changes stop (parameters keep updating).
    variance_floor: added to every covariance diagonal before it is used as
        a density or sampled from.
    seed: seed for routing tie breaks and any other learner randomness.
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
        if self.max_leaf_vars < 1:
            raise ValueError("max_leaf_vars must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode: {self.weight_mode!r}")
        if not (0.0 < self.early_stop_fraction <= 1.0):
            raise ValueError("early_stop_fraction must be in (0, 1]")
        if self.variance_floor <= 0.0:
            raise ValueError("variance_floor must be positive")
        if self.significance_z < 0.0:
            raise ValueError("significance_z must be non-negative")


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
        leaf = LeafNode(scope=(v,), stats=GaussianStats(np.zeros(1), np.ones((1, 1)), 1.0),
                        count=1.0)
        leaf_ids.append(pool.add(leaf))
    if dim == 1:
        pool.root = leaf_ids[0]
        return pool
    root = ProductNode(scope=make_scope(range(dim)), children=leaf_ids, count=1.0,
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
                        stats=GaussianStats(np.array([mean]), np.array([[var]]), 1.0),
                        count=1.0)
        leaf_ids.append(pool.add(leaf))
    if len(leaf_ids) == 1:
        return leaf_ids[0]
    product = ProductNode(scope=make_scope(scope), children=leaf_ids, count=0.0,
                          stats=GaussianStats.zeros(len(scope), count=0.0))
    return pool.add(product)


def make_mixture(pool: NodePool, parent_id: int, child_a: int, child_b: int,
                 birth_stats: GaussianStats | None = None,
                 birth_count: float | None = None,
                 next_check: float | None = None) -> int:
    """Replace two children of a product node by a two-component mixture.

    The first component is a new product over the original pair, keeping
    the parent's count and inheriting the parent's statistics restricted to
    the joint scope.  The second is a fresh factorized component with count
    zero.  Returns the id of the new sum node, which takes the first
    removed child's position in the parent's child list.

    ``birth_stats``/``birth_count`` override the inherited state (the
    streaming learner passes the parent's pre-batch state here so the batch
    that triggered the change can then descend without being counted
    twice).  ``next_check`` sets the first correlation-check point of the
    inheriting component; default is twice the inherited evidence.
    """
    parent = pool.node(parent_id)
    if not isinstance(parent, ProductNode):
        raise ValueError(f"node {parent_id} is not a product node")
    if child_a not in parent.children or child_b not in parent.children or child_a == child_b:
        raise ValueError("both children must be distinct children of the parent")
    if birth_stats is None:
        birth_stats = parent.stats
    if birth_count is None:
        birth_count = parent.count
    scope_a = pool.node(child_a).scope
    scope_b = pool.node(child_b).scope
    joint = scope_union(scope_a, scope_b)
    positions = scope_positions(parent.scope, joint)

    comp_old = ProductNode(scope=joint, children=[child_a, child_b], count=birth_count,
                           stats=birth_stats.restrict(positions),
                           next_check=(2.0 * birth_stats.count
                                       if next_check is None else next_check))
    comp_old_id = pool.add(comp_old)
    comp_new_id = make_factored_subtree(pool, joint, birth_stats, parent.scope)

    mix = SumNode(scope=joint, children=[comp_old_id, comp_new_id],
                  child_counts=[birth_count, 0.0], count=birth_count)
    mix_id = pool.add(mix)

    pos = parent.children.index(child_a)
    parent.children[pos] = mix_id
    parent.children.remove(child_b)
    pool.bump()
    return mix_id


def merge_into_leaf(pool: NodePool, parent_id: int, child_a: int, child_b: int,
                    birth_stats: GaussianStats | None = None,
                    birth_count: float | None = None) -> int:
    """Collapse two children of a product node into one multivariate leaf.

    The leaf's Gaussian is the parent's running statistics restricted to
    the pair's joint scope; the subtrees under both children are released.
    Returns the new leaf's id.  ``birth_stats``/``birth_count`` override
    the inherited state, see ``make_mixture``.
    """
    parent = pool.node(parent_id)
    if not isinstance(parent, ProductNode):
        raise ValueError(f"node {parent_id} is not a product node")
    if child_a not in parent.children or child_b not in parent.children or child_a == child_b:
        raise ValueError("both children must be distinct children of the parent")
    if birth_stats is None:
        birth_stats = parent.stats
    if birth_count is None:
        birth_count = parent.count
    joint = scope_union(pool.node(child_a).scope, pool.node(child_b).scope)
    positions = scope_positions(parent.scope, joint)
    leaf = LeafNode(scope=joint, stats=birth_stats.restrict(positions), count=birth_count)
    leaf_id = pool.add(leaf)
    pos = parent.children.index(child_a)
    parent.children[pos] = leaf_id
    parent.children.remove(child_b)
    pool.remove_subtree(child_a)
    pool.remove_subtree(child_b)
    pool.bump()
    return leaf_id


def simplify(pool: NodePool) -> bool:
    """Normalize the structure; returns True if anything changed.

    Product nodes left with a single child are spliced out, and a sum node
    appearing as a child of another sum node is dissolved into its parent,
    its children promoted with their counts scaled by the parent's count for
    it over its own count.  Density under count-ratio weights is unchanged.
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
                    scale = node.child_counts[pos] / inner.count if inner.count else 1.0
                    node.children[pos:pos + 1] = inner.children
                    node.child_counts[pos:pos + 1] = [c * scale for c in inner.child_counts]
                    pool.remove(inner_id)
                    changed = True
    return changed


@dataclass
class EvalCache:
    """Reuses the flattened network between batches.

    A structure edit forces a full rebuild; otherwise only the leaves whose
    statistics moved since the last batch are re-derived, and sum-edge
    weights are refreshed from current counts on every use.
    """

    net: CompiledNet | None = None
    stale_leaves: set = field(default_factory=set)
    # The pool ``net`` was compiled from: loaded pools all start at the same
    # structure version, so the version alone cannot tell two pools apart.
    pool: NodePool | None = field(init=False, default=None)

    def ensure(self, pool: NodePool) -> CompiledNet:
        if (self.net is None or self.pool is not pool
                or self.net.structure_version != pool.structure_version):
            self.net = compile_pool(pool)
            self.pool = pool
            self.stale_leaves.clear()
            return self.net
        for nid in self.stale_leaves:
            self.net.refresh_leaf(pool, nid)
        self.stale_leaves.clear()
        self.net.refresh_weights(pool)
        return self.net

    def mark_leaf(self, nid: int) -> None:
        self.stale_leaves.add(nid)


def _best_cross_child_pair(pool: NodePool, node: ProductNode):
    """Strongest correlation between variables of two different children.

    Returns (correlation, child_a, child_b) or (0.0, None, None) when the
    node has fewer than two children.  Pairs are scanned in child-list
    order and only a strictly larger correlation replaces the incumbent,
    so the choice is deterministic.
    """
    if len(node.children) < 2:
        return 0.0, None, None
    corr = node.stats.correlation_matrix()
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
    first, then one top-down pass updates counts, routes rows at sum nodes,
    folds rows into product statistics, triggers structure changes, and
    updates leaves.  That pass is one iterative depth-first walk in
    pre-order over an explicit stack, so network depth is not limited by
    Python's recursion limit.  Structure decisions use a product's
    statistics after absorbing the current batch, but the nodes a change
    creates are born from the pre-batch state; the batch then continues
    down into them like any other data, so every row is counted exactly
    once on every path.
    A component inheriting evidence n is first re-examined at 2n, so a
    change can never cascade within the batch that triggered it.
    Rows of the wrong width or with a non-finite value raise ValueError
    before the pool is touched.
    """
    rows = check_rows(rows, pool.dim)
    report = BatchReport(rows=rows.shape[0])
    if rows.shape[0] == 0:
        return report
    if cache is None:
        cache = EvalCache()
    net = cache.ensure(pool)
    values = net.eval_rows(rows)

    def restructure(nid: int, node: ProductNode,
                    prev_stats: GaussianStats, prev_count: float) -> None:
        r, child_a, child_b = _best_cross_child_pair(pool, node)
        if child_a is None or r < config.correlation_threshold:
            return
        if r * math.sqrt(max(node.stats.count, 0.0)) < config.significance_z:
            return
        joint = scope_union(pool.node(child_a).scope, pool.node(child_b).scope)
        if len(joint) >= config.max_leaf_vars:
            make_mixture(pool, nid, child_a, child_b,
                         birth_stats=prev_stats, birth_count=prev_count,
                         next_check=2.0 * node.stats.count)
            report.mixtures_created += 1
        else:
            merge_into_leaf(pool, nid, child_a, child_b,
                            birth_stats=prev_stats, birth_count=prev_count)
            report.leaves_merged += 1

    def child_values(c: int, idx: np.ndarray) -> np.ndarray:
        pos = net.index.get(c)
        if pos is not None:
            return values[pos][idx]
        # Node created during this pass: not in the compiled net yet.
        return subtree_log_density_rows(pool, c, rows[idx])

    # A sum pushes only the children it routed rows to.
    stack = [(pool.root, np.arange(rows.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        node = pool.node(nid)
        node.count += float(len(idx))
        if isinstance(node, LeafNode):
            node.stats = node.stats.update(rows[np.ix_(idx, list(node.scope))])
            cache.mark_leaf(nid)
        elif isinstance(node, ProductNode):
            prev_stats = node.stats
            prev_count = node.count - float(len(idx))
            node.stats = node.stats.update(rows[np.ix_(idx, list(node.scope))])
            if (not structure_frozen and len(node.children) >= 2
                    and node.stats.count >= node.next_check):
                node.next_check = 2.0 * node.stats.count
                restructure(nid, node, prev_stats, prev_count)
            stack.extend((c, idx) for c in reversed(node.children))
        else:
            stacked = np.stack([child_values(c, idx) for c in node.children])
            winners = tie_break_argmax(stacked, rng)
            routed = []
            for j, c in enumerate(node.children):
                sub = idx[winners == j]
                if len(sub):
                    node.child_counts[j] += float(len(sub))
                    routed.append((c, sub))
            stack.extend(reversed(routed))

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
    cache = EvalCache()
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
        br = learn_batch(pool, batch, config, rng, structure_frozen=frozen, cache=cache)
        report.batches += 1
        report.mixtures_created += br.mixtures_created
        report.leaves_merged += br.leaves_merged
        consumed += batch.shape[0]
    report.seconds = time.perf_counter() - start
    return pool, report
