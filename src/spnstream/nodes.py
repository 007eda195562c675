"""Graph data model for sum-product networks with Gaussian leaves.

A network lives in a ``NodePool``: a dictionary of nodes addressed by
stable integer identifiers plus a designated root.  Sum nodes mix their
children, product nodes factorize across disjoint sets of variables, and
leaves carry a (possibly multivariate) Gaussian given by its running
statistics.  Mixture weights are not stored; they are derived on demand
from the child counts kept on each sum node.

Nodes hold the structure and the pool's ``gstats.StatsStore`` holds the
numbers: the running statistics of the pool's leaves and products.  A
node added to a pool holds a slot there (``node.slot``).  ``node.stats``
reads the slot as a frozen snapshot whose arrays refuse writes, so
statistics change only by assignment, which writes the new statistics
into the slot and must keep its width.  A node outside any pool holds
its statistics object itself; removing a node from the pool frees its
slot and hands the node its statistics back.

Every count has one source.  A leaf's or product's ``count`` is its
statistics' count, and a sum's is the sum of its ``child_counts``.

A pool is a tree: every node but the root has exactly one parent.
``topological_order``, the one walk that ``validate``, compilation and
``simplify`` run, refuses a node reached twice, so a shared child or a
cycle raises there.  The learner's edits keep the rule: a mixture moves
the pair under a new product, a merge adds a fresh leaf, and ``simplify``
re-parents a spliced product's only child and a dissolved sum's children.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .gstats import GaussianStats, StatsStore

Scope = tuple[int, ...]

WEIGHT_MODES = ("mle", "laplace")


class StructuralError(Exception):
    """The pool is malformed at the container level (dangling ids, bad root)."""


class NotATree(ValueError):
    """A walk reached ``node`` a second time: it has two parents or lies on
    a cycle."""

    def __init__(self, node: int):
        super().__init__(f"node {node} is reached twice: the pool is not a tree")
        self.node = node


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, a numpy one too, and not a bool."""
    # A plain int first: the abstract class check takes about 0.5 us.
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_real(value) -> bool:
    """Whether ``value`` is a real number, a numpy one too, and not a bool."""
    # A plain float or int first: the abstract class check takes about 1 us.
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                            and not isinstance(value, bool))


def make_scope(variables: Iterable[int]) -> Scope:
    """Normalize an iterable of variable indices into a sorted, duplicate-free scope."""
    seen = sorted(set(int(v) for v in variables))
    if any(v < 0 for v in seen):
        raise ValueError("variable indices must be non-negative")
    return tuple(seen)


def scope_union(*scopes: Scope) -> Scope:
    out: set[int] = set()
    for s in scopes:
        out.update(s)
    return tuple(sorted(out))


def scope_positions(scope: Scope, variables: Iterable[int]) -> list[int]:
    """Positions of the given variables inside a scope, in sorted variable order."""
    lookup = {v: i for i, v in enumerate(scope)}
    return [lookup[v] for v in sorted(variables)]


@dataclass(eq=False)
class SumNode:
    scope: Scope
    children: list[int]
    child_counts: list[float]

    @property
    def count(self) -> float:
        """Rows routed through the node: its child counts added left to
        right, in child-list order (``sum`` compensates on Python 3.12)."""
        total = 0.0
        for c in self.child_counts:
            total += c
        return total


@dataclass(eq=False)
class ProductNode:
    scope: Scope
    children: list[int]
    stats: GaussianStats
    # Observation count at which the next cross-child correlation check is
    # due.  Checks run on a doubling schedule of the node's own evidence,
    # so repeated looks at accumulating statistics stay rare.
    next_check: float = 0.0


@dataclass(eq=False)
class LeafNode:
    scope: Scope
    stats: GaussianStats


def _stats(node) -> GaussianStats:
    if node.slot is None:
        return node._loose
    width, i = node.slot
    return width.read(i)


def _set_stats(node, stats: GaussianStats) -> None:
    if node.slot is None:
        node._loose = stats
        return
    width, i = node.slot
    if stats.dim != width.k:
        raise ValueError(f"statistics of width {stats.dim} for a node of width {width.k}")
    width.write(i, stats.mean, stats.cov, stats.count)


def _count(node) -> float:
    if node.slot is None:
        return node._loose.count
    width, i = node.slot
    return float(width.count[i])


# A leaf's or product's statistics and count: its slot in its pool's store
# (``slot``, a (gstats.StatsWidth, index) pair) once the pool holds it.
for _cls in (LeafNode, ProductNode):
    _cls.slot, _cls._loose = None, None
    _cls.stats, _cls.count = property(_stats, _set_stats), property(_count)


Node = Union[SumNode, ProductNode, LeafNode]


def derived_weights(node: SumNode, mode: str) -> np.ndarray:
    """Mixture weights of a sum node under the given weighting mode.

    "mle" uses plain count ratios; "laplace" adds one pseudo-count per child.
    """
    return edge_weights([node], mode)


def edge_weights(sums: list[SumNode], mode: str) -> np.ndarray:
    """``derived_weights`` of every sum in ``sums``, concatenated in one pass.

    Each edge is divided by its own sum's total, so every weight has the
    bits that sum alone would give it.
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


class NodePool:
    """Container for one network: nodes by id, a root, and evaluation settings.

    Identifiers are handed out monotonically and never reused, so edits to
    one region of the network never invalidate references elsewhere.
    ``weight_mode`` and ``variance_floor`` travel with the pool because both
    are needed to turn stored counts and covariances into densities.
    ``store`` holds the statistics of the leaves and products added to the
    pool (``add``); ``remove`` and ``remove_subtree`` free their slots.
    """

    def __init__(self, dim: int, weight_mode: str = "laplace", variance_floor: float = 1e-4):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode: {weight_mode!r}")
        if not 0.0 < variance_floor < math.inf:
            raise ValueError("variance floor must be positive and finite")
        self.dim = int(dim)
        self.weight_mode = weight_mode
        self.variance_floor = float(variance_floor)
        self.nodes: dict[int, Node] = {}
        self.root: int = -1
        self._next_id = 0
        self.structure_version = 0
        self.store = StatsStore()
        # The evaluate.CompiledNet that learn_batch and the read queries
        # share; evaluate.shared_net builds and refreshes it.
        self.compiled = None

    def add(self, node: Node) -> int:
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = node
        if not isinstance(node, SumNode):
            self.slot_of(node)
        self.structure_version += 1
        return nid

    def slot_of(self, node: LeafNode | ProductNode) -> tuple:
        """The node's slot in ``store``, holding its statistics; a node that
        holds its statistics itself (one not added by ``add``) gets one."""
        if node.slot is None:
            node.slot, node._loose = self.store.add(node._loose), None
        return node.slot

    def _release(self, node: Node) -> None:
        """Free the node's slot, handing the node its statistics back."""
        if not isinstance(node, SumNode) and node.slot is not None:
            width, i = node.slot
            node.slot, node._loose = None, width.release(i)

    def node(self, nid: int) -> Node:
        try:
            return self.nodes[nid]
        except KeyError:
            raise StructuralError(f"no node with id {nid}") from None

    def remove(self, nid: int) -> None:
        if nid not in self.nodes:
            raise StructuralError(f"no node with id {nid}")
        self._release(self.nodes.pop(nid))
        self.structure_version += 1

    def remove_subtree(self, *nids: int) -> None:
        """Remove the nodes ``nids`` and every node under them."""
        stack = list(nids)
        while stack:
            nid = stack.pop()
            node = self.node(nid)
            if not isinstance(node, LeafNode):
                stack.extend(node.children)
            self.remove(nid)

    def bump(self) -> None:
        """Mark the structure as changed (after direct child-list edits).

        The pool's compiled net, which ``learn_batch`` and the read queries
        share (``evaluate.shared_net``), is rebuilt only when
        ``structure_version`` or the root changes; an edit to a child list
        made outside this class's methods must call this, or both evaluate
        the old graph.  Assigned statistics, edited child counts and a new
        ``variance_floor`` show without it.
        """
        self.structure_version += 1

    def __contains__(self, nid: int) -> bool:
        return nid in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


def topological_order(pool: NodePool, start: int | None = None) -> list[int]:
    """Ids under ``start`` (default root), children left to right, each
    subtree finished before its parent.

    Raises ``StructuralError`` on dangling child references and ``NotATree``
    on a node reached twice, which a shared child and a cycle both are.
    """
    root = pool.root if start is None else start
    if root not in pool.nodes:
        raise StructuralError(f"root id {root} is not in the pool")
    # Pre-order with the children pushed left to right, so the rightmost is
    # visited first; reversed, that is the post-order with children left to right.
    order: list[int] = []
    seen = {root}
    stack = [root]
    while stack:
        nid = stack.pop()
        order.append(nid)
        node = pool.nodes[nid]
        if isinstance(node, LeafNode):
            continue
        for child in node.children:
            if child in seen:
                raise NotATree(child)
            if child not in pool.nodes:
                raise StructuralError(f"node {nid} references missing child {child}")
            seen.add(child)
        stack.extend(node.children)
    order.reverse()
    return order


@dataclass
class Violation:
    node: int | None
    code: str
    message: str

    def __str__(self) -> str:
        where = "pool" if self.node is None else f"node {self.node}"
        return f"[{self.code}] {where}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, node: int | None, code: str, message: str) -> None:
        self.violations.append(Violation(node, code, message))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate(pool: NodePool) -> ValidationReport:
    """Check the pool against the structural rules of a valid network.

    Returns a report listing every violation: completeness at sum nodes,
    decomposability at product nodes, derived weights summing to one,
    positive definite regularized leaf covariances, finite counts and
    statistics, dimension and scope consistency (no scope names a variable
    twice: "scope-repeat", no leaf is over no variable: "empty-scope"), and
    that the pool is a tree ("not-a-tree" names a node reached twice from
    the root).  Every node
    must be reachable from the root ("unreachable" otherwise, which also
    covers cycles among unreachable nodes), and the root must cover every
    variable of the pool exactly ("root-scope").  Dangling child references and sum nodes whose
    child counts do not match their children raise ``StructuralError``
    instead of being reported, since no meaningful checks can run on top of
    them; only reachable nodes are inspected for these.
    """
    report = ValidationReport()
    try:
        order = topological_order(pool)
    except NotATree as exc:
        report.add(exc.node, "not-a-tree", str(exc))
        return report
    for nid in sorted(pool.nodes.keys() - set(order)):
        report.add(nid, "unreachable", "node is not reachable from the root")

    scopes: dict[int, Scope] = {}
    for nid in order:
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            scopes[nid] = node.scope
            if not node.scope:
                report.add(nid, "empty-scope", "leaf is over no variable")
        else:
            if isinstance(node, SumNode) and len(node.child_counts) != len(node.children):
                raise StructuralError(
                    f"node {nid} has {len(node.children)} children but "
                    f"{len(node.child_counts)} child counts"
                )
            scopes[nid] = scope_union(*(scopes[c] for c in node.children))
        if scopes[nid] != node.scope:
            report.add(nid, "scope-mismatch",
                       f"stored scope {node.scope} differs from recomputed {scopes[nid]}")
        if any(v < 0 or v >= pool.dim for v in node.scope):
            report.add(nid, "scope-range", "scope references a variable outside the pool dimension")
        if len(set(node.scope)) != len(node.scope):
            report.add(nid, "scope-repeat", "scope names a variable more than once")
        stats = None if isinstance(node, SumNode) else node.stats
        counts = [node.count, *node.child_counts] if stats is None else [stats.count]
        if not np.all(np.isfinite(counts)):
            report.add(nid, "non-finite", "node counts contain non-finite values")
        if stats is not None:
            k = len(node.scope)
            if stats.dim != k:
                report.add(nid, "stats-dim",
                           f"stats dimension {stats.dim} does not match scope size {k}")
            elif not np.all(np.isfinite(stats.mean)) or not np.all(np.isfinite(stats.cov)):
                report.add(nid, "non-finite", "statistics contain non-finite values")
            elif isinstance(node, LeafNode):
                asym = float(np.abs(stats.cov - stats.cov.T).max()) if k else 0.0
                if asym > 1e-12:
                    report.add(nid, "asymmetric-cov", f"covariance asymmetry {asym:.3e}")
                reg = stats.cov + pool.variance_floor * np.eye(k)
                try:
                    np.linalg.cholesky(reg)
                except np.linalg.LinAlgError:
                    report.add(nid, "not-pd", "regularized covariance is not positive definite")
        if isinstance(node, ProductNode):
            if not node.children:
                report.add(nid, "no-children", "product node has no children")
                continue
            for a in range(len(node.children)):
                for b in range(a + 1, len(node.children)):
                    sa, sb = scopes[node.children[a]], scopes[node.children[b]]
                    overlap = set(sa) & set(sb)
                    if overlap:
                        report.add(nid, "overlapping-scopes",
                                   f"children {node.children[a]} and {node.children[b]} "
                                   f"share variables {sorted(overlap)}")
        elif isinstance(node, SumNode):
            if not node.children:
                report.add(nid, "no-children", "sum node has no children")
                continue
            first = scopes[node.children[0]]
            for c in node.children[1:]:
                if scopes[c] != first:
                    report.add(nid, "incomplete",
                               f"child {c} has scope {scopes[c]} but sibling scope is {first}")
            if any(c < 0.0 for c in node.child_counts):
                report.add(nid, "negative-count", "negative child count")
            try:
                w = derived_weights(node, pool.weight_mode)
            except ValueError as exc:
                report.add(nid, "bad-weights", str(exc))
            else:
                dev = abs(float(w.sum()) - 1.0)
                if dev > 1e-12:
                    report.add(nid, "weight-sum", f"derived weights sum to 1{dev:+.3e}")
                if np.any(w < 0.0):
                    report.add(nid, "negative-weight", "derived weight is negative")
    root_scope = scopes[pool.root]
    # Lengths first: pool.dim comes from the model file and may be huge.
    if len(root_scope) != pool.dim or root_scope != tuple(range(pool.dim)):
        report.add(pool.root, "root-scope",
                   f"root scope {root_scope} does not cover variables 0..{pool.dim - 1}")
    return report
