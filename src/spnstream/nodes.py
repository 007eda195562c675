"""Graph data model for sum-product networks with Gaussian leaves.

A network lives in a ``NodePool``: a dictionary of nodes addressed by
stable integer identifiers plus a designated root.  Sum nodes mix their
children, product nodes factorize across disjoint sets of variables, and
leaves carry a (possibly multivariate) Gaussian given by its running
statistics.  Mixture weights are not stored; they are derived on demand
from the counts kept on each sum node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .gstats import GaussianStats

Scope = tuple[int, ...]

WEIGHT_MODES = ("mle", "laplace")


class StructuralError(Exception):
    """The pool is malformed at the container level (dangling ids, bad root)."""


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
    count: float


@dataclass(eq=False)
class ProductNode:
    scope: Scope
    children: list[int]
    count: float
    stats: GaussianStats
    # Observation count at which the next cross-child correlation check is
    # due.  Checks run on a doubling schedule of the node's own evidence,
    # so repeated looks at accumulating statistics stay rare.
    next_check: float = 0.0


@dataclass(eq=False)
class LeafNode:
    scope: Scope
    stats: GaussianStats
    count: float


Node = Union[SumNode, ProductNode, LeafNode]


def derived_weights(node: SumNode, mode: str) -> np.ndarray:
    """Mixture weights of a sum node under the given weighting mode.

    "mle" uses plain count ratios; "laplace" adds one pseudo-count per child.
    """
    counts = np.asarray(node.child_counts, dtype=np.float64)
    if mode == "mle":
        if node.count <= 0.0:
            raise ValueError("cannot derive mle weights from a sum node with zero count")
        return counts / node.count
    if mode == "laplace":
        k = len(node.child_counts)
        return (counts + 1.0) / (node.count + k)
    raise ValueError(f"unknown weight mode: {mode!r}")


class NodePool:
    """Container for one network: nodes by id, a root, and evaluation settings.

    Identifiers are handed out monotonically and never reused, so edits to
    one region of the network never invalidate references elsewhere.
    ``weight_mode`` and ``variance_floor`` travel with the pool because both
    are needed to turn stored counts and covariances into densities.
    """

    def __init__(self, dim: int, weight_mode: str = "laplace", variance_floor: float = 1e-4):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode: {weight_mode!r}")
        if variance_floor <= 0.0:
            raise ValueError("variance floor must be positive")
        self.dim = int(dim)
        self.weight_mode = weight_mode
        self.variance_floor = float(variance_floor)
        self.nodes: dict[int, Node] = {}
        self.root: int = -1
        self._next_id = 0
        self.structure_version = 0

    def add(self, node: Node) -> int:
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = node
        self.structure_version += 1
        return nid

    def node(self, nid: int) -> Node:
        try:
            return self.nodes[nid]
        except KeyError:
            raise StructuralError(f"no node with id {nid}") from None

    def remove(self, nid: int) -> None:
        if nid not in self.nodes:
            raise StructuralError(f"no node with id {nid}")
        del self.nodes[nid]
        self.structure_version += 1

    def remove_subtree(self, nid: int) -> None:
        """Remove a node and everything reachable from it."""
        for cur in topological_order(self, nid):
            del self.nodes[cur]
        self.structure_version += 1

    def bump(self) -> None:
        """Mark the structure as changed (after direct child-list edits, or
        after writing into a leaf's statistics arrays in place).

        Compiled nets, the learner's ``EvalCache`` and the one the read
        queries share, are rebuilt only when ``structure_version`` (or, for
        the queries, the root) changes; an edit to a child list made outside
        this class's methods must call this, or they evaluate the old graph.
        The queries' net re-factors a leaf only when its ``stats`` object is
        replaced, as ``learn_batch`` does, so a write into ``stats.mean`` or
        ``stats.cov`` in place must call this too.  Edited counts show
        without it.
        """
        self.structure_version += 1

    def __contains__(self, nid: int) -> bool:
        return nid in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


def topological_order(pool: NodePool, start: int | None = None) -> list[int]:
    """Ids reachable from ``start`` (default root), children before parents.

    Raises ``StructuralError`` on dangling child references.  Cycles are
    reported by ``validate``; here they surface as a ValueError so that
    evaluation never loops forever.
    """
    root = pool.root if start is None else start
    if root not in pool.nodes:
        raise StructuralError(f"root id {root} is not in the pool")
    order: list[int] = []
    state: dict[int, int] = {}  # 1 = on stack, 2 = done
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        nid, child_pos = stack.pop()
        node = pool.node(nid)
        children = [] if isinstance(node, LeafNode) else node.children
        if child_pos == 0:
            if state.get(nid) == 1:
                raise ValueError("cycle detected while ordering nodes")
            if state.get(nid) == 2:
                continue
            state[nid] = 1
        if child_pos < len(children):
            stack.append((nid, child_pos + 1))
            child = children[child_pos]
            if child not in pool.nodes:
                raise StructuralError(f"node {nid} references missing child {child}")
            if state.get(child) == 1:
                raise ValueError("cycle detected while ordering nodes")
            if state.get(child) != 2:
                stack.append((child, 0))
        else:
            state[nid] = 2
            order.append(nid)
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
    positive definite regularized leaf covariances, finite counts, dimension
    and scope consistency, and acyclicity.  Every node must be reachable
    from the root ("unreachable" otherwise, which also covers cycles among
    unreachable nodes), and the root must cover every variable of the pool
    exactly ("root-scope").  Dangling child references and sum nodes whose
    child counts do not match their children raise ``StructuralError``
    instead of being reported, since no meaningful checks can run on top of
    them; only reachable nodes are inspected for these.
    """
    report = ValidationReport()
    try:
        order = topological_order(pool)
    except ValueError:
        report.add(None, "cycle", "the child graph contains a cycle")
        return report
    for nid in sorted(pool.nodes.keys() - set(order)):
        report.add(nid, "unreachable", "node is not reachable from the root")

    scopes: dict[int, Scope] = {}
    for nid in order:
        node = pool.node(nid)
        if isinstance(node, LeafNode):
            scopes[nid] = node.scope
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
        counts = [node.count]
        counts += node.child_counts if isinstance(node, SumNode) else [node.stats.count]
        if not np.all(np.isfinite(counts)):
            report.add(nid, "non-finite", "node counts contain non-finite values")
        if isinstance(node, LeafNode):
            k = len(node.scope)
            if node.stats.dim != k:
                report.add(nid, "stats-dim",
                           f"stats dimension {node.stats.dim} does not match scope size {k}")
                continue
            if not np.all(np.isfinite(node.stats.mean)) or not np.all(np.isfinite(node.stats.cov)):
                report.add(nid, "non-finite", "leaf statistics contain non-finite values")
                continue
            asym = float(np.abs(node.stats.cov - node.stats.cov.T).max()) if k else 0.0
            if asym > 1e-12:
                report.add(nid, "asymmetric-cov", f"covariance asymmetry {asym:.3e}")
            reg = node.stats.cov + pool.variance_floor * np.eye(k)
            try:
                np.linalg.cholesky(reg)
            except np.linalg.LinAlgError:
                report.add(nid, "not-pd", "regularized covariance is not positive definite")
        elif isinstance(node, ProductNode):
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
            if node.stats.dim != len(node.scope):
                report.add(nid, "stats-dim",
                           f"stats dimension {node.stats.dim} does not match scope size {len(node.scope)}")
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
    if scopes[pool.root] != tuple(range(pool.dim)):
        report.add(pool.root, "root-scope",
                   f"root scope {scopes[pool.root]} does not cover variables 0..{pool.dim - 1}")
    return report
