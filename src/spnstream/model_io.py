"""Serialization of trained models and a DOT export for inspection.

Models are stored as a single JSON document.  All node statistics go in
flat row-major lists so the files diff cleanly and stay independent of
numpy's repr.  Loading validates the reconstructed pool and refuses
structurally broken input rather than deferring the failure to query time.

Every node record carries a ``count``, which the pool derives: a leaf's
or product's is its statistics' count, a sum's the sum of its child
counts.  The loader refuses a record whose ``count`` disagrees.  Loaded
nodes hold their numbers themselves, a sum its child counts as a leaf or
product its statistics, until the pool's first compile or write gives
each its slot in the pool's store.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .gstats import GaussianStats
from .learner import LearnerConfig
from .nodes import (LeafNode, NodePool, ProductNode, StructuralError, SumNode, is_integer,
                    is_real, validate)

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed or fails validation."""


# What converting a JSON value of the wrong type or range raises.
_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


def _integer(value) -> int:
    """``value`` if it is an integer, else TypeError: ``int()`` would truncate
    a float and accept a numeric string or a bool."""
    if not is_integer(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """``value`` as a float if it is a number, else TypeError: ``float()``
    would accept a numeric string or a bool."""
    if not is_real(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _stats_to_json(stats: GaussianStats) -> dict[str, Any]:
    k = stats.mean.shape[0]
    return {
        "count": float(stats.count),
        "dim": k,
        "mean": [float(v) for v in stats.mean],
        "cov": [float(v) for v in stats.cov.reshape(-1)],
    }


def _stats_from_json(obj: Any, where: str) -> GaussianStats:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: stats must be an object")
    try:
        k = _integer(obj["dim"])
        count = _real(obj["count"])
        mean = np.array([_real(v) for v in obj["mean"]], dtype=np.float64)
        cov = np.array([_real(v) for v in obj["cov"]], dtype=np.float64)
    except _BAD_VALUE as exc:
        raise ModelFormatError(f"{where}: bad stats record ({exc})") from exc
    if mean.shape != (k,) or cov.shape != (k * k,):
        raise ModelFormatError(f"{where}: stats dimensions do not match dim={k}")
    return GaussianStats(mean, cov.reshape(k, k), count)


def pool_to_json(pool: NodePool, config: LearnerConfig | None = None,
                 variable_names: list[str] | None = None) -> dict[str, Any]:
    if variable_names is None:
        variable_names = [f"x{i + 1}" for i in range(pool.dim)]
    if len(variable_names) != pool.dim:
        raise ValueError("variable_names length must match the pool dimension")
    nodes = []
    for nid in sorted(pool.nodes):
        node = pool.nodes[nid]
        rec: dict[str, Any] = {"id": nid, "scope": list(node.scope),
                               "count": float(node.count)}
        if isinstance(node, LeafNode):
            rec["type"] = "leaf"
            rec["stats"] = _stats_to_json(node.stats)
        elif isinstance(node, ProductNode):
            rec["type"] = "product"
            rec["children"] = list(node.children)
            rec["stats"] = _stats_to_json(node.stats)
            rec["next_check"] = float(node.next_check)
        elif isinstance(node, SumNode):
            rec["type"] = "sum"
            rec["children"] = list(node.children)
            rec["child_counts"] = [float(c) for c in node.child_counts]
        else:
            raise TypeError(f"unknown node type: {type(node).__name__}")
        nodes.append(rec)
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "dimension": pool.dim,
        "variable_names": variable_names,
        "weight_mode": pool.weight_mode,
        "variance_floor": pool.variance_floor,
        "root": pool.root,
        "nodes": nodes,
    }
    if config is not None:
        doc["learner_config"] = dataclasses.asdict(config)
    return doc


def pool_from_json(doc: Any) -> NodePool:
    """Rebuild and validate a pool; any malformed document raises ModelFormatError."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version: {version!r}")
    try:
        root = _integer(doc["root"])
        node_recs = doc["nodes"]
        pool = NodePool(_integer(doc["dimension"]), weight_mode=doc.get("weight_mode", "laplace"),
                        variance_floor=_real(doc.get("variance_floor", 1e-4)))
    except _BAD_VALUE as exc:
        raise ModelFormatError(f"bad model header ({exc})") from exc
    if not isinstance(node_recs, list) or not node_recs:
        raise ModelFormatError("nodes must be a non-empty list")

    for i, rec in enumerate(node_recs):
        where = f"nodes[{i}]"
        if not isinstance(rec, dict):
            raise ModelFormatError(f"{where}: node record must be an object")
        try:
            nid = _integer(rec["id"])
            kind = rec["type"]
            scope = tuple(_integer(v) for v in rec["scope"])
            count = _real(rec["count"])
            children = [_integer(c) for c in rec.get("children", [])]
            child_counts = [_real(c) for c in rec.get("child_counts", [])]
            next_check = rec.get("next_check")
            next_check = None if next_check is None else _real(next_check)
        except _BAD_VALUE as exc:
            raise ModelFormatError(f"{where}: bad node record ({exc})") from exc
        if nid in pool.nodes:
            raise ModelFormatError(f"{where}: duplicate node id {nid}")
        if kind == "leaf":
            node: Any = LeafNode(scope=scope, stats=_stats_from_json(rec.get("stats"), where))
        elif kind == "product":
            if next_check is not None and not math.isfinite(next_check):
                raise ModelFormatError(f"{where}: next_check must be finite")
            stats = _stats_from_json(rec.get("stats"), where)
            node = ProductNode(scope=scope, children=children, stats=stats,
                               next_check=(2.0 * stats.count if next_check is None
                                           else next_check))
        elif kind == "sum":
            if len(children) != len(child_counts):
                raise ModelFormatError(f"{where}: children and child_counts lengths differ")
            node = SumNode(scope=scope, children=children, child_counts=child_counts)
        else:
            raise ModelFormatError(f"{where}: unknown node type {kind!r}")
        # The stored count is the node's own; a sum's may differ from the sum
        # of its child counts by the rounding that validate's weight-sum
        # check allows.  validate reports non-finite statistics and child counts.
        if not math.isfinite(count):
            raise ModelFormatError(f"{where}: non-finite count {count!r}")
        if math.isfinite(node.count) and not math.isclose(
                count, node.count, rel_tol=1e-12 if kind == "sum" else 0.0):
            raise ModelFormatError(f"{where}: count {count!r} disagrees with the "
                                   f"{'child' if kind == 'sum' else 'stats'} counts "
                                   f"({node.count!r})")
        pool.nodes[nid] = node
        pool._next_id = max(pool._next_id, nid + 1)
    if root not in pool.nodes:
        raise ModelFormatError(f"root id {root} is not among the nodes")
    pool.root = root

    try:
        report = validate(pool)
    except StructuralError as exc:
        raise ModelFormatError(f"model failed validation: {exc}") from exc
    if not report.ok:
        raise ModelFormatError(
            f"model failed validation: {'; '.join(map(str, report.violations))}")
    names = doc.get("variable_names")
    if names is not None and not (isinstance(names, list) and len(names) == pool.dim
                                  and all(isinstance(name, str) for name in names)):
        raise ModelFormatError(f"variable_names must be a list of {pool.dim} strings")
    return pool


def save_model(path, pool: NodePool, config: LearnerConfig | None = None,
               variable_names: list[str] | None = None) -> None:
    doc = pool_to_json(pool, config=config, variable_names=variable_names)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_model(path) -> tuple[NodePool, dict[str, Any]]:
    """Returns the pool plus the raw document for access to metadata."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return pool_from_json(doc), doc


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def export_dot(pool: NodePool, variable_names: list[str] | None = None) -> str:
    """Graphviz text for the network.

    Sum nodes show "+" with edge labels carrying the derived weights,
    product nodes show a multiplication sign, leaves list their variables
    with means and diagonal variances.  A backslash or double quote in a
    variable name is escaped, so any name gives valid DOT.
    """
    from .nodes import derived_weights

    if variable_names is None:
        variable_names = [f"x{i + 1}" for i in range(pool.dim)]
    if len(variable_names) != pool.dim:
        raise ValueError("variable_names length must match the pool dimension")
    lines = ["digraph spn {", "  node [fontname=\"Helvetica\"];"]
    for nid in sorted(pool.nodes):
        node = pool.nodes[nid]
        if isinstance(node, SumNode):
            lines.append(f"  n{nid} [label=\"+\", shape=circle];")
            weights = derived_weights(node, pool.weight_mode)
            for c, w in zip(node.children, weights):
                lines.append(f"  n{nid} -> n{c} [label=\"{_fmt(w)}\"];")
        elif isinstance(node, ProductNode):
            lines.append(f"  n{nid} [label=\"×\", shape=circle];")
            for c in node.children:
                lines.append(f"  n{nid} -> n{c};")
        else:
            names = ", ".join(variable_names[v] for v in node.scope)
            names = names.replace("\\", "\\\\").replace('"', '\\"')
            stats = node.stats
            mu = ", ".join(_fmt(m) for m in stats.mean)
            var = ", ".join(_fmt(v) for v in np.diag(stats.cov))
            lines.append(
                f"  n{nid} [label=\"{names}\\nmean ({mu})\\nvar ({var})\", shape=box];")
    lines.append("}")
    return "\n".join(lines) + "\n"
