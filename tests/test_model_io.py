"""Model files: round trips, rejection of bad files, DOT export."""

import json
import re

import numpy as np
import pytest

from spnstream.evaluate import log_density_rows
from spnstream.learner import LearnerConfig, fit, init_factored_pool
from spnstream.model_io import (
    FORMAT_VERSION,
    ModelFormatError,
    export_dot,
    load_model,
    pool_from_json,
    pool_to_json,
    save_model,
)
from spnstream.gstats import GaussianStats
from spnstream.nodes import LeafNode, NodePool, ProductNode, SumNode, make_scope
from spnstream import toy

from helpers import random_pool


def pools_structurally_equal(a, b):
    if set(a.nodes) != set(b.nodes) or a.root != b.root or a.dim != b.dim:
        return False
    for nid in a.nodes:
        na, nb = a.node(nid), b.node(nid)
        if type(na) is not type(nb) or na.scope != nb.scope or na.count != nb.count:
            return False
        if not isinstance(na, LeafNode) and na.children != nb.children:
            return False
        if isinstance(na, SumNode) and na.child_counts != nb.child_counts:
            return False
        if not isinstance(na, SumNode):
            if not np.array_equal(na.stats.mean, nb.stats.mean):
                return False
            if not np.array_equal(na.stats.cov, nb.stats.cov):
                return False
    return True


def test_roundtrip_of_initial_model(tmp_path):
    pool = init_factored_pool(3)
    path = tmp_path / "m.spn"
    save_model(path, pool)
    loaded, doc = load_model(path)
    assert pools_structurally_equal(pool, loaded)
    assert doc["dimension"] == 3
    assert doc["variable_names"] == ["x1", "x2", "x3"]


def test_roundtrip_preserves_density_exactly(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(10):
        pool = random_pool(rng, dim=int(rng.integers(1, 6)))
        path = tmp_path / f"m{i}.spn"
        save_model(path, pool)
        loaded, _ = load_model(path)
        X = rng.normal(scale=2.0, size=(100, pool.dim))
        assert np.array_equal(log_density_rows(pool, X), log_density_rows(loaded, X))


def test_trained_toy_model_round_trips(tmp_path):
    rows = toy.generate(400, np.random.default_rng(0))
    cfg = LearnerConfig(max_leaf_vars=1, seed=0)
    pool, _ = fit(rows, cfg)
    path = tmp_path / "toy.spn"
    save_model(path, pool, config=cfg, variable_names=["x1", "x2", "x3"])
    loaded, doc = load_model(path)
    assert pools_structurally_equal(pool, loaded)
    assert doc["learner_config"]["max_leaf_vars"] == 1
    assert doc["learner_config"]["significance_z"] == cfg.significance_z
    # A trained model keeps zero-count fresh components; counts are reals.
    raw = json.loads(path.read_text())
    assert raw["format_version"] == FORMAT_VERSION


def test_save_is_byte_stable(tmp_path):
    rows = toy.generate(150, np.random.default_rng(1))
    pool, _ = fit(rows, LearnerConfig(max_leaf_vars=1, seed=1))
    p1, p2, p3 = (tmp_path / n for n in ["a.spn", "b.spn", "c.spn"])
    save_model(p1, pool)
    save_model(p2, pool)
    assert p1.read_bytes() == p2.read_bytes()
    loaded, _ = load_model(p1)
    save_model(p3, loaded)
    assert p3.read_bytes() == p1.read_bytes()


def test_truncated_file_is_a_parse_error(tmp_path):
    pool = init_factored_pool(2)
    path = tmp_path / "m.spn"
    save_model(path, pool)
    text = path.read_text()
    broken = tmp_path / "broken.spn"
    broken.write_text(text[: len(text) // 2])
    with pytest.raises(ModelFormatError):
        load_model(broken)


def test_invalid_structure_is_rejected_naming_the_node():
    pool = init_factored_pool(2)
    doc = pool_to_json(pool)
    # Turn the product into a sum whose children have different scopes.
    for rec in doc["nodes"]:
        if rec["type"] == "product":
            rec["type"] = "sum"
            rec["child_counts"] = [1.0, 1.0]
            del rec["stats"]
            del rec["next_check"]
            bad_id = rec["id"]
    with pytest.raises(ModelFormatError) as err:
        pool_from_json(doc)
    assert str(bad_id) in str(err.value)
    assert "incomplete" in str(err.value)


def test_unknown_format_version_is_rejected(tmp_path):
    pool = init_factored_pool(2)
    doc = pool_to_json(pool)
    doc["format_version"] = 99
    with pytest.raises(ModelFormatError) as err:
        pool_from_json(doc)
    assert "format_version" in str(err.value)


def test_duplicate_node_ids_are_rejected():
    pool = init_factored_pool(2)
    doc = pool_to_json(pool)
    doc["nodes"].append(dict(doc["nodes"][0]))
    with pytest.raises(ModelFormatError) as err:
        pool_from_json(doc)
    assert "duplicate" in str(err.value)


def _product(doc):
    return next(rec for rec in doc["nodes"] if rec["type"] == "product")


@pytest.mark.parametrize("edit", [
    lambda doc: _product(doc).update(children=["a", "b"]),
    lambda doc: doc.update(dimension=0),
    lambda doc: doc.update(weight_mode="median"),
    lambda doc: doc.update(variance_floor=-1.0),
    lambda doc: _product(doc)["children"].append(99),
], ids=["non-int-children", "zero-dimension", "unknown-weight-mode",
        "negative-variance-floor", "dangling-child"])
def test_malformed_documents_raise_model_format_error(edit):
    doc = pool_to_json(init_factored_pool(2))
    edit(doc)
    with pytest.raises(ModelFormatError):
        pool_from_json(doc)


def _two_leaf_mixture_doc():
    pool = NodePool(dim=1)
    a = pool.add(LeafNode(make_scope([0]), GaussianStats(np.zeros(1), np.eye(1), 2.0), 2.0))
    b = pool.add(LeafNode(make_scope([0]), GaussianStats(np.ones(1), np.eye(1), 1.0), 1.0))
    pool.root = pool.add(SumNode(make_scope([0]), [a, b], [2.0, 1.0], 3.0))
    return pool_to_json(pool)


def _first(doc, kind):
    return next(rec for rec in doc["nodes"] if rec["type"] == kind)


@pytest.mark.parametrize("edit", [
    lambda doc: _first(doc, "sum").update(child_counts=[float("nan"), 1.0]),
    lambda doc: (_first(doc, "leaf").update(count=float("nan")),
                 _first(doc, "leaf")["stats"].update(count=float("nan"))),
    lambda doc: _first(doc, "sum").update(count=float("inf")),
], ids=["nan-child-count", "nan-leaf-counts", "infinite-sum-count"])
def test_non_finite_counts_are_rejected(tmp_path, edit):
    doc = _two_leaf_mixture_doc()
    edit(doc)
    path = tmp_path / "m.spn"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity literals
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(path)


def test_negative_scope_variables_are_rejected():
    doc = pool_to_json(init_factored_pool(1))
    for rec in doc["nodes"]:
        rec["scope"] = [-1]
    with pytest.raises(ModelFormatError, match="scope-range"):
        pool_from_json(doc)


def test_root_that_misses_a_variable_is_rejected():
    pool = NodePool(dim=2)
    pool.root = pool.add(LeafNode(make_scope([0]),
                                  GaussianStats(np.zeros(1), np.eye(1), 1.0), 1.0))
    with pytest.raises(ModelFormatError, match="root-scope"):
        pool_from_json(pool_to_json(pool))


def test_unreachable_node_is_rejected():
    doc = _two_leaf_mixture_doc()
    doc["root"] = _first(doc, "leaf")["id"]
    with pytest.raises(ModelFormatError, match="unreachable"):
        pool_from_json(doc)


def test_hand_written_single_leaf_file_loads(tmp_path):
    doc = {
        "format_version": 1,
        "dimension": 1,
        "variable_names": ["x1"],
        "weight_mode": "laplace",
        "variance_floor": 1e-4,
        "root": 0,
        "nodes": [
            {
                "id": 0,
                "type": "leaf",
                "scope": [0],
                "count": 1.0,
                "stats": {"count": 1.0, "dim": 1, "mean": [0.0], "cov": [0.9999]},
            }
        ],
    }
    path = tmp_path / "leaf.spn"
    path.write_text(json.dumps(doc))
    pool, _ = load_model(path)
    got = log_density_rows(pool, np.array([[0.0]]))[0]
    assert got == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_dot_export_of_initial_model():
    pool = init_factored_pool(2)
    dot = export_dot(pool)
    assert dot.startswith("digraph")
    assert dot.count("×") == 1  # one product label
    assert len(re.findall(r'label="x\d', dot)) == 2
    assert len(re.findall(r"->", dot)) == 2


def test_dot_edge_count_matches_links():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pool = random_pool(rng, dim=int(rng.integers(1, 5)))
        links = sum(
            len(n.children)
            for n in pool.nodes.values()
            if not isinstance(n, LeafNode)
        )
        dot = export_dot(pool)
        assert len(re.findall(r"->", dot)) == links
        assert dot.count("{") == dot.count("}")


def test_trained_toy_shape_appears_in_export():
    rows = toy.generate(500, np.random.default_rng(2))
    pool, _ = fit(rows, LearnerConfig(max_leaf_vars=1, seed=2))
    root = pool.node(pool.root)
    assert isinstance(root, ProductNode)
    kinds = {type(pool.node(c)) for c in root.children}
    assert SumNode in kinds    # mixture over the correlated pair
    assert LeafNode in kinds   # x3 stays out on its own
    mix = next(c for c in root.children if isinstance(pool.node(c), SumNode))
    assert pool.node(mix).scope == make_scope([0, 1])
    dot = export_dot(pool, ["x1", "x2", "x3"])
    assert '"+"' in dot and "×" in dot
    # Sum edges carry 4-significant-digit weights.
    assert re.search(r'-> \d+ \[label="0\.\d{1,4}"\]', dot) or re.search(
        r'label="0\.\d{4}"', dot
    )


def test_save_rejects_non_finite_values(tmp_path):
    pool = init_factored_pool(2)
    leaf = next(n for n in pool.nodes.values() if isinstance(n, LeafNode))
    leaf.stats.mean[0] = np.inf
    with pytest.raises(ValueError):
        save_model(tmp_path / "bad.spn", pool)
