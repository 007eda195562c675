"""Model files: round trips, rejection of bad files, DOT export."""

import json
import re

import numpy as np
import pytest

from scipy.stats import multivariate_normal, norm

from spnstream.evaluate import log_density, log_density_rows
from spnstream.learner import LearnerConfig, fit, init_factored_pool, make_mixture
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
from spnstream.nodes import (LeafNode, NodePool, ProductNode, SumNode, make_scope,
                             topological_order, validate)
from spnstream import toy

from helpers import NOT_A_TREE, not_a_tree, random_pool
from test_learner import blocks_model


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


def test_random_and_learned_pools_round_trip_byte_for_byte(tmp_path):
    rng = np.random.default_rng(7)
    pools = [random_pool(rng, dim=int(rng.integers(1, 7))) for _ in range(6)]
    pools.append(blocks_model(41)[0])  # 8 variables, a mixture and a 2-variable leaf
    for i, pool in enumerate(pools):
        first, again = tmp_path / f"{i}.spn", tmp_path / f"{i}-again.spn"
        save_model(first, pool)
        save_model(again, load_model(first)[0])
        assert again.read_bytes() == first.read_bytes()


def _mixture_doc():
    """A product over a sum of two products over leaves, each count on its
    record as the writer derives it."""
    pool = init_factored_pool(2)
    root = pool.node(pool.root)
    make_mixture(pool, pool.root, *root.children)
    return pool_to_json(pool)


@pytest.mark.parametrize("kind,count", [("leaf", 1e9), ("product", -5.0), ("sum", 3.0),
                                        ("sum", 1.0 + 1e-9)])
def test_a_count_that_disagrees_with_its_source_is_rejected(kind, count):
    doc = _mixture_doc()
    pool_from_json(doc)
    rec = _first(doc, kind)
    rec["count"] = count
    with pytest.raises(ModelFormatError, match=rf"nodes\[\d+\]: count .* disagrees"):
        pool_from_json(doc)


def test_a_sum_count_off_by_rounding_loads_as_the_sum_of_its_child_counts():
    doc = _mixture_doc()
    rec = _first(doc, "sum")
    total = rec["count"]
    rec["count"] = float(np.nextafter(total, np.inf))
    assert pool_from_json(doc).node(rec["id"]).count == total


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
            rec["count"] = 2.0
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
    lambda doc: doc.update(variance_floor=float("nan")),
    lambda doc: doc.update(variance_floor=float("inf")),
    lambda doc: _product(doc).update(next_check=float("nan")),
    lambda doc: _product(doc)["children"].append(99),
    # Integer fields take JSON integers only: int() would truncate or coerce these.
    lambda doc: doc["nodes"][0].update(id=0.6),
    lambda doc: doc["nodes"][0].update(scope=[0.9]),
    lambda doc: doc.update(dimension=2.95),
    lambda doc: doc.update(root=str(doc["root"])),
    lambda doc: doc["nodes"][0]["stats"].update(dim=True),
    lambda doc: _product(doc).update(children=[float(c) for c in _product(doc)["children"]]),
    # Number fields take JSON numbers only: float() would take these strings and bools.
    lambda doc: _first(doc, "leaf").update(count="3"),
    lambda doc: _first(doc, "leaf").update(count=True),
    lambda doc: doc.update(variance_floor="0.5"),
    lambda doc: doc.update(variance_floor=True),
    lambda doc: _product(doc).update(next_check="4.0"),
    lambda doc: _product(doc).update(next_check=True),
    lambda doc: _first(doc, "leaf")["stats"].update(count=True),
    lambda doc: _first(doc, "leaf")["stats"].update(count="2"),
    lambda doc: _first(doc, "leaf")["stats"].update(mean=["0.25"]),
    lambda doc: _first(doc, "leaf")["stats"].update(mean=[False]),
    lambda doc: _first(doc, "leaf")["stats"].update(cov=["1.0"]),
], ids=["non-int-children", "zero-dimension", "unknown-weight-mode",
        "negative-variance-floor", "nan-variance-floor", "infinite-variance-floor",
        "nan-next-check", "dangling-child", "float-id", "float-scope-variable",
        "float-dimension", "string-root", "bool-stats-dim", "float-children",
        "string-count", "bool-count", "string-variance-floor", "bool-variance-floor",
        "string-next-check", "bool-next-check", "bool-stats-count", "string-stats-count",
        "string-mean", "bool-mean", "string-cov"])
def test_malformed_documents_raise_model_format_error(edit):
    doc = pool_to_json(init_factored_pool(2))
    edit(doc)
    with pytest.raises(ModelFormatError):
        pool_from_json(doc)


def _two_leaf_mixture_doc():
    pool = NodePool(dim=1)
    a = pool.add(LeafNode(make_scope([0]), GaussianStats(np.zeros(1), np.eye(1), 2.0)))
    b = pool.add(LeafNode(make_scope([0]), GaussianStats(np.ones(1), np.eye(1), 1.0)))
    pool.root = pool.add(SumNode(make_scope([0]), [a, b], [2.0, 1.0]))
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


@pytest.mark.parametrize("edit", [
    lambda doc: _first(doc, "sum").update(count="3.0"),
    lambda doc: _first(doc, "sum").update(child_counts=["2.0", 1.0]),
    lambda doc: _first(doc, "sum").update(child_counts=[2.0, True]),
], ids=["string-count", "string-child-count", "bool-child-count"])
def test_sum_counts_take_numbers_only(edit):
    doc = _two_leaf_mixture_doc()
    edit(doc)
    with pytest.raises(ModelFormatError, match="bad node record"):
        pool_from_json(doc)


def test_non_finite_product_statistics_are_rejected():
    doc = pool_to_json(init_factored_pool(2))
    _product(doc)["stats"]["mean"] = [float("nan"), float("inf")]
    with pytest.raises(ModelFormatError, match="non-finite"):
        pool_from_json(doc)


def test_negative_scope_variables_are_rejected():
    doc = pool_to_json(init_factored_pool(1))
    for rec in doc["nodes"]:
        rec["scope"] = [-1]
    with pytest.raises(ModelFormatError, match="scope-range"):
        pool_from_json(doc)


def test_a_leaf_scope_that_repeats_a_variable_is_rejected():
    # The product's recomputed scope is still (0, 1), so only this check
    # stops a leaf whose density does not integrate to one.
    doc = pool_to_json(init_factored_pool(2))
    leaf = _first(doc, "leaf")
    assert leaf["scope"] == [0]
    leaf["scope"] = [0, 0]
    leaf["stats"] = {"count": 1.0, "dim": 2, "mean": [0.0, 0.0], "cov": [1.0, 0.0, 0.0, 1.0]}
    with pytest.raises(ModelFormatError, match="scope-repeat"):
        pool_from_json(doc)


def test_a_leaf_over_no_variable_is_rejected():
    # The root's recomputed scope is still (0, 1), and a partial read of
    # such a leaf would fail inside numpy.
    doc = pool_to_json(init_factored_pool(2))
    doc["nodes"].append({"id": 9, "type": "leaf", "scope": [], "count": 1.0,
                         "stats": {"count": 1.0, "dim": 0, "mean": [], "cov": []}})
    _first(doc, "product")["children"].append(9)
    with pytest.raises(ModelFormatError, match=r"\[empty-scope\] node 9"):
        pool_from_json(doc)
    pool = init_factored_pool(2)
    empty = pool.add(LeafNode((), GaussianStats.zeros(0, 1.0)))
    pool.node(pool.root).children.append(empty)
    assert [(v.node, v.code) for v in validate(pool).violations] == [(empty, "empty-scope")]


@pytest.mark.parametrize("kind", NOT_A_TREE)
def test_a_pool_that_is_not_a_tree_is_rejected_naming_the_node_reached_twice(kind):
    pool, twice = not_a_tree(kind)
    with pytest.raises(ValueError, match=f"node {twice} is reached twice"):
        topological_order(pool)
    assert [(v.node, v.code) for v in validate(pool).violations] == [(twice, "not-a-tree")]
    with pytest.raises(ModelFormatError, match=rf"\[not-a-tree\] node {twice}:"):
        pool_from_json(pool_to_json(pool))


def test_an_unsorted_leaf_scope_is_accepted_and_evaluates_in_its_order():
    pool = NodePool(dim=3)
    mean, cov = np.array([1.0, -2.0]), np.array([[2.0, 0.6], [0.6, 0.5]])
    pair = pool.add(LeafNode((2, 0), GaussianStats(mean, cov, 4.0)))
    single = pool.add(LeafNode((1,), GaussianStats(np.array([0.5]), np.eye(1), 4.0)))
    pool.root = pool.add(ProductNode(make_scope(range(3)), [pair, single],
                                     GaussianStats.zeros(3, count=4.0)))
    loaded = pool_from_json(pool_to_json(pool))
    X = np.random.default_rng(3).normal(size=(5, 3))
    reg = cov + loaded.variance_floor * np.eye(2)
    want = (multivariate_normal(mean, reg).logpdf(X[:, [2, 0]])
            + norm(0.5, np.sqrt(1.0 + loaded.variance_floor)).logpdf(X[:, 1]))
    np.testing.assert_allclose(log_density_rows(loaded, X), want, rtol=0.0, atol=1e-12)
    assert log_density(loaded, {0: 0.3}) == pytest.approx(
        norm(-2.0, np.sqrt(reg[1, 1])).logpdf(0.3), abs=1e-12)


def test_root_that_misses_a_variable_is_rejected():
    pool = NodePool(dim=2)
    pool.root = pool.add(LeafNode(make_scope([0]),
                                  GaussianStats(np.zeros(1), np.eye(1), 1.0)))
    with pytest.raises(ModelFormatError, match="root-scope"):
        pool_from_json(pool_to_json(pool))


def test_huge_dimension_is_rejected_without_allocating():
    doc = pool_to_json(init_factored_pool(1))
    doc["dimension"] = 2**40
    with pytest.raises(ModelFormatError, match="root-scope"):
        pool_from_json(doc)


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


def test_dot_labels_escape_quotes_and_backslashes():
    pool = init_factored_pool(3)
    dot = export_dot(pool, variable_names=['a"b', "c\\", "plain"])
    quoted = r'"((?:[^"\\]|\\.)*)"'  # a DOT string: no bare quote, escapes paired
    labels = []
    for line in dot.splitlines()[2:-1]:
        m = re.fullmatch(rf"  n\d+( -> n\d+)?( \[label={quoted}(, shape=\w+)?\])?;", line)
        assert m, line
        if m.group(3) is not None and m.group(4) == ", shape=box":
            labels.append(re.sub(r"\\(.)", lambda e: {"n": "\n"}.get(e.group(1), e.group(1)),
                                 m.group(3)).split("\n")[0])
    assert sorted(labels) == ['a"b', "c\\", "plain"]


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


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
def test_dot_export_needs_one_name_per_variable(names):
    with pytest.raises(ValueError, match="variable_names length must match the pool dimension"):
        export_dot(init_factored_pool(2), variable_names=names)


def test_save_rejects_non_finite_values(tmp_path):
    pool = init_factored_pool(2)
    leaf = next(n for n in pool.nodes.values() if isinstance(n, LeafNode))
    leaf.stats = GaussianStats(np.array([np.inf]), leaf.stats.cov, leaf.stats.count)
    with pytest.raises(ValueError):
        save_model(tmp_path / "bad.spn", pool)


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"], "ab", ["a", 2], {"0": "a"}])
def test_variable_names_must_name_every_variable(names):
    doc = pool_to_json(init_factored_pool(2))
    doc["variable_names"] = names
    with pytest.raises(ModelFormatError, match="variable_names"):
        pool_from_json(doc)
    del doc["variable_names"]
    assert pool_from_json(doc).dim == 2
