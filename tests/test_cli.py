"""End-to-end runs of the command line front end.

Every test goes through main(argv) so argument parsing, error handling,
and exit codes are all exercised exactly as a shell user would hit them.
"""

import dataclasses
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from spnstream.cli import main
from spnstream.dataset import load_csv
from spnstream.evaluate import sample
from spnstream.gstats import GaussianStats
from spnstream.learner import LearnerConfig, init_factored_pool
from spnstream.model_io import load_model, pool_to_json, save_model
from spnstream.nodes import LeafNode, NodePool, SumNode


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_toy_writes_named_csv(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    code, out, err = run(capsys, "gen-toy", "-n", 50, "--out", data, "--seed", 3)
    assert code == 0
    assert err == ""
    rows, names = load_csv(data)
    assert names == ["x1", "x2", "x3"]
    assert rows.shape == (50, 3)


def test_full_pipeline(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model = tmp_path / "model.spn"
    drawn = tmp_path / "drawn.csv"
    dot = tmp_path / "model.dot"

    assert run(capsys, "gen-toy", "-n", 400, "--out", data, "--seed", 1)[0] == 0

    code, out, _ = run(capsys, "train", data, "--out", model,
                       "--max-leaf-vars", 1, "--seed", 0)
    assert code == 0
    assert "rows 400" in out
    assert "avg_log_likelihood" in out
    assert "train_seconds" in out

    code, out, _ = run(capsys, "eval", model, data)
    assert code == 0
    assert "rows 400" in out
    avg = float(out.split("avg_log_likelihood ")[1].split()[0])
    # A trained model should beat a wild guess on its own training stream.
    assert -9.0 < avg < -5.0
    assert "stderr" in out

    code, out, _ = run(capsys, "sample", model, "-n", 25, "--out", drawn, "--seed", 5)
    assert code == 0
    rows, names = load_csv(drawn)
    assert rows.shape == (25, 3)
    assert names == ["x1", "x2", "x3"]

    code, out, _ = run(capsys, "inspect", model, "--dot", dot)
    assert code == 0
    assert "nodes " in out and "sums " in out and "leaves " in out
    assert "leaf_scope_sizes" in out
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "x1" in text


def test_training_is_byte_deterministic(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run(capsys, "gen-toy", "-n", 300, "--out", data, "--seed", 2)
    a = tmp_path / "a.spn"
    b = tmp_path / "b.spn"
    argv = ["train", str(data), "--max-leaf-vars", "1", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_eval_known_value_on_unit_leaf(tmp_path, capsys):
    pool = NodePool(dim=1)
    stats = GaussianStats(np.array([0.0]), np.array([[1.0 - 1e-4]]), 1.0)
    pool.root = pool.add(LeafNode(frozenset({0}), stats))
    model = tmp_path / "leaf.spn"
    save_model(model, pool)
    data = tmp_path / "zero.csv"
    data.write_text("0\n")
    code, out, _ = run(capsys, "eval", model, data)
    assert code == 0
    # log N(0; 0, 1) after the variance floor tops the stored 0.9999 up to 1.
    assert "avg_log_likelihood -0.918939" in out


def test_cv_reports_folds_and_summary(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run(capsys, "gen-toy", "-n", 200, "--out", data, "--seed", 4)
    code, out, _ = run(capsys, "cv", data, "--folds", 4,
                       "--max-leaf-vars", 1, "--seed", 0)
    assert code == 0
    assert out.count("fold ") == 4
    assert "cv_mean_ll" in out
    assert "cv_stderr" in out


def test_missing_data_file_fails_cleanly(tmp_path, capsys):
    code, out, err = run(capsys, "train", tmp_path / "nope.csv",
                         "--out", tmp_path / "m.spn")
    assert code == 1
    assert err.startswith("error:")


def test_undecodable_data_file_fails_with_one_error_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"1,2\n\xff\xfe,3\n")
    code, out, err = run(capsys, "train", data, "--out", tmp_path / "m.spn")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "line 2" in err and "UTF-8" in err


def test_dimension_mismatch_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model = tmp_path / "model.spn"
    run(capsys, "gen-toy", "-n", 60, "--out", data, "--seed", 0)
    run(capsys, "train", data, "--out", model)
    wide = tmp_path / "wide.csv"
    wide.write_text("1,2,3,4\n")
    code, _, err = run(capsys, "eval", model, wide)
    assert code == 1
    assert "dimension 3" in err and "4 columns" in err


def test_bad_flag_value_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run(capsys, "gen-toy", "-n", 30, "--out", data, "--seed", 0)
    model = tmp_path / "m.spn"
    for flag, value in (("--correlation-threshold", 0.0), ("--variance-floor", "nan"),
                        ("--variance-floor", "inf"), ("--significance-z", "nan")):
        code, _, err = run(capsys, "train", data, "--out", model, flag, value)
        assert code == 1, flag
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert flag[2:].replace("-", "_") in err
        assert not model.exists()


def test_corrupt_model_fails_cleanly(tmp_path, capsys):
    model = tmp_path / "garbage.spn"
    model.write_text("{ not json")
    code, _, err = run(capsys, "inspect", model)
    assert code == 1
    assert err.startswith("error:")


def test_undecodable_model_fails_with_one_error_line(tmp_path, capsys):
    model = tmp_path / "utf16.spn"
    model.write_bytes(b"\xff\xfe{}")
    data = tmp_path / "data.csv"
    data.write_text("1.0\n")
    for argv in (["inspect", model], ["eval", model, data],
                 ["sample", model, "-n", 1, "--out", tmp_path / "drawn.csv"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "UTF-8" in err


def test_train_without_learner_flags_uses_the_learner_defaults(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model = tmp_path / "model.spn"
    run(capsys, "gen-toy", "-n", 20, "--out", data)
    assert run(capsys, "train", data, "--out", model)[0] == 0
    assert load_model(model)[1]["learner_config"] == dataclasses.asdict(LearnerConfig())


def test_malformed_model_fails_with_one_error_line(tmp_path, capsys):
    pool = NodePool(dim=1)
    stats = GaussianStats(np.array([0.0]), np.array([[1.0]]), 1.0)
    leaf = pool.add(LeafNode((0,), stats))
    pool.root = pool.add(SumNode((0,), [leaf, leaf], [1.0, 1.0]))
    doc = pool_to_json(pool)
    doc["nodes"][pool.root]["children"][1] = 99  # dangling child
    model = tmp_path / "dangling.spn"
    model.write_text(json.dumps(doc))
    code, _, err = run(capsys, "inspect", model)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_inspect_reports_depth_of_a_very_deep_chain(tmp_path, capsys):
    # sum(leaf, sum(leaf, ... sum(leaf, leaf))) with 1500 sums: deeper than
    # Python's default recursion limit.
    pool = NodePool(dim=1)
    stats = GaussianStats(np.array([0.0]), np.array([[1.0]]), 1.0)
    inner = pool.add(LeafNode((0,), stats.copy()))
    for _ in range(1500):
        leaf = pool.add(LeafNode((0,), stats.copy()))
        inner = pool.add(SumNode((0,), [leaf, inner], [1.0, 1.0]))
    pool.root = inner
    model = tmp_path / "deep.spn"
    save_model(model, pool)
    code, out, err = run(capsys, "inspect", model)
    assert code == 0, err
    assert "depth 1501" in out.splitlines()


def test_sample_rejects_negative_rows(tmp_path, capsys):
    pool = NodePool(dim=1)
    stats = GaussianStats(np.array([0.0]), np.array([[1.0]]), 1.0)
    pool.root = pool.add(LeafNode(frozenset({0}), stats))
    model = tmp_path / "leaf.spn"
    save_model(model, pool)
    code, _, err = run(capsys, "sample", model, "-n", -1,
                       "--out", tmp_path / "s.csv")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["train", "cv", "sample", "gen-toy"])
def test_negative_seed_fails_with_one_error_line(tmp_path, capsys, command):
    data = tmp_path / "toy.csv"
    model = tmp_path / "m.spn"
    run(capsys, "gen-toy", "-n", 30, "--out", data, "--seed", 0)
    run(capsys, "train", data, "--out", model)
    out = tmp_path / "out.csv"
    argv = {"train": ["train", data, "--out", tmp_path / "m2.spn"],
            "cv": ["cv", data, "--folds", 2],
            "sample": ["sample", model, "-n", 5, "--out", out],
            "gen-toy": ["gen-toy", "-n", 5, "--out", out]}[command]
    code, _, err = run(capsys, *argv, "--seed", -1)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "seed" in err
    assert not out.exists() and not (tmp_path / "m2.spn").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_model_written_by_train_loads_back(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model = tmp_path / "model.spn"
    run(capsys, "gen-toy", "-n", 150, "--out", data, "--seed", 6)
    run(capsys, "train", data, "--out", model, "--batch-size", 16)
    pool, doc = load_model(model)
    assert pool.dim == 3
    assert doc["variable_names"] == ["x1", "x2", "x3"]
    assert doc["learner_config"]["batch_size"] == 16


def test_wrong_variable_names_fail_with_one_error_line(tmp_path, capsys):
    doc = pool_to_json(init_factored_pool(2))
    doc["variable_names"] = ["a"]
    model = tmp_path / "names.spn"
    model.write_text(json.dumps(doc))
    for argv in (["sample", model, "-n", 3, "--out", tmp_path / "drawn.csv"],
                 ["inspect", model, "--dot", tmp_path / "model.dot"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "variable_names" in err


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_sample_of_more_rows_than_memory_fails_with_one_error_line(tmp_path):
    model = tmp_path / "model.spn"
    save_model(model, init_factored_pool(2))
    drawn = tmp_path / "drawn.csv"
    cmd = [sys.executable, "-m", "spnstream", "sample", str(model), "-n", "10000000000000",
           "--out", str(drawn)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=limit_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "memory" in proc.stderr
    assert not drawn.exists()


def test_sample_draws_for_a_seed_are_unchanged(tmp_path, capsys):
    model = tmp_path / "model.spn"
    save_model(model, init_factored_pool(2))
    drawn = tmp_path / "drawn.csv"
    assert run(capsys, "sample", model, "-n", 3, "--out", drawn, "--seed", 4)[0] == 0
    rows, _ = load_csv(drawn)
    expected = sample(load_model(model)[0], np.random.default_rng(4), size=3)
    assert rows.tobytes() == expected.tobytes()
