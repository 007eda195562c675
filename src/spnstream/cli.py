"""Command line front end.

Subcommands cover the full workflow: generate the synthetic benchmark
stream, train on a CSV in one streaming pass, evaluate average
log-likelihood, run k-fold cross-validation, sample from a trained model,
and inspect structure.  All randomness is seeded, so a fixed (data, flags,
seed) triple reproduces the model file byte for byte.

Errors exit with status 1 and a single diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

import numpy as np

from . import __version__
from .dataset import DatasetError, load_csv, save_csv
from .evaluate import log_density_rows, sample
from .learner import LearnerConfig, fit
from .model_io import ModelFormatError, export_dot, load_model, save_model
from .nodes import (WEIGHT_MODES, LeafNode, NodePool, ProductNode, SumNode, derived_weights,
                    topological_order)
from . import toy


class CliError(Exception):
    pass


def _add_learner_flags(p: argparse.ArgumentParser) -> None:
    default = LearnerConfig()
    p.add_argument("--batch-size", type=int, default=default.batch_size,
                   help="rows per streaming update (default %(default)s)")
    p.add_argument("--correlation-threshold", type=float,
                   default=default.correlation_threshold,
                   help="minimum cross-child correlation that triggers a "
                        "structure change (default %(default)s)")
    p.add_argument("--max-leaf-vars", type=int, default=default.max_leaf_vars,
                   help="joint scopes at least this size become mixtures, "
                        "smaller ones a multivariate leaf (default %(default)s)")
    p.add_argument("--weight-mode", choices=WEIGHT_MODES, default=default.weight_mode,
                   help="sum weight estimator (default %(default)s)")
    p.add_argument("--early-stop-fraction", type=float, default=default.early_stop_fraction,
                   help="freeze structure after this fraction of the stream "
                        "(default %(default)s; at 1.0 it never freezes)")
    p.add_argument("--variance-floor", type=float, default=default.variance_floor,
                   help="added to covariance diagonals before densities are "
                        "taken (default %(default)s)")
    p.add_argument("--significance-z", type=float, default=default.significance_z,
                   help="required significance |r|*sqrt(n) of a correlation "
                        "before it can trigger a structure change (default %(default)s)")
    p.add_argument("--seed", type=int, default=default.seed, help="seed (default %(default)s)")


def _config_from_args(args) -> LearnerConfig:
    try:
        return LearnerConfig(**{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(LearnerConfig)})
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.size))


def cmd_train(args) -> int:
    config = _config_from_args(args)
    rows, names = _read_csv(args.data)
    pool, report = fit(rows, config)
    ll = log_density_rows(pool, rows)
    save_model(args.out, pool, config=config, variable_names=names)
    print(f"rows {report.rows}")
    print(f"nodes {len(pool.nodes)}")
    print(f"train_seconds {report.seconds:.3f}")
    print(f"avg_log_likelihood {float(np.mean(ll)):.6f}")
    return 0


def cmd_eval(args) -> int:
    pool, _doc = _load(args.model)
    rows, _names = _read_csv(args.data)
    if rows.shape[1] != pool.dim:
        raise CliError(f"model has dimension {pool.dim}, data has {rows.shape[1]} columns")
    ll = log_density_rows(pool, rows)
    mean, stderr = _mean_stderr(ll)
    print(f"rows {rows.shape[0]}")
    print(f"avg_log_likelihood {mean:.6f}")
    print(f"stderr {stderr:.6f}")
    return 0


def cmd_cv(args) -> int:
    config = _config_from_args(args)
    if args.folds < 2:
        raise CliError("need at least 2 folds")
    rows, _names = _read_csv(args.data)
    n = rows.shape[0]
    if n < args.folds:
        raise CliError(f"{n} rows cannot be split into {args.folds} folds")
    perm = np.random.default_rng(args.seed).permutation(n)
    bounds = [round(i * n / args.folds) for i in range(args.folds + 1)]
    fold_means = []
    for i in range(args.folds):
        test_idx = perm[bounds[i]:bounds[i + 1]]
        train_idx = np.concatenate([perm[:bounds[i]], perm[bounds[i + 1]:]])
        start = time.perf_counter()
        pool, _report = fit(rows[train_idx], config)
        seconds = time.perf_counter() - start
        ll = log_density_rows(pool, rows[test_idx])
        fold_means.append(float(np.mean(ll)))
        print(f"fold {i} test_avg_ll {fold_means[-1]:.6f} "
              f"nodes {len(pool.nodes)} seconds {seconds:.3f}")
    arr = np.asarray(fold_means)
    mean, stderr = _mean_stderr(arr)
    print(f"cv_mean_ll {mean:.6f}")
    print(f"cv_stderr {stderr:.6f}")
    return 0


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise CliError("seed must be a non-negative integer")


def cmd_sample(args) -> int:
    if args.rows < 0:
        raise CliError("number of rows must be non-negative")
    _check_seed(args.seed)
    pool, doc = _load(args.model)
    names = doc.get("variable_names")
    rng = np.random.default_rng(args.seed)
    try:
        drawn = sample(pool, rng, size=args.rows)
    except MemoryError:
        raise CliError(f"{args.rows} rows of {pool.dim} variables do not fit in memory") from None
    save_csv(args.out, drawn.reshape(args.rows, pool.dim), names=names)
    print(f"wrote {args.rows} rows to {args.out}")
    return 0


def cmd_gen_toy(args) -> int:
    if args.rows < 1:
        raise CliError("number of rows must be at least 1")
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    rows = toy.generate(args.rows, rng)
    save_csv(args.out, rows, names=toy.VARIABLE_NAMES)
    print(f"wrote {args.rows} rows to {args.out}")
    return 0


def _depth(pool: NodePool) -> int:
    depth: dict[int, int] = {}
    for nid in topological_order(pool):
        node = pool.node(nid)
        depth[nid] = 1 if isinstance(node, LeafNode) else 1 + max(depth[c] for c in node.children)
    return depth[pool.root]


def cmd_inspect(args) -> int:
    pool, doc = _load(args.model)
    names = doc.get("variable_names")
    sums = [nid for nid, n in sorted(pool.nodes.items()) if isinstance(n, SumNode)]
    products = sum(isinstance(n, ProductNode) for n in pool.nodes.values())
    leaves = [n for n in pool.nodes.values() if isinstance(n, LeafNode)]
    print(f"nodes {len(pool.nodes)}")
    print(f"sums {len(sums)}")
    print(f"products {products}")
    print(f"leaves {len(leaves)}")
    print(f"depth {_depth(pool)}")
    scope_sizes: dict[int, int] = {}
    for leaf in leaves:
        scope_sizes[len(leaf.scope)] = scope_sizes.get(len(leaf.scope), 0) + 1
    hist = " ".join(f"{k}:{scope_sizes[k]}" for k in sorted(scope_sizes))
    print(f"leaf_scope_sizes {hist}")
    for nid in sums:
        node = pool.node(nid)
        weights = derived_weights(node, pool.weight_mode)
        shown = " ".join(f"{c}:{w:.4f}" for c, w in zip(node.children, weights))
        print(f"sum {nid} weights {shown}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(pool, variable_names=names))
        print(f"wrote dot to {args.dot}")
    return 0


def _load(path) -> tuple:
    try:
        return load_model(path)
    except (OSError, ModelFormatError) as exc:
        raise CliError(str(exc)) from exc


def _read_csv(path) -> tuple:
    try:
        return load_csv(path)
    except (OSError, DatasetError) as exc:
        raise CliError(str(exc)) from exc


# Built once per process: an argparse parser refers to itself through its
# groups and help formatters, so each one left about 375 objects for the
# cyclic collector, which then ran inside the caller's later work.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spnstream",
        description="Streaming structure learning for sum-product networks "
                    "with Gaussian leaves.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a CSV stream")
    p.add_argument("data", help="training CSV")
    p.add_argument("--out", required=True, help="where to write the model")
    _add_learner_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="average log-likelihood of a model on a CSV")
    p.add_argument("model", help="model file")
    p.add_argument("data", help="evaluation CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    p.add_argument("data", help="CSV")
    p.add_argument("--folds", type=int, default=10, help="fold count (default 10)")
    _add_learner_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("sample", help="draw rows from a trained model")
    p.add_argument("model", help="model file")
    p.add_argument("--rows", "-n", type=int, required=True, help="rows to draw")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("gen-toy", help="generate the synthetic benchmark stream")
    p.add_argument("--rows", "-n", type=int, required=True, help="rows to generate")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    p.set_defaults(func=cmd_gen_toy)

    p = sub.add_parser("inspect", help="summarize a model's structure")
    p.add_argument("model", help="model file")
    p.add_argument("--dot", help="also write a Graphviz file here")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
