"""Throughput of the two evaluation kernels.

Times the numba scalar-loop kernel against the pure-numpy fallback on the
same flattened networks, across batch sizes, and prints rows/second plus
the speedup.  Two workloads: a model trained on the synthetic benchmark
stream (small, deep enough to be realistic) and a wide constructed
mixture (many sum edges, multivariate leaves).

Run from the repository root:

    python3 benchmarks/bench_eval.py
    python3 benchmarks/bench_eval.py --batch-sizes 1 64 4096 --min-seconds 0.5

Both kernels are called directly, so one process measures both; the
numba one only when numba is installed.
"""

import argparse
import time

import numpy as np

from spnstream import toy
from spnstream.evaluate import compile_pool
from spnstream.gstats import GaussianStats
from spnstream.kernels import NUMBA_ENABLED, eval_flat_numba, eval_flat_numpy
from spnstream.learner import LearnerConfig, fit
from spnstream.nodes import LeafNode, NodePool, ProductNode, SumNode, make_scope


def wide_mixture(components: int, dim: int, block: int, rng) -> NodePool:
    """Sum of ``components`` products, each a chain of ``block``-variable leaves."""
    pool = NodePool(dim)
    kids = []
    for _ in range(components):
        leaves = []
        for lo in range(0, dim, block):
            scope = make_scope(range(lo, min(lo + block, dim)))
            k = len(scope)
            a = rng.normal(size=(k, k))
            stats = GaussianStats(rng.normal(0.0, 3.0, size=k),
                                  a @ a.T / k + 0.5 * np.eye(k), 50.0)
            leaves.append(pool.add(LeafNode(scope=scope, stats=stats, count=50.0)))
        kids.append(pool.add(ProductNode(scope=make_scope(range(dim)), children=leaves,
                                         count=50.0, stats=GaussianStats.zeros(dim, count=1.0))))
    counts = [float(rng.integers(1, 100)) for _ in kids]
    pool.root = pool.add(SumNode(scope=make_scope(range(dim)), children=kids,
                                 child_counts=counts, count=sum(counts)))
    return pool


def time_kernel(kernel, net, X, min_seconds: float) -> float:
    """Best rows/second over repeated timed calls."""
    out = np.empty((net.kind.shape[0], X.shape[0]), dtype=np.float64)
    args = (net.kind, net.child_ptr, net.child_idx, net.child_logw,
            net.leaf_ptr, net.leaf_vars, net.leaf_mean, net.mat_ptr,
            net.leaf_ichol, net.leaf_const, X, out)
    kernel(*args)  # warm-up; also triggers JIT compilation
    best = 0.0
    spent = 0.0
    while spent < min_seconds:
        t0 = time.perf_counter()
        kernel(*args)
        dt = time.perf_counter() - t0
        spent += dt
        best = max(best, X.shape[0] / dt)
    return best


def run_workload(name: str, pool, batch_sizes, min_seconds: float, rng) -> None:
    net = compile_pool(pool)
    n_nodes = net.kind.shape[0]
    print(f"\n{name}: {n_nodes} nodes, dimension {pool.dim}")
    print(f"{'batch':>7} {'numpy rows/s':>14} {'numba rows/s':>14} {'speedup':>8}")
    for batch in batch_sizes:
        X = np.ascontiguousarray(rng.normal(0.0, 5.0, size=(batch, pool.dim)))
        numpy_rate = time_kernel(eval_flat_numpy, net, X, min_seconds)
        if NUMBA_ENABLED:
            numba_rate = time_kernel(eval_flat_numba, net, X, min_seconds)
            print(f"{batch:>7} {numpy_rate:>14.0f} {numba_rate:>14.0f} "
                  f"{numba_rate / numpy_rate:>7.1f}x")
        else:
            print(f"{batch:>7} {numpy_rate:>14.0f} {'(no numba)':>14} {'-':>8}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[1, 16, 256, 4096])
    parser.add_argument("--min-seconds", type=float, default=0.3,
                        help="timing budget per (kernel, batch) cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    trained, _ = fit(toy.generate(3000, rng), LearnerConfig(max_leaf_vars=1, seed=0))
    run_workload("trained toy model", trained, args.batch_sizes, args.min_seconds, rng)
    run_workload("wide mixture (64 x 4 leaves over 16 vars)",
                 wide_mixture(64, 16, 4, rng), args.batch_sizes, args.min_seconds, rng)
    if not NUMBA_ENABLED:
        print("\nnumba kernel unavailable in this process (numba not installed)")


if __name__ == "__main__":
    main()
