"""Throughput of the runtime evaluation kernel against the scalar loop.

Times ``CompiledNet.eval_rows``, the kernel training and scoring run (the
numpy level kernel, or numba when it is installed), against the scalar loop
``kernels._eval_flat_scalar`` on the same flattened networks, across batch
sizes, and prints rows/second, the ratio and, at batch 1, milliseconds per
row.  The scalar loop is numba-compiled where numba imports; otherwise it
runs as plain Python and is timed only up to ``SCALAR_PYTHON_MAX_BATCH``
rows.  For each network it also prints partial-evidence queries/second
(``log_density`` marginals with half of the variables observed, and
``conditional_log_density`` with a quarter queried given another half),
``sample`` rows/second at 32 and 4096 rows per call, and the time of one
``compile_pool``.  Three networks: a model trained on the
toy stream (small, deep enough to be realistic) and two wide constructed
mixtures (many sum edges, multivariate leaves), the larger with 1 251 nodes.

Run from the repository root:

    python3 benchmarks/bench_eval.py
    python3 benchmarks/bench_eval.py --batch-sizes 1 64 4096 --min-seconds 0.5
"""

import argparse
import time

import numpy as np

from spnstream import toy
from spnstream.evaluate import compile_pool, conditional_log_density, log_density, sample
from spnstream.gstats import GaussianStats
from spnstream.kernels import NUMBA_ENABLED, _eval_flat_scalar, eval_flat_numba
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


# Beyond this batch the un-jitted scalar loop takes seconds per call.
SCALAR_PYTHON_MAX_BATCH = 16


def time_call(call, rows: int, min_seconds: float) -> float:
    """Best rows/second over repeated timed calls."""
    call()  # warm-up; also triggers JIT compilation
    best = 0.0
    spent = 0.0
    while spent < min_seconds:
        t0 = time.perf_counter()
        call()
        dt = time.perf_counter() - t0
        spent += dt
        best = max(best, rows / dt)
    return best


# Distinct queries per timed call of the query benchmark.
QUERIES = 64
# Rows per sample call: the benchmark's read mix, and a large batch.
SAMPLE_ROWS = (32, 4096)


def query_rates(pool, min_seconds: float, rng) -> tuple[float, float]:
    """Marginal and conditional queries/second on random evidence."""
    d = pool.dim
    half, quarter = max(1, d // 2), max(1, d // 4)
    marginals, conditionals = [], []
    for _ in range(QUERIES):
        x = rng.normal(0.0, 3.0, size=d)
        perm = rng.permutation(d).tolist()
        marginals.append({v: float(x[v]) for v in perm[:half]})
        conditionals.append(({v: float(x[v]) for v in perm[:quarter]},
                             {v: float(x[v]) for v in perm[quarter:quarter + half]}))

    def marginal():
        for evidence in marginals:
            log_density(pool, evidence)

    def conditional():
        for query, evidence in conditionals:
            conditional_log_density(pool, query, evidence)

    return (time_call(marginal, QUERIES, min_seconds),
            time_call(conditional, QUERIES, min_seconds))


def run_workload(name: str, pool, batch_sizes, min_seconds: float, rng) -> None:
    net = compile_pool(pool)
    n_nodes = net.kind.shape[0]
    runtime = "numba" if NUMBA_ENABLED else "numpy level"
    scalar_kernel = eval_flat_numba if NUMBA_ENABLED else _eval_flat_scalar
    scalar = "numba" if NUMBA_ENABLED else "python"
    print(f"\n{name}: {n_nodes} nodes, dimension {pool.dim}")
    print(f"{'batch':>7} {'eval_rows rows/s':>17} {'scalar rows/s':>14} {'ratio':>7}"
          f"   (eval_rows: {runtime}; scalar loop: {scalar})")
    for batch in batch_sizes:
        X = np.ascontiguousarray(rng.normal(0.0, 5.0, size=(batch, pool.dim)))
        runtime_rate = time_call(lambda: net.eval_rows(X), batch, min_seconds)
        line = f"{batch:>7} {runtime_rate:>17.0f}"
        scalar_rate = None
        if NUMBA_ENABLED or batch <= SCALAR_PYTHON_MAX_BATCH:
            out = np.empty((n_nodes, batch), dtype=np.float64)
            args = (net.kind, net.child_ptr, net.child_idx, net.child_logw,
                    net.leaf_ptr, net.leaf_vars, net.leaf_mean, net.mat_ptr,
                    net.leaf_ichol, net.leaf_const, X, out)
            scalar_rate = time_call(lambda: scalar_kernel(*args), batch, min_seconds)
            line += f" {scalar_rate:>14.0f} {runtime_rate / scalar_rate:>6.1f}x"
        else:
            line += f" {'-':>14} {'-':>7}"
        if batch == 1:
            line += f"   ms/row: eval_rows {1e3 / runtime_rate:.3f}"
            if scalar_rate is not None:
                line += f", scalar {1e3 / scalar_rate:.3f}"
        print(line)
    marginal, conditional = query_rates(pool, min_seconds, rng)
    compile_ms = 1e3 / time_call(lambda: compile_pool(pool), 1, min_seconds)
    print(f"queries/s: marginal {marginal:.0f}, conditional {conditional:.0f};"
          f" compile_pool {compile_ms:.2f} ms")
    draws = ", ".join(f"{rows} rows {time_call(lambda: sample(pool, rng, rows), rows, min_seconds):.0f}"
                      for rows in SAMPLE_ROWS)
    print(f"sample rows/s: {draws}")


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
    for components in (64, 250):
        run_workload(f"wide mixture ({components} x 4 leaves over 16 vars)",
                     wide_mixture(components, 16, 4, rng), args.batch_sizes,
                     args.min_seconds, rng)


if __name__ == "__main__":
    main()
