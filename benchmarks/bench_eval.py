"""Throughput of the evaluation kernel, the read queries and the write path.

Times ``CompiledNet.eval_rows``, the level kernel that training, scoring and
queries run, across batch sizes, and prints rows/second and, at batch 1,
milliseconds per row.  For each network it also prints partial-evidence
queries/second (``log_density`` marginals with half of the variables
observed, and ``conditional_log_density`` with a quarter queried given
another half), ``sample`` rows/second at 32 and 4096 rows per call, and the
time of one ``compile_pool``.  Three networks: a model trained on the toy
stream (small, deep enough to be realistic) and two wide constructed
mixtures (many sum edges, multivariate leaves), the larger with 1 251 nodes.

Last, the write path: ``learn_batch`` rows/second on live models, one row
per call on the trained toy model and 16 rows per call on a model trained
on planted blocks, each with no read between writes and with one marginal
query after every write (untimed).  The read re-factors the leaves the
write replaced; a second factorization of them by the next write, or
per-node overhead in the write pass, shows in these rates.

Run from the repository root:

    python3 benchmarks/bench_eval.py
    python3 benchmarks/bench_eval.py --batch-sizes 1 64 4096 --min-seconds 0.5
"""

import argparse
import copy
import time

import numpy as np

from spnstream import toy
from spnstream.evaluate import compile_pool, conditional_log_density, log_density, sample
from spnstream.gstats import GaussianStats
from spnstream.learner import EvalCache, LearnerConfig, fit, learn_batch
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


def time_call(call, rows: int, min_seconds: float) -> float:
    """Best rows/second over repeated timed calls."""
    call()  # warm-up
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
    print(f"\n{name}: {len(net.order)} nodes, dimension {pool.dim}")
    print(f"{'batch':>7} {'eval_rows rows/s':>17}")
    for batch in batch_sizes:
        X = np.ascontiguousarray(rng.normal(0.0, 5.0, size=(batch, pool.dim)))
        rate = time_call(lambda: net.eval_rows(X), batch, min_seconds)
        line = f"{batch:>7} {rate:>17.0f}"
        if batch == 1:
            line += f"   ms/row {1e3 / rate:.3f}"
        print(line)
    marginal, conditional = query_rates(pool, min_seconds, rng)
    compile_ms = 1e3 / time_call(lambda: compile_pool(pool), 1, min_seconds)
    print(f"queries/s: marginal {marginal:.0f}, conditional {conditional:.0f};"
          f" compile_pool {compile_ms:.2f} ms")
    draws = ", ".join(f"{rows} rows {time_call(lambda: sample(pool, rng, rows), rows, min_seconds):.0f}"
                      for rows in SAMPLE_ROWS)
    print(f"sample rows/s: {draws}")


def planted_blocks(n: int, rng, blocks: int = 6, width: int = 4) -> np.ndarray:
    """Rows of independent blocks of ``width`` variables; within a block the
    variables share one of three cluster centres and a latent factor."""
    centres = rng.normal(0.0, 3.0, size=(blocks, 3, width))
    loadings = rng.uniform(0.5, 1.5, size=(blocks, width))
    out = np.empty((n, blocks * width))
    for b in range(blocks):
        z = rng.integers(3, size=n)
        f = rng.standard_normal(n)
        out[:, b * width:(b + 1) * width] = (centres[b, z] + f[:, None] * loadings[b]
                                             + rng.normal(0.0, 0.5, size=(n, width)))
    return out


def write_pass(pool, rows, cfg: LearnerConfig, read: bool) -> float:
    """Seconds of ``learn_batch`` calls streaming ``rows`` into a copy of
    ``pool`` in batches of ``cfg.batch_size``, the structure learning on.
    With ``read``, one marginal query runs after every write, untimed."""
    evidence = {0: float(rows[0, 0])}
    live, cache = copy.deepcopy(pool), EvalCache()
    log_density(live, evidence)  # the state a live model is read in
    rng = np.random.default_rng(cfg.seed)
    timed = 0.0
    for lo in range(0, rows.shape[0], cfg.batch_size):
        t0 = time.perf_counter()
        learn_batch(live, rows[lo:lo + cfg.batch_size], cfg, rng, cache=cache)
        timed += time.perf_counter() - t0
        if read:
            log_density(live, evidence)
    return timed


def run_writes(min_seconds: float, seed: int) -> None:
    """Best rows/second of passes without and with reads, taken in turn so
    that a change of machine speed hits both alike."""
    rng = np.random.default_rng(seed)
    toy_cfg = LearnerConfig(max_leaf_vars=1, seed=0)
    blocks_cfg = LearnerConfig(batch_size=16, seed=0)
    toy_pool, _ = fit(toy.generate(3000, rng), toy_cfg)
    blocks_pool, _ = fit(planted_blocks(20000, rng), LearnerConfig(batch_size=256, seed=0))
    print("\nlearn_batch rows/s on live models (structure learning on)")
    print(f"{'model':>26} {'batch':>6} {'no reads':>10} {'read after each':>16}")
    for name, pool, rows, cfg in [
            ("trained toy", toy_pool, toy.generate(500, rng), toy_cfg),
            ("planted blocks", blocks_pool, planted_blocks(640, rng), blocks_cfg)]:
        best, spent = [0.0, 0.0], 0.0
        while spent < 2 * min_seconds:
            for read in (False, True):
                dt = write_pass(pool, rows, cfg, read)
                spent += dt
                best[read] = max(best[read], rows.shape[0] / dt)
        print(f"{name + f' ({len(pool)} nodes)':>26} {cfg.batch_size:>6} {best[0]:>10.0f}"
              f" {best[1]:>16.0f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[1, 16, 256, 4096])
    parser.add_argument("--min-seconds", type=float, default=0.3,
                        help="timing budget per timed cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    trained, _ = fit(toy.generate(3000, rng), LearnerConfig(max_leaf_vars=1, seed=0))
    run_workload("trained toy model", trained, args.batch_sizes, args.min_seconds, rng)
    for components in (64, 250):
        run_workload(f"wide mixture ({components} x 4 leaves over 16 vars)",
                     wide_mixture(components, 16, 4, rng), args.batch_sizes,
                     args.min_seconds, rng)
    run_writes(args.min_seconds, args.seed)


if __name__ == "__main__":
    main()
