"""Throughput of the evaluation kernel, the read queries and the write path.

Times ``CompiledNet.eval_rows``, the level kernel that training, scoring and
queries run, across batch sizes, and prints rows/second and, at batch 1,
milliseconds per row.  For each network it also prints partial-evidence
queries/second (``log_density`` marginals with half of the variables
observed, and ``conditional_log_density`` with a quarter queried given
another half), ``sample`` rows/second at 32 and 4096 rows per call, the
time of one ``compile_pool`` (which sets no parameters), and the time of a
recompile followed by the first 32-row ``sample``, which factors every leaf.  Three networks: a model trained on the toy
stream (small, deep enough to be realistic) and two wide constructed
mixtures (many sum edges, multivariate leaves), the larger with 1 251 nodes.
For the toy model it also prints microseconds per call of a marginal, a
conditional and a one-row ``learn_batch``, and splits the marginal and
the write by phase, each timed by wrappers this script installs for one
more pass and removes after it: the marginal into the evidence layout
(the pass that checks the evidence into a row, and the batch array,
timed directly in a pass without wrappers), ``shared_net``, the kernel's
leaf groups and node groups and the rest; the write into ``gstats.update_each``, the leaf
refresh (``LeafGroup.refresh``), the weight refresh (``CompiledNet.refresh_weights``),
``eval_rows``, the routing (``tie_break_argmax``) and the rest.

Then the model trained on planted blocks: its marginal and conditional
queries/second on a warm net, and with each query the first read after a
16-row write (structure frozen, untimed), which replaces every leaf the
rows reach, so the query refills the factors restricted to every
observation pattern that the kernel keeps per leaf group.  The two cells
alternate over five rounds, and each prints its median and min-max.
Then the write path: ``learn_batch`` rows/second on live models, one row
per call on the trained toy model, one and 16 rows per call on the
planted-blocks model, and 256 rows per call from the factorized start
over 24 planted-block variables
(a fixed stream of 10 240 rows on which the structure learning only
merges, so no write meets a sum and none evaluates the net), each with
no read between writes and with one marginal query after every write
(untimed).  The read re-factors the leaf groups the write reached; a second
factorization of them by the next write, or per-node overhead in the write
pass, shows in these rates.  Last, the cost of structure learning on planted
blocks: the time of one cross-child pair search on the root of the
factorized start model (24 singleton children) after it has absorbed 10k
rows.

Run from the repository root:

    python3 benchmarks/bench_eval.py
    python3 benchmarks/bench_eval.py --batch-sizes 1 64 4096 --min-seconds 0.5
"""

import argparse
import copy
import itertools
import math
import time

import numpy as np

from spnstream import evaluate, kernels, learner, toy
from spnstream.evaluate import (CompiledNet, compile_pool, conditional_log_density, log_density,
                                sample)
from spnstream.gstats import GaussianStats
from spnstream.learner import (LearnerConfig, _best_cross_child_pair, fit, init_factored_pool,
                                learn_batch)
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
            leaves.append(pool.add(LeafNode(scope=scope, stats=stats)))
        kids.append(pool.add(ProductNode(scope=make_scope(range(dim)), children=leaves,
                                         stats=GaussianStats.zeros(dim, count=1.0))))
    counts = [float(rng.integers(1, 100)) for _ in kids]
    pool.root = pool.add(SumNode(scope=make_scope(range(dim)), children=kids,
                                 child_counts=counts))
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
# Alternating rounds of the planted-blocks query cells.
ROUNDS = 5
# Rows per sample call: the benchmark's read mix, and a large batch.
SAMPLE_ROWS = (32, 4096)


def random_queries(d: int, rng) -> tuple[list, list]:
    """``QUERIES`` marginals (half of the ``d`` variables observed) and as
    many conditionals (a quarter queried given another half), each as the
    argument tuple of its query minus the pool."""
    half, quarter = max(1, d // 2), max(1, d // 4)
    marginals, conditionals = [], []
    for _ in range(QUERIES):
        x = rng.normal(0.0, 3.0, size=d)
        perm = rng.permutation(d).tolist()
        marginals.append(({v: float(x[v]) for v in perm[:half]},))
        conditionals.append(({v: float(x[v]) for v in perm[:quarter]},
                             {v: float(x[v]) for v in perm[quarter:quarter + half]}))
    return marginals, conditionals


def query_rates(pool, min_seconds: float, rng, write=None) -> tuple[float, float]:
    """Marginal and conditional queries/second on random evidence.  With
    ``write``, an untimed ``write()`` comes before every query, so each
    query is the first read after a write."""
    marginals, conditionals = random_queries(pool.dim, rng)

    def rate(ask, queries) -> float:
        ask(pool, *queries[0])  # warm-up
        best = spent = 0.0
        while spent < min_seconds:
            timed = 0.0
            for args in queries:
                if write is not None:
                    write()
                t0 = time.perf_counter()
                ask(pool, *args)
                timed += time.perf_counter() - t0
            spent += timed
            best = max(best, len(queries) / timed)
        return best

    return rate(log_density, marginals), rate(conditional_log_density, conditionals)


def run_workload(name: str, pool, batch_sizes, min_seconds: float, rng) -> None:
    net = evaluate.shared_net(pool)
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

    def compile_and_sample():
        pool.bump()  # the next read compiles the pool again
        sample(pool, np.random.default_rng(0), SAMPLE_ROWS[0])

    first_ms = 1e3 / time_call(compile_and_sample, 1, min_seconds)
    print(f"queries/s: marginal {marginal:.0f}, conditional {conditional:.0f};"
          f" compile_pool {compile_ms:.2f} ms; compile_pool + first sample {first_ms:.2f} ms")
    draws = ", ".join(f"{rows} rows {time_call(lambda: sample(pool, rng, rows), rows, min_seconds):.0f}"
                      for rows in SAMPLE_ROWS)
    print(f"sample rows/s: {draws}")


# The phases of a write, by the name each is timed under and where it is wrapped.
WRITE_PHASES = (("update_each", learner, "update_each"),
                ("leaf refresh", kernels.LeafGroup, "refresh"),
                ("refresh_weights", CompiledNet, "refresh_weights"),
                ("eval_rows", CompiledNet, "eval_rows"),
                ("routing", learner, "tie_break_argmax"))
# The calls a marginal is timed by; marginal_phases makes its phases of them.
MARGINAL_CALLS = (("shared_net", evaluate, "shared_net"),
                  ("kernel", kernels, "eval_flat_numpy"),
                  ("leaf groups", kernels, "_partial_leaf_rows"))


def phase_split(calls, run) -> tuple[float, dict[str, float]]:
    """Seconds of ``run()``, which returns them, with each of ``calls``
    (name, owner, attribute) wrapped in a timer, and the seconds each
    wrapped call took in it."""
    spent = dict.fromkeys([name for name, _, _ in calls], 0.0)
    originals = []

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    for name, owner, attr in calls:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, timed(name, getattr(owner, attr)))
    try:
        total = run()
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return total, spent


def marginal_phases(pool, marginals) -> tuple[float, dict[str, float]]:
    """Seconds of one pass of ``log_density`` over ``marginals`` split into
    the evidence layout, ``shared_net``, the kernel's leaf groups, its node
    groups (the kernel less its leaf groups) and the rest (``eval_rows``'
    set-up around the kernel, the calls' own overhead and the timers').

    The evidence layout is timed directly, in a pass of its own without
    timers: the steps ``log_density`` takes before the net, a row of NaN,
    the evidence pass (``_check_assignment``) and the batch array."""
    t0 = time.perf_counter()
    for evidence in marginals:
        row = [math.nan] * pool.dim
        evaluate._check_assignment(pool, evidence, row)
        np.array([row])
    layout = time.perf_counter() - t0

    def run() -> float:
        t0 = time.perf_counter()
        for evidence in marginals:
            log_density(pool, evidence)
        return time.perf_counter() - t0

    total, t = phase_split(MARGINAL_CALLS, run)
    phases = {"evidence layout": layout,
              "shared_net": t["shared_net"],
              "leaf groups": t["leaf groups"],
              "node groups": t["kernel"] - t["leaf groups"]}
    phases["rest"] = total - sum(phases.values())
    return total, phases


def run_toy_calls(pool, min_seconds: float, rng) -> None:
    """Microseconds per call on the trained toy model: a marginal, a
    conditional and a one-row write, then the marginal and the write split
    by phase."""
    marginal, conditional = query_rates(pool, min_seconds, rng)
    cfg = LearnerConfig(max_leaf_vars=1, seed=0)
    rows = toy.generate(500, rng)
    write = min(write_pass(pool, rows, cfg, read=False) for _ in range(3))
    total, spent = phase_split(WRITE_PHASES, lambda: write_pass(pool, rows, cfg, read=False))
    spent["rest"] = total - sum(spent.values())
    n = rows.shape[0]
    print(f"us per call: marginal {1e6 / marginal:.1f}, conditional {1e6 / conditional:.1f},"
          f" one-row learn_batch {1e6 * write / n:.1f}")
    marginals = [evidence for evidence, in random_queries(pool.dim, rng)[0]]
    log_density(pool, marginals[0])  # warm-up
    m_total, phases = min((marginal_phases(pool, marginals) for _ in range(10)),
                          key=lambda split: split[0])
    print("marginal by phase (us per query, timed pass): "
          + ", ".join(f"{name} {1e6 * s / QUERIES:.1f} ({100 * s / m_total:.0f}%)"
                      for name, s in phases.items()))
    print("one-row learn_batch by phase (us per row, timed pass): "
          + ", ".join(f"{name} {1e6 * s / n:.1f} ({100 * s / total:.0f}%)"
                      for name, s in spent.items()))


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
    live = copy.deepcopy(pool)
    log_density(live, evidence)  # the state a live model is read in
    rng = np.random.default_rng(cfg.seed)
    timed = 0.0
    for lo in range(0, rows.shape[0], cfg.batch_size):
        t0 = time.perf_counter()
        learn_batch(live, rows[lo:lo + cfg.batch_size], cfg, rng)
        timed += time.perf_counter() - t0
        if read:
            log_density(live, evidence)
    return timed


def run_blocks_queries(pool, rows, min_seconds: float, rng) -> None:
    """Queries/second on a copy of ``pool``, warm and as the first read after
    a 16-row write of ``rows`` taken in turn: ``ROUNDS`` rounds that
    alternate the two cells, so that a slow spell of the machine hits both
    alike, and each cell's median and min-max over them."""
    live = copy.deepcopy(pool)
    cfg = LearnerConfig(batch_size=16, seed=0)
    write_rng = np.random.default_rng(0)
    starts = itertools.cycle(range(0, rows.shape[0] - cfg.batch_size + 1, cfg.batch_size))

    def write() -> None:
        lo = next(starts)
        learn_batch(live, rows[lo:lo + cfg.batch_size], cfg, write_rng, structure_frozen=True)

    cells = (("warm net", None), ("after a 16-row write", write))
    rates = {name: [] for name, _ in cells}
    for _ in range(ROUNDS):
        for name, after in cells:
            rates[name].append(query_rates(live, min_seconds, rng, after))
    print(f"\nplanted blocks ({len(pool)} nodes): queries/s, median [min-max] of {ROUNDS}"
          f" alternating rounds")
    print(f"{'':>22} {'marginal':>20} {'conditional':>20}")
    for name, cell in rates.items():
        spread = [f"{np.median(r):.0f} [{min(r):.0f}-{max(r):.0f}]" for r in zip(*cell)]
        print(f"{name:>22} {spread[0]:>20} {spread[1]:>20}")


def run_writes(min_seconds: float, seed: int) -> None:
    """Best rows/second of passes without and with reads, taken in turn so
    that a change of machine speed hits both alike."""
    rng = np.random.default_rng(seed)
    toy_cfg = LearnerConfig(max_leaf_vars=1, seed=0)
    toy_pool, _ = fit(toy.generate(3000, rng), toy_cfg)
    blocks_pool, _ = fit(planted_blocks(20000, rng), LearnerConfig(batch_size=256, seed=0))
    blocks_rows = planted_blocks(640, rng)
    run_blocks_queries(blocks_pool, blocks_rows, min_seconds, rng)
    # A fixed stream on which the factorized start only merges, so that no
    # write meets a sum, whatever the seed of the other rows.
    sum_free_rows = planted_blocks(10240, np.random.default_rng(3))
    sum_free_cfg = LearnerConfig(batch_size=256, seed=0)
    sum_free = init_factored_pool(sum_free_rows.shape[1])
    _, report = fit(sum_free_rows, sum_free_cfg)
    assert report.mixtures_created == 0, "the sum-free stream made a mixture"
    print("\nlearn_batch rows/s on live models (structure learning on)")
    print(f"{'model':>28} {'batch':>6} {'no reads':>10} {'read after each':>16}")
    for name, pool, rows, cfg in [
            ("trained toy", toy_pool, toy.generate(500, rng), toy_cfg),
            ("planted blocks", blocks_pool, blocks_rows, LearnerConfig(batch_size=1, seed=0)),
            ("planted blocks", blocks_pool, blocks_rows, LearnerConfig(batch_size=16, seed=0)),
            ("factorized start", sum_free, sum_free_rows, sum_free_cfg)]:
        best, spent = [0.0, 0.0], 0.0
        while spent < 2 * min_seconds:
            for read in (False, True):
                dt = write_pass(pool, rows, cfg, read)
                spent += dt
                best[read] = max(best[read], rows.shape[0] / dt)
        print(f"{name + f' ({len(pool)} nodes)':>28} {cfg.batch_size:>6} {best[0]:>10.0f}"
              f" {best[1]:>16.0f}")


def run_structure(min_seconds: float, rng) -> None:
    """Time of one cross-child pair search on planted blocks."""
    rows = planted_blocks(10000, rng)
    pool = init_factored_pool(rows.shape[1])
    root = pool.node(pool.root)
    root.stats = root.stats.update(rows)
    search_ms = 1e3 / time_call(lambda: _best_cross_child_pair(pool, root), 1, min_seconds)
    print(f"\nplanted blocks structure learning: pair search on the {len(root.children)}-child"
          f" root {search_ms:.3f} ms")


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
    # Its own generator, so the networks and rows below stay as they were.
    run_toy_calls(trained, args.min_seconds, np.random.default_rng([args.seed, 1]))
    for components in (64, 250):
        run_workload(f"wide mixture ({components} x 4 leaves over 16 vars)",
                     wide_mixture(components, 16, 4, rng), args.batch_sizes,
                     args.min_seconds, rng)
    run_writes(args.min_seconds, args.seed)
    run_structure(args.min_seconds, rng)


if __name__ == "__main__":
    main()
