"""The three benchmark workloads: seeded inputs, timed episodes and the correctness gate.

A run sets up ``streams`` independent input streams from the workload seed,
then repeats rounds (one episode per stream) until its time is up, with at
least two rounds so that every stream is trained twice.  Every episode of a
stream does the same work on the same inputs, so episodes differ only by
machine noise, and the digests of their models must agree.

Every episode has a write path and a read path:

* toy-stream-b1: set-up streams the first rows of the 3-variable toy stream
  one row at a time; an episode streams the next rows into a copy of that
  state with ``learn_batch`` per row on a shared ``EvalCache``, then runs
  the read mix on the result.
* blocks-csv-b256: ``spnstream train`` in-process on a CSV of the block
  stream (load_csv, fit at batch 256, save_model), then ``load_model`` and
  the read mix on the loaded model.
* blocks-learn-query: set-up warm-starts a model on the block stream; an
  episode takes a copy of that live model and runs steps of one 16-row
  ``learn_batch`` write followed by the read mix.

The read mix is one step of: score a 256-row held-out block with
``log_density_rows``, ``MARGINALS`` marginals with half of the variables
observed, ``CONDITIONALS`` conditional queries and ``SAMPLE_CALLS`` ``sample``
calls of ``SAMPLE_ROWS`` rows.  The counts put the read-latency median inside
the marginals and the tail inside the sample calls, away from the gaps
between the kinds of read, where a percentile would jump from seed to seed.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from spnstream import cli, evaluate, learner, model_io, nodes, toy

perf_counter = time.perf_counter

SCORE_ROWS = 256
MARGINALS = 9
CONDITIONALS = 2
SAMPLE_CALLS = 2
SAMPLE_ROWS = 32         # per sample call
WRITE_ROWS = 16          # rows per learn_batch step on blocks-learn-query
TOY_GAP_NATS = 0.2       # same bound as the cross-validation acceptance test
DENSITY_TOL = 1e-8
MASS_TOL = 1e-9

# ----------------------------------------------------------------------
# Planted block stream.  The structure is fixed; the seed only draws rows.
# ----------------------------------------------------------------------
BLOCKS, BLOCK_WIDTH, CLUSTERS = 6, 4, 3
CLUSTER_WEIGHTS = np.array([0.5, 0.3, 0.2])
NOISE_SD = 0.7
_plant = np.random.default_rng(170105265)
BLOCK_CENTERS = _plant.normal(0.0, 4.0, size=(BLOCKS, CLUSTERS, BLOCK_WIDTH))
BLOCK_LOADINGS = (_plant.choice([-1.0, 1.0], size=(BLOCKS, BLOCK_WIDTH))
                  * _plant.uniform(0.8, 1.5, size=(BLOCKS, BLOCK_WIDTH)))
del _plant


def block_rows(n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of 6 independent blocks of 4 variables.

    In each block the four variables share a cluster label (3 clusters)
    and a continuous latent factor, plus independent noise.
    """
    out = np.empty((n, BLOCKS * BLOCK_WIDTH))
    for b in range(BLOCKS):
        z = rng.choice(CLUSTERS, size=n, p=CLUSTER_WEIGHTS)
        f = rng.standard_normal(n)
        noise = rng.normal(0.0, NOISE_SD, size=(n, BLOCK_WIDTH))
        out[:, b * BLOCK_WIDTH:(b + 1) * BLOCK_WIDTH] = (
            BLOCK_CENTERS[b, z] + f[:, None] * BLOCK_LOADINGS[b] + noise)
    return out


# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sizes:
    streams: int
    warm_rows: int       # rows learned in set-up (toy-stream-b1, blocks-learn-query)
    train_rows: int      # rows per episode; blocks-learn-query writes read_steps x 16
    heldout_rows: int
    read_steps: int      # read-mix steps per episode


SIZES = {
    "full": {
        "toy-stream-b1": Sizes(streams=6, warm_rows=2750, train_rows=250,
                               heldout_rows=10000, read_steps=12),
        "blocks-csv-b256": Sizes(streams=4, warm_rows=0, train_rows=10000,
                                 heldout_rows=4096, read_steps=4),
        "blocks-learn-query": Sizes(streams=12, warm_rows=20000, train_rows=0,
                                    heldout_rows=4096, read_steps=4),
    },
    "tiny": {
        # the toy gate needs about 3000 rows to come within TOY_GAP_NATS
        "toy-stream-b1": Sizes(streams=1, warm_rows=2800, train_rows=200,
                               heldout_rows=2000, read_steps=2),
        "blocks-csv-b256": Sizes(streams=2, warm_rows=0, train_rows=1500,
                                 heldout_rows=512, read_steps=2),
        "blocks-learn-query": Sizes(streams=2, warm_rows=1500, train_rows=0,
                                    heldout_rows=512, read_steps=3),
    },
}

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ten of ``n`` samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 50.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class ReadInputs:
    score_blocks: list
    marginals: list          # per step: list of evidence dicts
    conditionals: list       # per step: list of (query, evidence)
    sample_seeds: list       # per step: int
    check_rows: np.ndarray   # rows for the full-evidence agreement check


def make_read_inputs(heldout: np.ndarray, steps: int, rng: np.random.Generator) -> ReadInputs:
    n, d = heldout.shape
    half = max(1, d // 2)
    quarter = max(1, d // 4)
    blocks, margs, conds, seeds = [], [], [], []
    for s in range(steps):
        lo = (s * SCORE_ROWS) % max(1, n - SCORE_ROWS + 1)
        blocks.append(np.ascontiguousarray(heldout[lo:lo + SCORE_ROWS]))
        step_m = []
        for _ in range(MARGINALS):
            row = heldout[rng.integers(n)]
            obs = np.sort(rng.choice(d, size=half, replace=False))
            step_m.append({int(v): float(row[v]) for v in obs})
        step_c = []
        for _ in range(CONDITIONALS):
            row = heldout[rng.integers(n)]
            perm = rng.permutation(d)
            q = np.sort(perm[:quarter])
            ev = np.sort(perm[quarter:quarter + half])
            step_c.append(({int(v): float(row[v]) for v in q},
                           {int(v): float(row[v]) for v in ev}))
        margs.append(step_m)
        conds.append(step_c)
        seeds.append(int(rng.integers(2**31)))
    return ReadInputs(blocks, margs, conds, seeds, heldout[:3].copy())


@dataclass
class Stream:
    train: np.ndarray
    heldout: np.ndarray
    reads: ReadInputs
    csv_path: str = ""
    model_path: str = ""
    warm: tuple | None = None                        # (pool, cache) set up to start from
    true_heldout_ll: float = 0.0


# ----------------------------------------------------------------------
# Results of one episode
# ----------------------------------------------------------------------
@dataclass
class Episode:
    stream: int
    wall_s: float = 0.0
    rows: int = 0
    pipeline_s: float = 0.0
    batch_lat: list = field(default_factory=list)
    read_ops: list = field(default_factory=list)     # (kind, seconds, units) per read
    last_score: np.ndarray | None = None
    pool: object = None
    nodes: int = 0


class Failures:
    """Counts attempted and failed operations; reports the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - an operation failing is a measured outcome
            self._fail(f"{getattr(fn, '__name__', fn)} raised:\n{traceback.format_exc()}")
            return None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {what}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)
            print(message, file=sys.stderr)


# ----------------------------------------------------------------------
# Machine probe
# ----------------------------------------------------------------------
_PROBE_MATRIX = np.eye(3) * 2.0


def machine_probe() -> float:
    """Seconds for a fixed interpreter-and-numpy loop, the run's speed gauge."""
    start = perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i
    for _ in range(75):
        np.linalg.cholesky(_PROBE_MATRIX)
        _PROBE_MATRIX.sum(axis=0)
    return perf_counter() - start


class Prober:
    """Times ``machine_probe`` among the operations of the untraced rounds.

    While active, it probes after every ``every``-th ``learn_batch`` call
    and after every read step, outside any timed operation, so the probes
    see the machine's speed over the same stretches as the operations.
    ``spent`` is the time spent probing, which episodes take out of their
    wall times.
    """

    def __init__(self, every: int):
        self.every = every
        self.active = False
        self.times: list[float] = []
        self.spent = 0.0
        self._batches = 0

    def start_round(self) -> None:
        self.times = []
        self._batches = 0
        self.active = True

    def after_batch(self) -> None:
        if self.active:
            self._batches += 1
            if self._batches % self.every == 0:
                self.probe()

    def probe(self) -> None:
        if self.active:
            start = perf_counter()
            self.times.append(machine_probe())
            self.spent += perf_counter() - start


# ----------------------------------------------------------------------
# The read mix
# ----------------------------------------------------------------------
def read_step(pool, reads: ReadInputs, step: int, ep: Episode, fails: Failures,
              prober: Prober) -> None:
    def timed(kind: str, units: float, fn, *args):
        start = perf_counter()
        out = fails.op(fn, *args)
        ep.read_ops.append((kind, perf_counter() - start, units))
        return out

    X = reads.score_blocks[step]
    ep.last_score = timed("score", X.shape[0], evaluate.log_density_rows, pool, X)
    for evidence in reads.marginals[step]:
        timed("marginal", 1, evaluate.log_density, pool, evidence)
    for query, evidence in reads.conditionals[step]:
        timed("conditional", 1, evaluate.conditional_log_density, pool, query, evidence)
    rng = np.random.default_rng(reads.sample_seeds[step])
    for _ in range(SAMPLE_CALLS):
        drawn = timed("sample", SAMPLE_ROWS, evaluate.sample, pool, rng, SAMPLE_ROWS)
        fails.check(drawn is not None and drawn.shape == (SAMPLE_ROWS, pool.dim)
                    and bool(np.all(np.isfinite(drawn))), "sample returns finite rows")
    prober.probe()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    config = learner.LearnerConfig()
    probe_every = 1              # learn_batch calls per probe

    def __init__(self, sizes: Sizes, seed: int, workdir: str, prober: Prober):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.prober = prober
        self.streams: list[Stream] = []

    def stream_rng(self, j: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, j])

    def setup_stream(self, j: int) -> Stream:
        """Makes stream ``j``'s inputs and the state its episodes start from."""
        raise NotImplementedError

    def episode(self, j: int, fails: Failures) -> Episode:
        raise NotImplementedError

    def _read_path(self, pool, stream: Stream, ep: Episode, fails: Failures) -> None:
        for s in range(self.sizes.read_steps):
            read_step(pool, stream.reads, s, ep, fails, self.prober)

    def _since(self, start: float, spent: float) -> float:
        """Seconds since ``start``, less the probing done since ``spent``."""
        return perf_counter() - start - (self.prober.spent - spent)


def _warm(pool) -> tuple:
    """A pool and an up-to-date ``EvalCache`` for it, as a live user would hold them."""
    cache = learner.EvalCache()
    cache.ensure(pool)
    return pool, cache


class ToyStream(Workload):
    """Set-up streams the first ``warm_rows`` rows, past the growth of the
    structure; each episode streams the next ``train_rows`` rows into a copy
    of that state, one ``learn_batch`` call per row."""

    name = "toy-stream-b1"
    config = learner.LearnerConfig(batch_size=1, max_leaf_vars=1, seed=0)
    probe_every = 10

    def setup_stream(self, j: int) -> Stream:
        rng = self.stream_rng(j)
        rows = toy.generate(self.sizes.warm_rows + self.sizes.train_rows, rng)
        heldout = toy.generate(self.sizes.heldout_rows, rng)
        reads = make_read_inputs(heldout, self.sizes.read_steps, rng)
        true_ll = float(np.mean(toy.true_log_density(heldout)))
        pool, _report = learner.fit(rows[:self.sizes.warm_rows], self.config)
        train = rows[self.sizes.warm_rows:]
        return Stream(train, heldout, reads, warm=_warm(pool), true_heldout_ll=true_ll)

    def episode(self, j: int, fails: Failures) -> Episode:
        st = self.streams[j]
        cfg = self.config
        pool, cache = copy.deepcopy(st.warm)
        rng = np.random.default_rng(cfg.seed)
        train = st.train
        ep = Episode(j)
        spent, start = self.prober.spent, perf_counter()
        for i in range(train.shape[0]):
            fails.op(learner.learn_batch, pool, train[i:i + 1], cfg, rng, cache=cache)
        ep.pipeline_s = self._since(start, spent)
        self._read_path(pool, st, ep, fails)
        ep.wall_s = self._since(start, spent)
        ep.pool = pool
        return ep


class BlocksCsv(Workload):
    name = "blocks-csv-b256"
    config = learner.LearnerConfig(batch_size=256, seed=0)

    def setup_stream(self, j: int) -> Stream:
        rng = self.stream_rng(j)
        train = block_rows(self.sizes.train_rows, rng)
        heldout = block_rows(self.sizes.heldout_rows, rng)
        reads = make_read_inputs(heldout, self.sizes.read_steps, rng)
        csv_path = os.path.join(self.workdir, f"blocks-{j}.csv")
        np.savetxt(csv_path, train, fmt="%.17g", delimiter=",")
        model_path = os.path.join(self.workdir, f"blocks-{j}.spn")
        return Stream(train, heldout, reads, csv_path=csv_path, model_path=model_path)

    def episode(self, j: int, fails: Failures) -> Episode:
        st = self.streams[j]
        cfg = self.config
        argv = ["train", st.csv_path, "--out", st.model_path,
                "--batch-size", str(cfg.batch_size), "--max-leaf-vars", str(cfg.max_leaf_vars),
                "--seed", str(cfg.seed)]
        ep = Episode(j)
        out = io.StringIO()
        spent, start = self.prober.spent, perf_counter()
        with contextlib.redirect_stdout(out):
            code = fails.op(cli.main, argv)
        ep.pipeline_s = self._since(start, spent)
        loaded = fails.op(model_io.load_model, st.model_path)
        pool = loaded[0] if loaded is not None else None
        if pool is not None:
            self._read_path(pool, st, ep, fails)
        ep.wall_s = self._since(start, spent)
        fails.check(code == 0 and f"rows {st.train.shape[0]}\n" in out.getvalue(),
                    "spnstream train exits 0 and reports every CSV row")
        ep.pool = pool
        return ep


class BlocksLearnQuery(Workload):
    """Set-up fits ``warm_rows`` rows at batch 256; each episode takes a copy
    of that live model and runs ``read_steps`` steps of one 16-row write
    followed by the read mix."""

    name = "blocks-learn-query"
    config = learner.LearnerConfig(batch_size=WRITE_ROWS, seed=0)

    def setup_stream(self, j: int) -> Stream:
        rng = self.stream_rng(j)
        train = block_rows(self.sizes.warm_rows, rng)
        writes = block_rows(WRITE_ROWS * self.sizes.read_steps, rng)
        heldout = block_rows(self.sizes.heldout_rows, rng)
        reads = make_read_inputs(heldout, self.sizes.read_steps, rng)
        pool, _report = learner.fit(train, learner.LearnerConfig(batch_size=256, seed=0))
        return Stream(writes, heldout, reads, warm=_warm(pool))

    def episode(self, j: int, fails: Failures) -> Episode:
        st = self.streams[j]
        cfg = self.config
        pool, cache = copy.deepcopy(st.warm)
        rng = np.random.default_rng(cfg.seed)
        ep = Episode(j)
        spent, start = self.prober.spent, perf_counter()
        for s in range(self.sizes.read_steps):
            batch = st.train[s * WRITE_ROWS:(s + 1) * WRITE_ROWS]
            fails.op(learner.learn_batch, pool, batch, cfg, rng, cache=cache)
            read_step(pool, st.reads, s, ep, fails, self.prober)
        ep.pipeline_s = self._since(start, spent)
        ep.wall_s = ep.pipeline_s
        ep.pool = pool
        return ep


WORKLOADS = {w.name: w for w in (ToyStream, BlocksCsv, BlocksLearnQuery)}


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def gate(wl: Workload, ep: Episode, fails: Failures) -> tuple[float, str]:
    """Checks one episode's model; returns (held-out mean log-likelihood, digest)."""
    pool = ep.pool
    st = wl.streams[ep.stream]
    if pool is None:
        fails.check(False, "episode produced a model")
        return float("nan"), ""
    report = nodes.validate(pool)
    fails.check(report.ok, f"validate(pool) is clean: {report}")
    mass = evaluate.log_density(pool, {})
    fails.check(abs(mass) <= MASS_TOL, f"log_density(pool, {{}}) = {mass!r} is 0")
    rows_ll = evaluate.log_density_rows(pool, st.reads.check_rows)
    for x, v in zip(st.reads.check_rows, rows_ll):
        walk = evaluate.log_density(pool, {i: float(x[i]) for i in range(pool.dim)})
        fails.check(abs(walk - v) <= DENSITY_TOL * max(1.0, abs(v)),
                    f"full-evidence log_density {walk!r} equals log_density_rows {v!r}")
    if ep.last_score is not None:
        X = st.reads.score_blocks[-1]
        ref = evaluate.subtree_log_density_rows(pool, pool.root, X)
        fails.check(bool(np.allclose(ep.last_score, ref, rtol=DENSITY_TOL, atol=DENSITY_TOL)),
                    "last read-mix score matches a graph walk of the current model")
    ll = float(np.mean(evaluate.log_density_rows(pool, st.heldout)))
    fails.check(math.isfinite(ll), "held-out log-likelihood is finite")
    path = st.model_path
    if not isinstance(wl, BlocksCsv):  # the CSV workload's episode saved it already
        path = os.path.join(wl.workdir, f"gate-{ep.stream}.spn")
        model_io.save_model(path, pool, config=wl.config)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return ll, digest


def gate_run(wl: Workload, heldout_ll: dict, fails: Failures) -> None:
    """On toy-stream-b1, checks ``heldout_ll``, the mean over the run's
    streams, against the true density as the cross-validation acceptance
    test does with the mean over its folds."""
    if isinstance(wl, ToyStream):
        ll = sum(heldout_ll.values()) / len(heldout_ll)
        true = sum(st.true_heldout_ll for st in wl.streams) / len(wl.streams)
        fails.check(abs(ll - true) < TOY_GAP_NATS,
                    f"toy held-out LL {ll:.4f} within {TOY_GAP_NATS} of true {true:.4f}")
