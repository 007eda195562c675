"""benchmarks/digests.py: one digest per kind of output, stable across runs
and moved by a change to any leaf."""

import numpy as np

from digests import KINDS, digests
from spnstream import toy
from spnstream.gstats import GaussianStats
from spnstream.learner import LearnerConfig, fit
from spnstream.nodes import LeafNode


def test_digests_repeat_and_move_with_one_leaf_mean():
    rows = toy.generate(332, np.random.default_rng(1))
    pool = fit(rows[:300], LearnerConfig(max_leaf_vars=3, seed=1))[0]
    first = digests([(pool, rows[300:], 1)])
    assert list(first) == list(KINDS)
    assert digests([(pool, rows[300:], 1)]) == first
    widest = max((n for n in pool.nodes.values() if isinstance(n, LeafNode)),
                 key=lambda n: len(n.scope))
    widest.stats = GaussianStats(widest.stats.mean + 0.5, widest.stats.cov, widest.stats.count)
    moved = digests([(pool, rows[300:], 1)])
    assert all(moved[kind] != first[kind] for kind in KINDS)
