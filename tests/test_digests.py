"""benchmarks/digests.py: one digest per kind of output, stable across runs
and moved by a change to any leaf; ``--per-fit`` hashes each fit alone."""

import hashlib

import numpy as np

import digests as digests_module
from digests import KINDS, digests, outputs, per_fit_lines
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


def test_per_fit_lines_hash_each_fit_alone_and_combine_into_the_digests(monkeypatch, capsys):
    rows = toy.generate(340, np.random.default_rng(2))
    labelled = [(f"toy-{seed}", (fit(rows[:300], LearnerConfig(max_leaf_vars=3, seed=seed))[0],
                                 rows[300 + 20 * i:320 + 20 * i], seed))
                for i, seed in enumerate((2, 3))]
    lines = [line.split() for line in per_fit_lines(labelled)]
    assert [line[:2] for line in lines] == [[label, kind] for label, _ in labelled
                                            for kind in KINDS]
    for label, fit_ in labelled:  # a fit's line is the digest of that fit alone
        alone = digests([fit_])
        assert [line[2] for line in lines if line[0] == label] == [alone[k] for k in KINDS]
    # The default digest of a kind hashes the same bytes of every fit in turn.
    combined = {kind: hashlib.sha256(b"".join(outputs(*fit_)[kind] for _, fit_ in labelled))
                .hexdigest() for kind in KINDS}
    assert digests(fit_ for _, fit_ in labelled) == combined
    assert combined != digests([labelled[0][1]])

    monkeypatch.setattr(digests_module, "fits", lambda: iter(labelled))
    assert digests_module.main([]) == 0
    assert capsys.readouterr().out.split() == [w for kind in KINDS for w in (kind, combined[kind])]
    assert digests_module.main(["--per-fit"]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == lines
