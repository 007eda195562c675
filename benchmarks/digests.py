"""One sha256 digest per kind of output, over 14 fits at fixed seeds.

A change that should leave every output bit for bit as it was prints the
same lines before and after.  The fits are the toy stream (``toy.generate``,
batch 1) at ``max_leaf_vars`` 1 and 3, and planted blocks
(``bench_eval.planted_blocks``, 24 variables) at batch 256, 16, 8, 2 and
1, each in "laplace" and "mle" weight mode.  For each fit it hashes:

* model: the saved model document (``pool_to_json``, sorted keys);
* scores: ``log_density_rows`` at held-out complete rows;
* partial: ``log_density`` with half of the variables observed, and
  ``conditional_log_density`` of a quarter given another half;
* samples: 64 rows of ``sample``;
* means: ``analytic_mean``.

Run from the repository root (about 6 s on a 2-core VM):

    python3 benchmarks/digests.py            # one line per kind
    python3 benchmarks/digests.py --per-fit  # one line per fit and kind

With ``--per-fit`` each line names its fit and hashes that fit's bytes
alone, so a mismatch names the fit it comes from; the default digest of a
kind hashes the same bytes of every fit in turn.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_eval import planted_blocks  # noqa: E402
from spnstream import toy  # noqa: E402
from spnstream.evaluate import (analytic_mean, conditional_log_density, log_density,  # noqa: E402
                                log_density_rows, sample)
from spnstream.learner import LearnerConfig, fit  # noqa: E402
from spnstream.model_io import pool_to_json  # noqa: E402

KINDS = ("model", "scores", "partial", "samples", "means")
MODES = ("laplace", "mle")


def outputs(pool, rows: np.ndarray, seed: int) -> dict[str, bytes]:
    """The bytes of each kind of output of ``pool``, queried at ``rows``
    with evidence and sampling drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    d = pool.dim
    partial = []
    for row in rows:
        order = rng.permutation(d)
        half, quarter = order[:max(1, d // 2)], order[d // 2:d // 2 + max(1, d // 4)]
        evidence = {int(v): float(row[v]) for v in half}
        partial.append(log_density(pool, evidence))
        if quarter.size and d > 1:
            query = {int(v): float(row[v]) for v in quarter}
            partial.append(conditional_log_density(pool, query, evidence))
    doc = json.dumps(pool_to_json(pool), sort_keys=True, allow_nan=False)
    return {"model": doc.encode(),
            "scores": log_density_rows(pool, rows).tobytes(),
            "partial": np.array(partial).tobytes(),
            "samples": sample(pool, rng, size=64).tobytes(),
            "means": analytic_mean(pool).tobytes()}


def digests(fits) -> dict[str, str]:
    """sha256 of each kind of output over ``fits``, (pool, rows, seed) triples."""
    hashes = {kind: hashlib.sha256() for kind in KINDS}
    for pool, rows, seed in fits:
        for kind, data in outputs(pool, rows, seed).items():
            hashes[kind].update(data)
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def per_fit_lines(labelled) -> list[str]:
    """One line per fit and kind, "label kind sha256", over ``labelled``,
    (label, (pool, rows, seed)) pairs; each digest hashes that fit's bytes
    of that kind alone."""
    return [f"{label:21s} {kind:8s} {hashlib.sha256(data).hexdigest()}"
            for label, fit_ in labelled for kind, data in outputs(*fit_).items()]


def fits():
    """The 14 fits as (label, (pool, rows, seed)), each with 32 held-out
    rows from the same source."""
    for max_leaf_vars in (1, 3):
        for mode in MODES:
            rows = toy.generate(2032, np.random.default_rng(5))
            cfg = LearnerConfig(max_leaf_vars=max_leaf_vars, weight_mode=mode, seed=5)
            yield f"toy-leafvars{max_leaf_vars}-{mode}", (fit(rows[:2000], cfg)[0], rows[2000:], 5)
    for batch, n in ((256, 10240), (16, 4096), (8, 4096), (2, 2048), (1, 1024)):
        for mode in MODES:
            rows = planted_blocks(n + 32, np.random.default_rng(7))
            cfg = LearnerConfig(batch_size=batch, max_leaf_vars=3, weight_mode=mode, seed=7)
            yield f"blocks-b{batch}-{mode}", (fit(rows[:n], cfg)[0], rows[n:], 7)


def main(argv: list[str]) -> int:
    if argv == ["--per-fit"]:
        print("\n".join(per_fit_lines(fits())))
        return 0
    if argv:
        print("usage: digests.py [--per-fit]", file=sys.stderr)
        return 2
    for kind, digest in digests(fit_ for _, fit_ in fits()).items():
        print(f"{kind:8s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
