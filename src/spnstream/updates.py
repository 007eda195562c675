"""The routing rule at sum nodes: best child wins, exact ties break at random.

``learner.learn_batch`` hard-routes every row of a batch down the network:
at a sum node the row goes to the child whose sub-network gives it the
highest likelihood, and only that child's count and statistics absorb it.
This module holds the tie-break argmax that picks the winner.  With
``structure_frozen=True`` that pass is the whole online parameter update;
with count-ratio ("mle") weights it never decreases the density of the
routed point, so a stream of single-row batches gives monotone per-point
likelihood.
"""

from __future__ import annotations

import numpy as np


# In its own module because perfbench/tracing.py wraps it here by name.
def tie_break_argmax(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Column-wise argmax of a (children, rows) matrix, exact ties random.

    Rows whose maximum is attained by a single child never consume
    randomness, so runs without ties are reproducible regardless of how
    many potential ties other data would have had.  A column with a NaN
    goes to its first NaN and draws nothing.  A single column, the route
    of one row, takes the same winner and draws in plain Python.
    """
    if values.shape[1] == 1:
        col = values[:, 0].tolist()
        for j, v in enumerate(col):
            if v != v:  # NaN: argmax's pick, and NaN ties with nothing
                return np.array([j])
        top = max(col)
        tied = [j for j, v in enumerate(col) if v == top]
        return np.array([tied[0] if len(tied) == 1 else tied[rng.integers(len(tied))]])
    winners = np.argmax(values, axis=0)
    top = values[winners, np.arange(values.shape[1])]
    tied_mask = (values == top)
    # Without ties each column equals its top once.  A NaN top equals
    # nothing, so it is ruled out before this count can stand for "no tie".
    if np.count_nonzero(tied_mask) == values.shape[1] and not np.isnan(top).any():
        return winners
    n_tied = tied_mask.sum(axis=0)
    for col in np.flatnonzero(n_tied > 1):
        candidates = np.flatnonzero(tied_mask[:, col])
        winners[col] = candidates[rng.integers(len(candidates))]
    return winners
