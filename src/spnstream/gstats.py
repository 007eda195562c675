"""Streaming estimates of Gaussian sufficient statistics.

A ``GaussianStats`` holds the running mean, running population covariance
and the number of observations absorbed so far.  Updates are exact: after
any sequence of batch updates the result equals a direct recomputation
over the concatenated data, up to floating point roundoff, regardless of
how the stream was split into batches.

``update_each`` holds the update formula, that of Chan, Golub & LeVeque
(1979).  It updates many statistics at once in stacked passes, each
result with the bits of updating it alone; ``GaussianStats.update`` is its
one-item case, and the write pass applies all its queued updates with one
call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Variances below this are treated as degenerate when normalizing
# covariances into correlations.
DEGENERATE_VARIANCE = 1e-12


@dataclass(eq=False)
class GaussianStats:
    """Running mean/covariance over a fixed-width stream of vectors.

    Attributes:
        mean: running mean, shape (k,).
        cov: running population covariance (division by count), shape (k, k).
        count: number of observations absorbed.  Kept as a float so that
            pseudo-observations and serialized values round-trip exactly.
    """

    mean: np.ndarray
    cov: np.ndarray
    count: float

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        if self.mean.ndim != 1:
            raise ValueError("mean must be a vector")
        k = self.mean.shape[0]
        if self.cov.shape != (k, k):
            raise ValueError(f"covariance shape {self.cov.shape} does not match mean of length {k}")
        self.count = float(self.count)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def zeros(cls, k: int, count: float = 0.0) -> "GaussianStats":
        return cls(np.zeros(k), np.zeros((k, k)), count)

    @classmethod
    def _unchecked(cls, mean: np.ndarray, cov: np.ndarray, count: float) -> "GaussianStats":
        """Statistics from arrays a stacked update has just computed:
        float64, of matching shapes and owned, with a float count; skips the
        conversions."""
        stats = object.__new__(cls)
        stats.mean, stats.cov, stats.count = mean, cov, count
        return stats

    def update(self, batch: np.ndarray) -> "GaussianStats":
        """Absorb a batch of rows and return the updated statistics.

        The update keeps the running mean exact and folds the batch into the
        population covariance using deviations from the pre-update mean,
        then corrects for the mean shift (``update_each``).  An empty batch
        is a no-op.
        """
        if not (type(batch) is np.ndarray and batch.ndim == 2 and batch.dtype == np.float64):
            batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        m = batch.shape[0]
        if m == 0:
            return GaussianStats(self.mean.copy(), self.cov.copy(), self.count)
        if batch.shape[1] != self.dim:
            raise ValueError(f"batch width {batch.shape[1]} does not match stats dimension {self.dim}")
        return update_each([self], batch, [np.arange(m)], [range(self.dim)])[0]

    def correlation_matrix(self) -> np.ndarray:
        """Absolute correlation matrix with degenerate rows zeroed and zero diagonal."""
        var = np.diag(self.cov).copy()
        ok = var >= DEGENERATE_VARIANCE
        scale = np.where(ok, np.sqrt(np.where(ok, var, 1.0)), np.inf)
        r = np.abs(self.cov) / np.outer(scale, scale)
        np.fill_diagonal(r, 0.0)
        return r

    def restrict(self, positions) -> "GaussianStats":
        """Statistics over a subset of coordinates, count preserved."""
        idx = np.asarray(positions, dtype=np.intp)
        return GaussianStats(self.mean[idx].copy(), self.cov[np.ix_(idx, idx)].copy(), self.count)

    def copy(self) -> "GaussianStats":
        return GaussianStats(self.mean.copy(), self.cov.copy(), self.count)


def update_each(stats: list[GaussianStats], X: np.ndarray, rows: list,
                cols: list) -> list[GaussianStats]:
    """New statistics for every i: ``stats[i]`` after absorbing the rows
    ``rows[i]`` of X, read at the columns ``cols[i]``.

    Every ``rows[i]`` holds at least one row index and ``cols[i]`` one
    column per dimension of ``stats[i]``.  The update keeps the running
    mean exact and folds the rows into the population covariance using
    deviations from the pre-update mean, then corrects for the mean
    shift.  The items that take one row share one pass
    (``_one_row_terms``); the others share one pass per exact
    (row count, width) group (``_rows_terms``); every pass ends in the
    same closing step.  Each result has the bits of updating its
    statistics alone, whatever else shares the call, and owns its
    arrays; the inputs are left unchanged.
    """
    passes = {}  # None for the one-row pass, else (row count, width)
    for i, r in enumerate(rows):
        passes.setdefault(None if len(r) == 1 else (len(r), len(cols[i])), []).append(i)
    fresh = [None] * len(stats)
    for shape, items in passes.items():
        terms = _rows_terms if shape else _one_row_terms
        mean, cov, sums, scatter = terms(stats, X, rows, cols, items)
        n = np.array([stats[i].count for i in items])[:, None]
        total = n + len(rows[items[0]])
        new_mean = (n * mean + sums) / total
        delta = new_mean - mean
        new_cov = ((n[:, :, None] * cov + scatter) / total[:, :, None]
                   - delta[:, :, None] * delta[:, None, :])
        new_cov = 0.5 * (new_cov + new_cov.transpose(0, 2, 1))
        for i, mu, sigma, t in zip(items, new_mean, new_cov, total[:, 0].tolist()):
            if not shape:  # the one-row pass padded each item to the widest
                k = stats[i].mean.shape[0]
                mu, sigma = mu[:k], sigma[:k, :k]
            fresh[i] = GaussianStats._unchecked(mu.copy(), sigma.copy(), t)
    return fresh


def _one_row_terms(stats: list[GaussianStats], X: np.ndarray, rows: list, cols: list,
                   items: list[int]):
    """(mean, cov, row sum, scatter) of the ``items`` of ``update_each``'s
    arguments, which take one row each.

    The statistics may differ in width, so the pass pads them with zeros to
    the widest.  With a single row every step of the update is elementwise,
    so padding never reaches a real entry.  Two steps need care there: in
    the per-item update, ``np.add.reduce`` over one row and the one-term
    ``dev.T @ dev`` both add their terms to +0.0, which turns a -0.0 into
    +0.0, so this pass adds 0.0 too.
    """
    ks = [stats[i].mean.shape[0] for i in items]
    real = np.arange(max(ks)) < np.array(ks)[:, None]
    real_cov = real[:, :, None] & real[:, None, :]
    x = np.zeros(real.shape)
    width_x = X.shape[1]
    x[real] = X.take([int(rows[i][0]) * width_x + v for i in items for v in cols[i]])
    mean = np.zeros(real.shape)
    mean[real] = np.concatenate([stats[i].mean for i in items])
    cov = np.zeros(real_cov.shape)
    cov[real_cov] = np.concatenate([stats[i].cov for i in items], axis=None)
    dev = x - mean
    return mean, cov, x + 0.0, dev[:, :, None] * dev[:, None, :] + 0.0


def _rows_terms(stats: list[GaussianStats], X: np.ndarray, rows: list, cols: list,
                items: list[int]):
    """(mean, cov, row sum, scatter) of the ``items`` of ``update_each``'s
    arguments, which take m >= 2 rows each over k columns each, the same m
    and k for all.

    The rows form one (N, m, k) block without padding, so numpy sums each
    item's m rows in the order of the per-item update and BLAS gets the
    same product.  Padding to a common m or k would change that order.
    """
    block = X[np.array([rows[i] for i in items])[:, :, None],
              np.array([cols[i] for i in items])[:, None, :]]
    mean = np.array([stats[i].mean for i in items])
    dev = block - mean[:, None, :]
    return (mean, np.array([stats[i].cov for i in items]), np.add.reduce(block, axis=1),
            dev.transpose(0, 2, 1) @ dev)
