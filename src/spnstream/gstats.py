"""Streaming estimates of Gaussian sufficient statistics.

A ``GaussianStats`` holds the running mean, running population covariance
and the number of observations absorbed so far.  Updates are exact: after
any sequence of batch updates the result equals a direct recomputation
over the concatenated data, up to floating point roundoff, regardless of
how the stream was split into batches.

The write pass updates many statistics at once through two stacked forms
of ``GaussianStats.update``, each with the bits of the per-node call:
``update_each_with_one_row`` for statistics of any widths that take one
row each, and ``update_each_with_rows`` for statistics of one width that
take the same number of rows each.
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
        then corrects for the mean shift.  An empty batch is a no-op.
        """
        if not (type(batch) is np.ndarray and batch.ndim == 2 and batch.dtype == np.float64):
            batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        m = batch.shape[0]
        if m == 0:
            return GaussianStats(self.mean.copy(), self.cov.copy(), self.count)
        if batch.shape[1] != self.dim:
            raise ValueError(f"batch width {batch.shape[1]} does not match stats dimension {self.dim}")
        n = self.count
        total = n + m
        # np.add.reduce is what batch.sum(axis=0) calls, without its Python wrapper.
        new_mean = (n * self.mean + np.add.reduce(batch, axis=0)) / total
        dev = batch - self.mean
        scatter = dev.T @ dev
        delta = new_mean - self.mean
        new_cov = (n * self.cov + scatter) / total - delta[:, None] * delta
        new_cov = 0.5 * (new_cov + new_cov.T)
        return GaussianStats(new_mean, new_cov, total)

    def correlation(self, i: int, j: int) -> float:
        """Absolute correlation between coordinates i and j.

        Returns 0.0 when either variance is below ``DEGENERATE_VARIANCE``,
        so freshly created or constant coordinates never look correlated.
        """
        vi = self.cov[i, i]
        vj = self.cov[j, j]
        if vi < DEGENERATE_VARIANCE or vj < DEGENERATE_VARIANCE:
            return 0.0
        return float(abs(self.cov[i, j]) / np.sqrt(vi * vj))

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


def update_each_with_one_row(stats: list[GaussianStats], X: np.ndarray, rows: list[int],
                             cols: list) -> list[GaussianStats]:
    """``stats[i].update(X[rows[i], cols[i]])`` for every i, in one stacked pass.

    The statistics may differ in dimension, so the pass pads them with
    zeros to the widest.  With a single row every step of
    ``GaussianStats.update`` is elementwise, so padding never reaches a real
    entry and each result has the bits of its own update.  Two steps need
    care there: ``np.add.reduce`` over one row and the one-term
    ``dev.T @ dev`` both add their terms to +0.0, which turns a -0.0 into
    +0.0, so the stacked pass adds 0.0 too.  Each result owns its arrays.
    """
    ks = [s.mean.shape[0] for s in stats]
    real = np.arange(max(ks)) < np.array(ks)[:, None]
    real_cov = real[:, :, None] & real[:, None, :]
    x = np.zeros(real.shape)
    width_x = X.shape[1]
    x[real] = X.take([r * width_x + v for r, c in zip(rows, cols) for v in c])
    mean = np.zeros(real.shape)
    mean[real] = np.concatenate([s.mean for s in stats])
    cov = np.zeros(real_cov.shape)
    cov[real_cov] = np.concatenate([s.cov for s in stats], axis=None)
    n = np.array([s.count for s in stats])[:, None]
    total = n + 1.0
    new_mean = (n * mean + (x + 0.0)) / total
    dev = x - mean
    scatter = dev[:, :, None] * dev[:, None, :] + 0.0
    delta = new_mean - mean
    new_cov = ((n[:, :, None] * cov + scatter) / total[:, :, None]
               - delta[:, :, None] * delta[:, None, :])
    new_cov = 0.5 * (new_cov + new_cov.transpose(0, 2, 1))
    return [GaussianStats._unchecked(new_mean[i, :k].copy(), new_cov[i, :k, :k].copy(),
                                     s.count + 1)
            for i, (s, k) in enumerate(zip(stats, ks))]


def update_each_with_rows(stats: list[GaussianStats], X: np.ndarray, rows: list,
                          cols: list) -> list[GaussianStats]:
    """``stats[i].update(X[rows[i], cols[i]])`` for every i, in one stacked pass.

    Every ``rows[i]`` holds the same number m of row indices and every
    ``cols[i]`` the same number k of columns, which ``stats[i]`` must match,
    so the rows form one (N, m, k) block without padding.  Each item of the
    block then goes through the steps of ``GaussianStats.update`` with the
    shape of the per-node call: numpy sums its m rows in the same order
    and BLAS gets the same product, so each result has the bits of its own
    update.  Padding to a common m or k would change that order.
    """
    block = X[np.array(rows)[:, :, None], np.array(cols)[:, None, :]]
    mean = np.array([s.mean for s in stats])
    cov = np.array([s.cov for s in stats])
    n = np.array([s.count for s in stats])[:, None]
    total = n + block.shape[1]
    new_mean = (n * mean + np.add.reduce(block, axis=1)) / total
    dev = block - mean[:, None, :]
    scatter = dev.transpose(0, 2, 1) @ dev
    delta = new_mean - mean
    new_cov = ((n[:, :, None] * cov + scatter) / total[:, :, None]
               - delta[:, :, None] * delta[:, None, :])
    new_cov = 0.5 * (new_cov + new_cov.transpose(0, 2, 1))
    return [GaussianStats._unchecked(new_mean[i].copy(), new_cov[i].copy(), float(t))
            for i, t in enumerate(total[:, 0])]
