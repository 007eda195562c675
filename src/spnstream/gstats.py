"""Streaming estimates of Gaussian sufficient statistics.

A ``GaussianStats`` holds the running mean, running population covariance
and the number of observations absorbed so far.  Updates are exact: after
any sequence of batch updates the result equals a direct recomputation
over the concatenated data, up to floating point roundoff, regardless of
how the stream was split into batches.
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
