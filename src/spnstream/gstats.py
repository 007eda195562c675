"""Streaming estimates of Gaussian sufficient statistics.

A ``GaussianStats`` holds the running mean, running population covariance
and the number of observations absorbed so far.  Updates are exact: after
any sequence of batch updates the result equals a direct recomputation
over the concatenated data, up to floating point roundoff, regardless of
how the stream was split into batches.

A pool keeps the numbers of all its nodes in one ``StatsStore``.  For
each scope width k it holds the statistics of the leaves and products of
that width, stacked arrays ``mean`` (S, k), ``cov`` (S, k, k) and
``count`` (S,) (``StatsWidth``); for each number of children c, the child
counts of the sums with c children, ``counts`` (S, c) (``CountsWidth``).
Both share one slot allocator (``Slots``), and each width counts the
writes and frees of its slots (``writes``).  A node holds a (width, slot)
handle.  ``node.stats`` is a frozen snapshot of its slot
(``StatsWidth.read``) whose arrays refuse writes, and a sum's
``node.child_counts`` a list that refuses edits (``ChildCounts``): a slot
changes only through its width's ``write`` (or ``CountsWidth.add``),
which moves the width's count.  ``weights`` turns child counts into
mixture weights.

``update_each`` holds the update formula, that of Chan, Golub & LeVeque
(1979).  It updates many slots at once in stacked passes, each result with
the bits of updating it alone, and writes the results back into the store,
so a write builds no ``GaussianStats``.  The write pass applies all its
queued updates with one call; ``GaussianStats.update`` is its one-item
case, on a store of one slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Variances below this are treated as degenerate when normalizing
# covariances into correlations.
DEGENERATE_VARIANCE = 1e-12


@dataclass(eq=False, frozen=True)
class GaussianStats:
    """Running mean/covariance over a fixed-width stream of vectors.

    Frozen: rebinding a field raises, so a snapshot of a store slot
    (``StatsWidth.read``) cannot be changed as if it were the slot.

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
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=np.float64))
        if self.mean.ndim != 1:
            raise ValueError("mean must be a vector")
        k = self.mean.shape[0]
        if self.cov.shape != (k, k):
            raise ValueError(f"covariance shape {self.cov.shape} does not match mean of length {k}")
        object.__setattr__(self, "count", float(self.count))

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
        then corrects for the mean shift (``update_each``).  An empty batch
        is a no-op.
        """
        if not (type(batch) is np.ndarray and batch.ndim == 2 and batch.dtype == np.float64):
            batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        m = batch.shape[0]
        if m == 0:
            return self.copy()
        if batch.shape[1] != self.dim:
            raise ValueError(f"batch width {batch.shape[1]} does not match stats dimension {self.dim}")
        width, i = StatsStore().add(self)
        update_each(batch, [(width, i)], [np.arange(m)], [range(self.dim)])
        return width.release(i)

    def restrict(self, positions) -> "GaussianStats":
        """Statistics over a subset of coordinates, count preserved."""
        idx = np.asarray(positions, dtype=np.intp)
        return GaussianStats(self.mean[idx].copy(), self.cov[np.ix_(idx, idx)].copy(), self.count)

    def copy(self) -> "GaussianStats":
        return GaussianStats(self.mean.copy(), self.cov.copy(), self.count)


def correlation_matrix(cov: np.ndarray) -> np.ndarray:
    """Absolute correlations of covariance ``cov``, with degenerate rows
    zeroed and a zero diagonal."""
    var = np.diag(cov).copy()
    ok = var >= DEGENERATE_VARIANCE
    scale = np.where(ok, np.sqrt(np.where(ok, var, 1.0)), np.inf)
    r = np.abs(cov) / np.outer(scale, scale)
    np.fill_diagonal(r, 0.0)
    return r


class Slots:
    """Stacked arrays, one row per slot, that grow by doubling: the arrays
    named in the constructor, each given empty with the shape of one row
    after its first axis.

    A slot keeps its index until it is freed, whatever is allocated or
    freed meanwhile, and a freed slot is handed out again last in, first
    out.  ``writes`` moves whenever a slot is written or freed, so a reader
    that recorded it knows whether any slot changed since.
    """

    def __init__(self, store: StatsStore, **arrays: np.ndarray):
        self.store, self.names = store, tuple(arrays)
        for name, empty in arrays.items():
            setattr(self, name, empty)
        self.free: list[int] = []
        self.used = 0  # slots ever handed out
        self.writes = 0

    def alloc(self) -> int:
        """A slot to write, the last one freed if any."""
        if self.free:
            return self.free.pop()
        if self.used == len(getattr(self, self.names[0])):
            cap = max(8, 2 * self.used)
            for name in self.names:
                old = getattr(self, name)
                new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
                new[:self.used] = old
                setattr(self, name, new)
        self.used += 1
        return self.used - 1

    def wrote(self) -> None:
        """Count a write or free, in this width and in its store."""
        self.writes += 1
        self.store.stamps += 1

    def release(self, i: int):
        """Free slot i and return its last contents (``read``)."""
        last = self.read(i)
        self.wrote()
        self.free.append(i)
        return last


class StatsWidth(Slots):
    """The statistics of every slot of one scope width ``k``: ``mean``
    (S, k), ``cov`` (S, k, k) and ``count`` (S,)."""

    def __init__(self, store: StatsStore, k: int):
        super().__init__(store, mean=np.zeros((0, k)), cov=np.zeros((0, k, k)),
                         count=np.zeros(0))
        self.k = k

    def read(self, i: int) -> GaussianStats:
        """A snapshot of slot i, in arrays of its own that refuse writes, so
        a write into them raises ValueError instead of missing the count."""
        stats = GaussianStats(self.mean[i].copy(), self.cov[i].copy(), self.count[i])
        stats.mean.flags.writeable = stats.cov.flags.writeable = False
        return stats

    def write(self, at, mean, cov, count) -> None:
        """Write the slots ``at``: an index, a slice, or an index array that
        names each slot at most once."""
        self.mean[at], self.cov[at], self.count[at] = mean, cov, count
        self.wrote()


class ChildCounts(list):
    """A read-only snapshot of a sum's child counts (``CountsWidth.read``):
    a list of floats that compares as one, but raises ValueError on any
    edit in place, so an edit cannot miss its width's count of writes."""

    def _refuse(self, *args, **kwargs):
        raise ValueError("child counts are a read-only snapshot; "
                         "assign node.child_counts to change them")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):  # copies and pickles rebuild it whole, not by append
        return ChildCounts, (list(self),)


class CountsWidth(Slots):
    """The child counts of every sum with ``c`` children: ``counts`` (S, c)."""

    def __init__(self, store: StatsStore, c: int):
        super().__init__(store, counts=np.zeros((0, c)))
        self.c = c

    def read(self, i: int) -> ChildCounts:
        """A snapshot of slot i's counts."""
        return ChildCounts(self.counts[i].tolist())

    def write(self, i: int, counts) -> None:
        self.counts[i] = counts
        self.wrote()

    def add(self, i: int, j: int, n: float) -> None:
        """Add ``n`` to count j of slot i."""
        self.counts[i, j] += n
        self.wrote()


class StatsStore:
    """The numbers of one pool: the statistics of its leaves and products,
    one ``StatsWidth`` per scope width, and the child counts of its sums,
    one ``CountsWidth`` per number of children.  A slot is a (width,
    index) pair.

    ``stamps`` counts the writes and frees of all its widths, so a reader
    that recorded it knows in O(1) whether anything changed since.
    """

    def __init__(self):
        self.widths: dict[int, StatsWidth] = {}
        self.counts: dict[int, CountsWidth] = {}
        self.stamps = 0

    def add(self, stats: GaussianStats) -> tuple[StatsWidth, int]:
        """A new slot holding a copy of ``stats``."""
        k = stats.mean.shape[0]
        width = self.widths.get(k)
        if width is None:
            width = self.widths[k] = StatsWidth(self, k)
        i = width.alloc()
        width.write(i, stats.mean, stats.cov, stats.count)
        return width, i

    def add_counts(self, counts: list[float]) -> tuple[CountsWidth, int]:
        """A new slot holding a copy of a sum's child ``counts``."""
        c = len(counts)
        width = self.counts.get(c)
        if width is None:
            width = self.counts[c] = CountsWidth(self, c)
        i = width.alloc()
        width.write(i, counts)
        return width, i


def weights(counts: np.ndarray, mode: str) -> np.ndarray:
    """Mixture weights of sums with child counts ``counts`` (m, c), one sum
    a row, under weighting mode ``mode``: "mle" divides each count by its
    sum's total, "laplace" adds one pseudo-count per child.

    Each total adds its row left to right, as ``nodes.SumNode.count`` does,
    so a sum's weights have the same bits in any stack.  A zero total under
    "mle", a sum without children included, or an unknown mode raises
    ValueError.
    """
    if counts.shape[1]:
        total = np.add.accumulate(counts, axis=1)[:, -1:]
    else:
        total = np.zeros((counts.shape[0], 1))
    if mode == "mle":
        if (total <= 0.0).any():
            raise ValueError("cannot derive mle weights from a sum node with zero count")
        return counts / total
    if mode == "laplace":
        return (counts + 1.0) / (total + float(counts.shape[1]))
    raise ValueError(f"unknown weight mode: {mode!r}")


def update_each(X: np.ndarray, slots: list, rows: list, cols: list) -> None:
    """Absorb into every store slot ``slots[i]`` the rows ``rows[i]`` of X,
    read at the columns ``cols[i]``, and write the results into the slot.

    Every ``rows[i]`` holds at least one row index and ``cols[i]`` one
    column per dimension of its slot's width, and no slot occurs twice.
    The update keeps the running mean exact and folds the rows into the
    population covariance using deviations from the pre-update mean, then
    corrects for the mean shift.  The items that take one row share one
    pass, padded to the widest (``_one_row_pass``); the others take one
    pass per exact (row count, width) (``_rows_terms``), and those of one
    width share one closing step (``_close``).  Each result has the bits
    of updating its slot alone, whatever else shares the call.
    """
    one: dict[StatsWidth, list[int]] = {}
    many: dict[StatsWidth, dict[int, list[int]]] = {}
    for item, r in enumerate(rows):
        if len(r) == 1:
            one.setdefault(slots[item][0], []).append(item)
        else:
            many.setdefault(slots[item][0], {}).setdefault(len(r), []).append(item)
    if one:
        _one_row_pass(X, one, slots, rows, cols)
    for width, by_rows in many.items():
        items = [i for group in by_rows.values() for i in group]
        at = _index([slots[i][1] for i in items])
        mean = width.mean[at]
        sums, scatter = np.empty_like(mean), np.empty((len(items), width.k, width.k))
        m = np.empty((len(items), 1))
        lo = 0
        for n_rows, group in by_rows.items():
            hi = lo + len(group)
            sums[lo:hi], scatter[lo:hi] = _rows_terms(mean[lo:hi], X, rows, cols, group)
            m[lo:hi] = n_rows
            lo = hi
        width.write(at, *_close(width.count[at], m, mean, width.cov[at], sums, scatter))


def _index(slots: list[int]):
    """Index of the store rows ``slots``: a slice for one slot, so reads
    copy nothing and writes are plain assignments, else an array."""
    return slice(slots[0], slots[0] + 1) if len(slots) == 1 else np.array(slots)


def _close(n, m, mean, cov, sums, scatter):
    """(mean, cov, count) after N items with counts ``n`` (N,), statistics
    ``mean`` (N, k) and ``cov`` (N, k, k) absorb ``m`` rows each, (N, 1) or
    a scalar, with row sums ``sums`` and scatter ``scatter`` about ``mean``.
    Every step is elementwise over the items."""
    n = n[:, None]
    total = n + m
    new_mean = (n * mean + sums) / total
    delta = new_mean - mean
    new_cov = ((n[:, :, None] * cov + scatter) / total[:, :, None]
               - delta[:, :, None] * delta[:, None, :])
    return new_mean, 0.5 * (new_cov + new_cov.transpose(0, 2, 1)), total[:, 0]


def _one_row_pass(X: np.ndarray, by_width: dict, slots: list, rows: list, cols: list) -> None:
    """Apply the items of ``update_each`` that take one row, ``by_width``
    listing them per width, in one pass.

    The statistics may differ in width, so the pass pads them with zeros to
    the widest.  With a single row every step of the update is elementwise,
    so padding never reaches a real entry.  Two steps need care there: in
    the per-item update, ``np.add.reduce`` over one row and the one-term
    ``dev.T @ dev`` both add their terms to +0.0, which turns a -0.0 into
    +0.0, so this pass adds 0.0 too.
    """
    order = [i for items in by_width.values() for i in items]
    widest = max(width.k for width in by_width)
    x, mean = np.zeros((len(order), widest)), np.zeros((len(order), widest))
    cov, n = np.zeros((len(order), widest, widest)), np.empty(len(order))
    width_x = X.shape[1]
    values = X.take([int(rows[i][0]) * width_x + v for i in order for v in cols[i]])
    spans, lo, start = [], 0, 0  # start: the first of the width's values
    for width, items in by_width.items():
        k, hi = width.k, lo + len(items)
        at = _index([slots[i][1] for i in items])
        x[lo:hi, :k] = values[start:start + (hi - lo) * k].reshape(-1, k)
        mean[lo:hi, :k], cov[lo:hi, :k, :k] = width.mean[at], width.cov[at]
        n[lo:hi] = width.count[at]
        spans.append((width, at, lo, hi))
        lo, start = hi, start + (hi - lo) * k
    dev = x - mean
    new_mean, new_cov, total = _close(n, 1.0, mean, cov, x + 0.0,
                                      dev[:, :, None] * dev[:, None, :] + 0.0)
    for width, at, lo, hi in spans:
        k = width.k
        width.write(at, new_mean[lo:hi, :k], new_cov[lo:hi, :k, :k], total[lo:hi])


def _rows_terms(mean: np.ndarray, X: np.ndarray, rows: list, cols: list, items: list[int]):
    """(row sums, scatter about ``mean``) of the ``items`` of
    ``update_each``'s arguments, which take m >= 2 rows each over k columns
    each, the same m and k for all; ``mean`` (N, k) holds their means.

    The rows form one (N, m, k) block without padding, so numpy sums each
    item's m rows in the order of the per-item update and BLAS gets the
    same product.  Padding to a common m or k would change that order.
    """
    block = X.take(np.array([rows[i] for i in items])[:, :, None] * X.shape[1]
                   + np.array([cols[i] for i in items])[:, None, :])
    dev = block - mean[:, None, :]
    return np.add.reduce(block, axis=1), dev.transpose(0, 2, 1) @ dev
