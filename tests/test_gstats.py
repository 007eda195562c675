import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spnstream.gstats import (PAD_WIDTH, GaussianStats, StatsStore, correlation_matrix,
                              update_each)

from helpers import correlation, healthy_stats, population_stats, reference_update


def test_single_point_from_empty():
    stats = GaussianStats.zeros(1)
    out = stats.update(np.array([[3.0]]))
    assert out.count == 1.0
    np.testing.assert_allclose(out.mean, [3.0])
    np.testing.assert_allclose(out.cov, [[0.0]])


def test_known_three_point_multiset():
    # two points at 1 (mean 1, population variance 0), then a 4 arrives:
    # the multiset {1, 1, 4} has mean 2 and population variance 2
    stats = GaussianStats(np.array([1.0]), np.array([[0.0]]), 2.0)
    out = stats.update(np.array([[4.0]]))
    assert out.count == 3.0
    np.testing.assert_allclose(out.mean, [2.0])
    np.testing.assert_allclose(out.cov, [[2.0]])


def test_update_returns_new_object():
    stats = GaussianStats.zeros(2)
    out = stats.update(np.zeros((3, 2)))
    assert out is not stats
    assert stats.count == 0.0


def test_empty_batch_is_noop():
    stats = GaussianStats(np.array([1.0, 2.0]), np.eye(2), 5.0)
    out = stats.update(np.empty((0, 2)))
    assert out.count == 5.0
    np.testing.assert_array_equal(out.mean, stats.mean)


def test_matches_batch_recomputation_any_split():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2, 300))
        data = rng.normal(size=(n, k)) * rng.uniform(0.5, 3.0, size=k)
        stats = GaussianStats.zeros(k)
        i = 0
        while i < n:
            step = int(rng.integers(1, n - i + 1))
            stats = stats.update(data[i:i + step])
            i += step
        mean, cov = population_stats(data)
        np.testing.assert_allclose(stats.mean, mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(stats.cov, cov, rtol=1e-9, atol=1e-12)
        assert stats.count == n


def test_batch_order_within_update_is_irrelevant():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(40, 3))
    a = GaussianStats.zeros(3).update(data)
    b = GaussianStats.zeros(3).update(data[::-1])
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.cov, b.cov, rtol=1e-9, atol=1e-12)


def test_covariance_stays_symmetric():
    rng = np.random.default_rng(9)
    stats = GaussianStats.zeros(4)
    for _ in range(30):
        stats = stats.update(rng.normal(size=(int(rng.integers(1, 7)), 4)))
    np.testing.assert_array_equal(stats.cov, stats.cov.T)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        GaussianStats.zeros(2).update(np.zeros((1, 3)))


def test_correlation_rank_one():
    stats = GaussianStats(np.zeros(2), np.array([[4.0, 2.0], [2.0, 1.0]]), 10.0)
    assert correlation(stats, 0, 1) == pytest.approx(1.0)


def test_correlation_independent():
    stats = GaussianStats(np.zeros(2), np.array([[4.0, 0.0], [0.0, 1.0]]), 10.0)
    assert correlation(stats, 0, 1) == 0.0


def test_correlation_unit_variances():
    stats = GaussianStats(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]), 10.0)
    assert correlation(stats, 0, 1) == pytest.approx(0.5)


def test_correlation_degenerate_variance_is_zero():
    stats = GaussianStats(np.zeros(2), np.array([[0.0, 0.0], [0.0, 1.0]]), 10.0)
    assert correlation(stats, 0, 1) == 0.0


def test_correlation_matrix_matches_pairwise():
    rng = np.random.default_rng(4)
    stats = GaussianStats.zeros(4).update(rng.normal(size=(60, 4)))
    mat = correlation_matrix(stats.cov)
    for i in range(4):
        assert mat[i, i] == 0.0
        for j in range(4):
            if i != j:
                assert mat[i, j] == pytest.approx(correlation(stats, i, j))


def test_restrict_slices_and_keeps_count():
    stats = GaussianStats(np.array([1.0, 2.0, 3.0]),
                          np.diag([1.0, 4.0, 9.0]), 7.0)
    sub = stats.restrict([0, 2])
    assert sub.count == 7.0
    np.testing.assert_array_equal(sub.mean, [1.0, 3.0])
    np.testing.assert_array_equal(sub.cov, np.diag([1.0, 9.0]))


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def update_cases(draw):
    """(stats, batch, form): a batch of rows in one of the forms callers pass."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(0, 12))
    form = draw(st.sampled_from(["c", "columns", "row", "lists", "ints", "wide"]))
    if form == "row":
        m = 1
    mean = np.array(draw(st.lists(FINITE, min_size=k, max_size=k)))
    a = np.array(draw(st.lists(FINITE, min_size=k * k, max_size=k * k))).reshape(k, k)
    stats = GaussianStats(mean, a @ a.T, draw(st.floats(0.0, 1e6)))
    if form == "ints":
        batch = np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=m * k,
                                       max_size=m * k)), dtype=np.int64).reshape(m, k)
        return stats, batch, form
    width = k + 1 if form == "wide" else 2 * k + 1
    full = np.array(draw(st.lists(FINITE, min_size=m * width, max_size=m * width)))
    full = full.reshape(m, width)
    if form == "c":
        batch = np.ascontiguousarray(full[:, :k])
    elif form == "columns":  # a strided view, as a column slice of a wider batch
        batch = full[:, 1::2]
    elif form == "row":
        batch = full[0, :k]
    elif form == "lists":
        batch = full[:, :k].tolist()
    else:  # one column too many
        batch = full
    return stats, batch, form


def update_outcome(update, stats, batch):
    """The exact bits an update gives, or its error message."""
    try:
        out = update(stats, batch)
    except ValueError as exc:
        return "ValueError", str(exc)
    return out.count, out.mean.dtype, out.mean.tobytes(), out.cov.dtype, out.cov.tobytes()


@settings(max_examples=300, deadline=None)
@given(update_cases())
def test_update_matches_the_reference_formula_bit_for_bit(case):
    stats, batch, form = case
    got = update_outcome(GaussianStats.update, stats, batch)
    assert got == update_outcome(reference_update, stats, batch)
    if form == "wide" and len(batch):
        assert got[0] == "ValueError" and "does not match stats dimension" in got[1]


# -0.0 is worth a draw of its own: a one-row sum or product turns it into +0.0.
SIGNED = st.one_of(FINITE, st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@st.composite
def mixed_cases(draw):
    """(stats, X, rows, cols): statistics of widths 1-4, each to absorb one to
    three rows of a strided matrix X, read at its own columns, so that one
    call mixes one-row items, several (rows, width) groups and groups of one."""
    width = draw(st.integers(4, 6))
    n_rows = draw(st.integers(3, 5))
    full = np.array(draw(st.lists(SIGNED, min_size=2 * n_rows * 2 * width,
                                  max_size=2 * n_rows * 2 * width)))
    X = full.reshape(2 * n_rows, 2 * width)[::2, 1::2]  # strided rows and columns
    stats, rows, cols = [], [], []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, 4))
        mean = np.array(draw(st.lists(SIGNED, min_size=k, max_size=k)))
        a = np.array(draw(st.lists(FINITE, min_size=k * k, max_size=k * k))).reshape(k, k)
        count = draw(st.one_of(st.just(0.0), st.integers(1, 50).map(float), st.floats(0.0, 1e6)))
        stats.append(GaussianStats(mean, a @ a.T, count))
        m = draw(st.integers(1, 3))
        rows.append(np.array(draw(st.permutations(range(n_rows)))[:m]))
        cols.append(tuple(sorted(draw(st.permutations(range(width)))[:k])))
    return stats, X, rows, cols


@st.composite
def write_cases(draw):
    """(stats, X, rows, cols) shaped like the statistics update of a 16-row
    write: items of widths 1-4 and one wider than ``PAD_WIDTH``, each to
    absorb 1-16 rows of a strided matrix X at its own columns.  Every call
    has several items per (rows, width) group, one-row and multi-row items
    of width 1, and a width-1 group of 9 rows or more, whose sums numpy adds
    pairwise.  The values come from a drawn seed, with drawn shares of -0.0
    in X and in the means, and drawn counts, 0 among them."""
    wide = draw(st.integers(PAD_WIDTH + 1, PAD_WIDTH + 4))
    height, width = draw(st.integers(16, 20)), wide + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    full = rng.normal(0.0, scale, size=(2 * height, 2 * width))
    full[rng.random(full.shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = -0.0
    X = full[::2, 1::2] if draw(st.booleans()) else np.ascontiguousarray(full[:height, :width])
    negative_zero = draw(st.sampled_from([0.0, 0.2, 1.0]))
    groups = [(1, 1), (draw(st.integers(9, 16)), 1), (draw(st.integers(2, 16)), 1)]
    groups += draw(st.lists(st.tuples(st.integers(1, 16), st.integers(1, 4)), min_size=1,
                            max_size=4))
    shapes = [shape for shape in groups for _ in range(draw(st.integers(2, 4)))]
    shapes.append((draw(st.integers(1, 16)), wide))
    stats, rows, cols = [], [], []
    for m, k in draw(st.permutations(shapes)):
        mean = rng.normal(0.0, scale, size=k)
        mean[rng.random(k) < negative_zero] = -0.0
        a = rng.normal(0.0, scale, size=(k, k))
        count = draw(st.one_of(st.just(0.0), st.integers(1, 1000).map(float),
                               st.floats(0.0, 1e6)))
        stats.append(GaussianStats(mean, a @ a.T, count))
        rows.append(rng.choice(height, size=m, replace=False))
        cols.append(tuple(sorted(rng.choice(width, size=k, replace=False).tolist())))
    return stats, X, rows, cols


# A row's -0.0 makes a -0.0 row sum and a -0.0 scatter term, which the
# one-row sum and the one-term matmul turn into +0.0; at count 0 they reach
# the mean of a negative mean and the covariance of a negative covariance.
NEGATIVE_ZEROS = ([GaussianStats(np.zeros(2), np.array([[1.0, -0.5], [-0.5, 1.0]]), 0.0),
                   GaussianStats(np.array([-1.0]), np.eye(1), 0.0)],
                  np.array([[-0.0, 2.0]]), [np.array([0]), np.array([0])], [(0, 1), (0,)])
# One-row items of widths 1 and 3, a (2 rows, width 1) group of two, a
# (2 rows, width 2) group of one and a (3 rows, width 1) group of one.
MIXED = ([GaussianStats(np.array([-0.0]), np.eye(1), 0.0),
          GaussianStats(np.arange(3.0), np.eye(3), 4.0),
          GaussianStats(np.array([1.0]), np.eye(1), 2.0),
          GaussianStats(np.array([-2.0]), np.eye(1), 0.0),
          GaussianStats(np.array([0.5, -0.0]), np.array([[2.0, 0.5], [0.5, 1.0]]), 7.0),
          GaussianStats(np.array([3.0]), np.eye(1), 1.0)],
         np.array([[-0.0, 1.0, 2.0], [4.0, -0.0, 6.0], [7.0, 8.0, -9.0]]),
         [np.array(r) for r in ([1], [0], [0, 2], [2, 1], [1, 0], [0, 1, 2])],
         [(0,), (0, 1, 2), (1,), (2,), (0, 1), (1,)])


def stored_update(stats, X, rows, cols):
    """``update_each`` over a store that holds a copy of each of ``stats``;
    the updated slots, read back from the store's arrays."""
    store = StatsStore()
    slots = [store.add(s) for s in stats]
    writes = {width: width.writes for width, _ in slots}
    update_each(X, slots, rows, cols)
    # Written into the store: every width of a slot counts a write, and its rows hold the result.
    assert all(width.writes > n for width, n in writes.items())
    return [GaussianStats(width.mean[i], width.cov[i], width.count[i]) for width, i in slots]


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed_cases(), write_cases()))
@example(NEGATIVE_ZEROS)
@example(MIXED)
def test_stacked_updates_of_mixed_shapes_match_the_reference_bit_for_bit(case):
    stats, X, rows, cols = case
    before = ([(s.mean.tobytes(), s.cov.tobytes(), s.count) for s in stats], X.tobytes(),
              [r.tobytes() for r in rows], list(cols))
    with np.errstate(all="ignore"):  # huge draws overflow alike in both
        got = stored_update(stats, X, rows, cols)
        assert len(got) == len(stats)
        for s, r, c, out in zip(stats, rows, cols, got):
            # Each batch C-ordered, as the per-node oracle builds it: numpy
            # sums the rows of a column-major batch pairwise from 8 rows on.
            want = reference_update(s, X[r[:, None], list(c)])
            assert (out.count, out.mean.tobytes(), out.cov.tobytes()) == \
                (want.count, want.mean.tobytes(), want.cov.tobytes())
            assert out.mean.dtype == out.cov.dtype == np.float64
    assert ([(s.mean.tobytes(), s.cov.tobytes(), s.count) for s in stats], X.tobytes(),
            [r.tobytes() for r in rows], list(cols)) == before


def test_the_update_oracle_gives_one_result_for_either_batch_layout():
    # X[r][:, c] is column-major and X[r[:, None], c] row-major; numpy sums
    # the columns of the first pairwise, which the oracle's C-ordered copy
    # undoes, so both give the bits of GaussianStats.update.
    rng = np.random.default_rng(211)
    for _ in range(100):
        X = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=(30, 5))
        r, c = rng.choice(30, size=12, replace=False), rng.choice(5, size=3, replace=False)
        s = healthy_stats(rng, 3)
        assert X[r][:, c].flags.f_contiguous and X[r[:, None], c].flags.c_contiguous
        got = [(o.count, o.mean.tobytes(), o.cov.tobytes())
               for o in (reference_update(s, X[r][:, c]), reference_update(s, X[r[:, None], c]),
                         s.update(X[r[:, None], c]))]
        assert got[0] == got[1] == got[2]


def test_stacked_one_row_updates_leave_their_inputs_alone():
    stats = [GaussianStats(np.array([1.0, 2.0]), np.eye(2), 3.0),
             GaussianStats(np.array([-1.0]), np.eye(1), 0.0)]
    before = [(s.mean.copy(), s.cov.copy(), s.count) for s in stats]
    out = stored_update(stats, np.array([[4.0, 5.0, 6.0]]), [[0], [0]], [(0, 2), (1,)])
    assert [o.count for o in out] == [4.0, 1.0]
    np.testing.assert_array_equal(out[1].mean, [5.0])
    for s, (mean, cov, count) in zip(stats, before):
        assert s.mean.tobytes() == mean.tobytes() and s.cov.tobytes() == cov.tobytes()
        assert s.count == count


@st.composite
def same_shape_cases(draw):
    """(stats, X, rows, cols): N statistics of width k, each to absorb the
    same number m >= 2 of rows of a strided matrix X, read at its own
    columns.  The values come from a drawn seed, with drawn shares of -0.0
    in X and in the means."""
    k, m, n = draw(st.integers(1, 5)), draw(st.integers(2, 300)), draw(st.integers(1, 20))
    width, height = k + draw(st.integers(0, 3)), m + draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    full = rng.normal(0.0, scale, size=(2 * height, 2 * width))
    full[rng.random(full.shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = -0.0
    X = full[::2, 1::2] if draw(st.booleans()) else np.ascontiguousarray(full[:height, :width])
    negative_zero = draw(st.sampled_from([0.0, 0.2, 1.0]))
    stats, rows, cols = [], [], []
    for _ in range(n):
        mean = rng.normal(0.0, scale, size=k)
        mean[rng.random(k) < negative_zero] = -0.0
        a = rng.normal(0.0, scale, size=(k, k))
        count = draw(st.one_of(st.just(0.0), st.integers(1, 1000).map(float),
                               st.floats(0.0, 1e6)))
        stats.append(GaussianStats(mean, a @ a.T, count))
        rows.append(rng.choice(height, size=m, replace=False))
        cols.append(tuple(sorted(rng.choice(width, size=k, replace=False).tolist())))
    return stats, X, rows, cols


@settings(max_examples=200, deadline=None)
@given(same_shape_cases())
def test_stacked_same_shape_updates_match_update_bit_for_bit(case):
    stats, X, rows, cols = case
    before = ([(s.mean.tobytes(), s.cov.tobytes(), s.count) for s in stats], X.tobytes(),
              [r.tobytes() for r in rows], list(cols))
    got = stored_update(stats, X, rows, cols)
    for s, r, c, out in zip(stats, rows, cols, got):
        want = reference_update(s, X[r[:, None], c])
        assert (out.count, out.mean.tobytes(), out.cov.tobytes()) == \
            (want.count, want.mean.tobytes(), want.cov.tobytes())
        assert out.mean.dtype == out.cov.dtype == np.float64
    assert ([(s.mean.tobytes(), s.cov.tobytes(), s.count) for s in stats], X.tobytes(),
            [r.tobytes() for r in rows], list(cols)) == before
