import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnstream.gstats import GaussianStats

from helpers import population_stats, reference_update


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
    assert stats.correlation(0, 1) == pytest.approx(1.0)


def test_correlation_independent():
    stats = GaussianStats(np.zeros(2), np.array([[4.0, 0.0], [0.0, 1.0]]), 10.0)
    assert stats.correlation(0, 1) == 0.0


def test_correlation_unit_variances():
    stats = GaussianStats(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]), 10.0)
    assert stats.correlation(0, 1) == pytest.approx(0.5)


def test_correlation_degenerate_variance_is_zero():
    stats = GaussianStats(np.zeros(2), np.array([[0.0, 0.0], [0.0, 1.0]]), 10.0)
    assert stats.correlation(0, 1) == 0.0


def test_correlation_matrix_matches_pairwise():
    rng = np.random.default_rng(4)
    stats = GaussianStats.zeros(4).update(rng.normal(size=(60, 4)))
    mat = stats.correlation_matrix()
    for i in range(4):
        assert mat[i, i] == 0.0
        for j in range(4):
            if i != j:
                assert mat[i, j] == pytest.approx(stats.correlation(i, j))


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
