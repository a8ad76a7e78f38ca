"""The summary matrices (n, L, Q) and their derivations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.summary import (
    AugmentedSummary,
    MatrixType,
    SummaryAccumulator,
    SummaryStatistics,
)
from repro.errors import ModelError

matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 40), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False, width=32),
)


class TestMatrixType:
    def test_codes_round_trip(self):
        for matrix_type in MatrixType:
            assert MatrixType.from_code(matrix_type.code) is matrix_type

    def test_update_ops(self):
        assert MatrixType.DIAGONAL.update_ops(8) == 8
        assert MatrixType.TRIANGULAR.update_ops(8) == 36
        assert MatrixType.FULL.update_ops(8) == 64


class TestFromMatrix:
    def test_matches_definitions(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        stats = SummaryStatistics.from_matrix(X)
        assert stats.n == 30
        assert np.allclose(stats.L, X.sum(axis=0))
        assert np.allclose(stats.Q, X.T @ X)
        assert np.allclose(stats.mins, X.min(axis=0))
        assert np.allclose(stats.maxs, X.max(axis=0))

    def test_diagonal_type_zeroes_off_diagonal(self):
        X = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        stats = SummaryStatistics.from_matrix(X, MatrixType.DIAGONAL)
        assert stats.Q[0, 1] == 0.0
        assert np.allclose(np.diag(stats.Q), (X * X).sum(axis=0))

    def test_empty_matrix(self):
        stats = SummaryStatistics.from_matrix(np.empty((0, 3)))
        assert stats.n == 0 and stats.d == 3

    def test_one_dimensional_rejected(self):
        with pytest.raises(ModelError):
            SummaryStatistics.from_matrix(np.asarray([1.0, 2.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError, match="Q has shape"):
            SummaryStatistics(1.0, np.zeros(3), np.zeros((2, 2)))


class TestDerivations:
    @pytest.fixture
    def stats_and_x(self):
        rng = np.random.default_rng(1)
        X = rng.normal(50, 10, size=(200, 5))
        return SummaryStatistics.from_matrix(X), X

    def test_mean(self, stats_and_x):
        stats, X = stats_and_x
        assert np.allclose(stats.mean(), X.mean(axis=0))

    def test_covariance_matches_numpy(self, stats_and_x):
        stats, X = stats_and_x
        assert np.allclose(stats.covariance(), np.cov(X.T, bias=True))

    def test_correlation_matches_numpy(self, stats_and_x):
        stats, X = stats_and_x
        assert np.allclose(stats.correlation(), np.corrcoef(X.T))

    def test_variances(self, stats_and_x):
        stats, X = stats_and_x
        assert np.allclose(stats.variances(), X.var(axis=0))

    def test_zero_variance_correlation_rejected(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ModelError, match="zero-variance"):
            SummaryStatistics.from_matrix(X).correlation()

    def test_diagonal_blocks_cross_product_derivations(self):
        stats = SummaryStatistics.from_matrix(
            np.random.default_rng(0).normal(size=(10, 3)), MatrixType.DIAGONAL
        )
        with pytest.raises(ModelError, match="cross-products"):
            stats.covariance()
        with pytest.raises(ModelError):
            stats.correlation()
        stats.variances()  # diagonal-only derivation still fine

    def test_empty_summary_derivations_rejected(self):
        stats = SummaryStatistics.zeros(3)
        with pytest.raises(ModelError, match="no rows"):
            stats.mean()

    def test_sub_summary(self, stats_and_x):
        stats, X = stats_and_x
        sub = stats.sub([0, 2])
        reference = SummaryStatistics.from_matrix(X[:, [0, 2]])
        assert sub.allclose(reference)
        assert np.allclose(sub.mins, reference.mins)


class TestMerge:
    def test_merge_equals_whole(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        first = SummaryStatistics.from_matrix(X[:20])
        second = SummaryStatistics.from_matrix(X[20:])
        merged = first.merge(second)
        assert merged.allclose(SummaryStatistics.from_matrix(X))
        assert np.allclose(merged.mins, X.min(axis=0))
        assert np.allclose(merged.maxs, X.max(axis=0))

    def test_merge_with_empty(self):
        X = np.random.default_rng(3).normal(size=(10, 2))
        stats = SummaryStatistics.from_matrix(X)
        merged = SummaryStatistics.zeros(2).merge(stats)
        assert merged.allclose(stats)

    @pytest.mark.parametrize("matrix_type", list(MatrixType))
    @pytest.mark.parametrize("extrema", ["both", "left only", "right only"])
    def test_merge_leaves_both_inputs_unchanged(self, matrix_type, extrema):
        """Merging reads its right side in place and copies its left
        one: neither input changes, the answer's bits are those of
        merging two copies, and extrema survive only when both sides
        carry them."""
        X = np.random.default_rng(5).normal(size=(30, 3))
        left = SummaryStatistics.from_matrix(X[:12], matrix_type)
        right = SummaryStatistics.from_matrix(X[12:], matrix_type)
        if extrema == "left only":
            right.mins = right.maxs = None
        elif extrema == "right only":
            left.mins = left.maxs = None

        def snapshot(stats):
            arrays = (stats.L, stats.Q, stats.mins, stats.maxs)
            return stats.n, [None if a is None else a.tobytes() for a in arrays]

        before = snapshot(left), snapshot(right)
        merged = left.merge(right)
        assert (snapshot(left), snapshot(right)) == before
        copies = SummaryAccumulator.from_stats(left).merge(
            SummaryAccumulator.from_stats(right)
        )
        assert merged.n == copies.n
        assert merged.L.tobytes() == copies.L.tobytes()
        assert merged.Q.tobytes() == copies.summary(matrix_type).Q.tobytes()
        assert (merged.mins is None) == (extrema != "both")
        assert (merged.maxs is None) == (extrema != "both")
        if extrema == "both":
            assert np.array_equal(merged.mins, X.min(axis=0))
            assert np.array_equal(merged.maxs, X.max(axis=0))

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError, match="dimension"):
            SummaryStatistics.zeros(2).merge(SummaryStatistics.zeros(3))

    def test_type_mismatch(self):
        with pytest.raises(ModelError, match="matrix types"):
            SummaryStatistics.zeros(2, MatrixType.DIAGONAL).merge(
                SummaryStatistics.zeros(2, MatrixType.FULL)
            )

    @given(matrices, st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_property_merge_split_invariant(self, X, split_raw):
        """Any split of the rows merges back to the whole-data summary —
        the invariant that makes partition-parallel aggregation exact."""
        split = split_raw % (X.shape[0] + 1)
        whole = SummaryStatistics.from_matrix(X)
        first = SummaryStatistics.from_matrix(X[:split])
        second = SummaryStatistics.from_matrix(X[split:])
        assert first.merge(second).allclose(whole, rtol=1e-7)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_property_q_symmetric_psd(self, X):
        """Q = XᵀX is symmetric positive semi-definite."""
        stats = SummaryStatistics.from_matrix(X)
        assert np.allclose(stats.Q, stats.Q.T)
        eigenvalues = np.linalg.eigvalsh(stats.Q)
        assert eigenvalues.min() >= -1e-6 * max(abs(eigenvalues).max(), 1.0)


class TestAugmented:
    def test_blocks(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        augmented = AugmentedSummary.from_xy(X, y)
        assert augmented.d == 3
        assert augmented.n == 40
        Z = np.column_stack([np.ones(40), X, y])
        assert np.allclose(augmented.xtx(), Z[:, :4].T @ Z[:, :4])
        assert np.allclose(augmented.xty(), Z[:, :4].T @ y)
        assert augmented.yty() == pytest.approx(float(y @ y))
        assert augmented.sum_y() == pytest.approx(float(y.sum()))

    def test_row_count_mismatch(self):
        with pytest.raises(ModelError):
            AugmentedSummary.from_xy(np.zeros((5, 2)), np.zeros(4))

    def test_diagonal_summary_rejected(self):
        stats = SummaryStatistics.zeros(4, MatrixType.DIAGONAL)
        with pytest.raises(ModelError):
            AugmentedSummary(stats)

    def test_too_small_rejected(self):
        with pytest.raises(ModelError):
            AugmentedSummary(SummaryStatistics.zeros(2, MatrixType.FULL))
