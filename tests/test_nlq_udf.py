"""The aggregate nLQ UDF: variants, correctness, constraints."""

import numpy as np
import pytest

from repro.core.nlq_udf import (
    DEFAULT_MAX_D,
    NLQ_UDF_NAMES,
    NlqListUdf,
    NlqStringUdf,
    compute_nlq_udf,
    compute_nlq_udf_groups,
    nlq_call_sql,
    register_nlq_udfs,
)
from repro.core.packing import unpack_summary
from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema, dimension_names
from repro.errors import UdfArgumentError, UdfMemoryError


@pytest.fixture
def nlq_db():
    rng = np.random.default_rng(11)
    n, d = 150, 5
    X = rng.normal(20.0, 5.0, size=(n, d))
    db = Database(amps=3)
    db.create_table("x", dataset_schema(d))
    columns = {"i": np.arange(1, n + 1)}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = X[:, index]
    db.load_columns("x", columns)
    register_nlq_udfs(db)
    return db, X


class TestCorrectness:
    @pytest.mark.parametrize("matrix_type", list(MatrixType))
    @pytest.mark.parametrize("passing", ["list", "string"])
    def test_matches_reference(self, nlq_db, matrix_type, passing):
        db, X = nlq_db
        stats = compute_nlq_udf(db, "x", dimension_names(5), matrix_type, passing)
        reference = SummaryStatistics.from_matrix(X, matrix_type)
        assert stats.allclose(reference)
        assert np.allclose(stats.mins, X.min(axis=0))
        assert np.allclose(stats.maxs, X.max(axis=0))

    def test_string_equals_list_exactly(self, nlq_db):
        db, _X = nlq_db
        via_list = compute_nlq_udf(db, "x", dimension_names(5), passing="list")
        via_string = compute_nlq_udf(db, "x", dimension_names(5), passing="string")
        assert via_list.allclose(via_string, rtol=1e-12)

    def test_empty_table(self):
        db = Database(amps=2)
        db.create_table("x", dataset_schema(3))
        register_nlq_udfs(db)
        stats = compute_nlq_udf(db, "x", dimension_names(3))
        assert stats.n == 0

    def test_null_rows_skipped(self):
        db = Database(amps=2)
        db.create_table("x", dataset_schema(2))
        db.insert_rows("x", [(1, 1.0, 2.0), (2, None, 5.0), (3, 3.0, 4.0)])
        register_nlq_udfs(db)
        stats = compute_nlq_udf(db, "x", dimension_names(2))
        reference = SummaryStatistics.from_matrix(
            np.asarray([[1.0, 2.0], [3.0, 4.0]])
        )
        assert stats.allclose(reference)

    def test_expressions_as_dimensions(self, nlq_db):
        """The augmented-regression trick: pass 1.0 and x1+x2 as dims."""
        db, X = nlq_db
        stats = compute_nlq_udf(db, "x", ["1.0", "x1 + x2"])
        Z = np.column_stack([np.ones(X.shape[0]), X[:, 0] + X[:, 1]])
        assert stats.allclose(SummaryStatistics.from_matrix(Z))


class TestGroupBy:
    def test_groups_match_per_group_reference(self, nlq_db):
        db, X = nlq_db
        groups = compute_nlq_udf_groups(
            db, "x", dimension_names(5), "(i MOD 3) + 1"
        )
        ids = np.arange(1, X.shape[0] + 1)
        for key in (1, 2, 3):
            members = X[(ids % 3) + 1 == key]
            reference = SummaryStatistics.from_matrix(
                members, MatrixType.DIAGONAL
            )
            assert groups[key].allclose(reference), key

    def test_group_by_string_variant(self, nlq_db):
        db, _X = nlq_db
        via_list = compute_nlq_udf_groups(db, "x", dimension_names(5), "i MOD 2")
        via_string = compute_nlq_udf_groups(
            db, "x", dimension_names(5), "i MOD 2", passing="string"
        )
        for key, stats in via_list.items():
            assert stats.allclose(via_string[key], rtol=1e-12)

    def test_group_totals_merge_to_grand_total(self, nlq_db):
        db, X = nlq_db
        groups = compute_nlq_udf_groups(db, "x", dimension_names(5), "i MOD 4")
        merged = None
        for stats in groups.values():
            merged = stats if merged is None else merged.merge(stats)
        assert merged.allclose(
            SummaryStatistics.from_matrix(X, MatrixType.DIAGONAL)
        )


class TestConstraints:
    def test_max_d_enforced(self):
        udf = NlqListUdf("small_nlq", max_d=4)
        state = udf.initialize()
        with pytest.raises(UdfArgumentError, match="MAX_d"):
            udf.accumulate(state, (5, 1.0, 2.0, 3.0, 4.0, 5.0))

    def test_declared_d_mismatch(self):
        udf = NlqListUdf("nlq")
        with pytest.raises(UdfArgumentError, match="declared d=3"):
            udf.accumulate(udf.initialize(), (3, 1.0, 2.0))

    def test_dimensionality_change_mid_scan(self):
        udf = NlqListUdf("nlq")
        state = udf.initialize()
        state = udf.accumulate(state, (2, 1.0, 2.0))
        with pytest.raises(UdfArgumentError, match="changed mid-scan"):
            udf.accumulate(state, (3, 1.0, 2.0, 3.0))

    def test_string_variant_rejects_numbers(self):
        udf = NlqStringUdf("nlq_s")
        with pytest.raises(UdfArgumentError, match="packed string"):
            udf.accumulate(udf.initialize(), (1.5,))

    def test_full_struct_over_max_d_blows_heap(self):
        # A full-matrix struct for MAX_d=96 exceeds one 64 KB segment.
        udf = NlqListUdf("big_nlq", MatrixType.FULL, max_d=96)
        with pytest.raises(UdfMemoryError):
            udf.initialize()

    def test_state_size_depends_on_matrix_type(self):
        diag = NlqListUdf("a_diag", MatrixType.DIAGONAL)
        tri = NlqListUdf("a_tri", MatrixType.TRIANGULAR)
        assert diag.state_value_count() < tri.state_value_count()

    def test_merge_dimension_mismatch(self):
        udf = NlqListUdf("nlq")
        state_a = udf.accumulate(udf.initialize(), (2, 1.0, 2.0))
        state_b = udf.accumulate(udf.initialize(), (3, 1.0, 2.0, 3.0))
        with pytest.raises(UdfArgumentError, match="merge"):
            udf.merge(state_a, state_b)

    def test_empty_state_finalizes_to_null(self):
        udf = NlqListUdf("nlq")
        assert udf.finalize(udf.initialize()) is None


class TestBlockPath:
    def test_block_equals_rows(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        udf = NlqListUdf("nlq")
        row_state = udf.initialize()
        for row in X:
            row_state = udf.accumulate(row_state, (3, *row.tolist()))
        block = np.column_stack([np.full(40, 3.0), X])
        block_state = udf.accumulate_block(udf.initialize(), block)
        assert unpack_summary(udf.finalize(row_state)).allclose(
            unpack_summary(udf.finalize(block_state)), rtol=1e-12
        )

    def test_block_shape_mismatch(self):
        udf = NlqListUdf("nlq")
        bad = np.column_stack([np.full(5, 4.0), np.zeros((5, 2))])
        with pytest.raises(UdfArgumentError):
            udf.accumulate_block(udf.initialize(), bad)


class TestSqlGeneration:
    def test_list_call_text(self):
        sql = nlq_call_sql("x", ["x1", "x2"], MatrixType.TRIANGULAR, "list")
        assert sql == "SELECT nlq_tri(2, x1, x2) FROM x"

    def test_string_call_text(self):
        sql = nlq_call_sql("x", ["x1", "x2"], MatrixType.FULL, "string")
        assert sql == "SELECT nlq_str_full(x1 || ',' || x2) FROM x"

    def test_group_by_text(self):
        sql = nlq_call_sql(
            "x", ["x1"], MatrixType.DIAGONAL, "list", group_by="i MOD 2"
        )
        assert "GROUP BY i MOD 2" in sql and "ORDER BY grp" in sql

    def test_registration_names(self):
        db = Database(amps=2)
        registered = register_nlq_udfs(db)
        assert set(registered) == set(NLQ_UDF_NAMES.values())
        assert all(
            db.catalog.aggregate_udf(name) is not None for name in registered
        )

    def test_cost_profiles(self):
        list_udf = NlqListUdf("a1", MatrixType.TRIANGULAR)
        profile = list_udf.cost_per_row(9)  # (d, x1..x8): d = 8, no scan
        assert profile.list_params == 9
        assert profile.arith_ops == 8 * 3 + 36
        string_udf = NlqStringUdf("a2", MatrixType.DIAGONAL)
        string_udf._observed_d = 8
        string_profile = string_udf.cost_per_row(1)
        assert string_profile.string_chars > 0
        assert string_profile.arith_ops == 8 * 4

    def test_default_max_d_is_64(self):
        assert DEFAULT_MAX_D == 64
