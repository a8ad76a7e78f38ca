"""Partitioned storage: distribution, constraints, bulk loads, scans."""

import numpy as np
import pytest

from repro.dbms.schema import Column, TableSchema, dataset_schema
from repro.dbms.storage import BLOCK_CACHE_CAPACITY, Partition, Table
from repro.dbms.types import SqlType
from repro.errors import ConstraintViolation, SchemaError


def make_table(partitions=4, with_y=False, row_scale=1.0, d=2):
    return Table(
        "x", dataset_schema(d, with_y=with_y), partitions=partitions,
        row_scale=row_scale,
    )


class TestBasics:
    def test_invalid_partitions(self):
        with pytest.raises(SchemaError):
            make_table(partitions=0)

    def test_invalid_row_scale(self):
        with pytest.raises(SchemaError):
            make_table(row_scale=0.5)

    def test_width_and_counts(self):
        table = make_table()
        assert table.width == 3
        assert table.row_count == 0
        table.insert((1, 1.0, 2.0))
        assert table.row_count == 1

    def test_nominal_rows_scaling(self):
        table = make_table(row_scale=100.0)
        table.insert_many([(i, 0.0, 0.0) for i in range(10)])
        assert table.row_count == 10
        assert table.nominal_rows == 1000.0


class TestInserts:
    def test_coercion_on_insert(self):
        table = make_table()
        table.insert(("1", "2.5", 3))
        assert table.rows() == [(1, 2.5, 3.0)]

    def test_arity_check(self):
        table = make_table()
        with pytest.raises(SchemaError, match="columns"):
            table.insert((1, 2.0))

    def test_duplicate_primary_key(self):
        table = make_table()
        table.insert((1, 0.0, 0.0))
        with pytest.raises(ConstraintViolation, match="duplicate primary key"):
            table.insert((1, 1.0, 1.0))

    def test_not_null_enforced(self):
        table = make_table()
        with pytest.raises(ConstraintViolation, match="NOT NULL"):
            table.insert((None, 0.0, 0.0))

    def test_null_allowed_in_nullable(self):
        table = make_table()
        table.insert((1, None, 2.0))
        assert table.rows() == [(1, None, 2.0)]

    def test_rows_spread_over_partitions(self):
        table = make_table(partitions=4)
        table.insert_many([(i, float(i), 0.0) for i in range(100)])
        occupied = [p.row_count for p in table.partitions if p.row_count]
        assert len(occupied) >= 3, "hash distribution should use most partitions"
        assert sum(occupied) == 100

    def test_round_robin_without_pk(self):
        schema = TableSchema.build([("v", SqlType.FLOAT)])
        table = Table("t", schema, partitions=3)
        table.insert_many([(float(i),) for i in range(9)])
        assert [p.row_count for p in table.partitions] == [3, 3, 3]


class TestBulkLoad:
    def test_bulk_load_and_scan(self):
        table = make_table()
        n = 50
        loaded = table.bulk_load_arrays(
            {
                "i": np.arange(1, n + 1),
                "x1": np.linspace(0, 1, n),
                "x2": np.zeros(n),
            }
        )
        assert loaded == n
        assert table.row_count == n
        assert sorted(r[0] for r in table.scan()) == list(range(1, n + 1))

    def test_missing_column(self):
        table = make_table()
        with pytest.raises(SchemaError, match="missing columns"):
            table.bulk_load_arrays({"i": np.arange(3), "x1": np.zeros(3)})

    def test_length_mismatch(self):
        table = make_table()
        with pytest.raises(SchemaError, match="differ in length"):
            table.bulk_load_arrays(
                {"i": np.arange(3), "x1": np.zeros(3), "x2": np.zeros(4)}
            )

    def test_duplicate_keys_in_bulk(self):
        table = make_table()
        with pytest.raises(ConstraintViolation):
            table.bulk_load_arrays(
                {"i": np.asarray([1, 1]), "x1": np.zeros(2), "x2": np.zeros(2)}
            )

    def test_bulk_then_insert_duplicate(self):
        table = make_table()
        table.bulk_load_arrays(
            {"i": np.asarray([1, 2]), "x1": np.zeros(2), "x2": np.zeros(2)}
        )
        with pytest.raises(ConstraintViolation):
            table.insert((2, 0.0, 0.0))

    def test_bulk_loaded_strings_keep_trailing_nuls(self):
        schema = TableSchema(
            (Column("k", SqlType.VARCHAR), Column("s", SqlType.VARCHAR)), "k"
        )
        table = Table("t", schema, partitions=2)
        table.bulk_load_arrays({"k": ["\x00", ""], "s": ["a\x00", "b"]})
        assert sorted(table.rows()) == [("", "b"), ("\x00", "a\x00")]
        with pytest.raises(ConstraintViolation):
            table.insert(("\x00", "c"))

    def test_empty_bulk_load(self):
        table = make_table()
        assert table.bulk_load_arrays(
            {"i": np.asarray([]), "x1": np.asarray([]), "x2": np.asarray([])}
        ) == 0


class TestPartitionEdgeCases:
    """Zero-row / zero-column behaviour must not rely on caller pre-checks."""

    def test_extend_columns_empty_payload_is_noop(self):
        partition = Partition(2)
        partition.extend_columns([[], []])
        assert partition.row_count == 0

    def test_extend_columns_zero_width_partition(self):
        partition = Partition(0)
        partition.extend_columns([])
        assert partition.row_count == 0

    def test_extend_columns_wrong_column_count_rejected(self):
        partition = Partition(2)
        with pytest.raises(SchemaError, match="columns"):
            partition.extend_columns([[1.0]])
        assert partition.row_count == 0

    def test_extend_columns_ragged_lengths_rejected(self):
        partition = Partition(2)
        with pytest.raises(SchemaError, match="lengths differ"):
            partition.extend_columns([[1.0, 2.0], [3.0]])
        assert partition.row_count == 0

    def test_numeric_matrix_zero_column_projection(self):
        partition = Partition(2)
        partition.append((1.0, 2.0))
        assert partition.numeric_matrix([]).shape == (1, 0)

    def test_numeric_matrix_empty_partition_and_projection(self):
        assert Partition(2).numeric_matrix([]).shape == (0, 0)

    def test_table_numeric_matrix_zero_columns(self):
        table = make_table()
        table.insert_many([(i, float(i), 0.0) for i in range(5)])
        assert table.numeric_matrix([]).shape == (5, 0)

    def test_bulk_load_zero_rows_with_pk_is_clean(self):
        table = make_table()
        assert table.bulk_load_arrays(
            {"i": np.asarray([]), "x1": np.asarray([]), "x2": np.asarray([])}
        ) == 0
        assert table.row_count == 0
        # The PK set must be untouched so later loads still work.
        table.insert((1, 0.0, 0.0))
        assert table.row_count == 1


class TestBlockCache:
    """numeric_matrix caches per column selection, invalidated on mutation."""

    def test_cached_block_is_reused(self):
        partition = Partition(2)
        partition.extend_columns([[1.0, 2.0], [3.0, 4.0]])
        first = partition.numeric_matrix([0, 1])
        second = partition.numeric_matrix([0, 1])
        assert first is second

    def test_distinct_selections_cached_separately(self):
        partition = Partition(2)
        partition.extend_columns([[1.0], [2.0]])
        assert np.array_equal(partition.numeric_matrix([0]), [[1.0]])
        assert np.array_equal(partition.numeric_matrix([1]), [[2.0]])
        assert np.array_equal(partition.numeric_matrix([1, 0]), [[2.0, 1.0]])

    def test_append_invalidates_cache(self):
        partition = Partition(1)
        partition.append((1.0,))
        stale = partition.numeric_matrix([0])
        partition.append((2.0,))
        fresh = partition.numeric_matrix([0])
        assert stale.shape == (1, 1) and fresh.shape == (2, 1)

    def test_extend_invalidates_cache(self):
        partition = Partition(1)
        partition.append((1.0,))
        partition.numeric_matrix([0])
        partition.extend_columns([[2.0, 3.0]])
        assert partition.numeric_matrix([0]).shape == (3, 1)

    def test_null_handling_matches_reference(self):
        partition = Partition(2)
        partition.extend_columns([[1.0, None, 3.0], [None, None, 6.0]])
        block = partition.numeric_matrix([0, 1])
        assert np.isnan(block[1, 0]) and np.isnan(block[0, 1])
        assert block[2, 1] == 6.0


class TestTableNumericMatrix:
    """A whole-table read copies lanes straight into one matrix: the
    bits and layout of the stacked partition blocks, without touching
    any partition's block cache."""

    def _table(self, rows=61, partitions=5):
        schema = TableSchema(
            (
                Column("i", SqlType.INTEGER, False),
                Column("n", SqlType.INTEGER, True),
                Column("a", SqlType.FLOAT, True),
                Column("b", SqlType.FLOAT, True),
            ),
            primary_key="i",
        )
        table = Table("t", schema, partitions=partitions)
        table.insert_many([
            (
                j,
                None if j % 7 == 0 else (-1) ** j * (2**53 + j),
                None if j % 5 == 0 else -0.0 if j % 11 == 0 else j / 3.0,
                float("nan") if j % 13 == 0 else 1e300 * j,
            )
            for j in range(rows)
        ])
        return table

    @staticmethod
    def _stacked(table, columns):
        """What ``Table.numeric_matrix`` returned as a ``np.vstack``
        of the partitions' blocks."""
        positions = [table.schema.position_of(name) for name in columns]
        blocks = [p.block(positions) for p in table.partitions if p.row_count]
        if not blocks:
            return np.empty((0, len(columns)))
        return np.vstack(blocks)

    @pytest.mark.parametrize(
        "columns", [["i", "n", "a", "b"], ["b", "a"], ["n"], ["a", "a"]]
    )
    def test_bits_and_layout_of_the_stacked_blocks(self, columns):
        table = self._table()
        assert all(p.row_count for p in table.partitions)
        matrix = table.numeric_matrix(columns)
        stacked = self._stacked(table, columns)
        assert matrix.shape == stacked.shape == (61, len(columns))
        assert matrix.tobytes() == stacked.tobytes()
        assert matrix.flags.f_contiguous == stacked.flags.f_contiguous
        assert matrix.flags.f_contiguous and matrix.flags.writeable

    def test_null_nan_and_negative_zero(self):
        table = self._table()
        ids, a, b = table.numeric_matrix(["i", "a", "b"]).T
        assert np.isnan(a[ids % 5 == 0]).all()
        assert not np.isnan(a[ids % 5 != 0]).any()
        assert np.signbit(a[(ids % 11 == 0) & (ids % 5 != 0)]).all()
        assert np.isnan(b[ids % 13 == 0]).all()

    def test_empty_partitions_and_empty_table(self):
        table = self._table(rows=3, partitions=8)
        assert 0 in [p.row_count for p in table.partitions]
        matrix = table.numeric_matrix(["a", "i"])
        assert matrix.tobytes() == self._stacked(table, ["a", "i"]).tobytes()
        empty = self._table(rows=0).numeric_matrix(["a", "b"])
        assert empty.shape == (0, 2) and empty.dtype == np.float64

    def test_reads_no_cache_entry_and_inserts_none(self):
        table = self._table()
        warm = table.partitions[1]
        blocks = [warm.numeric_matrix([p]) for p in range(4)]
        blocks += [warm.numeric_matrix([2, 3]), warm.numeric_matrix([3, 2])]
        blocks += [warm.numeric_matrix([0, 1]), warm.numeric_matrix([1, 2])]
        assert len(warm._block_cache) == BLOCK_CACHE_CAPACITY
        before = [list(p._block_cache) for p in table.partitions]
        for columns in (["a", "b"], ["i", "n", "a"], ["b"]):
            table.numeric_matrix(columns)
        assert [list(p._block_cache) for p in table.partitions] == before
        assert all(
            warm.numeric_matrix(list(key)) is block
            for key, block in zip(before[1], blocks)
        )


class TestAccessors:
    def test_column_values(self):
        table = make_table()
        table.insert_many([(i, float(i) * 2, 0.0) for i in range(1, 6)])
        assert sorted(table.column_values("x1")) == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_numeric_matrix_matches_rows(self):
        table = make_table()
        rng = np.random.default_rng(0)
        n = 40
        data = rng.normal(size=(n, 2))
        table.bulk_load_arrays(
            {"i": np.arange(n), "x1": data[:, 0], "x2": data[:, 1]}
        )
        matrix = table.numeric_matrix(["x1", "x2"])
        assert matrix.shape == (n, 2)
        # Partition striping reorders rows; compare as multisets via sums.
        assert np.allclose(np.sort(matrix[:, 0]), np.sort(data[:, 0]))

    def test_numeric_matrix_null_becomes_nan(self):
        table = make_table()
        table.insert((1, None, 2.0))
        matrix = table.numeric_matrix(["x1", "x2"])
        assert np.isnan(matrix[0, 0]) and matrix[0, 1] == 2.0

    def test_numeric_matrix_empty(self):
        assert make_table().numeric_matrix(["x1"]).shape == (0, 1)

    def test_truncate(self):
        table = make_table()
        table.insert((1, 0.0, 0.0))
        table.truncate()
        assert table.row_count == 0
        table.insert((1, 0.0, 0.0))  # PK set must be cleared too
        assert table.row_count == 1
