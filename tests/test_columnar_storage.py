"""The on-disk columnar block format and the block-cache knobs.

Covers :mod:`repro.dbms.columnar` (exact round trips through the
numeric lanes and the object sidecar, zero-copy mmap reads, corruption
rejection, atomic writes, a partition's lanes written as one block),
plus the ``Database``-level block-cache
knobs: entry capacity, shared byte budget, spill-to-disk with
bit-identical reloads, and the EXPLAIN / QueryMetrics surfaces that
report it all.
"""

import numpy as np
import pytest

from repro.dbms.columnar import (
    BlockReader,
    atomic_write_bytes,
    encode_block,
)
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema, dimension_names
from repro.dbms.storage import BLOCK_CACHE_CAPACITY, BlockCacheConfig
from repro.errors import ExportError, SchemaError


def _write_block(tmp_path, columns, name="block.blk"):
    path = tmp_path / name
    atomic_write_bytes(path, encode_block(columns))
    return BlockReader(path)


# ---------------------------------------------------------- block format
class TestBlockFormat:
    def test_int_and_float_lanes_round_trip_exactly(self, tmp_path):
        ints = [1, -5, 2**62, 0]
        floats = [0.1, -1e300, 5e-324, 0.0]
        reader = _write_block(tmp_path, [ints, floats])
        assert reader.column_values(0) == ints
        assert reader.column_values(1) == floats
        assert all(type(v) is int for v in reader.column_values(0))
        assert all(type(v) is float for v in reader.column_values(1))
        reader.close()

    def test_nulls_round_trip_in_numeric_lanes(self, tmp_path):
        ints = [None, 2, None, 4, 5]
        floats = [1.5, None, 3.5, None, None]
        reader = _write_block(tmp_path, [ints, floats])
        assert reader.column_values(0) == ints
        assert reader.column_values(1) == floats
        reader.close()

    def test_exactness_rules_route_to_object_sidecar(self, tmp_path):
        # bool is an int subclass, oversize ints overflow int64, strings
        # and mixed columns have no lane: all must come back
        # type-preserving via the pickled sidecar.
        bools = [True, False, True]
        oversize = [2**63, 1, 2]
        strings = ["a", None, "c"]
        mixed = [1, "two", 3.0]
        reader = _write_block(tmp_path, [bools, oversize, strings, mixed])
        assert reader.column_values(0) == bools
        assert all(type(v) is bool for v in reader.column_values(0))
        assert reader.column_values(1) == oversize
        assert reader.column_values(2) == strings
        values = reader.column_values(3)
        assert values == mixed
        assert [type(v) for v in values] == [int, str, float]
        reader.close()

    def test_row_tuples_matches_column_zip(self, tmp_path):
        columns = [[1, 2, 3], ["x", "y", None], [0.5, None, 2.5]]
        reader = _write_block(tmp_path, columns)
        assert reader.row_tuples() == list(zip(*columns))
        reader.close()

    def test_empty_block(self, tmp_path):
        reader = _write_block(tmp_path, [[], []])
        assert reader.rows == 0
        assert reader.row_tuples() == []
        assert reader.column_values(0) == []
        reader.close()

    def test_float_column_null_becomes_nan(self, tmp_path):
        reader = _write_block(tmp_path, [[1.0, None, 3.0], [1, None, 3]])
        for position in (0, 1):
            out = reader.float_column(position)
            assert out[0] == 1.0 and out[2] == 3.0
            assert np.isnan(out[1])
        reader.close()

    def test_float_matrix_matches_partition_numeric_matrix(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.normal(size=11).tolist()
        b = [None if i % 4 == 0 else float(i) for i in range(11)]
        reader = _write_block(tmp_path, [a, b])
        expected = np.column_stack(
            [
                np.asarray(a, dtype=float),
                np.asarray(
                    [np.nan if v is None else v for v in b], dtype=float
                ),
            ]
        )
        np.testing.assert_array_equal(
            reader.float_matrix([0, 1]), expected
        )
        reader.close()

    def test_non_null_float_lane_is_zero_copy_and_read_only(self, tmp_path):
        reader = _write_block(tmp_path, [[1.5, 2.5, 3.5]])
        lane = reader.float_column(0)
        # A view over the mapped pages: no copy was made, and the
        # mapping is read-only so the view cannot be scribbled on.
        assert lane.base is not None
        assert not lane.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            lane[0] = 9.0
        reader.close()

    def test_reader_rejects_non_block_file(self, tmp_path):
        path = tmp_path / "junk.blk"
        path.write_bytes(b"not a columnar block at all")
        with pytest.raises(ExportError, match="not a columnar block"):
            BlockReader(path)

    def test_reader_rejects_missing_file(self, tmp_path):
        with pytest.raises(ExportError, match="cannot map block"):
            BlockReader(tmp_path / "absent.blk")

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ExportError, match="differ in length"):
            encode_block([[1, 2], [1]])

    def test_atomic_write_leaves_no_temp_sibling(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [path]


# ------------------------------------------------- database cache knobs
def _loaded_db(n=60, workers=1, **kwargs):
    rng = np.random.default_rng(11)
    d = 2
    db = Database(amps=4, executor_workers=workers, **kwargs)
    db.create_table("x", dataset_schema(d, with_y=True))
    columns = {"i": np.arange(1, n + 1), "y": rng.normal(size=n)}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = rng.normal(50.0, 10.0, size=n)
    db.load_columns("x", columns)
    return db


class TestPartitionBlocks:
    """A partition's lanes written as one block file (``encode_block``
    with the partition's row count), as persistence and the spill tier
    see them."""

    def test_blocks_round_trip_partition_rows(self, tmp_path):
        with _loaded_db() as db:
            db.execute(
                "INSERT INTO x (i, x1, x2, y) VALUES "
                "(1001, NULL, 2.0, 3.0), (1002, 1.0, NULL, NULL)"
            )
            table = db.catalog.table("x")
            for pid, partition in enumerate(table.partitions):
                if not partition.row_count:
                    continue
                path = tmp_path / f"p{pid}.blk"
                atomic_write_bytes(
                    path, encode_block(partition.lanes, partition.row_count)
                )
                reader = BlockReader(path)
                rows = list(partition.rows())
                assert reader.row_tuples() == rows
                assert all(type(row[0]) is int for row in reader.row_tuples())
                reader.close()

    def test_lane_and_value_list_encodings_are_the_same_bytes(self):
        # A typed float lane is written from its own buffer, the
        # integer key from its object lane: on NULL-free data both must
        # produce the very bytes the per-column value lists do.
        with _loaded_db() as db:
            for partition in db.catalog.table("x").partitions:
                rows = partition.row_count
                if not rows:
                    continue
                columns = [list(column) for column in zip(*partition.rows())]
                assert encode_block(partition.lanes, rows) == encode_block(
                    columns
                )


class TestDatabaseCacheKnobs:
    def test_default_capacity_unchanged(self):
        with _loaded_db() as db:
            assert db.block_cache_config is None  # historic default
        assert BLOCK_CACHE_CAPACITY == 8

    def test_entry_capacity_knob_installed_on_all_tables(self):
        with _loaded_db(block_cache_entries=2) as db:
            config = db.block_cache_config
            assert config is not None and config.max_entries == 2
            table = db.catalog.table("x")
            assert table.cache_config is config
            assert all(
                p.cache_config is config for p in table.partitions
            )
            # Tables created after the knob inherit it too.
            db.create_table("later", dataset_schema(1))
            assert db.catalog.table("later").cache_config is config

    def test_capacity_must_be_positive(self):
        with pytest.raises(SchemaError, match=">= 1 entry"):
            BlockCacheConfig(max_entries=0)
        with pytest.raises(SchemaError, match="byte budget"):
            BlockCacheConfig(max_bytes=0)

    def test_byte_budget_spills_and_reloads_bit_identically(self):
        sql = "SELECT sum(x1 * x1 + x2), count(*) FROM x"
        with _loaded_db(n=400) as db:
            expected = db.execute(sql).rows
        # A budget far below one partition's float block forces every
        # insert over budget: evictions spill, reloads must not change
        # one bit of the answer.
        with _loaded_db(n=400, block_cache_bytes=256) as db:
            first = db.execute(sql)
            assert first.rows == expected
            assert first.metrics.cache_evictions > 0
            assert first.metrics.blocks_spilled > 0
            assert first.metrics.bytes_spilled > 0
            again = db.execute(sql)
            assert again.rows == expected

    def test_spill_reload_counts_as_hit(self):
        with _loaded_db(n=200, block_cache_bytes=256) as db:
            table = db.catalog.table("x")
            partition = next(
                p for p in table.partitions if p.row_count
            )
            block, stats = partition.numeric_matrix_with_cache_stats(
                [1, 2]
            )
            assert not stats.hit
            assert stats.spilled_blocks >= 1  # over budget immediately
            reloaded, stats2 = partition.numeric_matrix_with_cache_stats(
                [1, 2]
            )
            assert stats2.hit  # served from the disk tier
            np.testing.assert_array_equal(np.asarray(reloaded), block)

    def test_mutation_unlinks_spill_files(self):
        with _loaded_db(n=200, block_cache_bytes=256) as db:
            db.execute("SELECT sum(x1), count(*) FROM x")
            table = db.catalog.table("x")
            spilled = [
                path
                for p in table.partitions
                for path in p._spilled.values()
            ]
            assert spilled and all(path.exists() for path in spilled)
            # Truncate invalidates every partition: all spill files go.
            table.truncate()
            assert all(not path.exists() for path in spilled)
            assert all(not p._spilled for p in table.partitions)

    def test_explain_notes_budget_and_analyze_notes_spills(self):
        with _loaded_db(n=200, block_cache_bytes=256) as db:
            plain = db.explain_plan("SELECT sum(x1), count(*) FROM x")
            assert "block cache budget 256 bytes" in plain.text()
            analyzed = db.explain_plan(
                "SELECT sum(x1), count(*) FROM x", analyze=True
            )
            assert "spilled" in analyzed.text()
        with _loaded_db(n=200) as db:
            plain = db.explain_plan("SELECT sum(x1), count(*) FROM x")
            assert "block cache budget" not in plain.text()
