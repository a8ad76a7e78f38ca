"""The on-disk columnar block format and the in-memory block cache.

Covers :mod:`repro.dbms.columnar` (exact round trips through the
numeric lanes and the object sidecar, zero-copy mmap reads, corruption
rejection, atomic writes, a partition's lanes written as one block),
plus the block cache's fixed capacity, its read-only blocks and their
invalidation by every kind of mutation.
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
from repro.dbms.storage import BLOCK_CACHE_CAPACITY
from repro.errors import ExportError


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


# ------------------------------------------------------- partition blocks
def _loaded_db(n=60):
    rng = np.random.default_rng(11)
    d = 2
    db = Database(amps=4)
    db.create_table("x", dataset_schema(d, with_y=True))
    columns = {"i": np.arange(1, n + 1), "y": rng.normal(size=n)}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = rng.normal(50.0, 10.0, size=n)
    db.load_columns("x", columns)
    return db


class TestPartitionBlocks:
    """A partition's lanes written as one block file (``encode_block``
    with the partition's row count), as persistence sees them."""

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


class TestBlockCache:
    def test_default_capacity_unchanged(self):
        assert BLOCK_CACHE_CAPACITY == 8

    def test_a_cached_block_is_read_only(self):
        with Database(amps=2) as db:
            db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT)")
            db.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)")
            assert db.execute("SELECT sum(x) FROM t").scalar() == 10.0
            partition = next(
                p for p in db.table("t").partitions if p.row_count
            )
            block = partition.numeric_matrix([1])
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1000.0
            # The block path still answers what the row path reads.
            row_path = db.execute("SELECT sum(x) FROM t WHERE i > 0").scalar()
            assert db.execute("SELECT sum(x) FROM t").scalar() == row_path == 10.0

    def test_every_table_caps_its_cache_at_capacity(self):
        # Tables created before and after a load share the one constant.
        selections = [
            f"SELECT sum({expr}) FROM {{table}}"
            for expr in ("x1", "x2", "y", "x1 + x2", "x1 + y", "x2 + x1",
                         "x2 + y", "y + x1", "y + x2")
        ]
        assert len(selections) == BLOCK_CACHE_CAPACITY + 1
        with _loaded_db() as db:
            db.create_table("later", dataset_schema(2, with_y=True))
            db.load_columns("later", {
                name: db.table("x").column_values(name)
                for name in ("i", "x1", "x2", "y")
            })
            for table in ("x", "later"):
                evictions = sum(
                    db.execute(sql.format(table=table)).metrics.cache_evictions
                    for sql in selections
                )
                partitions = [p for p in db.table(table).partitions if p.row_count]
                assert evictions == len(partitions)
                assert all(
                    len(p._block_cache) == BLOCK_CACHE_CAPACITY
                    for p in partitions
                )


#: mutation -> how it changes table ``x`` of :func:`_loaded_db`
MUTATIONS = {
    "insert": lambda db: db.execute(
        "INSERT INTO x (i, x1, x2, y) VALUES (1001, 7.0, 8.0, 9.0)"
    ),
    "insert_rows": lambda db: db.insert_rows(
        "x", [(1000 + k, float(k), 1.0, None) for k in range(1, 9)]
    ),
    "load_columns": lambda db: db.load_columns(
        "x",
        {
            "i": np.arange(2001, 2009),
            "x1": np.arange(8.0),
            "x2": np.ones(8),
            "y": np.zeros(8),
        },
    ),
    "delete": lambda db: db.execute("DELETE FROM x WHERE x1 > 50"),
    "update": lambda db: db.execute("UPDATE x SET x1 = x1 + 1.0 WHERE x2 > 50"),
    "truncate": lambda db: db.table("x").truncate(),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_every_mutation_drops_the_cached_blocks_it_stales(mutation):
    sql = "SELECT sum(x1), count(*) FROM x"
    with _loaded_db() as db:
        db.execute(sql)
        old = list(db.table("x").partitions)
        counts = [p.row_count for p in old]
        assert all(p.has_cached_block([1]) for p in old)
        MUTATIONS[mutation](db)
        stale = [
            partition
            for partition in db.table("x").partitions
            if not any(partition is p for p in old)
            or partition.row_count != counts[old.index(partition)]
        ]
        assert stale
        for partition in stale:
            assert not partition.has_cached_block([1]), mutation
        # No stale block answers: the block path reads what the rows say.
        row_path = db.execute(sql + " WHERE i > 0").rows
        assert db.execute(sql).rows == row_path
