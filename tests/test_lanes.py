"""Typed column lanes as the partition's column store.

* the lane contract itself (``append``/``extend``, ``truncate_tail``,
  ``values``, ``floats``) for the typed float lane and the object lane;
* a state machine over the storage mutations, checked against a
  list-of-lists model on the row path and ``np.asarray(model)`` on the
  vector path;
* NaN-the-value versus NULL through every path that could confuse them:
  rows, blocks, CSV checkpoint/restore, the columnar block file, WAL
  replay;
* pinned edge cases: all-NULL lane, empty partition, ±inf, −0.0, ints
  beyond 2**53 in an INTEGER column;
* ``bulk_load_arrays`` coercion, constraint checks and atomicity.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.dbms import open_durable
from repro.dbms.columnar import BlockReader, atomic_write_bytes, encode_block
from repro.dbms.database import Database
from repro.dbms.lanes import FloatLane, ObjectLane
from repro.dbms.persistence import load_database, save_database
from repro.dbms.schema import Column, TableSchema
from repro.dbms.storage import Partition, Table
from repro.dbms.types import SqlType
from repro.errors import ConstraintViolation, TypeMismatchError

NAN = float("nan")


def _same(left, right) -> bool:
    """Equality that tells NaN from None, −0.0 from 0.0 and 1 from 1.0."""
    return repr(left) == repr(right)


# ------------------------------------------------------------ lane contract
class TestFloatLane:
    def test_nan_value_and_null_stay_distinct(self):
        lane = FloatLane()
        lane.extend((1.0, None, NAN))
        lane.append(None)
        lane.append(NAN)
        assert _same(lane.values(0, 5), [1.0, None, NAN, None, NAN])
        assert np.isnan(lane.floats(0, 5)[1:]).all()
        assert lane.nulls(0, 5).tolist() == [False, True, False, True, False]

    def test_mask_is_lazy(self):
        lane = FloatLane()
        lane.extend(np.arange(100.0))
        lane.extend((NAN, 2.0))
        assert lane.nulls(0, 102) is None
        lane.append(None)
        assert lane.nulls(0, 103).sum() == 1

    def test_growth_keeps_prefix_and_old_views(self):
        lane = FloatLane()
        lane.extend((1.0, None, 3.0))
        before = lane.floats(0, 3)
        for value in range(1000):  # several doublings
            lane.append(float(value))
        assert _same(lane.values(0, 3), [1.0, None, 3.0])
        assert _same(before.tolist(), [1.0, NAN, 3.0])
        assert lane.values(3, 1003) == [float(v) for v in range(1000)]

    def test_truncate_tail_clears_null_flags(self):
        lane = FloatLane()
        lane.extend((1.0, None, None))
        lane.truncate_tail(2)
        lane.extend((5.0, 6.0))
        assert lane.values(0, 3) == [1.0, 5.0, 6.0]

    def test_floats_is_a_read_only_view(self):
        lane = FloatLane()
        lane.extend((1.0, 2.0))
        view = lane.floats(0, 2)
        assert view.base is not None and not view.flags.writeable

    def test_array_extend_and_coercion(self):
        lane = FloatLane()
        lane.extend(np.asarray([1, 2], dtype=np.int32))
        lane.extend(np.asarray([None, 2.5], dtype=object))
        assert _same(lane.values(0, 4), [1.0, 2.0, None, 2.5])
        with pytest.raises(ValueError):
            lane.extend(("abc",))


class TestObjectLane:
    def test_contract(self):
        lane = ObjectLane()
        lane.extend((2**70, None, 3))
        lane.append("text")
        lane.truncate_tail(1)
        assert lane.values(0, 3) == [2**70, None, 3]
        assert lane.values(1, 3) == [None, 3]
        floats = lane.floats(0, 3)
        assert floats[0] == float(2**70) and np.isnan(floats[1])


# ------------------------------------------------------------ state machine
SCHEMA = TableSchema(
    (
        Column("a", SqlType.FLOAT),
        Column("k", SqlType.INTEGER),
        Column("s", SqlType.VARCHAR),
        Column("b", SqlType.FLOAT),
    )
)

_floats = st.one_of(
    st.none(),
    st.just(NAN),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, 1e308]),
    st.floats(allow_nan=False, width=64),
)
_ints = st.one_of(st.none(), st.integers(-(2**70), 2**70))
_texts = st.one_of(st.none(), st.text(max_size=3))
_row = st.tuples(_floats, _ints, _texts, _floats)
_rows = st.lists(_row, min_size=1, max_size=40)


class StorageMachine(RuleBasedStateMachine):
    """One-partition table (so partition and table mutations address the
    same rows) against a list-of-lists model."""

    def __init__(self):
        super().__init__()
        self.table = Table("t", SCHEMA, partitions=1)
        self.model: list[tuple] = []

    @property
    def partition(self) -> Partition:
        return self.table.partitions[0]

    @rule(row=_row)
    def append(self, row):
        self.table.insert(row)
        self.model.append(row)

    @rule(rows=_rows)
    def extend_columns(self, rows):
        self.partition.extend_columns(list(zip(*rows)))
        self.model.extend(rows)

    @rule(rows=_rows)
    def insert_many(self, rows):
        self.table.insert_many(rows)
        self.model.extend(rows)

    @rule(rows=_rows, as_arrays=st.booleans())
    def bulk_load_arrays(self, rows, as_arrays):
        columns = {
            column.name: [row[index] for row in rows]
            for index, column in enumerate(SCHEMA.columns)
        }
        if as_arrays and all(row[0] is not None for row in rows):
            columns["a"] = np.asarray(columns["a"], dtype=float)
        self.table.bulk_load_arrays(columns)
        self.model.extend(rows)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def rollback_rows(self, data):
        count = data.draw(st.integers(1, len(self.model)))
        self.partition.rollback_rows(count)
        del self.model[-count:]

    @rule()
    def truncate(self):
        self.table.truncate()
        self.model.clear()

    @invariant()
    def rows_match_model(self):
        assert self.partition.row_count == len(self.model)
        assert _same(self.table.rows(), self.model)
        for position in range(4):
            assert _same(
                self.partition.values(position),
                [row[position] for row in self.model],
            )

    @invariant()
    def pruned_rows_match_model(self):
        rows = self.table.rows([0, 2])
        assert all(repr(row[1]) == repr(row[3]) == "PRUNED" for row in rows)
        assert _same(
            [(row[0], row[2]) for row in rows],
            [(row[0], row[2]) for row in self.model],
        )

    @invariant()
    def blocks_match_model(self):
        expected = np.asarray(
            [
                [NAN if row[p] is None else row[p] for p in (0, 1, 3)]
                for row in self.model
            ],
            dtype=float,
        ).reshape(len(self.model), 3)
        for block in (
            self.partition.numeric_matrix([0, 1, 3]),  # miss
            self.partition.numeric_matrix([0, 1, 3]),  # hit
            self.partition.block([0, 1, 3]),
        ):
            assert block.dtype == np.float64 and block.flags.f_contiguous
            # tobytes: bit-equal, with NaN == NaN and -0.0 != 0.0
            assert block.tobytes("C") == expected.tobytes("C")
        half = len(self.model) // 2
        assert (
            self.partition.block([3, 0], half).tobytes("C")
            == expected[half:, [2, 0]].tobytes("C")
        )


TestStorageMachine = StorageMachine.TestCase
TestStorageMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)


# -------------------------------------------- NaN the value vs NULL, per path
def _nan_null_db(**kwargs) -> Database:
    db = Database(amps=2, **kwargs)
    db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT, w FLOAT)")
    db.insert_rows(
        "t", [(1, NAN, 1.0), (2, None, 2.0), (3, 3.0, None), (4, 4.0, NAN)]
    )
    return db


_EXPECTED = [(1, NAN, 1.0), (2, None, 2.0), (3, 3.0, None), (4, 4.0, NAN)]


def _sorted_rows(db):
    return sorted(db.table("t").rows(), key=lambda row: row[0])


class TestNanIsNotNull:
    def test_row_path(self):
        with _nan_null_db() as db:
            assert _same(_sorted_rows(db), _EXPECTED)
            # IS NULL sees the NULL only; count skips the NULL only.
            db.vectorized_select = False
            assert db.execute(
                "SELECT i FROM t WHERE v IS NULL ORDER BY i"
            ).rows == [(2,)]
            assert db.execute(
                "SELECT count(v), count(w) FROM t WHERE i > 0"
            ).rows == [(3, 3)]

    def test_vector_path_maps_both_to_nan(self):
        with _nan_null_db() as db:
            matrix = db.table("t").numeric_matrix(["i", "v"])
            matrix = matrix[np.argsort(matrix[:, 0])]
            assert np.isnan(matrix[:2, 1]).all() and matrix[2:, 1].tolist() == [3.0, 4.0]

    def test_csv_checkpoint_and_restore(self, tmp_path):
        with _nan_null_db() as db:
            save_database(db, tmp_path / "snap")
        with load_database(tmp_path / "snap", amps=2) as restored:
            assert _same(_sorted_rows(restored), _EXPECTED)

    def test_columnar_round_trip(self, tmp_path):
        with _nan_null_db() as db:
            table = db.table("t")
            for pid, partition in enumerate(table.partitions):
                if not partition.row_count:
                    continue
                path = tmp_path / f"p{pid}.blk"
                atomic_write_bytes(
                    path, encode_block(partition.lanes, partition.row_count)
                )
                reader = BlockReader(path)
                assert _same(reader.row_tuples(), list(partition.rows()))
                assert (
                    reader.float_matrix([1, 2]).tobytes("F")
                    == partition.numeric_matrix([1, 2]).tobytes("F")
                )
                reader.close()

    def test_wal_replay(self, tmp_path):
        db = open_durable(tmp_path / "home", amps=2)
        db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT, w FLOAT)")
        db.insert_rows("t", _EXPECTED[:2])
        db.load_columns(
            "t",
            {
                "i": [3, 4],
                "v": [3.0, 4.0],
                "w": np.asarray([None, NAN], dtype=object),
            },
        )
        db.close()
        recovered = open_durable(tmp_path / "home", amps=2)
        assert _same(_sorted_rows(recovered), _EXPECTED)
        recovered.close()


# ------------------------------------------------------------ pinned cases
class TestPinnedCases:
    def test_all_null_lane_and_empty_partition(self):
        partition = Partition(2, sql_types=[SqlType.FLOAT, SqlType.INTEGER])
        assert list(partition.rows()) == [] and partition.values(0) == []
        assert partition.block([0, 1]).shape == (0, 2)
        partition.extend_columns([[None, None], [None, None]])
        assert list(partition.rows()) == [(None, None), (None, None)]
        assert np.isnan(partition.numeric_matrix([0, 1])).all()

    def test_infinities_and_negative_zero(self):
        partition = Partition(1, sql_types=[SqlType.FLOAT])
        values = [math.inf, -math.inf, -0.0, 0.0]
        partition.extend_columns([values])
        assert _same(partition.values(0), values)
        assert _same(partition.numeric_matrix([0])[:, 0].tolist(), values)

    def test_huge_ints_stay_exact_in_integer_columns(self):
        with Database(amps=1) as db:
            db.execute("CREATE TABLE t (k INTEGER, v FLOAT)")
            big = 2**53 + 1
            db.insert_rows("t", [(big, 1.0), (-(2**70), 2.0)])
            assert db.table("t").column_values("k") == [big, -(2**70)]
            assert db.execute(f"SELECT v FROM t WHERE k = {big}").rows == [(1.0,)]

    def test_float_storage_is_one_typed_copy(self):
        table = Table("t", SCHEMA, partitions=1)
        table.insert_many([(float(i), i, "s", None) for i in range(100)])
        lanes = table.partitions[0].lanes
        assert [type(lane) for lane in lanes] == [
            FloatLane, ObjectLane, ObjectLane, FloatLane
        ]
        assert lanes[0].floats(0, 100).dtype == np.float64

    def test_untyped_partition_holds_objects(self):
        partition = Partition(2)
        partition.append((1, "x"))
        assert list(partition.rows()) == [(1, "x")]


# ------------------------------------------------------- bulk load coercion
def _typed_table(not_null=False) -> Table:
    schema = TableSchema(
        (
            Column("i", SqlType.INTEGER),
            Column("x", SqlType.FLOAT, nullable=not not_null),
            Column("n", SqlType.INTEGER),
        ),
        primary_key="i",
    )
    return Table("t", schema, partitions=3)


def _load(table, i, x, n):
    return table.bulk_load_arrays({"i": i, "x": x, "n": n})


class TestBulkLoadCoercion:
    def test_int_array_into_float_column_reads_back_float(self):
        table = _typed_table()
        _load(table, np.arange(3), np.asarray([0, 1, 2]), [1.0, True, "7"])
        rows = sorted(table.rows())
        assert _same(rows, [(0, 0.0, 1), (1, 1.0, 1), (2, 2.0, 7)])

    @pytest.mark.parametrize("bad", [1.5, NAN, math.inf, "x"])
    def test_non_integral_into_integer_is_rejected(self, bad):
        table = _typed_table()
        with pytest.raises(TypeMismatchError):
            _load(table, [1, 2], [0.0, 0.0], np.asarray([1.0, bad], dtype=object))
        with pytest.raises(TypeMismatchError):
            _load(table, [1, bad], [0.0, 0.0], [1, 2])
        self._assert_untouched(table)

    def test_float_array_into_integer_column(self):
        table = _typed_table()
        _load(table, [1, 2], [0.0, 0.0], np.asarray([3.0, 2.0**60]))
        assert sorted(table.column_values("n")) == [3, 2**60]
        with pytest.raises(TypeMismatchError):
            _load(table, [3], [0.0], np.asarray([1.5]))

    def test_null_into_not_null_is_rejected(self):
        table = _typed_table(not_null=True)
        with pytest.raises(ConstraintViolation, match="NOT NULL"):
            _load(table, [1, 2], [1.0, None], [1, 2])
        self._assert_untouched(table)
        # NaN is a value, not a NULL.
        assert _load(table, [3, 4], np.asarray([1.0, NAN]), [None, 2]) == 2

    def test_duplicate_key_after_coercion_is_rejected(self):
        table = _typed_table()
        with pytest.raises(ConstraintViolation, match="duplicate"):
            _load(table, [1, 1.0], [0.0, 0.0], [1, 2])
        self._assert_untouched(table)

    @staticmethod
    def _assert_untouched(table):
        assert table.row_count == 0 and table.version == 0
        # The failed load released nothing into the PK set.
        assert _load(table, [1, 2], [0.0, 0.0], [1, 2]) == 2

    def test_wal_replays_the_coerced_values(self, tmp_path):
        db = open_durable(tmp_path / "home", amps=2)
        db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT, n INTEGER)")
        db.load_columns(
            "t",
            {"i": np.asarray([1.0, 2.0]), "x": np.asarray([5, 6]), "n": ["7", True]},
        )
        expected = [(1, 5.0, 7), (2, 6.0, 1)]
        assert _same(_sorted_rows(db), expected)
        db.close()
        recovered = open_durable(tmp_path / "home", amps=2)
        assert _same(_sorted_rows(recovered), expected)
        recovered.close()
