"""The columnar write path against the per-row loop it replaced.

``Table.insert_many`` validates, routes, appends and logs a batch one
column at a time.  The loop it replaced — coerce a row, check it, hash
its key, append it — is kept *here* as :class:`RowLoopTable`, and every
observable of the two must agree batch after batch: the lanes partition
by partition, the primary-key set, the round-robin cursor, the version,
what a mutation listener is told and in which order, and — when a batch
holds an invalid row — the committed prefix and the error's type and
message.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dbms import open_durable, storage
from repro.dbms.faults import NULL_FAULTS, FaultPlan
from repro.dbms.lanes import FloatLane
from repro.dbms.persistence import (
    database_fingerprint,
    load_database,
    save_database,
)
from repro.dbms.schema import Column, TableSchema
from repro.dbms.storage import Table, stable_key_hash
from repro.dbms.types import SqlType, coerce_value
from repro.errors import (
    ConstraintViolation,
    FaultInjected,
    SchemaError,
    TypeMismatchError,
)


# ------------------------------------------------------------ the reference
class RowLoopTable:
    """The per-row insert loop, on plain lists: one row at a time is
    coerced, checked, routed and appended; an invalid row stops the
    batch after the rows before it."""

    def __init__(self, schema: TableSchema, partitions: int) -> None:
        self.schema = schema
        self.partitions: list[list[tuple]] = [[] for _ in range(partitions)]
        self.pk_position = (
            schema.position_of(schema.primary_key)
            if schema.primary_key is not None
            else None
        )
        self.pk_values: set = set()
        self.next_partition = 0
        self.version = 0
        #: one entry per committed batch: its rows, in input order
        self.notified: list[list[tuple]] = []

    def check_row(self, row) -> tuple:
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row has {len(row)} values, table 't' has "
                f"{len(self.schema)} columns"
            )
        coerced = tuple(
            coerce_value(value, column.sql_type)
            for value, column in zip(row, self.schema.columns)
        )
        for value, column in zip(coerced, self.schema.columns):
            if value is None and not column.nullable:
                raise ConstraintViolation(
                    f"NULL in NOT NULL column {column.name!r} of 't'"
                )
        if self.pk_position is not None:
            key = coerced[self.pk_position]
            if key in self.pk_values:
                raise ConstraintViolation(
                    f"duplicate primary key {key!r} in 't'"
                )
            self.pk_values.add(key)
        return coerced

    def route(self, row: tuple) -> int:
        if self.pk_position is not None:
            return stable_key_hash(row[self.pk_position]) % len(self.partitions)
        index = self.next_partition
        self.next_partition = (index + 1) % len(self.partitions)
        return index

    def insert_many(self, rows) -> int:
        committed: list[tuple] = []
        try:
            for row in rows:
                coerced = self.check_row(row)
                self.partitions[self.route(coerced)].append(coerced)
                committed.append(coerced)
        finally:
            if committed:
                self.version += 1
                self.notified.append(committed)
        return len(committed)


# ---------------------------------------------------------------- comparing
def _exact(value):
    """A value with its type and, for a float, its bits: ``1``, ``1.0``,
    ``True``, ``-0.0`` and a NaN all stay apart."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _exact_rows(rows) -> list:
    return [tuple(_exact(value) for value in row) for row in rows]


def _transposed(payload: dict) -> list[tuple]:
    """A listener's column-major payload, as rows."""
    columns = [
        c.tolist() if isinstance(c, np.ndarray) else c
        for c in payload["columns"]
    ]
    return list(zip(*columns))


class Pair:
    """A :class:`Table` and its reference, fed the same batches."""

    def __init__(self, schema: TableSchema, partitions: int) -> None:
        self.table = Table("t", schema, partitions=partitions)
        self.reference = RowLoopTable(schema, partitions)
        self.heard: list[list[tuple]] = []
        self.table.mutation_listeners = [
            lambda op, name, payload: self.heard.append(
                (op, name, _transposed(payload))
            )
        ]

    def insert(self, rows, as_generator: bool = False) -> None:
        outcomes = []
        for target in (self.table, self.reference):
            batch = (row for row in rows) if as_generator else rows
            try:
                outcomes.append(("inserted", target.insert_many(batch)))
            except Exception as exc:  # noqa: BLE001 - compared below
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        self.check()

    def check(self) -> None:
        table, reference = self.table, self.reference
        for partition, expected in zip(table.partitions, reference.partitions):
            assert partition.row_count == len(expected)
            assert _exact_rows(partition.rows()) == _exact_rows(expected)
            for position, lane in enumerate(partition.lanes):
                column = [row[position] for row in expected]
                assert _exact_rows([lane.values(0, len(expected))]) == (
                    _exact_rows([column])
                )
                if isinstance(lane, FloatLane):
                    nulls = lane.nulls(0, len(expected))
                    assert [value is None for value in column] == (
                        [False] * len(column) if nulls is None else nulls.tolist()
                    )
        assert sorted(map(_exact, table._pk_values), key=repr) == sorted(
            map(_exact, reference.pk_values), key=repr
        )
        assert len(table._pk_values) == len(reference.pk_values)
        assert table._next_partition == reference.next_partition
        assert table.version == reference.version
        assert [(op, name) for op, name, _ in self.heard] == [
            ("insert", "t")
        ] * len(reference.notified)
        assert [_exact_rows(rows) for _, _, rows in self.heard] == [
            _exact_rows(rows) for rows in reference.notified
        ]


# --------------------------------------------------------------- strategies
_SMALL_INTS = st.integers(-4, 12)
_INTEGERS = st.one_of(
    _SMALL_INTS,
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, 2**63, -(2**63) - 1, 10**30]),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 3.0, 7.0, 2.5, float("nan"), float("inf"), -float("inf")]),
)
_TEXT = st.one_of(
    st.sampled_from(["3", "3.0", "2.5", " 7 ", "-0.0", "nan", "1e3", "abc", "", "naïve", "雪", "t1"]),
    st.text(max_size=3),
)
#: anything a caller might put in a cell, valid for the column or not
_ANY_VALUE = st.one_of(
    _INTEGERS,
    _FLOATS,
    _TEXT,
    st.booleans(),
    st.none(),
    _SMALL_INTS.map(np.float64),
    _SMALL_INTS.map(np.int64),  # unsupported: not an int
    st.sampled_from([b"bytes", (1, 2)]),  # unsupported
)
_CLEAN = {
    SqlType.INTEGER: _SMALL_INTS,
    SqlType.FLOAT: _FLOATS,
    SqlType.VARCHAR: _TEXT,
}


@st.composite
def _schemas(draw) -> TableSchema:
    width = draw(st.integers(1, 4))
    columns = tuple(
        Column(
            f"c{position}",
            draw(st.sampled_from(list(SqlType))),
            nullable=draw(st.booleans()),
        )
        for position in range(width)
    )
    keyed = draw(st.booleans())
    return TableSchema(columns, "c0" if keyed else None)


@st.composite
def _batches(draw, schema: TableSchema) -> list:
    """Mostly-clean rows (so prefixes commit) with anomalies mixed in:
    a foreign type, a NULL, a wrong arity, a repeated key."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [
            draw(_ANY_VALUE if draw(st.integers(0, 9)) == 0 else _CLEAN[column.sql_type])
            for column in schema.columns
        ]
        anomaly = draw(st.integers(0, 29))
        if anomaly == 0:
            row.append(1)
        elif anomaly == 1:
            row.pop()
        rows.append(tuple(row) if draw(st.booleans()) else row)
    return rows


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_batches_match_the_row_loop(data):
    schema = data.draw(_schemas())
    pair = Pair(schema, data.draw(st.integers(1, 5)))
    for _ in range(data.draw(st.integers(1, 4))):
        pair.insert(
            data.draw(_batches(schema)), as_generator=data.draw(st.booleans())
        )


# ----------------------------------------------------------- pinned cases
def _schema(*columns, primary_key=None) -> TableSchema:
    return TableSchema(
        tuple(
            Column(name, sql_type, nullable)
            for name, sql_type, nullable in columns
        ),
        primary_key,
    )


EVENTS = _schema(
    ("id", SqlType.INTEGER, False),
    ("a", SqlType.FLOAT, True),
    ("tag", SqlType.VARCHAR, True),
    primary_key="id",
)


class TestPinnedAnomalies:
    def test_empty_batch_changes_nothing(self):
        pair = Pair(EVENTS, 3)
        pair.insert([])
        pair.insert(iter(()), as_generator=True)
        assert pair.table.version == 0 and pair.heard == []

    def test_a_table_cannot_be_zero_width(self):
        # Why insert_columns has no zero-column case.
        with pytest.raises(SchemaError, match="at least one column"):
            TableSchema(())

    def test_integer_and_float_spellings_of_one_key_collide(self):
        pair = Pair(EVENTS, 4)
        pair.insert([(3, 1.0, "a"), (3.0, 2.0, "b"), (4, 3.0, "c")])
        assert pair.table.rows() == [(3, 1.0, "a")]
        pair.insert([(True, 1.0, "a"), ("1", 2.0, "b")])
        pair.insert([(5, 1.0, "a"), (6, 1.0, "a"), (5, 1.0, "a"), (7, 1.0, "a")])
        assert sorted(pair.table._pk_values) == [1, 3, 5, 6]

    def test_varchar_keys_keep_their_spelling(self):
        pair = Pair(
            _schema(("k", SqlType.VARCHAR, True), primary_key="k"), 3
        )
        pair.insert([(3,), (3.0,), (None,), ("3",), ("4",)])
        pair.insert([("4",), (None,)])
        assert sorted(pair.table._pk_values, key=repr) == ["3", "3.0", "4", None]

    def test_float_keys(self):
        pair = Pair(_schema(("k", SqlType.FLOAT, True), primary_key="k"), 3)
        nan = float("nan")
        pair.insert([(0.0,), (2.5,), (nan,), (float("nan"),), (-0.0,)])
        # Two NaN objects are two keys; 0.0 and -0.0 are one.
        assert len(pair.table._pk_values) == 4
        pair.insert([(3,), (nan,)])

    def test_each_kind_of_invalid_row_ends_the_batch_where_it_stands(self):
        for bad, error in [
            ((None, 1.0, "x"), ConstraintViolation),
            ((2.5, 1.0, "x"), TypeMismatchError),
            ((float("nan"), 1.0, "x"), TypeMismatchError),
            ((np.int64(9), 1.0, "x"), TypeMismatchError),
            ((9, b"raw", "x"), TypeMismatchError),
            ((9, "abc", "x"), TypeMismatchError),
            ((9, 1.0, b"raw"), TypeMismatchError),
            ((1, 1.0, "x"), ConstraintViolation),
            ((9, 1.0), SchemaError),
            ((9, 1.0, "x", "y"), SchemaError),
        ]:
            pair = Pair(EVENTS, 4)
            rows = [(1, 1.0, "a"), (2, 2.0, "b"), bad, (3, 3.0, "c")]
            with pytest.raises(error):
                pair.table.insert_many(rows)
            assert pair.table.row_count == 2
            with pytest.raises(error):
                pair.reference.insert_many(rows)
            pair.check()

    def test_the_earliest_invalid_row_wins_across_columns(self):
        pair = Pair(EVENTS, 2)
        # Row 2 is short, row 1 has a bad float: row 1's error, row 0 kept.
        pair.insert([(1, 1.0, "a"), (2, "abc", "b"), (3, 1.0)])
        pair.insert([(4, 1.0, "a"), (5, 1.0), (6, "abc", "b")])
        assert sorted(pair.table._pk_values) == [1, 4]

    def test_mixed_numeric_spellings_coerce_like_the_row_loop(self):
        pair = Pair(EVENTS, 3)
        pair.insert([
            (1, 1, "a"), ("2", "2.5", 7), (3.0, True, 2.5),
            (np.float64(4.0), np.float64(0.5), None), (2**63, -0.0, "big"),
        ])
        assert pair.table.row_count == 5

    def test_round_robin_cursor_carries_across_batches(self):
        schema = _schema(("a", SqlType.FLOAT, True))
        pair = Pair(schema, 3)
        pair.insert([(float(j),) for j in range(4)])
        pair.insert([(float(j),) for j in range(4, 9)])
        pair.insert([(9.0,), ("abc",), (10.0,)])
        assert [p.row_count for p in pair.table.partitions] == [4, 3, 3]
        assert pair.table._next_partition == 1


# ------------------------------------------------------------------ faults
def _lane_state(table: Table) -> list:
    """Every lane's content with its NULL flags, the key set, the
    cursor and the version: what a rolled-back flush must leave alone."""
    lanes = [
        (
            _exact_rows([lane.values(0, partition.row_count)]),
            None
            if not isinstance(lane, FloatLane)
            or lane.nulls(0, partition.row_count) is None
            else lane.nulls(0, partition.row_count).tolist(),
        )
        for partition in table.partitions
        for lane in partition.lanes
    ]
    return [
        lanes,
        sorted(map(repr, table._pk_values)),
        table._next_partition,
        table.version,
    ]


@pytest.mark.parametrize("keyed", [True, False])
@pytest.mark.parametrize("failing_partition", range(4))
def test_flush_fault_on_any_partition_rolls_back_bit_identically(
    keyed, failing_partition
):
    schema = _schema(
        ("id", SqlType.INTEGER, False),
        ("a", SqlType.FLOAT, True),
        ("tag", SqlType.VARCHAR, True),
        primary_key="id" if keyed else None,
    )
    pair = Pair(schema, 4)
    pair.insert([(j, None if j % 3 == 0 else j / 7.0, f"t{j}") for j in range(10)])
    before = _lane_state(pair.table)
    batch = [
        (100 + j, None if j % 4 == 0 else float("nan") if j == 5 else -j / 3.0, None)
        for j in range(40)
    ]
    pair.table.faults = FaultPlan().fail(
        "insert.flush", partition=failing_partition
    )
    with pytest.raises(FaultInjected):
        pair.table.insert_many(batch)
    assert _lane_state(pair.table) == before
    assert len(pair.heard) == 1  # nobody heard of the failed batch
    # The same batch goes in once the fault is gone, exactly as the
    # reference (which never saw the failure) takes it.
    pair.table.faults = NULL_FAULTS
    pair.insert(batch)


def test_invalid_row_with_a_failing_flush_raises_the_flush_error():
    pair = Pair(EVENTS, 4)
    pair.table.faults = FaultPlan().fail("insert.flush")
    with pytest.raises(FaultInjected):
        pair.table.insert_many([(1, 1.0, "a"), (2, 2.0, "b"), (1, 3.0, "c")])
    assert pair.table.row_count == 0 and pair.table._pk_values == set()


# ------------------------------------------------------- the cost it removes
def test_a_clean_homogeneous_batch_is_never_coerced_value_by_value(monkeypatch):
    calls = []

    def counting(value, sql_type):
        calls.append(value)
        return coerce_value(value, sql_type)

    monkeypatch.setattr(storage, "coerce_value", counting)
    table = Table("t", EVENTS, partitions=4)
    table.mutation_listeners = [lambda *event: None]
    assert table.insert_many(
        [(j, j / 3.0, f"t{j % 5}") for j in range(500)]
    ) == 500
    assert table.insert_many([(-1, None, None)]) == 1  # NULLs pass too
    assert calls == []
    # A column of another type does pay, and only that column.
    table.insert_many([(1000 + j, j, "x") for j in range(10)])
    assert calls == list(range(10))


# ------------------------------------------------------- log and checkpoint
_DURABLE_VALUES = {
    SqlType.INTEGER: st.one_of(_SMALL_INTS, st.sampled_from([2**63 - 1, 2**63, -(2**70)])),
    SqlType.FLOAT: _FLOATS,
    SqlType.VARCHAR: _TEXT,
}


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(data=st.data())
def test_logged_batches_replay_to_the_same_lanes(tmp_path_factory, data):
    """What the write-ahead log stores of a batch — typed lanes, NULL
    masks, JSON fallbacks — replays into the lanes the batch built."""
    root = tmp_path_factory.mktemp("replay")
    db = open_durable(root, fsync_mode="off", amps=3)
    db.create_table("keyed", _schema(
        ("k", SqlType.INTEGER, False), ("a", SqlType.FLOAT, True),
        ("s", SqlType.VARCHAR, True), ("n", SqlType.INTEGER, True),
        primary_key="k",
    ))
    db.create_table("heap", _schema(
        ("a", SqlType.FLOAT, True), ("b", SqlType.FLOAT, False),
    ))
    next_key = 0
    for _ in range(data.draw(st.integers(1, 4))):
        count = data.draw(st.integers(1, 20))
        nullable = lambda values: st.one_of(st.none(), values)  # noqa: E731
        db.insert_rows("keyed", [
            (
                next_key + j,
                data.draw(nullable(_DURABLE_VALUES[SqlType.FLOAT])),
                data.draw(nullable(_DURABLE_VALUES[SqlType.VARCHAR])),
                data.draw(nullable(_DURABLE_VALUES[SqlType.INTEGER])),
            )
            for j in range(count)
        ])
        next_key += count
        db.insert_rows("heap", [
            (data.draw(nullable(_FLOATS)), data.draw(_FLOATS))
            for _ in range(count)
        ])
    expected = database_fingerprint(db)
    layout = {
        name: [_exact_rows(p.rows()) for p in db.table(name).partitions]
        for name in ("keyed", "heap")
    }
    db.close()
    recovered = open_durable(root, amps=3)
    assert database_fingerprint(recovered) == expected
    assert {
        name: [_exact_rows(p.rows()) for p in recovered.table(name).partitions]
        for name in ("keyed", "heap")
    } == layout
    recovered.close()


def test_chunked_restore_keeps_layout_and_fingerprint(tmp_path, monkeypatch):
    """A checkpoint's CSV goes back in bounded chunks; routing is per
    row (key hash, or the cursor carried from chunk to chunk), so the
    partitions are the ones a single insert of the file gives."""
    from repro.dbms import persistence
    from repro.dbms.database import Database

    with Database(amps=4) as db:
        db.create_table("keyed", EVENTS)
        db.create_table("heap", _schema(("a", SqlType.FLOAT, True), ("s", SqlType.VARCHAR, True)))
        db.insert_rows("keyed", [
            (j, None if j % 9 == 0 else math.sqrt(j), f"t{j % 7}")
            for j in range(103)
        ])
        db.insert_rows("heap", [(j / 3.0, None if j % 5 else "\\N") for j in range(103)])
        save_database(db, tmp_path / "snap")
        expected = database_fingerprint(db)
    whole = load_database(tmp_path / "snap", amps=4)
    monkeypatch.setattr(persistence, "_RESTORE_CHUNK_ROWS", 10)
    chunked = load_database(tmp_path / "snap", amps=4)
    assert persistence._RESTORE_CHUNK_ROWS <= 65_536
    for name in ("keyed", "heap"):
        assert [
            _exact_rows(p.rows()) for p in chunked.table(name).partitions
        ] == [_exact_rows(p.rows()) for p in whole.table(name).partitions]
        assert chunked.table(name)._next_partition == whole.table(name)._next_partition
    assert database_fingerprint(chunked) == database_fingerprint(whole) == expected
    whole.close()
    chunked.close()
