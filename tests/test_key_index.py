"""The primary-key index, ``storage._KeyIndex``, against a plain ``set``.

The index keeps plain ints within int64 in a sorted int64 base (folded
in from a bounded set of recent keys) and every other key — strings,
floats, NULL, bools, ints past int64 — in a set of Python objects.
What it must keep is the ``set`` it replaced: ``1``, ``1.0`` and
``True`` are one key, two NaN objects are two, and a batch's first
repeat (of an earlier key of the batch or of one already held) is where
an insert stops.  The machines below run it beside a ``set`` — on its
own, and inside a keyed table through inserts, bulk loads, truncates
and ``insert.flush`` faults — with the fold size patched down so that a
short run folds many times.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dbms import persistence, storage
from repro.dbms.faults import NULL_FAULTS, FaultPlan
from repro.dbms.schema import Column, TableSchema
from repro.dbms.storage import Table, _KeyIndex, stable_key_hash
from repro.dbms.types import SqlType
from repro.errors import ConstraintViolation, FaultInjected

INT64_MAX = 2**63 - 1
#: the fold size the machines run with: a few keys, so folds are frequent
SMALL_FOLD = 4


def _first_repeat(model: set, keys) -> int:
    """The set's answer: where a batch stops."""
    seen: set = set()
    for position, key in enumerate(keys):
        if key in seen or key in model:
            return position
        seen.add(key)
    return len(keys)


def _contents(keys) -> Counter:
    """Keys with their type: ``1``, ``1.0`` and ``True`` stay apart."""
    return Counter((type(key).__name__, repr(key)) for key in keys)


_edge_ints = st.sampled_from(
    [0, 1, -1, INT64_MAX, -INT64_MAX - 1, 2**53, -(2**53) - 1]
)
_int64 = st.one_of(st.integers(-30, 30), _edge_ints)
_keys = st.one_of(
    _int64,
    st.sampled_from(
        [2**63, -(2**63) - 1, 2**70, True, False, None, 1.0, -0.0, 2.5, "1"]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
)


class _FoldSmall(RuleBasedStateMachine):
    """A machine run with :data:`SMALL_FOLD` as the fold size."""

    def __init__(self) -> None:
        super().__init__()
        self._fold = mock.patch.object(storage, "_KEY_FOLD", SMALL_FOLD)
        self._fold.start()

    def teardown(self) -> None:
        self._fold.stop()


class KeyIndexMachine(_FoldSmall):
    """The index on its own: list and int64-array batches."""

    def __init__(self) -> None:
        super().__init__()
        self.index = _KeyIndex()
        self.model: set = set()

    def _batch(self, keys, values=None) -> None:
        plain = keys.tolist() if isinstance(keys, np.ndarray) else keys
        expected = _first_repeat(self.model, plain)
        assert self.index.first_repeat(keys, values) == expected
        self.index.add(
            keys[:expected], None if values is None else values[:expected]
        )
        self.model.update(plain[:expected])

    @rule(keys=st.lists(_keys, max_size=12))
    def add_list(self, keys):
        self._batch(keys)

    @rule(keys=st.lists(_int64, max_size=24), pass_values=st.booleans())
    def add_array(self, keys, pass_values):
        self._batch(np.array(keys, dtype=np.int64), keys if pass_values else None)

    @rule(start=st.integers(-40, 40), count=st.integers(0, 3 * SMALL_FOLD))
    def add_range(self, start, count):
        # At least SMALL_FOLD keys: merged into the base directly.
        self._batch(np.arange(start, start + count, dtype=np.int64))

    @rule(key=_keys)
    def probe(self, key):
        assert (key in self.index) == (key in self.model)

    @invariant()
    def holds_the_model(self):
        assert _contents(self.index.keys()) == _contents(self.model)
        assert len(self.index) == len(self.model)


def _keyed_schema(sql_type: SqlType) -> TableSchema:
    return TableSchema(
        (Column("k", sql_type, True), Column("v", SqlType.FLOAT, True)),
        primary_key="k",
    )


class _KeyedTableMachine(_FoldSmall):
    """A 4-AMP table keyed on a nullable ``k`` beside a set of its keys:
    every insert's committed prefix, error and key set must be the
    set's."""

    sql_type: SqlType
    key_values: st.SearchStrategy

    def __init__(self) -> None:
        super().__init__()
        self.table = Table("t", _keyed_schema(self.sql_type), partitions=4)
        self.model: set = set()

    def _column(self, keys, as_array):
        if (
            as_array
            and self.sql_type is SqlType.INTEGER
            and None not in keys
            and all(-INT64_MAX - 1 <= key <= INT64_MAX for key in keys)
        ):
            return np.array(keys, dtype=np.int64)
        return keys

    @rule(
        data=st.data(),
        as_array=st.booleans(),
        failing=st.one_of(st.none(), st.integers(0, 3)),
    )
    def insert(self, data, as_array, failing):
        keys = data.draw(st.lists(self.key_values, max_size=10))
        before = self.table.row_count
        valid = _first_repeat(self.model, keys)
        faulted = failing is not None and any(
            stable_key_hash(key) % 4 == failing for key in keys[:valid]
        )
        if failing is not None:
            self.table.faults = FaultPlan().fail("insert.flush", partition=failing)
        try:
            columns = [self._column(keys, as_array), [1.5] * len(keys)]
            if faulted:
                with pytest.raises(FaultInjected):
                    self.table.insert_columns(columns)
                assert self.table.row_count == before
                return
            if valid < len(keys):
                with pytest.raises(ConstraintViolation) as raised:
                    self.table.insert_columns(columns)
                assert str(raised.value) == (
                    f"duplicate primary key {keys[valid]!r} in 't'"
                )
            else:
                assert self.table.insert_columns(columns) == len(keys)
        finally:
            self.table.faults = NULL_FAULTS
        assert self.table.row_count == before + valid
        self.model.update(keys[:valid])

    @rule(data=st.data(), as_array=st.booleans())
    def bulk_load(self, data, as_array):
        keys = data.draw(st.lists(self.key_values, max_size=3 * SMALL_FOLD))
        columns = {"k": self._column(keys, as_array), "v": [0.5] * len(keys)}
        if _first_repeat(self.model, keys) < len(keys):
            with pytest.raises(
                ConstraintViolation, match="duplicate primary key values"
            ):
                self.table.bulk_load_arrays(columns)
        else:
            assert self.table.bulk_load_arrays(columns) == len(keys)
            self.model.update(keys)

    @rule()
    def truncate(self):
        self.table.truncate()
        self.model.clear()

    @invariant()
    def keys_match_model(self):
        assert _contents(self.table._key_index.keys()) == _contents(self.model)
        assert self.table.row_count == len(self.model)


class IntegerKeyMachine(_KeyedTableMachine):
    sql_type = SqlType.INTEGER
    key_values = st.one_of(
        st.integers(-20, 20), _edge_ints, st.none(), st.just(2**63)
    )


class VarcharKeyMachine(_KeyedTableMachine):
    sql_type = SqlType.VARCHAR
    key_values = st.one_of(st.none(), st.text(max_size=2))


class FloatKeyMachine(_KeyedTableMachine):
    # NaN is left to KeyIndexMachine: a bulk load's float64 array hands
    # back a fresh NaN object per value, where the list held one.
    sql_type = SqlType.FLOAT
    key_values = st.one_of(
        st.none(), st.floats(-4, 4).map(lambda x: round(x, 1))
    )


_machine_settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestKeyIndexMachine = KeyIndexMachine.TestCase
TestKeyIndexMachine.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None
)
TestIntegerKeyMachine = IntegerKeyMachine.TestCase
TestIntegerKeyMachine.settings = _machine_settings
TestVarcharKeyMachine = VarcharKeyMachine.TestCase
TestVarcharKeyMachine.settings = _machine_settings
TestFloatKeyMachine = FloatKeyMachine.TestCase
TestFloatKeyMachine.settings = _machine_settings


# -------------------------------------------------- at the real fold size
def test_batches_across_real_folds_find_every_repeat():
    rng = np.random.default_rng(5)
    table = Table("t", _keyed_schema(SqlType.INTEGER), partitions=8)
    model: set = set()
    for step in range(60):
        size = [1, 16, 64, 500, 5000][step % 5]
        keys = rng.integers(-(10**12), 10**12, size=size).tolist()
        if model and step % 4 == 0:  # an old key late in the batch
            keys[-1] = sorted(model)[step % len(model)]
        valid = _first_repeat(model, keys)
        try:
            assert table.insert_many([(key, 0.0) for key in keys]) == valid
        except ConstraintViolation:
            assert valid < len(keys)
        model.update(keys[:valid])
    assert len(model) > 3 * storage._KEY_FOLD  # folded a few times
    assert sorted(table._key_index.keys()) == sorted(model)
    assert table.row_count == len(model)


def test_a_restored_key_column_costs_about_8_bytes_a_key():
    """A restore inserts ``persistence._CHUNK_ROWS``-row chunks of an
    int64 key column (after it, WAL replay adds 500-row batches): the
    index is the int64 base plus at most one fold's worth of recent
    keys, where a ``set`` of ints held about 55 bytes a key."""
    rows, chunk = 300_000, persistence._CHUNK_ROWS
    keys = np.random.default_rng(3).permutation(rows + 20 * 500)
    tracemalloc.start()
    try:
        index = _KeyIndex()
        for start in range(0, rows, chunk):
            batch = keys[start : min(start + chunk, rows)]
            assert index.first_repeat(batch) == len(batch)
            index.add(batch)
        for start in range(rows, len(keys), 500):
            batch = keys[start : start + 500]
            values = batch.tolist()
            assert index.first_repeat(batch, values) == 500
            index.add(batch, values)
            del values
        del batch
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(index) == len(keys)
    assert held / len(index) <= 12
