"""Horizontally partitioned table storage.

Tables are split into partitions the way Teradata hashes rows across
AMPs: each partition is owned by one (simulated) parallel worker, scans
process partitions independently, and aggregate UDFs accumulate one
partial state per partition before a final merge (the paper's step 3,
"partial result aggregation").

Row-to-partition routing is **deterministic across processes**: primary
keys are hashed with CRC-32 over a canonical byte encoding (never
Python's builtin ``hash``, which is randomized per process for strings),
so a table loads into the same layout under any ``PYTHONHASHSEED`` and
after a persistence round-trip.

Data is stored column-wise inside each partition, one lane per column
(:mod:`repro.dbms.lanes`): FLOAT and INTEGER columns are float64 and
int64 buffers, VARCHAR columns int32 codes into a per-lane dictionary,
so no lane holds a Python object per value; the vectorized execution
paths (aggregate accumulation and block-wise SELECT) build their numpy
blocks by copying lanes, and the row path converts only the lanes a
statement references back to Python values.  Each partition caches the
float block for a given column selection until the partition is
mutated: repeated scans (iterative algorithms, scoring sweeps) then
skip even the lane copy, leaving pure GIL-releasing numpy work for the
parallel engine's threads.  The cache
is an in-memory LRU of :data:`BLOCK_CACHE_CAPACITY` entries per
partition, so mixed workloads cannot grow it without bound; a cached
block is read-only, and each read reports its hit, miss and evictions
in a :class:`BlockCacheStats` the executor sums into
:class:`~repro.dbms.metrics.QueryMetrics`.  There is no disk tier: a
block is a copy of lanes that stay in RAM, and rebuilding an evicted
one from them is cheap.

A table may carry a *row scale*: benchmarks store ``n / scale`` physical
rows but the cost model charges for ``n`` (every per-row charge is
linear, so the accounting is exact).  Numeric results always describe the
physical rows.
"""

from __future__ import annotations

import itertools
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.dbms.blocks import BlockFacts, lane_block
from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.lanes import (
    _INT64_MAX,
    _INT64_MIN,
    PRUNED,
    FloatLane,
    IntLane,
    ObjectLane,
    VarcharLane,
    as_list,
)
from repro.dbms.schema import TableSchema
from repro.dbms.types import SqlType, coerce_value
from repro.errors import ConstraintViolation, SchemaError, TypeMismatchError

#: distinct column selections each partition keeps cached as float
#: blocks; the least recently used entry is evicted beyond this
BLOCK_CACHE_CAPACITY = 8


@dataclass
class BlockCacheStats:
    """Per-call cache outcome of one ``numeric_matrix`` request.

    Engine tasks carry one of these back with their partial result so
    the coordinator can sum cache activity in partition order without
    ever reading shared partition state mid-run, so a straggler task
    from an earlier (timed-out) statement cannot tear the numbers.
    """

    hit: bool = False
    evictions: int = 0
    #: NULL pre-test passes the task's folds ran over the block
    null_scans: int = 0
    #: folds answered by a partial the block's facts remembered
    partials_reused: int = 0
    #: what earlier folds learned about the block; a cached block's
    #: facts live (and die) with its cache entry
    facts: BlockFacts = field(default_factory=BlockFacts, compare=False)


#: the encoding of an integral key (a bool, an int, or an integral float)
_INT_KEY = b"i:%d"
#: every int within this bound converts to float exactly, so its
#: :func:`stable_key_hash` encoding is :data:`_INT_KEY` of the int itself
_EXACT_INT = 2**53


def stable_key_hash(key: Any) -> int:
    """A process-independent hash of a primary-key value.

    CRC-32 over a canonical ``type-tag:payload`` byte string.  Unlike
    builtin ``hash``, the result never depends on ``PYTHONHASHSEED``, so
    partition layouts are reproducible run-to-run and survive
    persistence reloads.  Numeric values that compare equal hash equal
    (``3``, ``3.0`` and ``True``→``1`` collapse to one encoding), which
    mirrors Python's own cross-type hash contract.  An int too large for
    a float equals no float and is encoded by its exact digits.
    """
    if key is None:
        encoded = b"n:"
    elif isinstance(key, (bool, int, float)):
        try:
            value = float(key)
        except OverflowError:
            encoded = _INT_KEY % key
        else:
            if value.is_integer():
                encoded = _INT_KEY % int(value)
            else:
                encoded = b"f:" + repr(value).encode("ascii")
    elif isinstance(key, str):
        encoded = b"s:" + key.encode("utf-8")
    elif isinstance(key, bytes):
        encoded = b"b:" + key
    else:
        encoded = b"r:" + repr(key).encode("utf-8", "backslashreplace")
    return zlib.crc32(encoded)


#: a batch whose :func:`int_key_span` is not known yet
_UNCLASSIFIED: Any = object()


def int_key_span(keys: Sequence[Any]) -> "tuple[int, int] | None":
    """``(min, max)`` of a non-empty batch of plain ints; ``None`` for
    any other batch.  A keyed insert classifies its batch once and hands
    the answer to both the key index and the router."""
    if keys and set(map(type, keys)) == {int}:
        return min(keys), max(keys)
    return None


def route_keys(
    keys: Sequence[Any], fanout: int, span: Any = _UNCLASSIFIED
) -> list[int]:
    """``[stable_key_hash(key) % fanout for key in keys]``, the partition
    of every key of a batch (*span*: the :func:`int_key_span` of the
    batch, or of a batch it starts, when the caller has it).

    A batch of plain ints within ±2**53 (every INTEGER key a float holds
    exactly) is hashed from the ``_INT_KEY`` bytes :func:`stable_key_hash`
    would encode, without its float round trip; any other batch goes
    through :func:`stable_key_hash` key by key.
    """
    if span is _UNCLASSIFIED:
        span = int_key_span(keys)
    if span is not None and -_EXACT_INT <= span[0] and span[1] <= _EXACT_INT:
        crc32 = zlib.crc32
        return [crc32(_INT_KEY % key) % fanout for key in keys]
    return [stable_key_hash(key) % fanout for key in keys]


#: the lane that stores each SQL type
_LANES = {
    SqlType.FLOAT: FloatLane,
    SqlType.INTEGER: IntLane,
    SqlType.VARCHAR: VarcharLane,
}


class Partition:
    """One horizontal partition: one lane per column.

    *sql_types* picks each lane's representation (FLOAT, INTEGER and
    VARCHAR columns get a :class:`~repro.dbms.lanes.FloatLane`,
    :class:`~repro.dbms.lanes.IntLane` and
    :class:`~repro.dbms.lanes.VarcharLane`); without it every lane holds
    Python objects.  ``row_count`` is the *published* length: it
    moves only after every lane holds the new values, so rows below a
    count a reader pinned never change (see :mod:`repro.dbms.lanes`).
    """

    def __init__(
        self,
        width: int,
        sql_types: "Sequence[SqlType] | None" = None,
    ) -> None:
        #: the column lanes themselves (the columnar encoder reads the
        #: typed buffers directly); valid up to :attr:`row_count`
        self.lanes: "list[FloatLane | IntLane | VarcharLane | ObjectLane]" = [
            ObjectLane() if sql_types is None else _LANES[sql_types[position]]()
            for position in range(width)
        ]
        self._rows = 0
        self._block_cache: "OrderedDict[tuple[int, ...], np.ndarray]" = (
            OrderedDict()
        )
        #: what folds learned about each cached entry's block
        self._block_facts: dict[tuple[int, ...], BlockFacts] = {}

    @property
    def row_count(self) -> int:
        return self._rows

    @property
    def width(self) -> int:
        return len(self.lanes)

    def append(self, row: Sequence[Any]) -> None:
        for lane, value in zip(self.lanes, row):
            lane.append(value)
        self._rows += 1
        if self._block_cache:
            self._invalidate_cache()

    def extend_columns(self, columns: Sequence[Sequence[Any]]) -> None:
        """Bulk-append column-oriented data (all columns same length).

        *columns* must supply every partition column; lengths are
        validated up front so a short column list can never silently
        desynchronize the lanes.  A zero-width partition accepts only
        an empty sequence (there is nothing to extend).
        """
        if len(columns) != len(self.lanes):
            raise SchemaError(
                f"extend_columns got {len(columns)} columns for a "
                f"{len(self.lanes)}-column partition"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise SchemaError(
                f"extend_columns lengths differ: {sorted(lengths)}"
            )
        added = lengths.pop() if lengths else 0
        if added == 0:
            return
        for lane, source in zip(self.lanes, columns):
            lane.extend(source)
        self._rows += added
        if self._block_cache:
            self._invalidate_cache()

    def rollback_rows(self, count: int) -> None:
        """Remove the last *count* rows (batch-flush failure recovery).

        Appends are strictly at the tail and DML is single-threaded, so
        dropping the tail undoes exactly one earlier ``append`` /
        ``extend_columns`` of the same size.
        """
        if count <= 0:
            return
        if count > self._rows:
            raise SchemaError(
                f"cannot roll back {count} rows from a "
                f"{self._rows}-row partition"
            )
        self._rows -= count
        for lane in self.lanes:
            lane.truncate_tail(count)
        if self._block_cache:
            self._invalidate_cache()

    def values(
        self, position: int, start: int = 0, stop: int | None = None
    ) -> list[Any]:
        """A fresh list of one column's values in ``[start, stop)``
        (*stop* defaults to the published row count; NULL is ``None``)."""
        return self.lanes[position].values(
            start, self._rows if stop is None else stop
        )

    def rows(
        self,
        positions: "Sequence[int] | None" = None,
        stop: int | None = None,
    ) -> Iterator[tuple[Any, ...]]:
        """The first *stop* rows (default: all published) as tuples.

        With *positions*, only those lanes are read; every other slot
        holds :data:`~repro.dbms.lanes.PRUNED`, so tuple positions stay
        the schema's.
        """
        stop = self._rows if stop is None else stop
        if not stop:
            return iter(())
        wanted = range(len(self.lanes)) if positions is None else positions
        return zip(
            *(
                lane.values(0, stop)
                if position in wanted
                else itertools.repeat(PRUNED, stop)
                for position, lane in enumerate(self.lanes)
            )
        )

    def block(
        self,
        positions: Sequence[int],
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """Rows ``[start, stop)`` of the selected columns as a fresh,
        uncached lane-major float block (NULL is NaN)."""
        stop = self._rows if stop is None else stop
        return lane_block(
            stop - start,
            [self.lanes[p].floats(start, stop) for p in positions],
        )

    def has_cached_block(self, positions: Sequence[int]) -> bool:
        """Whether :meth:`numeric_matrix` for this column selection would
        be served from the block cache (EXPLAIN ANALYZE reports this per
        partition task, making repeated-scan speedups visible)."""
        return tuple(positions) in self._block_cache

    def numeric_matrix(self, positions: Sequence[int]) -> np.ndarray:
        """The selected columns as a float matrix (NULL becomes NaN).

        Shape is ``(rows, len(positions))``, lane-major (see
        :mod:`repro.dbms.blocks`); used by the vectorized
        execution paths, which must produce bit-identical results to
        the per-row reference path.  Blocks are cached per column
        selection in an LRU of :data:`BLOCK_CACHE_CAPACITY` entries
        (cleared when the partition is mutated); a cached block is
        read-only, so a write through it raises ``ValueError``.
        """
        return self.numeric_matrix_with_cache_stats(positions)[0]

    def numeric_matrix_with_cache_stats(
        self, positions: Sequence[int]
    ) -> tuple[np.ndarray, BlockCacheStats]:
        """:meth:`numeric_matrix` plus the per-call cache outcome (hit,
        evictions performed) — the straggler-safe accounting variant the
        executor sums into :class:`~repro.dbms.metrics.QueryMetrics`."""
        key = tuple(positions)
        stats = BlockCacheStats()
        if self._rows == 0 or not key:
            # Zero rows or a zero-column projection: nothing to cache.
            return self.block(key), stats
        cached = self._block_cache.get(key)
        if cached is not None:
            stats.hit = True
            stats.facts = self._block_facts.get(key, stats.facts)
            self._block_cache.move_to_end(key)
            return cached, stats
        stacked = self.block(key)
        # Every later scan shares this array: a write would change their
        # answers but not the row path's.
        stacked.flags.writeable = False
        self._block_cache[key] = stacked
        self._block_facts[key] = stats.facts
        while len(self._block_cache) > BLOCK_CACHE_CAPACITY:
            old_key, _ = self._block_cache.popitem(last=False)
            self._block_facts.pop(old_key, None)
            stats.evictions += 1
        return stacked, stats

    def _invalidate_cache(self) -> None:
        """Drop every cached block and its facts (the partition mutated)."""
        self._block_cache.clear()
        self._block_facts.clear()


_NONE_TYPE = type(None)
#: the Python types :func:`coerce_value` returns unchanged, per SQL type
_STORED_TYPES = {
    SqlType.INTEGER: {int, _NONE_TYPE},
    SqlType.FLOAT: {float, _NONE_TYPE},
    SqlType.VARCHAR: {str, _NONE_TYPE},
}
#: the shortest batch whose NULL-free FLOAT and INTEGER columns become
#: float64 and int64 arrays.  Below it, building the arrays costs about
#: what the lane appends and the log encode save: 64-row inserts into a
#: plain 16-AMP table are at parity either way, 128-row inserts 6 %
#: faster as arrays (``benchmarks/write_path.py``, "What a durable
#: insert pays" in ``docs/durability.md``)
ARRAY_MIN_ROWS = 128


def _valid_prefix(
    values: "np.ndarray | Sequence[Any]",
    column: Any,
    stored: "set[type]",
    as_array: "type | None",
) -> "np.ndarray | Sequence[Any]":
    """One insert column as :func:`coerce_value` leaves it, cut before
    the first value the column rejects.  A column holding only its
    *stored* types (``_STORED_TYPES``) is, value for value, what
    ``coerce_value`` returns, so it passes through untouched — as do
    the float64 array a replay hands a FLOAT column and an int64 array
    for an INTEGER column (the lane copies it as it is); only a column of
    other or mixed types pays per-value coercion.  With *as_array* (the
    dtype of a non-key FLOAT or any INTEGER column), a NULL-free column
    of at least :data:`ARRAY_MIN_ROWS` values comes back as one array:
    the array the partition split takes, the lanes copy and the log
    writes.  An INTEGER column becomes one only if it held plain ints
    within int64 from the start (``coerce_value`` keeps an ``int``
    subclass, which an int64 lane would not)."""
    sql_type = column.sql_type
    if isinstance(values, np.ndarray):
        if (values.dtype == np.float64 and sql_type is SqlType.FLOAT) or (
            values.dtype == np.int64 and sql_type is SqlType.INTEGER
        ):
            return values
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds <= stored:
        has_null = _NONE_TYPE in kinds
    else:
        if sql_type is SqlType.INTEGER:
            as_array = None
        coerced: list[Any] = []
        try:
            for value in values:
                coerced.append(coerce_value(value, sql_type))
        except (TypeMismatchError, OverflowError):
            pass  # Table._check_row raises it again, for the row
        values = coerced
        has_null = None in coerced
    if has_null:
        if not column.nullable:
            return values[: values.index(None)]
    elif as_array is not None and len(values) >= ARRAY_MIN_ROWS:
        try:
            return np.fromiter(values, as_array, len(values))
        except OverflowError:
            pass  # an int beyond int64: the lane keeps the objects
    return values


#: keys the recent tier of a :class:`_KeyIndex` holds before they fold
#: into its sorted base: one ``np.insert`` per this many new keys keeps
#: the set small and the base's copy amortised
_KEY_FOLD = 16_384


def _int64_form(key: Any) -> "int | None":
    """The int within int64 that *key* equals (a bool equals 0 or 1, an
    integral float its int), or ``None`` when there is none."""
    if type(key) is not int:
        if not isinstance(key, (int, float)):
            return None
        if isinstance(key, float) and not key.is_integer():
            return None
        key = int(key)
    return key if _INT64_MIN <= key <= _INT64_MAX else None


def _is_int64(keys: "np.ndarray | Sequence[Any]") -> bool:
    """Whether a batch of keys is an int64 array (a typed key column)."""
    return isinstance(keys, np.ndarray) and keys.dtype == np.int64


class _KeyIndex:
    """A table's primary-key values, with ``set`` semantics (``1``,
    ``1.0`` and ``True`` are one key; two NaN objects are two).

    New keys go to a bounded set of *recent* keys.  When it reaches
    :data:`_KEY_FOLD` keys it folds: its plain ints within int64 go into
    a sorted int64 *base* (8 bytes a key) with one ``searchsorted`` +
    ``np.insert`` (a concatenate when every one is above the base's
    maximum), and every other key — VARCHAR and FLOAT keys, NULL, ints
    past int64, bools — into the *other* set, where it stays a Python
    object: the overflow tier, as in :class:`~repro.dbms.lanes.IntLane`.
    An int64 batch (an INTEGER key column the write path typed) of that
    many keys merges into the base directly.  The three tiers are
    disjoint.
    """

    __slots__ = ("_base", "_low", "_high", "_recent", "_other")

    def __init__(self) -> None:
        self._base = np.empty(0, np.int64)
        #: the base's first and last key as Python ints (None: empty),
        #: so a key outside them skips the search
        self._low: "int | None" = None
        self._high: "int | None" = None
        self._recent: set[Any] = set()
        self._other: set[Any] = set()

    def __len__(self) -> int:
        return len(self._base) + len(self._recent) + len(self._other)

    def __contains__(self, key: Any) -> bool:
        return key in self._recent or key in self._other or self._in_base(key)

    def keys(self) -> list[Any]:
        """Every key, the base's as Python ints."""
        return [*self._base.tolist(), *self._recent, *self._other]

    def _in_base(self, key: Any) -> bool:
        if self._high is None:
            return False
        value = _int64_form(key)
        if value is None or not self._low <= value <= self._high:
            return False
        base = self._base
        return int(base[base.searchsorted(value)]) == value

    def _base_holds_any(self, ints: np.ndarray) -> bool:
        """Whether the base holds any of the int64 *ints*."""
        base = self._base
        positions = base.searchsorted(ints)
        np.minimum(positions, len(base) - 1, out=positions)
        return bool((base[positions] == ints).any())

    def _sets_hold_any(self, keys: "np.ndarray | Sequence[Any]") -> bool:
        """Whether the recent or the other tier holds any of *keys* (an
        array becomes Python values only if a tier is non-empty)."""
        recent, other = self._recent, self._other
        if not (recent or other):
            return False
        keys = as_list(keys)
        return bool(
            (recent and not recent.isdisjoint(keys))
            or (other and not other.isdisjoint(keys))
        )

    def _holds_any(
        self, fresh: "set[Any]", keys: "Sequence[Any]", span: Any
    ) -> bool:
        """Whether the index holds any of *keys*, whose distinct values
        are *fresh* (*span* as in :meth:`first_repeat`)."""
        if self._sets_hold_any(fresh):
            return True
        if self._high is None:
            return False
        if len(fresh) > 1:
            if span is _UNCLASSIFIED:
                span = int_key_span(keys)
            try:
                low, high = (min(keys), max(keys)) if span is None else span
                # Sound with NaNs too: min and max then return a NaN,
                # which compares false, or the bound of the others.
                outside = low > self._high or high < self._low
            except TypeError:  # keys that do not order with ints
                pass
            else:
                if outside:
                    return False
                if (
                    span is not None
                    and _INT64_MIN <= low
                    and high <= _INT64_MAX
                ):
                    return self._base_holds_any(
                        np.fromiter(fresh, np.int64, len(fresh))
                    )
        return any(map(self._in_base, fresh))

    def first_repeat(
        self,
        keys: "np.ndarray | Sequence[Any]",
        values: "Sequence[Any] | None" = None,
        span: Any = _UNCLASSIFIED,
    ) -> int:
        """The position of the first key of the batch that equals an
        earlier key of the batch or one the index holds; ``len(keys)``
        when there is none.  *values* is an array batch's keys as Python
        values, and *span* a list batch's :func:`int_key_span`, when the
        caller has them already."""
        count = len(keys)
        if not count:
            return 0
        if _is_int64(keys):
            if count >= _KEY_FOLD:
                self._fold()  # a large batch meets the base alone
            ordered = np.sort(keys)
            if not (
                (ordered[1:] == ordered[:-1]).any()
                or self._sets_hold_any(keys if values is None else values)
                or (
                    self._high is not None
                    and ordered[0] <= self._high
                    and ordered[-1] >= self._low
                    and self._base_holds_any(ordered)
                )
            ):
                return count
        else:
            keys = as_list(keys)
            fresh = set(keys)
            if len(fresh) == count and not self._holds_any(fresh, keys, span):
                return count
        seen: set[Any] = set()
        for position, key in enumerate(as_list(keys)):
            if key in seen or key in self:
                return position
            seen.add(key)
        return count

    def add(
        self,
        keys: "np.ndarray | Sequence[Any]",
        values: "Sequence[Any] | None" = None,
    ) -> None:
        """Add a batch of keys :meth:`first_repeat` found new (*values*
        as there)."""
        if _is_int64(keys) and len(keys) >= _KEY_FOLD:
            self._merge(keys)
            return
        self._recent.update(as_list(keys) if values is None else values)
        if len(self._recent) >= _KEY_FOLD:
            self._fold()

    def _fold(self) -> None:
        """Move the recent keys into the base and the other set."""
        recent = self._recent
        if not recent:
            return
        self._recent = set()
        kinds = set(map(type, recent))
        if kinds == {int} and (
            _INT64_MIN <= min(recent) and max(recent) <= _INT64_MAX
        ):
            ints = recent
        elif int in kinds:
            ints = {
                key
                for key in recent
                if type(key) is int and _INT64_MIN <= key <= _INT64_MAX
            }
        else:  # strings, floats: every key stays an object
            ints = set()
        if len(ints) < len(recent):
            self._other.update(recent - ints)
        self._merge(np.fromiter(ints, np.int64, len(ints)))

    def _merge(self, ints: np.ndarray) -> None:
        """Insert distinct int64 keys the base does not hold."""
        if not len(ints):
            return
        new = np.sort(ints)
        base = self._base
        if self._high is None or new[0] > self._high:
            self._base = np.concatenate((base, new))
        else:
            self._base = np.insert(base, base.searchsorted(new), new)
        self._low, self._high = int(self._base[0]), int(self._base[-1])


class Table:
    """A partitioned, typed relation."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        partitions: int = 20,
        row_scale: float = 1.0,
    ) -> None:
        if partitions < 1:
            raise SchemaError(f"partition count must be >= 1, got {partitions}")
        if row_scale < 1.0:
            raise SchemaError(f"row scale must be >= 1, got {row_scale}")
        self.name = name
        self.schema = schema
        self.row_scale = row_scale
        #: fault-injection plan for the ``insert.flush`` site; the
        #: catalog installs the database's plan here (NULL_FAULTS =
        #: one attribute check on the hot path)
        self.faults: FaultPlan | NullFaults = NULL_FAULTS
        #: mutation listeners invoked as ``listener(op, table_name,
        #: payload)`` after every *committed* data change — a flushed
        #: insert batch, a bulk load, a truncate.  The catalog points
        #: this at its shared listener list so one subscription (the
        #: write-ahead log) observes every table; a rolled-back flush
        #: never notifies.  Empty by default: the un-durable hot path
        #: pays one truthiness check.
        self.mutation_listeners: "list[Any]" = []
        self._partitions = self._fresh_partitions(partitions)
        self._pk_position = (
            schema.position_of(schema.primary_key)
            if schema.primary_key is not None
            else None
        )
        self._key_index = _KeyIndex()
        self._next_partition = 0
        #: per column, looked up once (hashing an enum member is slow)
        self._stored_types = [
            _STORED_TYPES[column.sql_type] for column in schema.columns
        ]
        #: per column, the dtype a batch may hand it over as: float64
        #: for FLOAT but not the key (a FLOAT key keeps its Python
        #: objects — two NaN objects are two keys), int64 for INTEGER
        self._as_array = [
            np.float64
            if column.sql_type is SqlType.FLOAT and position != self._pk_position
            else np.int64 if column.sql_type is SqlType.INTEGER
            else None
            for position, column in enumerate(schema.columns)
        ]
        #: monotonically increasing mutation counter: bumped once per
        #: successful insert / batch flush / bulk load / truncate.
        #: Serving snapshots pin it.
        self.version = 0
        #: ``version`` as of the last *destructive* mutation (truncate).
        #: While a snapshot's pinned version is >= this, only appends
        #: have happened since, so its pinned prefix is intact.
        self.data_version = 0

    def _fresh_partitions(self, count: int) -> list[Partition]:
        sql_types = [column.sql_type for column in self.schema.columns]
        return [
            Partition(len(sql_types), sql_types)
            for _ in range(count)
        ]

    # ------------------------------------------------------------- properties
    @property
    def partitions(self) -> list[Partition]:
        return self._partitions

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    @property
    def non_empty_partition_count(self) -> int:
        """Partitions currently holding rows — the real task fan-out an
        aggregate over this table produces (plan/trace annotation)."""
        return sum(1 for p in self._partitions if p.row_count)

    @property
    def row_count(self) -> int:
        """Physical rows actually stored."""
        return sum(partition.row_count for partition in self._partitions)

    @property
    def nominal_rows(self) -> float:
        """Rows the cost model charges for (physical × row scale)."""
        return self.row_count * self.row_scale

    @property
    def width(self) -> int:
        return len(self.schema)

    # ---------------------------------------------------------------- inserts
    def _check_row(self, row: Sequence[Any]) -> None:
        """Raise the error that keeps *row* out of the table: what
        :meth:`insert_columns` checks a column at a time, for one row."""
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row has {len(row)} values, table {self.name!r} has "
                f"{len(self.schema)} columns"
            )
        coerced = [
            coerce_value(value, column.sql_type)
            for value, column in zip(row, self.schema.columns)
        ]
        for value, column in zip(coerced, self.schema.columns):
            if value is None and not column.nullable:
                raise ConstraintViolation(
                    f"NULL in NOT NULL column {column.name!r} of {self.name!r}"
                )
        if self._pk_position is not None:
            key = coerced[self._pk_position]
            if key in self._key_index:
                raise ConstraintViolation(
                    f"duplicate primary key {key!r} in {self.name!r}"
                )

    def _notify(self, op: str, payload: "dict[str, Any]") -> None:
        """Tell every mutation listener about one committed change."""
        for listener in self.mutation_listeners:
            listener(op, self.name, payload)

    def insert(self, row: Sequence[Any]) -> None:
        self.insert_many([row])

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows: one transposition, then :meth:`insert_columns`.
        A row of the wrong arity ends the batch like any other invalid
        row: the rows before it commit, then it raises."""
        rows = list(rows)
        width = len(self.schema)
        whole = len(rows)
        if set(map(len, rows)) - {width}:
            whole = next(j for j, row in enumerate(rows) if len(row) != width)
        inserted = (
            self.insert_columns(list(zip(*rows[:whole]))) if whole else 0
        )
        if whole < len(rows):
            self._check_row(rows[whole])
        return inserted

    def insert_columns(self, columns: Sequence[Sequence[Any]]) -> int:
        """Insert a batch held as one sequence per schema column.

        Each column is validated whole (:func:`_valid_prefix`), primary
        keys are checked a batch at a time against the table's
        :class:`_KeyIndex`, rows are routed in input order (so routing
        and PK bookkeeping match a loop of single-row inserts exactly)
        and each partition's lanes are extended once — its block cache
        is cleared once per batch.  Mutation listeners
        (the write-ahead log) get the validated columns in input order:
        what a replay must insert to reproduce the routing.

        Failure semantics (see ``docs/fault_tolerance.md``):

        * **Validation failure** (constraint violation, bad type) at row
          *j*, the first invalid row in input order: rows ``0..j-1`` are
          still inserted and logged, then row *j* raises its error.
        * **Flush failure** (storage error, or the ``insert.flush``
          fault site): partitions already flushed in this batch are
          rolled back, and primary keys, round-robin cursor and version
          move only after the last flush, so the table is bit-identical
          to its pre-batch state and nobody is notified.
        """
        specs = self.schema.columns
        if len(columns) != len(specs):
            raise SchemaError(
                f"insert_columns got {len(columns)} columns, table "
                f"{self.name!r} has {len(specs)}"
            )
        total = len(columns[0])
        if set(map(len, columns)) != {total}:
            raise SchemaError("insert_columns lengths differ")
        lanes = list(
            map(_valid_prefix, columns, specs, self._stored_types, self._as_array)
        )
        valid = min(map(len, lanes))
        fanout = len(self._partitions)
        cursor = self._next_partition
        if self._pk_position is not None:
            column = lanes[self._pk_position][:valid]
            keys = as_list(column)
            span = int_key_span(keys)
            valid = self._key_index.first_repeat(column, keys, span)
            # Teradata's hash distribution, PYTHONHASHSEED-independent:
            # the layout is the same in every process and after reload.
            targets = route_keys(keys[:valid], fanout, span)
        else:
            targets = [(cursor + row) % fanout for row in range(valid)]
            cursor = (cursor + valid) % fanout
        if valid < total:
            lanes = [values[:valid] for values in lanes]
        if valid:
            self._flush(lanes, targets)
            self._next_partition = cursor
            if self._pk_position is not None:
                self._key_index.add(column[:valid], keys[:valid])
            self.version += 1
            if self.mutation_listeners:
                self._notify("insert", {"columns": lanes})
        if valid < total:
            self._check_row(
                [as_list(values[valid : valid + 1])[0] for values in columns]
            )
        return valid

    def _flush(
        self, lanes: Sequence[Sequence[Any]], targets: Sequence[int]
    ) -> None:
        """Extend each partition with its rows of *lanes*, atomically: if
        any partition's flush raises (including the ``insert.flush``
        fault site), those already extended are rolled back first.

        One stable sort of *targets* orders every lane by partition,
        keeping input order within a partition; each partition then
        takes one contiguous slice per lane."""
        faults = self.faults
        if len(targets) == 1:
            runs = [(targets[0], 1)]
        else:
            targets = np.array(targets)
            order = np.argsort(targets, kind="stable")
            take = itemgetter(*order.tolist())
            lanes = [
                values[order] if isinstance(values, np.ndarray) else take(values)
                for values in lanes
            ]
            # (partition, rows) for every partition the batch reaches
            runs = [
                run for run in enumerate(np.bincount(targets).tolist()) if run[1]
            ]
        flushed: list[tuple[Partition, int]] = []
        stop = 0
        try:
            for index, count in runs:
                partition = self._partitions[index]
                if faults.enabled:
                    faults.fire(
                        "insert.flush", partition=index, table=self.name
                    )
                start, stop = stop, stop + count
                if count == 1:
                    partition.append([values[start] for values in lanes])
                else:
                    partition.extend_columns(
                        [values[start:stop] for values in lanes]
                    )
                flushed.append((partition, count))
        except BaseException:
            for partition, added in flushed:
                partition.rollback_rows(added)
            raise

    def bulk_load_arrays(self, columns: dict[str, np.ndarray | Sequence[Any]]) -> int:
        """Fast bulk load from column arrays (the workload-generator path).

        All schema columns must be supplied and be the same length
        (loading zero rows is a clean no-op).  Values are coerced to
        each column's type and every constraint is checked before any
        partition is touched, so a failed load leaves the table as it
        was.  Rows are striped across partitions in contiguous blocks —
        equivalent, for scan and aggregation purposes, to hash
        distribution of a uniformly random key.
        """
        missing = [c.name for c in self.schema.columns if c.name not in columns]
        if missing:
            raise SchemaError(f"bulk load missing columns: {missing}")
        lengths = {len(columns[c.name]) for c in self.schema.columns}
        if len(lengths) > 1:
            raise SchemaError(f"bulk load columns differ in length: {lengths}")
        total = lengths.pop() if lengths else 0
        if total == 0:
            return 0
        ordered = [
            self._coerce_bulk_column(columns[c.name], c)
            for c in self.schema.columns
        ]
        if self._pk_position is not None:
            keys = ordered[self._pk_position]
            if self._key_index.first_repeat(keys) != total:
                raise ConstraintViolation(
                    f"duplicate primary key values in bulk load into {self.name!r}"
                )
            self._key_index.add(keys)
        bounds = np.linspace(0, total, len(self._partitions) + 1).astype(int)
        for index, partition in enumerate(self._partitions):
            start, stop = bounds[index], bounds[index + 1]
            if start == stop:
                continue
            partition.extend_columns([col[start:stop] for col in ordered])
        self.version += 1
        if self.mutation_listeners:
            # Its own op: a replay must come back through
            # bulk_load_arrays to reproduce the striped layout.
            self._notify("bulk_load", {"columns": ordered})
        return total

    def _coerce_bulk_column(
        self, values: "np.ndarray | Sequence[Any]", column: Any
    ) -> "np.ndarray | list[Any]":
        """One bulk-load column in its lane's representation: a float64
        array for a NULL-free FLOAT column, an int64 array for an integer
        array within int64 loaded into an INTEGER column, else a list of
        coerced Python values — :func:`coerce_value` semantics either
        way."""
        array = np.asarray(values)
        kind = array.dtype.kind
        if column.sql_type is SqlType.FLOAT and kind in "fiub":
            return array.astype(np.float64, copy=False)
        if column.sql_type is SqlType.INTEGER and kind in "iu":
            if kind == "i" or array.max() <= np.iinfo(np.int64).max:
                return array.astype(np.int64, copy=False)
            return array.tolist()
        if column.sql_type is SqlType.VARCHAR and kind == "U":
            if isinstance(values, np.ndarray):
                return array.tolist()
            if set(map(type, values)) == {str}:
                # The list's own strings: a numpy str array drops
                # trailing NULs ('a\x00' would load as 'a').
                return list(values)
        # Not *array*: numpy turns a list mixing numbers and strings
        # into all strings.
        raw = values.tolist() if isinstance(values, np.ndarray) else values
        coerced = [coerce_value(value, column.sql_type) for value in raw]
        if not column.nullable and None in coerced:
            raise ConstraintViolation(
                f"NULL in NOT NULL column {column.name!r} of {self.name!r}"
            )
        return coerced

    # ------------------------------------------------------------------ scans
    def scan(
        self, positions: "Sequence[int] | None" = None
    ) -> Iterator[tuple[Any, ...]]:
        """All rows, partition by partition (see :meth:`Partition.rows`
        for *positions*)."""
        for partition in self._partitions:
            yield from partition.rows(positions)

    def rows(
        self, positions: "Sequence[int] | None" = None
    ) -> list[tuple[Any, ...]]:
        return list(self.scan(positions))

    def column_values(self, name: str) -> list[Any]:
        position = self.schema.position_of(name)
        values: list[Any] = []
        for partition in self._partitions:
            values.extend(partition.values(position))
        return values

    def numeric_matrix(self, columns: Sequence[str]) -> np.ndarray:
        """All physical rows of the named numeric columns as one fresh
        lane-major float matrix (NULL is NaN), partition by partition.

        Each column is copied from its lanes straight into place — the
        values and layout of :meth:`Partition.block`, stacked — so a
        whole-table read neither fills the partitions' block caches nor
        evicts from them, and holds no second copy while it stacks.
        """
        positions = [self.schema.position_of(name) for name in columns]
        partitions = [(p, p.row_count) for p in self._partitions]
        total = sum(rows for _, rows in partitions)
        matrix = np.empty((total, len(positions)), order="F")
        start = 0
        for partition, rows in partitions:
            stop = start + rows
            for column, position in enumerate(positions):
                matrix[start:stop, column] = partition.lanes[position].floats(
                    0, rows
                )
            start = stop
        return matrix

    def release(self) -> None:
        """Let go of every row and what was built from them — the
        partitions' lanes, cached blocks and remembered partials, and the
        key index — without a mutation: nothing is notified and the
        version does not move.  The schema and partition count stay, so
        the table reads as empty."""
        for partition in self._partitions:
            partition._invalidate_cache()
        self._partitions = self._fresh_partitions(len(self._partitions))
        self._key_index = _KeyIndex()
        self._next_partition = 0

    def truncate(self) -> None:
        """Remove all rows, keeping the schema and partition layout."""
        self.release()
        self.version += 1
        self.data_version = self.version
        if self.mutation_listeners:
            self._notify("truncate", {})
