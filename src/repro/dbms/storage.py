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
(:mod:`repro.dbms.lanes`): FLOAT columns are float64 buffers, so the
vectorized execution paths (aggregate accumulation and block-wise
SELECT) build their numpy blocks by copying lanes, and the row path
converts only the lanes a statement references back to Python values.
Each partition caches the float block for a given column selection
until the partition is mutated: repeated scans (iterative algorithms,
scoring sweeps) then skip even the lane copy, leaving pure
GIL-releasing numpy work for the parallel engine's threads.  The cache
is an LRU governed by a :class:`BlockCacheConfig`
(entry capacity, default :data:`BLOCK_CACHE_CAPACITY`; optional byte
budget shared across every partition of a database; optional spill
directory) so mixed workloads cannot grow it without bound, and each
partition counts its lifetime cache hits, misses, evictions and spills
— the executor surfaces the per-statement delta in
:class:`~repro.dbms.metrics.QueryMetrics`.

When a byte budget is configured, evicted float blocks can **spill to
disk** instead of being discarded: the block is written to the spill
directory in ``.npy`` form and later reloads come back as read-only
``np.load(..., mmap_mode="r")`` maps whose pages the OS reclaims under
memory pressure.  A scan over float blocks much larger than the budget
then streams — the working set in RAM stays near the budget while the
overflow lives in spill files.  Spill files are invalidated (and
unlinked) whenever their partition mutates, exactly like the in-memory
entries they shadow.

A table may carry a *row scale*: benchmarks store ``n / scale`` physical
rows but the cost model charges for ``n`` (every per-row charge is
linear, so the accounting is exact).  Numeric results always describe the
physical rows.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.dbms.blocks import BlockFacts, lane_block
from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.lanes import PRUNED, FloatLane, ObjectLane
from repro.dbms.schema import TableSchema
from repro.dbms.types import SqlType, coerce_value
from repro.errors import ConstraintViolation, SchemaError, TypeMismatchError

#: default distinct column selections each partition keeps cached as
#: float blocks; the least recently used entry is evicted beyond this
#: (override per database via :class:`BlockCacheConfig`)
BLOCK_CACHE_CAPACITY = 8

#: unique ids for partition spill files (module-lifetime, never reused)
_SPILL_IDS = itertools.count()

#: serializes spill-file reloads: ``np.load`` parses the ``.npy`` header
#: with ``ast.literal_eval``, whose recursion-depth bookkeeping is not
#: thread-safe on CPython 3.11 — two engine threads reloading at once
#: can fail with "AST constructor recursion depth mismatch"
_SPILL_LOAD_LOCK = threading.Lock()


class BlockCacheConfig:
    """Shared block-cache policy for every partition of a database.

    * ``max_entries`` — per-partition LRU entry capacity (the historic
      hard-coded 8).
    * ``max_bytes`` — optional byte budget for cached float blocks,
      accounted **across all partitions sharing this config** (one
      config per ``Database``): when the shared total exceeds it, each
      partition that inserts a block evicts its own LRU entries until
      the total fits or its cache is empty.
    * ``spill_dir`` — optional directory; when set, evicted blocks are
      spilled there instead of discarded, and reloads come back as
      read-only mmaps (see the module docs).

    The byte accounting is a single lock-guarded counter; the lock is
    only ever touched when ``max_bytes`` is configured, so the default
    configuration costs the hot path nothing new.
    """

    def __init__(
        self,
        max_entries: int = BLOCK_CACHE_CAPACITY,
        max_bytes: int | None = None,
        spill_dir: "str | Path | None" = None,
    ) -> None:
        if max_entries < 1:
            raise SchemaError(
                f"block cache needs >= 1 entry, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise SchemaError(
                f"block cache byte budget must be >= 1, got {max_bytes}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._lock = threading.Lock()
        self._current_bytes = 0

    @property
    def current_bytes(self) -> int:
        """Float-block bytes currently charged against the budget."""
        return self._current_bytes

    def charge(self, nbytes: int) -> None:
        with self._lock:
            self._current_bytes += nbytes

    def discharge(self, nbytes: int) -> None:
        with self._lock:
            self._current_bytes -= nbytes

    def over_budget(self) -> bool:
        return (
            self.max_bytes is not None
            and self._current_bytes > self.max_bytes
        )

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


#: the config used when no database installed one (module-level tables)
DEFAULT_BLOCK_CACHE = BlockCacheConfig()


@dataclass
class BlockCacheStats:
    """Per-call cache outcome of one ``numeric_matrix`` request.

    Engine tasks carry one of these back with their partial result so
    the coordinator can sum cache activity in partition order without
    ever reading the shared lifetime counters mid-run (the same
    straggler-safety argument as the hit/miss pair).
    """

    hit: bool = False
    evictions: int = 0
    spilled_blocks: int = 0
    spilled_bytes: int = 0
    #: NULL pre-test passes the task's folds ran over the block
    null_scans: int = 0
    #: what earlier folds learned about the block; a cached block's
    #: facts live (and die) with its cache entry
    facts: BlockFacts = field(default_factory=BlockFacts, compare=False)


def stable_key_hash(key: Any) -> int:
    """A process-independent hash of a primary-key value.

    CRC-32 over a canonical ``type-tag:payload`` byte string.  Unlike
    builtin ``hash``, the result never depends on ``PYTHONHASHSEED``, so
    partition layouts are reproducible run-to-run and survive
    persistence reloads.  Numeric values that compare equal hash equal
    (``3``, ``3.0`` and ``True``→``1`` collapse to one encoding), which
    mirrors Python's own cross-type hash contract.
    """
    if key is None:
        encoded = b"n:"
    elif isinstance(key, (bool, int, float)):
        value = float(key)
        if value.is_integer():
            encoded = b"i:%d" % int(value)
        else:
            encoded = b"f:" + repr(value).encode("ascii")
    elif isinstance(key, str):
        encoded = b"s:" + key.encode("utf-8")
    elif isinstance(key, bytes):
        encoded = b"b:" + key
    else:
        encoded = b"r:" + repr(key).encode("utf-8", "backslashreplace")
    return zlib.crc32(encoded)


class Partition:
    """One horizontal partition: one lane per column.

    *sql_types* picks each lane's representation (FLOAT columns get a
    typed :class:`~repro.dbms.lanes.FloatLane`); without it every lane
    holds Python objects.  ``row_count`` is the *published* length: it
    moves only after every lane holds the new values, so rows below a
    count a reader pinned never change (see :mod:`repro.dbms.lanes`).
    """

    def __init__(
        self,
        width: int,
        cache_config: BlockCacheConfig | None = None,
        sql_types: "Sequence[SqlType] | None" = None,
    ) -> None:
        #: the column lanes themselves (the columnar encoder reads the
        #: typed buffers directly); valid up to :attr:`row_count`
        self.lanes: "list[FloatLane | ObjectLane]" = [
            FloatLane()
            if sql_types is not None and sql_types[position] is SqlType.FLOAT
            else ObjectLane()
            for position in range(width)
        ]
        self._rows = 0
        self._block_cache: "OrderedDict[tuple[int, ...], np.ndarray]" = (
            OrderedDict()
        )
        self.cache_config = cache_config or DEFAULT_BLOCK_CACHE
        #: bytes each cached entry is charged against the shared budget
        self._cache_bytes: dict[tuple[int, ...], int] = {}
        #: what folds learned about each cached entry's block
        self._block_facts: dict[tuple[int, ...], BlockFacts] = {}
        #: spill files shadowing evicted entries (cleared on mutation)
        self._spilled: dict[tuple[int, ...], Path] = {}
        self._spill_id = next(_SPILL_IDS)
        #: lifetime block-cache counters; only this partition's engine
        #: task touches them during a scan, and the coordinator reads
        #: them after the task completes (the future's result is the
        #: happens-before edge), so no locking is needed
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.blocks_spilled = 0
        self.bytes_spilled = 0

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
        if self._block_cache or self._spilled:
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
        if self._block_cache or self._spilled:
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
        if self._block_cache or self._spilled:
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
        selection in an LRU governed by this partition's
        :class:`BlockCacheConfig` (entry capacity, shared byte budget,
        spill-on-evict; cleared when the partition is mutated); callers
        must treat a returned block as read-only.
        """
        return self.numeric_matrix_with_cache_stats(positions)[0]

    def numeric_matrix_with_cache_stats(
        self, positions: Sequence[int]
    ) -> tuple[np.ndarray, BlockCacheStats]:
        """:meth:`numeric_matrix` plus the full per-call cache outcome
        (hit, evictions performed, blocks/bytes spilled) — the
        straggler-safe accounting variant the executor sums into
        :class:`~repro.dbms.metrics.QueryMetrics`.

        A spill-file reload counts as a *hit*: the block is served from
        the cache's disk tier as a read-only mmap without redoing the
        lane copy.
        """
        key = tuple(positions)
        stats = BlockCacheStats()
        if self._rows == 0 or not key:
            # Zero rows or a zero-column projection: nothing to cache.
            return self.block(key), stats
        cached = self._block_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            stats.hit = True
            stats.facts = self._block_facts.get(key, stats.facts)
            self._block_cache.move_to_end(key)
            return cached, stats
        spill_path = self._spilled.get(key)
        if spill_path is not None:
            try:
                with _SPILL_LOAD_LOCK:
                    reloaded = np.load(spill_path, mmap_mode="r")
            except (OSError, ValueError):
                # Spill file raced away (directory cleanup): rebuild.
                self._spilled.pop(key, None)
            else:
                self.cache_hits += 1
                stats.hit = True
                self._cache_insert(key, reloaded, stats)
                return reloaded, stats
        self.cache_misses += 1
        stacked = self.block(key)
        self._cache_insert(key, stacked, stats)
        return stacked, stats

    def _cache_insert(
        self,
        key: tuple[int, ...],
        block: np.ndarray,
        stats: BlockCacheStats,
    ) -> None:
        """Insert a block and enforce the cache policy (evict + spill).

        Spill-backed mmaps are charged zero bytes — the budget tracks
        RAM-resident float blocks, and a mapped spill file's pages are
        the OS's to reclaim.  Eviction is strictly local: under shared
        byte pressure a partition evicts its **own** LRU entries until
        the shared total fits or its cache is empty (which can evict the
        block just inserted — the caller still holds the reference, and
        the next scan streams it back from its spill file).
        """
        config = self.cache_config
        charged = 0 if isinstance(block, np.memmap) else int(block.nbytes)
        self._block_cache[key] = block
        self._cache_bytes[key] = charged
        self._block_facts[key] = stats.facts
        if config.max_bytes is not None and charged:
            config.charge(charged)
        while self._block_cache and (
            len(self._block_cache) > config.max_entries
            or config.over_budget()
        ):
            old_key, old_block = self._block_cache.popitem(last=False)
            old_charged = self._cache_bytes.pop(old_key, 0)
            self._block_facts.pop(old_key, None)
            if config.max_bytes is not None and old_charged:
                config.discharge(old_charged)
            self.cache_evictions += 1
            stats.evictions += 1
            if config.spill_dir is None or old_key in self._spilled:
                continue
            self._spill(old_key, old_block, stats)

    def _spill(
        self,
        key: tuple[int, ...],
        block: np.ndarray,
        stats: BlockCacheStats,
    ) -> None:
        """Write one evicted block to the spill directory (best effort:
        a full disk degrades to plain eviction, never an error)."""
        spill_dir = self.cache_config.spill_dir
        assert spill_dir is not None
        name = f"p{self._spill_id}-" + "_".join(map(str, key)) + ".npy"
        path = spill_dir / name
        try:
            spill_dir.mkdir(parents=True, exist_ok=True)
            with path.open("wb") as handle:
                np.save(handle, block)
        except OSError:  # pragma: no cover - disk full / permissions
            return
        self._spilled[key] = path
        nbytes = int(block.nbytes)
        self.blocks_spilled += 1
        self.bytes_spilled += nbytes
        stats.spilled_blocks += 1
        stats.spilled_bytes += nbytes

    def _invalidate_cache(self) -> None:
        """Drop every cached and spilled block (the partition mutated)."""
        config = self.cache_config
        if config.max_bytes is not None:
            total = sum(self._cache_bytes.values())
            if total:
                config.discharge(total)
        self._block_cache.clear()
        self._cache_bytes.clear()
        self._block_facts.clear()
        if self._spilled:
            for path in self._spilled.values():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
            self._spilled.clear()


def _as_list(column: "np.ndarray | Sequence[Any]") -> "Sequence[Any]":
    return column.tolist() if isinstance(column, np.ndarray) else column


_NONE_TYPE = type(None)
#: the Python types :func:`coerce_value` returns unchanged, per SQL type
_STORED_TYPES = {
    SqlType.INTEGER: {int, _NONE_TYPE},
    SqlType.FLOAT: {float, _NONE_TYPE},
    SqlType.VARCHAR: {str, _NONE_TYPE},
}


def _valid_prefix(
    values: "np.ndarray | Sequence[Any]", column: Any, stored: "set[type]"
) -> "np.ndarray | Sequence[Any]":
    """One insert column as :func:`coerce_value` leaves it, cut before
    the first value the column rejects.  A column holding only its
    *stored* types (``_STORED_TYPES``) is, value for value, what
    ``coerce_value`` returns, so it passes through untouched — as does
    the float64 array a replay hands a FLOAT column; only a column of
    other or mixed types pays per-value coercion."""
    sql_type = column.sql_type
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64 and sql_type is SqlType.FLOAT:
            return values
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds <= stored:
        has_null = _NONE_TYPE in kinds
    else:
        coerced: list[Any] = []
        try:
            for value in values:
                coerced.append(coerce_value(value, sql_type))
        except (TypeMismatchError, OverflowError):
            pass  # Table._check_row raises it again, for the row
        values = coerced
        has_null = None in coerced
    if has_null and not column.nullable:
        return values[: values.index(None)]
    return values


class Table:
    """A partitioned, typed relation."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        partitions: int = 20,
        row_scale: float = 1.0,
        cache_config: BlockCacheConfig | None = None,
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
        #: block-cache policy shared by every partition; the catalog
        #: installs the database's config here (same pattern as faults)
        self.cache_config = cache_config or DEFAULT_BLOCK_CACHE
        self._partitions = self._fresh_partitions(partitions)
        self._pk_position = (
            schema.position_of(schema.primary_key)
            if schema.primary_key is not None
            else None
        )
        self._pk_values: set[Any] = set()
        self._next_partition = 0
        #: per column, looked up once (hashing an enum member is slow)
        self._stored_types = [
            _STORED_TYPES[column.sql_type] for column in schema.columns
        ]
        #: monotonically increasing mutation counter: bumped once per
        #: successful insert / batch flush / bulk load / truncate.  The
        #: database's summary-matrix cache keys freshness on it.
        self.version = 0
        #: ``version`` as of the last *destructive* mutation (truncate).
        #: While a cache entry's version is >= this, only appends have
        #: happened since it was built, so incremental watermark
        #: refresh is sound; otherwise the entry must rebuild.
        self.data_version = 0

    def _fresh_partitions(self, count: int) -> list[Partition]:
        sql_types = [column.sql_type for column in self.schema.columns]
        return [
            Partition(len(sql_types), self.cache_config, sql_types)
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
            if key in self._pk_values:
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
        keys are checked with set operations, rows are routed in input
        order (so routing and PK bookkeeping match a loop of single-row
        inserts exactly) and each partition's lanes are extended once —
        its block cache is cleared once per batch.  Mutation listeners
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
        lanes = list(map(_valid_prefix, columns, specs, self._stored_types))
        valid = min(map(len, lanes))
        fanout = len(self._partitions)
        cursor = self._next_partition
        fresh: set[Any] = set()
        if self._pk_position is not None:
            keys = _as_list(lanes[self._pk_position][:valid])
            fresh = set(keys)
            if len(fresh) != valid or not fresh.isdisjoint(self._pk_values):
                fresh = set()
                for key in keys:
                    if key in fresh or key in self._pk_values:
                        break
                    fresh.add(key)
                valid = len(fresh)
            # Teradata's hash distribution, PYTHONHASHSEED-independent:
            # the layout is the same in every process and after reload.
            targets = [stable_key_hash(key) % fanout for key in keys[:valid]]
        else:
            targets = [(cursor + row) % fanout for row in range(valid)]
            cursor = (cursor + valid) % fanout
        if valid < total:
            lanes = [values[:valid] for values in lanes]
        if valid:
            self._flush(lanes, targets)
            self._next_partition = cursor
            self._pk_values |= fresh
            self.version += 1
            if self.mutation_listeners:
                self._notify("insert", {"columns": lanes})
        if valid < total:
            self._check_row([values[valid] for values in columns])
        return valid

    def _flush(
        self, lanes: Sequence[Sequence[Any]], targets: Sequence[int]
    ) -> None:
        """Extend each partition with its rows of *lanes*, atomically: if
        any partition's flush raises (including the ``insert.flush``
        fault site), those already extended are rolled back first."""
        faults = self.faults
        picks: list[list[int]] = [[] for _ in self._partitions]
        for row, target in enumerate(targets):
            picks[target].append(row)
        flushed: list[tuple[Partition, int]] = []
        try:
            for index, (partition, picked) in enumerate(
                zip(self._partitions, picks)
            ):
                if not picked:
                    continue
                if faults.enabled:
                    faults.fire(
                        "insert.flush", partition=index, table=self.name
                    )
                if len(picked) == 1:
                    partition.append([values[picked[0]] for values in lanes])
                else:
                    take = itemgetter(*picked)
                    partition.extend_columns([
                        values[picked]
                        if isinstance(values, np.ndarray)
                        else take(values)
                        for values in lanes
                    ])
                flushed.append((partition, len(picked)))
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
            key_set = set(_as_list(ordered[self._pk_position]))
            if len(key_set) != total or key_set & self._pk_values:
                raise ConstraintViolation(
                    f"duplicate primary key values in bulk load into {self.name!r}"
                )
            self._pk_values.update(key_set)
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
        array for a NULL-free FLOAT column, else a list of coerced
        Python values — :func:`coerce_value` semantics either way."""
        array = np.asarray(values)
        kind = array.dtype.kind
        if column.sql_type is SqlType.FLOAT and kind in "fiub":
            return array.astype(np.float64, copy=False)
        if (column.sql_type is SqlType.INTEGER and kind in "iu") or (
            column.sql_type is SqlType.VARCHAR and kind == "U"
        ):
            return array.tolist()
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
        """All physical rows of the named numeric columns as a matrix."""
        positions = [self.schema.position_of(name) for name in columns]
        blocks = [
            partition.numeric_matrix(positions)
            for partition in self._partitions
            if partition.row_count
        ]
        if not blocks:
            return np.empty((0, len(columns)))
        return np.vstack(blocks)

    def install_cache_config(self, config: BlockCacheConfig) -> None:
        """Swap the block-cache policy on this table and every partition.

        Existing cached/spilled blocks are invalidated first so byte
        accounting never straddles two configs.
        """
        self.cache_config = config
        for partition in self._partitions:
            partition._invalidate_cache()
            partition.cache_config = config

    def truncate(self) -> None:
        """Remove all rows, keeping the schema and partition layout."""
        for partition in self._partitions:
            partition._invalidate_cache()
        self._partitions = self._fresh_partitions(len(self._partitions))
        self._pk_values.clear()
        self._next_partition = 0
        self.version += 1
        self.data_version = self.version
        if self.mutation_listeners:
            self._notify("truncate", {})
