"""Wall-clock observability for query execution.

The cost model (:mod:`repro.dbms.cost`) answers "what would this query
have cost on the paper's 2007 hardware?" — an *analytical* number.  This
module answers the orthogonal question "what did this query actually
cost *here*, in real seconds, stage by stage?", which is what the
parallel engine's speedups are measured against.

A :class:`QueryMetrics` record is attached to every
:class:`~repro.dbms.database.QueryResult`.  For aggregate queries the
executor fills the four run-time stages of Section 3.4:

* ``scan_seconds`` — materializing partition blocks / iterating rows,
* ``accumulate_seconds`` — folding rows or blocks into partial states,
* ``merge_seconds`` — combining per-partition partials in partition
  order,
* ``finalize_seconds`` — packing final values (phase 4) and projecting
  the result rows.

Under parallel execution the scan/accumulate stages overlap across
worker threads, so their per-stage seconds are *summed task time*
(comparable to CPU time), while ``total_seconds`` is the end-to-end wall
clock of the statement; ``total_seconds`` shrinking while the stage sums
stay put is exactly what a successful parallel run looks like.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.dbms.trace import Span


@dataclass
class QueryMetrics:
    """Per-statement wall-clock measurements (real seconds, not simulated)."""

    #: configured worker count of the engine that ran the statement
    workers: int = 1
    #: end-to-end wall clock of executing the statement
    total_seconds: float = 0.0
    #: summed per-task time spent materializing partition blocks / rows
    scan_seconds: float = 0.0
    #: summed per-task time spent folding rows/blocks into partial states
    accumulate_seconds: float = 0.0
    #: time spent merging per-partition partials (always serial, in order)
    merge_seconds: float = 0.0
    #: time spent finalizing states and building the result rows
    finalize_seconds: float = 0.0
    #: physical rows folded into aggregate states
    rows_processed: int = 0
    #: non-empty partitions that contributed a partial state
    partitions_processed: int = 0
    #: per-partition tasks handed to the engine (aggregate fan-out or
    #: block-wise projection; 0 = neither ran)
    parallel_tasks: int = 0
    #: number of groups produced by aggregation (1 for a grand aggregate)
    groups: int = 0
    #: summed per-task time spent in block-wise WHERE + projection
    #: (vectorized SELECT path only; not one of the four paper stages)
    project_seconds: float = 0.0
    #: partition block-cache hits/misses this statement incurred.
    #: Summed from per-task local counts merged in partition order —
    #: never read from shared partition state while workers run, so
    #: a straggler task from an earlier (timed-out) statement can never
    #: tear this statement's numbers.
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    #: 1 when the statement's SQL text was found in the database's
    #: statement cache (``Database.execute`` / ``execute_batch`` skipped
    #: the parser); 0 for a miss, a text that is never cached (DML, DDL)
    #: and a statement that did not arrive as text
    statement_cache_hits: int = 0
    #: NULL pre-test passes (``blocks.may_hold_null``, one sweep of a
    #: float block) this statement's folds ran, summed from per-task
    #: counts like the block-cache pair.  A block whose cache entry
    #: already knows it is NULL-free is not swept again.
    null_scans: int = 0
    #: engine task retries spent by this statement (idempotent tasks
    #: only; see PartitionEngine.max_retries)
    task_retries: int = 0
    #: engine task timeouts observed by this statement
    task_timeouts: int = 0
    #: vectorized→row degradations this statement performed (the block
    #: path raised at runtime and the row path re-ran the work)
    fallbacks: int = 0
    #: why the last degradation happened ("" when fallbacks == 0)
    fallback_reason: str = ""
    #: whole-block partials a fold took from a cached block's facts
    #: instead of folding the block again (``summary_cacheable`` UDFs;
    #: 0 cold, one per non-empty partition on a warm repeat)
    partials_reused: int = 0
    #: table scans this batch shared: its input statements minus the
    #: one consolidated scan (``execute_batch``)
    scans_saved: int = 0
    #: physical rows read from table partitions.  Equals
    #: ``rows_processed`` except when a join materializes: the
    #: nested-loop join re-reads every inner row per outer row, so each
    #: join step adds its |outer| + |outer| x |inner| input reads.  A
    #: reused partial still reads its block, so its rows count.
    rows_scanned: int = 0
    #: statements that rode a consolidated batch (``execute_batch``
    #: after the scan-consolidation rewrite proved they share a scan);
    #: 0 for every serially executed statement
    statements_batched: int = 0
    #: joins answered by the factorized path (per-base-table partial
    #: aggregates combined through the key–FK join; the joined table
    #: was never materialized)
    factorized_joins: int = 0
    #: joined-row reads the factorized path avoided: the input reads
    #: the nested-loop join would have performed minus the Σ|base
    #: tables| rows the factorized path actually scanned
    rows_join_avoided: int = 0
    #: cached numeric blocks evicted from partition block caches while
    #: this statement ran (each partition's LRU holds
    #: ``storage.BLOCK_CACHE_CAPACITY`` column selections)
    cache_evictions: int = 0

    def to_dict(self) -> dict[str, float | int]:
        """A plain-dict snapshot; inverse of :meth:`from_dict`.

        Keys are exactly the dataclass field names, so
        ``QueryMetrics.from_dict(m.to_dict()) == m`` always holds and the
        dict is JSON-serializable as-is (bench harness output, logs).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # Backwards-compatible alias (pre-observability name).
    as_dict = to_dict

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryMetrics":
        """Rebuild a record from :meth:`to_dict` output.

        Unknown keys are rejected (they signal a version mismatch);
        missing keys keep their field defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown QueryMetrics fields: {sorted(unknown)}")
        return cls(**dict(data))

    def __repr__(self) -> str:
        stages = ", ".join(
            f"{name}={seconds * 1e3:.3f}ms"
            for name, seconds in self.stage_seconds.items()
        )
        return (
            f"QueryMetrics(workers={self.workers}, "
            f"total={self.total_seconds * 1e3:.3f}ms, {stages}, "
            f"rows={self.rows_processed}, "
            f"partitions={self.partitions_processed}, "
            f"tasks={self.parallel_tasks}, groups={self.groups})"
        )

    @property
    def stage_seconds(self) -> dict[str, float]:
        """The four run-time stages, in the paper's order."""
        return {
            "scan": self.scan_seconds,
            "accumulate": self.accumulate_seconds,
            "merge": self.merge_seconds,
            "finalize": self.finalize_seconds,
        }


@dataclass
class DurabilityMetrics:
    """Session-level counters of a durable database's WAL and recovery.

    Where :class:`QueryMetrics` describes one statement, this record
    accumulates over a durable session's lifetime: how many commit
    records the write-ahead log took, how many bytes they cost, how
    often the log was fsynced, and — after ``open_durable`` reopened an
    existing directory — what recovery had to do.
    """

    #: commit records appended to the write-ahead log
    wal_records: int = 0
    #: serialized bytes those records occupy (header + payload)
    wal_bytes: int = 0
    #: ``fsync`` calls the WAL issued (``always`` mode pays one per
    #: commit, ``batch`` one per ``wal_batch_records``, ``off`` only at
    #: checkpoint/close)
    fsyncs: int = 0
    #: atomic checkpoints completed (manifest swapped, WAL truncated)
    checkpoints: int = 0
    #: times this directory was recovered (0 for a fresh session, 1
    #: after one ``open_durable`` of existing state)
    recoveries: int = 0
    #: WAL records replayed on top of the checkpoint during recovery
    recovery_replayed_records: int = 0
    #: stale records skipped because their LSN predates the checkpoint
    #: (a crash between manifest swap and WAL truncation leaves these)
    recovery_skipped_records: int = 0
    #: torn-tail bytes truncated from the WAL during recovery
    recovery_truncated_bytes: int = 0

    def to_dict(self) -> dict[str, int]:
        """A plain-dict snapshot; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DurabilityMetrics":
        """Rebuild a record from :meth:`to_dict` output (unknown keys
        are rejected, missing keys keep their defaults)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown DurabilityMetrics fields: {sorted(unknown)}"
            )
        return cls(**dict(data))

    def __repr__(self) -> str:
        return (
            f"DurabilityMetrics(wal_records={self.wal_records}, "
            f"wal_bytes={self.wal_bytes}, fsyncs={self.fsyncs}, "
            f"checkpoints={self.checkpoints}, "
            f"recoveries={self.recoveries})"
        )


class StageTimer:
    """Accumulates wall-clock seconds into one stage of a metrics record.

    Not thread-safe: use it from the coordinating thread only.  Engine
    worker tasks time themselves locally and return their elapsed
    seconds for the coordinator to sum (see the executor's partition
    tasks), so no metrics record is ever written from two threads.

    When EXPLAIN ANALYZE is tracing, the executor passes the stage's
    :class:`~repro.dbms.trace.Span` as *span*: the timer then writes the
    *same* measured float to both the metrics field and the span, which
    is what lets tests assert the span tree reconciles with the stage
    totals exactly.
    """

    def __init__(
        self,
        metrics: QueryMetrics,
        stage: str,
        span: "Span | None" = None,
    ) -> None:
        self._metrics = metrics
        self._attribute = f"{stage}_seconds"
        self._span = span
        if not hasattr(metrics, self._attribute):
            raise AttributeError(f"QueryMetrics has no stage {stage!r}")

    def __enter__(self) -> "StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._start
        setattr(
            self._metrics,
            self._attribute,
            getattr(self._metrics, self._attribute) + elapsed,
        )
        if self._span is not None:
            self._span.seconds += elapsed
