"""Plan execution over partitioned storage.

The executor runs bound SELECT/DML statements.  Two execution styles
coexist:

* a **row path** — compiled closures evaluated row by row — which is the
  reference semantics for everything, and
* a **vector path** used for aggregation over a single unfiltered base
  table: argument expressions compile to numpy functions per partition
  block, and aggregates that implement vectorized accumulation fold whole
  blocks at once.  This mirrors how a real engine pipelines an aggregate
  over a scan, and it must produce exactly the row path's results (tests
  compare the two).

Aggregation is partition-parallel in the paper's sense: one state per
partition (AMP), then a partial-result merge — the four run-time stages
of Section 3.4.  Every fan-out — both aggregation paths, batched
statements, block-wise projections, factorized folds — is one call of
:meth:`Executor._scan_partitions`, which runs one
:class:`repro.dbms.engine.PartitionEngine` task per partition, so a
database configured with ``executor_workers > 1`` runs partitions
concurrently; partials are always merged in partition order, which keeps
results bit-identical to serial execution.  Real (wall-clock) per-stage
timings land in a :class:`repro.dbms.metrics.QueryMetrics` record.

Simulated time: a statement only adds what ran — nominal rows ×
width scanned, expression nodes, UDF calls, spooled cells, sorted rows,
inserted values — to one :class:`repro.dbms.cost.Work` record, and
:meth:`Executor.execute` charges :func:`repro.dbms.cost.simulate` of it
once, at the end.  The row and block routes add the same quantities, so
a degraded attempt has nothing to unwind.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core import factorized as fcore
from repro.dbms.blocks import ScanBlock, key_codes, keyed_fold, take_rows
from repro.dbms.catalog import Catalog
from repro.dbms.cost import CostModel, Work, record_aggregate
from repro.dbms.engine import PartitionEngine
from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.metrics import QueryMetrics, StageTimer
from repro.dbms.expressions import (
    ArgumentBlockPlan,
    VectorFunction,
    compile_argument_block,
    compile_row_expression,
    compile_vector_expression,
    referenced_columns_of_all,
)
from repro.dbms.functions import AGGREGATE_BUILTINS, SCALAR_BUILTINS, AggregateFunction
from repro.dbms.schema import Column, TableSchema
from repro.dbms.sql import ast
from repro.dbms.sql.factorize import (
    FactorizeDecision,
    factorized_reads,
    plan_factorize,
)
from repro.dbms.sql.plan import Plan, build_plan
from repro.dbms.sql.vectorized import (
    BlockItem,
    RawColumnItem,
    VectorizedSelectPlan,
    plan_vectorized_select,
    produces_floats,
)
from repro.dbms.sql.planner import (
    AggregateCall,
    Binder,
    BoundColumn,
    output_name,
    select_aggregates,
    substitute,
)
from repro.dbms.storage import BlockCacheStats, Table
from repro.dbms.trace import NULL_TRACER, Span, Tracer
from repro.dbms.types import SqlType
from repro.dbms.udf import AggregateUdf
from repro.errors import (
    ExecutionError,
    PartitionExecutionError,
    PlanningError,
)


@dataclass
class Relation:
    """A runtime relation: bound columns plus materialized rows.

    ``base_table`` is set when the relation is a pure, unfiltered scan of
    one stored table — the case where partition structure and the vector
    path are available.  ``statement`` is then the SELECT scanning it,
    whose clauses decide which lanes a row scan reads (:attr:`lanes`).
    ``row_scale`` carries the cost-model scale of the underlying data
    through joins and projections.
    """

    columns: list[BoundColumn]
    rows: list[tuple] = field(default_factory=list)
    row_scale: float = 1.0
    base_table: Table | None = None
    _materialized: bool = True
    statement: "ast.Select | None" = None

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def physical_rows(self) -> int:
        if self.base_table is not None and not self._materialized:
            return self.base_table.row_count
        return len(self.rows)

    @property
    def nominal_rows(self) -> float:
        return self.physical_rows * self.row_scale

    def materialize(self) -> "Relation":
        if self.base_table is not None and not self._materialized:
            self.rows = self.base_table.rows(self.lanes)
            self._materialized = True
        return self

    @cached_property
    def lanes(self) -> "tuple[int, ...] | None":
        """Column positions a row scan of ``base_table`` reads (``None``
        = all); the other tuple slots hold
        :data:`~repro.dbms.lanes.PRUNED`.  Worked out on first use: the
        vector path never asks."""
        if self.statement is None:
            return None
        return _referenced_lanes(self.statement, self.columns)

    @property
    def lanes_read(self) -> str:
        """``k/width`` of the base table's lanes a row scan reads."""
        width = len(self.columns)
        read = width if self.lanes is None else len(self.lanes)
        return f"{read}/{width}"

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]


def _referenced_lanes(
    select: ast.Select, columns: Sequence[BoundColumn]
) -> "tuple[int, ...] | None":
    """Positions of the base-table *columns* that *select* references in
    any clause — what a row scan must read; ``None`` means all (a bare
    ``*``, this binding's ``t.*``, or every column named)."""
    expressions = [item.expression for item in select.items]
    for star in expressions:
        if isinstance(star, ast.Star) and (
            star.table is None
            or any(c.matches(ast.ColumnRef(c.name, star.table)) for c in columns)
        ):
            return None
    expressions.extend(select.group_by)
    expressions.extend(expr for expr, _ in select.order_by)
    clauses = (select.where, select.having, *(j.condition for j in select.joins))
    expressions.extend(clause for clause in clauses if clause is not None)
    refs = referenced_columns_of_all(expressions)
    lanes = tuple(
        position
        for position, column in enumerate(columns)
        if any(column.matches(ref) for ref in refs)
    )
    return None if len(lanes) == len(columns) else lanes


def _base_scan(table: Table, binding: str, statement: ast.Select) -> Relation:
    columns = [BoundColumn(binding, column.name) for column in table.schema.columns]
    return Relation(
        columns=columns,
        rows=[],
        row_scale=table.row_scale,
        base_table=table,
        _materialized=False,
        statement=statement,
    )


class _Reads(NamedTuple):
    """What every partition task of one fan-out reads, in firing order.

    ``rows`` is ``(lanes, sites)`` when the task scans row tuples —
    *lanes* are the column positions read (``None`` = all), the other
    tuple slots hold :data:`~repro.dbms.lanes.PRUNED`; ``blocks`` holds
    one ``(positions, sites)`` per float block.  *sites* are the
    UDF-declared ``(fault site, udf name)`` pairs armed right after that
    read.
    """

    rows: "tuple | None" = None
    blocks: tuple = ()


class _TaskResult(NamedTuple):
    """What one partition task hands back to the coordinator."""

    partial: Any
    #: rows this task adds to ``rows_processed``
    rows: int
    #: whether the partition counts toward ``partitions_processed``
    productive: bool
    scan_seconds: float
    fold_seconds: float
    cache_stats: "list[BlockCacheStats]"


def _scan_partition(
    source: Any,
    pid: int,
    faults: "FaultPlan | NullFaults",
    reads: _Reads,
    body: Callable[[Any, "list[tuple] | None", "list[ScanBlock]"], tuple],
) -> _TaskResult:
    """The one partition task: read what *reads* names, then fold.

    *source* is the :class:`~repro.dbms.storage.Partition` scanned.
    Fault sites fire in a fixed order:
    ``partition.scan`` and the row read's declared sites, then per block
    ``block.materialize`` and that block's declared sites.  *body* gets
    ``(source, rows, blocks)`` — each block a
    :class:`~repro.dbms.blocks.ScanBlock`, so what the cache knows about
    it reaches the fold — and returns the first three fields of the
    :class:`_TaskResult`; the two ``perf_counter`` deltas are the task's
    scan and fold stage seconds.
    """
    armed = faults.enabled
    scan_start = time.perf_counter()
    rows = None
    if reads.rows is not None:
        lanes, sites = reads.rows
        if armed:
            faults.fire("partition.scan", partition=pid)
        rows = list(source.rows(lanes))
        if armed:
            for site, udf in sites:
                faults.fire(site, partition=pid, udf=udf)
    blocks: list[ScanBlock] = []
    cache_stats = []
    for positions, sites in reads.blocks:
        if armed:
            faults.fire("block.materialize", partition=pid)
        block, stats = source.numeric_matrix_with_cache_stats(positions)
        if armed:
            for site, udf in sites:
                faults.fire(site, partition=pid, udf=udf)
        blocks.append(ScanBlock(block, stats))
        cache_stats.append(stats)
    fold_start = time.perf_counter()
    folded = body(source, rows, blocks)
    done = time.perf_counter()
    return _TaskResult(
        *folded, fold_start - scan_start, done - fold_start, cache_stats
    )


def _fold_rows_into(
    rows: Sequence[tuple],
    aggregates: list["_AggregateSpec"],
    group_fns: list[Callable[[tuple], Any]],
    where_fn: Callable[[tuple], Any] | None,
) -> tuple[dict[tuple, list[Any]], int]:
    """Fold *rows* into a fresh per-group partial-state dict.

    The single row-path accumulation loop: partition tasks call it for
    one partition's rows (once per statement of a shared scan), and the
    serial path calls it for a materialized relation — one source of
    truth, so a batched statement's partials are the very floats its
    serial execution would produce.  Returns ``(partials, rows folded)``.
    """
    local: dict[tuple, list[Any]] = {}
    folded = 0
    for row in rows:
        if where_fn is not None and where_fn(row) is not True:
            continue
        key = tuple([fn(row) for fn in group_fns])
        states = local.get(key)
        if states is None:
            # A NaN key (v != v) misses every lookup: it is the NULL group,
            # as on the block path.
            key = tuple([None if v != v else v for v in key])
            states = local.setdefault(key, [s.initialize() for s in aggregates])
        for index, spec in enumerate(aggregates):
            states[index] = spec.accumulate_row(states[index], row)
        folded += 1
    return local, folded


def _fold_vector_block(
    block: ScanBlock,
    aggregates: list["_AggregateSpec"],
    group_vector_fns: list[Any],
    int_keys: Sequence[bool],
) -> dict[tuple, list[Any]]:
    """Fold one partition's column block into per-group partial states
    — the vector-path counterpart of :func:`_fold_rows_into`: one
    :func:`~repro.dbms.blocks.keyed_fold` over the key codes.  Keys are
    the row path's: NaN is the one NULL group, ``-0.0`` and ``0.0`` one
    group keyed by the value seen first, and a key is an ``int`` exactly
    when its expression is integer-typed (*int_keys*, from plan time).
    """

    if not group_vector_fns:
        return {(): [spec.fold_block(block) for spec in aggregates]}
    arrays = [fn(block.array) for fn in group_vector_fns]
    firsts, folded = keyed_fold(
        key_codes(arrays),
        block,
        lambda sub: [spec.accumulate_vector(spec.initialize(), sub)
                     for spec in aggregates],
        lane_major=True,
    )
    # v != v is the NaN test; NaN carried NULL.
    columns = [
        [None if v != v else int(v) if integer else v
         for v in array[firsts].tolist()]
        for array, integer in zip(arrays, int_keys)
    ]
    return dict(zip(zip(*columns), folded))


def _fold_statements(
    statements: "list[_BatchStatement]",
    shared: bool,
    source: Any,
    rows: "list[tuple] | None",
    blocks: "list[ScanBlock]",
) -> tuple[list[dict[tuple, list[Any]]], int, bool]:
    """Shared-scan fold body: one partial-state dict per statement.

    Row statements fold the task's one row scan, vector statements their
    own block (in statement order).  Rows counted are the partition's
    physical rows — read ONCE however many statements they fed, the
    number the shared scan is for — except for a lone row-path statement
    outside a batch, which reports the rows that passed its WHERE.
    """
    counted = len(rows) if rows is not None else blocks[0].array.shape[0]
    vector_blocks = iter(blocks)
    locals_out = []
    for stmt in statements:
        if stmt.use_vector:
            local = _fold_vector_block(
                next(vector_blocks),
                stmt.aggregates,
                stmt.group_vector_fns,
                stmt.int_keys,
            )
        else:
            local, folded = _fold_rows_into(
                rows, stmt.aggregates, stmt.group_fns, stmt.where_fn
            )
            if not shared:
                counted = folded
        locals_out.append(local)
    return locals_out, counted, any(locals_out)


def _project_block(
    items: "Sequence[RawColumnItem | BlockItem]",
    where_fn: "VectorFunction | None",
    source: Any,
    rows: None,
    blocks: "list[ScanBlock]",
) -> tuple[list[tuple], int, bool]:
    """Projection fold body: apply the WHERE truth vector to the block,
    then evaluate the select items as numpy functions (filter first,
    then project — so, like the row path, item expressions never see
    filtered-out rows).  Raw column items are read from the source's
    lanes as Python values; block items restore NaN to None (and 1-based
    subscripts to int) per row."""
    (read,) = blocks
    block = read.array
    keep_list: list[int] | None = None
    if where_fn is None:
        sub = block
    else:
        keep = np.flatnonzero(where_fn(block) == 1.0)
        sub = take_rows(block, keep)
        keep_list = keep.tolist()
    columns: list[list[Any]] = []
    for item in items:
        if isinstance(item, RawColumnItem):
            values = source.values(item.position)
            if keep_list is not None:
                values = [values[i] for i in keep_list]
        elif item.integer_result:
            # v != v is the NaN test; NaN carried NULL.
            values = [
                None if v != v else int(v) for v in item.fn(sub).tolist()
            ]
        else:
            values = [None if v != v else v for v in item.fn(sub).tolist()]
        columns.append(values)
    return (list(zip(*columns)) if columns else []), block.shape[0], True


def _fold_star(
    fold: Any, source: Any, rows: "list[tuple] | None", blocks: list
) -> tuple[Any, int, bool]:
    """Factorized fold body: one star fold (dimension or fact side,
    :mod:`repro.core.factorized`) over one partition's *rows*, or over
    its fact block and lanes for a fold that ``reads_block``."""
    if blocks:
        (read,) = blocks
        return fold.fold(source, read.array), len(read.array), True
    return fold.fold(rows), len(rows), bool(rows)


class _BatchStatement:
    """One aggregate statement's fold state in a shared scan.

    Compiled accessors, the path it rides, its group states and finally
    its result relation.  A single-statement aggregate is a shared scan
    of one; in a batch one exists per *distinct* statement (duplicates
    share it).  *aggregates* pairs each call with its aggregate object.
    """

    def __init__(
        self,
        aggregates: "Iterable[tuple[AggregateCall, Any]]",
        group_exprs: Sequence[ast.Expression],
        where: "ast.Expression | None",
        binder: Binder,
        registry: "Executor",
        select: ast.Select,
        env: Relation,
    ) -> None:
        self.select = select
        self.env = env
        self.binder = binder
        self.aggregates = [
            _AggregateSpec(call, aggregate, binder, registry)
            for call, aggregate in aggregates
        ]
        self.group_exprs = list(group_exprs)
        self.group_fns = [
            compile_row_expression(
                expr, binder.resolve, registry._scalar_registry
            )
            for expr in self.group_exprs
        ]
        self.where = where
        self.where_fn = (
            compile_row_expression(
                where, binder.resolve, registry._scalar_registry
            )
            if where is not None
            else None
        )
        self.groups: dict[tuple, list[Any]] = {}
        self.result: Relation | None = None
        #: rides the vector path (set by :meth:`prepare_vector`; a
        #: degraded scan clears it and every statement folds rows)
        self.use_vector = False
        self.group_vector_fns: list[Any] = []
        self.int_keys: tuple[bool, ...] = ()
        self.fused_sites: tuple[tuple[str, str], ...] = ()

    @property
    def block_expressions(self) -> list[ast.Expression]:
        """What the vector path evaluates per block: every aggregate
        call and group key (never the WHERE — a filtered statement folds
        rows)."""
        return [spec.call.call for spec in self.aggregates] + self.group_exprs

    @cached_property
    def block_refs(self) -> list[ast.ColumnRef]:
        """The base columns :attr:`block_expressions` reference — the
        lanes of the statement's block, in block order."""
        return referenced_columns_of_all(self.block_expressions)

    @cached_property
    def block_positions(self) -> tuple[int, ...]:
        """Where each of :attr:`block_refs` sits in the base table."""
        return tuple(self.binder.resolve(ref) for ref in self.block_refs)

    def reset(self) -> None:
        """Blank group states.  SQL semantics: a grand aggregate always
        yields one row, so its state exists before any partial merges."""
        self.groups = {}
        if not self.group_exprs:
            self.groups[()] = [spec.initialize() for spec in self.aggregates]

    def prepare_vector(self, int_keys: Sequence[bool]) -> None:
        """Put the statement on the vector path: compile its group keys
        and aggregate arguments — once — against the block of the
        columns they reference.  The statement stays on rows when one of
        them is outside the block compiler's subset.
        Aggregates that declare a fault site (the fused clustering
        iteration UDFs) have it armed per task, between block
        materialization and accumulation."""
        resolver = _matrix_resolver(self.block_refs)
        group_vector_fns = [
            compile_vector_expression(expr, resolver)
            for expr in self.group_exprs
        ]
        if any(fn is None for fn in group_vector_fns) or not all(
            spec.prepare_vector(resolver) for spec in self.aggregates
        ):
            return
        self.group_vector_fns = group_vector_fns
        self.int_keys = tuple(int_keys)
        self.fused_sites = _fault_sites(self.aggregates)
        self.use_vector = True

    def merge(self, local: dict[tuple, list[Any]]) -> None:
        """Merge one partition's partials.  Called strictly in partition
        order, so group keys keep their scan-order first appearance and
        results are bit-identical at any worker count."""
        for key, partial in local.items():
            states = self.groups.get(key)
            if states is None:
                self.groups[key] = partial
            else:
                for position, spec in enumerate(self.aggregates):
                    states[position] = spec.merge(
                        states[position], partial[position]
                    )


class Executor:
    """Executes statements against a catalog, charging a cost model
    once per statement.

    ``engine`` decides whether per-partition aggregation tasks run
    inline (one worker, the default) or on a thread pool; it may be
    swapped between statements (``Database.executor_workers``).
    """

    def __init__(
        self,
        catalog: Catalog,
        cost: CostModel,
        engine: PartitionEngine | None = None,
    ) -> None:
        self._catalog = catalog
        self._cost = cost
        self.engine = engine or PartitionEngine()
        #: wall-clock record of the most recently executed statement
        self.last_metrics = QueryMetrics()
        #: what the most recent statement ran, priced by the cost model
        self.last_work = Work()
        #: span tracer for the statement in flight; NULL_TRACER (the
        #: default) allocates nothing — only EXPLAIN ANALYZE swaps in a
        #: real Tracer for the duration of the inner statement
        self.tracer = NULL_TRACER
        #: plan of the most recent EXPLAIN [ANALYZE] statement, else None
        self.last_plan: Plan | None = None
        #: whether eligible projections run block-wise (see
        #: :mod:`repro.dbms.sql.vectorized`); toggled via
        #: ``Database.vectorized_select`` — row path when False
        self.vectorized_select = True
        #: fault-injection plan for executor-level sites
        #: (``partition.scan``, ``block.materialize``,
        #: ``udf.compute_batch``, ``udf.fused_iter``); installed by
        #: ``Database(faults=...)``
        self.faults: FaultPlan | NullFaults = NULL_FAULTS
        #: the rewrite pass's decision for the most recent
        #: ``execute_batch`` call (consolidated or refused-with-reason);
        #: None until a batch runs
        self.last_batch_decision: "Any | None" = None
        #: whether eligible star-join aggregates run factorized
        #: (per-base-table partials combined through the key–FK join,
        #: the joined table never materialized); toggled via
        #: ``Database.factorized_joins_enabled``
        self.factorized_joins_enabled = True
        #: the factorize pass's decision for the most recent SELECT
        #: with joins (factorized or refused-with-reason); None before
        #: any — a join-free statement leaves the last one in place
        self.last_factorize_decision: "FactorizeDecision | None" = None

    # ------------------------------------------------ partition-scan operator
    def _scan_partitions(
        self,
        table: Table,
        reads: _Reads,
        body: Callable[[Any, "list[tuple] | None", "list[ScanBlock]"], tuple],
        stage: str = "accumulate",
        attributes: "dict[str, Any] | None" = None,
    ) -> list[Any]:
        """The one partition fan-out: every non-empty partition of
        *table* runs :func:`_scan_partition` — read what *reads* names,
        fold with *body* — and the partials return in partition order,
        so whatever the caller merges left to right is bit-identical at
        any worker count (docs/parallel_engine.md, "The partition-scan
        operator").

        Everything around the fold lives here, once: fault-site arming,
        the scan/fold timing, the engine call, the counters, and — under
        tracing — each task span's
        ``partition``/``rows``/``cached_block``/``lanes_read`` and its
        ``scan`` + *stage* children, built from the *same* deltas added
        to the metrics in the same order, so span totals and stage
        totals are identical floats.  *attributes* ride on every task
        span.
        """
        partitions = table.partitions
        partition_ids = [
            pid
            for pid, partition in enumerate(partitions)
            if partition.row_count
        ]
        tasks = [
            functools.partial(
                _scan_partition, partitions[pid], pid, self.faults, reads, body
            )
            for pid in partition_ids
        ]
        metrics = self.last_metrics
        engine = self.engine
        task_spans: list[Span] | None = None
        if self.tracer.enabled:
            task_spans = []
            # Checked before the tasks run (they populate the cache), so
            # ANALYZE shows which partitions served a pre-built block.
            cached_blocks = [
                all(
                    partitions[pid].has_cached_block(positions)
                    for positions, _ in reads.blocks
                )
                for pid in partition_ids
            ]
        try:
            # Every fan-out is a pure partition scan, so the engine's
            # bounded retries may safely re-run a task.
            results = engine.map(
                tasks,
                task_spans,
                idempotent=True,
                partition_ids=partition_ids,
            )
        finally:
            # Also when the map fails: a degraded statement still
            # reports the retries its failed attempt spent.
            metrics.task_retries += engine.last_task_retries
            metrics.task_timeouts += engine.last_task_timeouts
        metrics.parallel_tasks += len(tasks)
        for result in results:
            metrics.scan_seconds += result.scan_seconds
            if stage == "project":
                metrics.project_seconds += result.fold_seconds
            else:
                metrics.accumulate_seconds += result.fold_seconds
            metrics.rows_processed += result.rows
            metrics.partitions_processed += result.productive
            # Each task reports its own block-cache outcome, so the
            # statement totals are assembled from per-task locals in
            # partition order — immune to a straggler task from another
            # statement.
            for stats in result.cache_stats:
                self._fold_cache_stats(stats)
        partials = [result.partial for result in results]
        if task_spans is None:
            return partials
        self.tracer.attach(task_spans)
        lanes_read = None
        declared = tuple(site for _, sites in reads.blocks for site in sites)
        if reads.rows is not None:
            lanes, sites = reads.rows
            read = table.width if lanes is None else len(set(lanes))
            lanes_read = f"{read}/{table.width}"
            declared = tuple(sites) + declared
        for index, (span, result) in enumerate(zip(task_spans, results)):
            span.attributes["partition"] = partition_ids[index]
            span.attributes["rows"] = result.rows
            if attributes:
                span.attributes.update(attributes)
            if reads.blocks:
                span.attributes["cached_block"] = cached_blocks[index]
            if declared:
                # Zero-cost marker child so ANALYZE shows which tasks ran
                # a fused clustering iteration (``_operator_spans`` skips
                # spans under tasks, so pairing is unaffected).
                marker = ",".join(udf for _, udf in declared)
                span.children.append(
                    Span("fused-iteration", attributes={"udf": marker})
                )
            scan = Span("scan", seconds=result.scan_seconds)
            if lanes_read is not None:
                scan.attributes["lanes_read"] = lanes_read
            span.children.append(scan)
            span.children.append(Span(stage, seconds=result.fold_seconds))
        return partials

    def _fold_cache_stats(self, stats: "BlockCacheStats") -> None:
        """Fold one task's block-cache outcome into this statement's
        metrics (hit or miss, the NULL scans its folds ran, the partials
        they reused and the evictions its insert caused)."""
        metrics = self.last_metrics
        if stats.hit:
            metrics.block_cache_hits += 1
        else:
            metrics.block_cache_misses += 1
        metrics.null_scans += stats.null_scans
        metrics.partials_reused += stats.partials_reused
        metrics.cache_evictions += stats.evictions

    # ----------------------------------------------------------- degradation
    def _vector_then_row(
        self,
        operator: str,
        vector: "Callable[[], Any] | None",
        row: "Callable[[str | None], Any]",
    ) -> Any:
        """Run the *vector* attempt (None: not eligible), degrading to
        the reference *row* path once on any failure.

        Graceful degradation: the block path is an optimization, never a
        correctness requirement.  A runtime failure (kernel bug, injected
        fault, task timeout) retries on the row path with the failed
        attempt's metrics unwound, so the statement reports row-path
        numbers plus the fallback itself.  *row* gets the fallback
        reason, None when nothing failed; its own failures propagate.
        """
        reason: str | None = None
        if vector is not None:
            snapshot = self.last_metrics.to_dict()
            try:
                return vector()
            except Exception as exc:
                reason = self._degrade(operator, snapshot, exc)
        return row(reason)

    def _degrade(
        self, operator: str, snapshot: "dict[str, Any]", exc: BaseException
    ) -> str:
        """Record one degradation — the only place that does: mark the
        failed attempt's *operator* span, unwind its metrics to
        *snapshot*, count the fallback.  Returns the reason text."""
        self._note_failed_span(operator, exc)
        self._rollback_metrics(snapshot)
        reason = _describe_failure(exc)
        self.last_metrics.fallbacks += 1
        self.last_metrics.fallback_reason = reason
        return reason

    def _rollback_metrics(self, snapshot: "dict[str, Any]") -> None:
        """Restore metrics to *snapshot*, keeping the retry/timeout
        counters the failed attempt accrued (real events the degraded
        statement must still report)."""
        metrics = self.last_metrics
        task_retries = metrics.task_retries
        task_timeouts = metrics.task_timeouts
        for name, value in snapshot.items():
            setattr(metrics, name, value)
        metrics.task_retries = task_retries
        metrics.task_timeouts = task_timeouts

    def _note_failed_span(self, operator: str, exc: BaseException) -> None:
        """Mark the span a failed vectorized attempt left behind.

        The attempt's ``with tracer.span(...)`` already closed (the
        exception unwound it), so the span is the last child of the
        innermost open span.  Marking it ``failed`` keeps it visible in
        the ANALYZE trace while :func:`~repro.dbms.sql.plan.
        _operator_spans` skips it when pairing spans with plan
        operators — the row-path retry's span is the one that pairs.
        """
        current = self.tracer.current
        if current is None or not current.children:
            return
        last = current.children[-1]
        if last.name == operator:
            last.attributes["failed"] = True
            last.attributes["error"] = _describe_failure(exc)

    # --------------------------------------------------------------- dispatch
    def execute(
        self, statement: ast.Statement, statement_cache_hits: int = 0
    ) -> Relation:
        started = self._begin(statement_cache_hits)
        try:
            return self._dispatch(statement)
        finally:
            self._end(started)

    def _begin(self, statement_cache_hits: int) -> float:
        """Start one statement, or one consolidated batch: fresh metrics
        and work record.  Returns the wall-clock start for :meth:`_end`."""
        self.last_metrics = QueryMetrics(
            workers=self.engine.workers,
            statement_cache_hits=statement_cache_hits,
        )
        self.last_work = Work()
        self.last_plan = None
        return time.perf_counter()

    def _end(self, started: float) -> None:
        """Close the unit :meth:`_begin` opened: the wall clock, and the
        one charge of the simulated seconds its record prices (also when
        it raised — what ran before the error was paid for)."""
        metrics = self.last_metrics
        metrics.total_seconds = time.perf_counter() - started
        # A materializing join adds its input reads to rows_scanned;
        # every other statement scans exactly the rows it processed.
        metrics.rows_scanned = max(metrics.rows_scanned, metrics.rows_processed)
        self._cost.charge(self.last_work)

    def _dispatch(self, statement: ast.Statement) -> Relation:
        if isinstance(statement, ast.Explain):
            # Adds nothing to the record: plain EXPLAIN costs nothing.
            return self._execute_explain(statement)
        if isinstance(statement, ast.Select):
            self.last_work.statement(len(statement.items))
            return self.execute_select(statement)
        self.last_work.statement(1)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateView):
            self._catalog.create_view(
                statement.name, statement.select, statement.or_replace
            )
            return _empty_result()
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.DropTable):
            self._catalog.drop_table(statement.name, statement.if_exists)
            return _empty_result()
        if isinstance(statement, ast.DropView):
            self._catalog.drop_view(statement.name, statement.if_exists)
            return _empty_result()
        raise PlanningError(f"cannot execute {type(statement).__name__}")

    # --------------------------------------------------------------- EXPLAIN
    def _execute_explain(self, statement: ast.Explain) -> Relation:
        """EXPLAIN renders the optimized plan with cost estimates and
        charges nothing; ANALYZE additionally executes the optimized
        statement under span tracing and annotates each operator with
        its measured wall clock."""
        inner = statement.statement
        if not isinstance(inner, ast.Select):
            raise PlanningError(
                f"EXPLAIN supports SELECT statements, got "
                f"{type(inner).__name__}"
            )
        plan = build_plan(
            self._catalog,
            inner,
            self._cost.params,
            analyze=statement.analyze,
            vectorized_select=self.vectorized_select,
            factorized_joins=self.factorized_joins_enabled,
        )
        if statement.analyze:
            tracer = Tracer()
            self.tracer = tracer
            started = time.perf_counter()
            try:
                self._dispatch(plan.optimized)
            finally:
                self.tracer = NULL_TRACER
            # The outer execute() overwrites this with the full
            # statement wall clock; filling it now lets the rendered
            # text report the inner execution time.
            self.last_metrics.total_seconds = time.perf_counter() - started
            plan.attach_trace(tracer.root, self.last_metrics)
        self.last_plan = plan
        return Relation(
            columns=[BoundColumn(None, "plan")],
            rows=[(line,) for line in plan.render()],
        )

    # ------------------------------------------------------------------- DDL
    def _execute_create_table(self, statement: ast.CreateTable) -> Relation:
        columns = tuple(
            Column(
                definition.name,
                SqlType.from_name(definition.type_name),
                nullable=not definition.not_null,
            )
            for definition in statement.columns
        )
        schema = TableSchema(columns, statement.primary_key)
        self._catalog.create_table(
            statement.name, schema, if_not_exists=statement.if_not_exists
        )
        return _empty_result()

    # ------------------------------------------------------------------- DML
    def _execute_insert(self, statement: ast.Insert) -> Relation:
        table = self._catalog.table(statement.table)
        if statement.select is not None:
            source = self.execute_select(statement.select)
            rows: list[tuple] = source.rows
        else:
            binder = Binder([])
            rows = []
            for value_row in statement.values:
                compiled = [
                    compile_row_expression(expr, binder.resolve, self._scalar_registry)
                    for expr in value_row
                ]
                rows.append(tuple(fn(()) for fn in compiled))
        if statement.columns:
            positions = {
                name.lower(): index for index, name in enumerate(statement.columns)
            }
            full_rows = []
            for row in rows:
                if len(row) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT row has {len(row)} values for "
                        f"{len(statement.columns)} named columns"
                    )
                full = [
                    row[positions[column.name.lower()]]
                    if column.name.lower() in positions
                    else None
                    for column in table.schema.columns
                ]
                full_rows.append(tuple(full))
            rows = full_rows
        inserted = table.insert_many(rows)
        self.last_work.insert(inserted * table.row_scale, table.width)
        return _empty_result()

    def _execute_delete(self, statement: ast.Delete) -> Relation:
        table = self._catalog.table(statement.table)
        self.last_work.scan(table.nominal_rows, table.width)
        if statement.where is None:
            table.truncate()
            return _empty_result()
        columns = [BoundColumn(table.name, c.name) for c in table.schema.columns]
        binder = Binder(columns)
        predicate = compile_row_expression(
            statement.where, binder.resolve, self._scalar_registry
        )
        surviving = [row for row in table.rows() if predicate(row) is not True]
        table.truncate()
        table.insert_many(surviving)
        return _empty_result()

    def _execute_update(self, statement: ast.Update) -> Relation:
        table = self._catalog.table(statement.table)
        self.last_work.scan(table.nominal_rows, table.width)
        columns = [BoundColumn(table.name, c.name) for c in table.schema.columns]
        binder = Binder(columns)
        predicate = (
            compile_row_expression(
                statement.where, binder.resolve, self._scalar_registry
            )
            if statement.where is not None
            else None
        )
        targets: list[tuple[int, Callable[[tuple], Any]]] = []
        for column_name, expression in statement.assignments:
            position = binder.resolve(ast.ColumnRef(column_name))
            targets.append(
                (
                    position,
                    compile_row_expression(
                        expression, binder.resolve, self._scalar_registry
                    ),
                )
            )
        rows = table.rows()
        hits = [predicate is None or predicate(row) is True for row in rows]
        columns: list[Sequence[Any]] = (
            list(zip(*rows)) if rows else [()] * table.width
        )
        # Every assignment reads the *old* row (SQL semantics: SET a = b,
        # b = a swaps); an untouched column goes back as it was read.
        for position, fn in targets:
            columns[position] = [
                fn(row) if hit else row[position]
                for row, hit in zip(rows, hits)
            ]
        table.truncate()
        if rows:
            table.insert_columns(columns)
        self.last_work.insert(sum(hits) * table.row_scale, len(targets))
        return _empty_result()

    # ---------------------------------------------------------------- SELECT
    def execute_select(self, select: ast.Select) -> Relation:
        if select.joins and self.factorized_joins_enabled:
            factorized = self._try_factorized_select(select)
            if factorized is not None:
                return factorized
        env = self._build_from_environment(select)
        aggregate_calls = select_aggregates(select, self._catalog.is_aggregate)
        if aggregate_calls or select.group_by:
            result, order_context = self._execute_aggregate(
                select, env, aggregate_calls
            )
        else:
            if select.having is not None:
                raise PlanningError("HAVING requires GROUP BY or aggregates")
            result, order_context = self._execute_projection(select, env)
        result = self._apply_order_limit(select, result, order_context)
        return result

    # ------------------------------------------------------- batch execution
    def execute_batch(
        self,
        selects: Sequence[ast.Select],
        decision: "Any",
        statement_cache_hits: int = 0,
    ) -> list[Relation]:
        """Run a consolidated batch: one shared scan, N statement results.

        *decision* is the consolidated
        :class:`~repro.dbms.sql.rewrite.BatchDecision` the rewrite pass
        proved safe; refused batches never reach here (the database runs
        them serially).  One metrics record covers the whole batch
        (*statement_cache_hits*: how many of its texts the database's
        statement cache supplied).
        """
        started = self._begin(statement_cache_hits)
        try:
            return self._execute_batch_consolidated(selects, decision)
        finally:
            self._end(started)

    def _execute_batch_consolidated(
        self, selects: Sequence[ast.Select], decision: "Any"
    ) -> list[Relation]:
        table = self._catalog.table(decision.table)
        metrics = self.last_metrics
        metrics.statements_batched += len(selects)
        prepared: list[_BatchStatement] = []
        for input_index in decision.distinct:
            select = selects[input_index]
            # Duplicates of this statement add nothing — folding them
            # into one accumulation is the rewrite's analytical saving.
            self.last_work.statement(len(select.items))
            env = _base_scan(table, select.from_sources[0].binding_name, select)
            calls = select_aggregates(select, self._catalog.is_aggregate)
            prepared.append(self._prepare_statement(select, env, calls))

        # ONE scan for the whole batch — this replaces the scan per
        # statement serial execution records in _relation_for_source.
        self.last_work.scan(table.nominal_rows, table.width)
        self._shared_scan(table, prepared, batch=True)
        for stmt in prepared:
            self._record_aggregate(stmt)
        # Every input statement shares the one scan.
        metrics.scans_saved += len(decision.assignment) - 1

        for stmt in prepared:
            result, order_context = self._finalize_aggregate(
                stmt.select, stmt.aggregates, stmt.group_exprs, stmt.groups
            )
            stmt.result = self._apply_order_limit(
                stmt.select, result, order_context
            )
        return [prepared[position].result for position in decision.assignment]

    def _prepare_statement(
        self,
        select: ast.Select,
        env: Relation,
        aggregate_calls: list[AggregateCall],
    ) -> "_BatchStatement":
        """Compile one aggregate statement's fold state and decide the
        path it rides: the vector path (a partitioned base scan that
        passes the one eligibility test) or rows."""
        binder = Binder(env.columns)
        stmt = _BatchStatement(
            (
                (call, self._aggregate_object(call.name))
                for call in aggregate_calls
            ),
            select.group_by,
            select.where,
            binder,
            self,
            select,
            env,
        )
        stmt.reset()
        table = env.base_table
        if (
            table is not None
            and not env._materialized
            and self._vector_eligible(stmt)
        ):
            stmt.prepare_vector(
                [
                    not produces_floats(expr, self._catalog, table, binder)
                    for expr in stmt.group_exprs
                ]
            )
        return stmt

    def _vector_eligible(self, stmt: "_BatchStatement") -> bool:
        """The one vector-eligibility test (docs/vectorized_execution.md
        lists what each clause costs): no WHERE, every aggregate folds
        blocks, and every referenced base column is numeric — blocks are
        float matrices.  Whether every argument and group key compiles
        to a block function is the last clause, answered by compiling
        them (:meth:`_BatchStatement.prepare_vector`).

        Per statement, not per batch: vector- and row-path results are
        each bit-identical to their serial counterpart but not to each
        other, so a batched statement must ride the same path its serial
        execution would.
        """
        columns = stmt.env.base_table.schema.columns
        return (
            stmt.where_fn is None
            and all(spec.folds_blocks for spec in stmt.aggregates)
            and all(
                columns[position].sql_type.is_numeric
                for position in stmt.block_positions
            )
        )

    def _shared_scan(
        self, table: Table, statements: "list[_BatchStatement]", batch: bool
    ) -> None:
        """One partition-parallel pass feeding every statement's
        accumulators; a single-statement aggregate (``batch=False``) is
        a shared scan of one.

        Each task reads its partition once — one row scan over the union
        of the lanes the row statements reference, plus one column block
        per vector statement — and folds every statement's partials with
        the same fold helpers.  Partials merge strictly in partition
        order per statement, so each statement's result is bit-identical
        to its serial execution at any worker count.

        Degradation: if any statement rides the vector path and the
        fan-out fails, the whole scan rolls back (metrics too, minus
        real retry/timeout counts) and retries once with every statement
        on the row path; an all-row scan propagates its failure.
        """

        def scan(fallback_reason: "str | None" = None) -> None:
            if fallback_reason is not None:
                for stmt in statements:
                    stmt.reset()
                    stmt.use_vector = False
            row_stmts = [stmt for stmt in statements if not stmt.use_vector]
            lanes: "tuple[int, ...] | None" = None
            if all(stmt.env.lanes is not None for stmt in row_stmts):
                lanes = tuple(
                    sorted({p for stmt in row_stmts for p in stmt.env.lanes})
                )
            reads = _Reads(
                rows=(lanes, ()) if row_stmts else None,
                blocks=tuple(
                    (stmt.block_positions, stmt.fused_sites)
                    for stmt in statements
                    if stmt.use_vector
                ),
            )
            with self.tracer.span("aggregate") as span:
                partials = self._scan_partitions(
                    table,
                    reads,
                    functools.partial(_fold_statements, statements, batch),
                    attributes=(
                        {"statements": len(statements)} if batch else None
                    ),
                )
                with self.tracer.span("merge") as merge_span, StageTimer(
                    self.last_metrics, "merge", merge_span
                ):
                    for locals_out in partials:
                        for stmt, local in zip(statements, locals_out):
                            stmt.merge(local)
                if span is None:
                    return
                if batch:
                    strategy = (
                        "shared-scan"
                        if fallback_reason is None
                        else "shared-scan row (fallback)"
                    )
                elif fallback_reason is not None:
                    strategy = "row-partitioned (fallback)"
                elif statements[0].use_vector:
                    strategy = "vectorized"
                else:
                    strategy = "row-partitioned"
                span.attributes["strategy"] = strategy
                if fallback_reason is not None:
                    span.attributes["fallback_reason"] = fallback_reason
                if batch:
                    span.attributes["statements"] = len(statements)
                else:
                    span.attributes["groups"] = len(statements[0].groups)

        vector = any(stmt.use_vector for stmt in statements)
        self._vector_then_row("aggregate", scan if vector else None, scan)

    # ------------------------------------------------------ FROM environment
    def _build_from_environment(self, select: ast.Select) -> Relation:
        sources: list[
            tuple[ast.FromSource, Relation, ast.Expression | None, bool]
        ] = []
        for source in select.from_sources:
            sources.append(
                (source, self._relation_for_source(source, select), None, False)
            )
        for join in select.joins:
            sources.append(
                (
                    join.source,
                    self._relation_for_source(join.source, select),
                    join.condition,
                    join.outer,
                )
            )
        if not sources:
            return Relation(columns=[], rows=[()])
        if len(sources) == 1 and sources[0][2] is None:
            return sources[0][1]

        # Materialize a left-deep nested-loop join across all sources.
        _, current, _, _ = sources[0]
        current = current.materialize()
        for _, right, condition, outer in sources[1:]:
            right = right.materialize()
            # Honest input accounting for the nested loop: every outer
            # row re-reads the whole inner relation, so a join step's
            # physical reads are |outer| + |outer| x |inner| — the
            # number the factorized path's rows_join_avoided is
            # measured against.
            self.last_metrics.rows_scanned += len(current.rows) * (
                1 + len(right.rows)
            )
            with self.tracer.span("join") as join_span:
                joined_columns = current.columns + right.columns
                joined_rows: list[tuple] = []
                if condition is not None:
                    binder = Binder(joined_columns)
                    predicate = compile_row_expression(
                        condition, binder.resolve, self._scalar_registry
                    )
                    null_pad = (None,) * right.width
                    for left_row in current.rows:
                        matched = False
                        for right_row in right.rows:
                            combined = left_row + right_row
                            if predicate(combined) is True:
                                joined_rows.append(combined)
                                matched = True
                        if outer and not matched:
                            # LEFT OUTER: keep the left row, NULL-padded —
                            # the paper's "populating missing values with
                            # nulls" star-join construction.
                            joined_rows.append(left_row + null_pad)
                else:
                    for left_row in current.rows:
                        for right_row in right.rows:
                            joined_rows.append(left_row + right_row)
                if join_span is not None:
                    join_span.attributes["rows"] = len(joined_rows)
            scale = max(current.row_scale, right.row_scale)
            current = Relation(
                columns=joined_columns, rows=joined_rows, row_scale=scale
            )
            self.last_work.spool(len(joined_rows) * scale, len(joined_columns))
        return current

    def _relation_for_source(
        self, source: ast.FromSource, statement: ast.Select
    ) -> Relation:
        if isinstance(source, ast.DerivedTable):
            inner = self.execute_select(source.select).materialize()
            # The derived result is spooled and re-read by the outer query
            # (this is the paper's "two scans on a pivoted version of X").
            self.last_work.spool(inner.nominal_rows, inner.width)
            self.last_work.scan(inner.nominal_rows, inner.width)
            columns = [
                BoundColumn(source.alias, column.name) for column in inner.columns
            ]
            return Relation(
                columns=columns, rows=inner.rows, row_scale=inner.row_scale
            )
        binding = source.binding_name
        if self._catalog.has_view(source.name):
            view_select = self._catalog.view(source.name)
            inner = self.execute_select(view_select).materialize()
            columns = [BoundColumn(binding, column.name) for column in inner.columns]
            return Relation(
                columns=columns, rows=inner.rows, row_scale=inner.row_scale
            )
        table = self._catalog.table(source.name)
        self.last_work.scan(table.nominal_rows, table.width)
        return _base_scan(table, binding, statement)

    # ------------------------------------------------------------ projection
    def _execute_projection(
        self, select: ast.Select, env: Relation
    ) -> "tuple[Relation, _OrderContext]":
        binder = Binder(env.columns)
        items = self._expand_stars(select.items, binder)

        evaluated = [item.expression for item in items]
        if select.where is not None:
            evaluated.append(select.where)
        # Recorded once for both paths — the block path is a pure
        # wall-clock optimization, invisible to the simulated seconds.
        self.last_work.evaluate(
            env.nominal_rows, evaluated, self._catalog.scalar_udf
        )
        plan: "VectorizedSelectPlan | None" = None
        if (
            self.vectorized_select
            and env.base_table is not None
            and not env._materialized
        ):
            plan = plan_vectorized_select(
                self._catalog, select, self.faults
            ).plan
        out_rows, source_rows = self._vector_then_row(
            "project",
            None
            if plan is None
            else functools.partial(self._project_blocks, plan),
            functools.partial(self._project_rows, select, env, binder, items),
        )
        out_columns = [
            BoundColumn(None, output_name(item, position))
            for position, item in enumerate(items)
        ]
        self.last_work.spool(len(out_rows) * env.row_scale, len(out_columns))
        result = Relation(
            columns=out_columns, rows=out_rows, row_scale=env.row_scale
        )
        # ORDER BY may reference source columns not in the select list.
        return result, _OrderContext(source_rows, binder, None)

    def _project_rows(
        self,
        select: ast.Select,
        env: Relation,
        binder: Binder,
        items: Sequence[ast.SelectItem],
        fallback_reason: "str | None",
    ) -> tuple[list[tuple], list[tuple]]:
        """The reference row projection; returns the output rows and the
        filtered source rows ORDER BY may still need."""
        with self.tracer.span("scan") as scan_span, StageTimer(
            self.last_metrics, "scan", scan_span
        ):
            env.materialize()
            if scan_span is not None:
                scan_span.attributes["rows"] = len(env.rows)
                if env.base_table is not None:
                    scan_span.attributes["lanes_read"] = env.lanes_read
        rows = env.rows
        with self.tracer.span("project") as project_span:
            if select.where is not None:
                predicate = compile_row_expression(
                    select.where, binder.resolve, self._scalar_registry
                )
                rows = [row for row in rows if predicate(row) is True]
            compiled = [
                compile_row_expression(
                    item.expression, binder.resolve, self._scalar_registry
                )
                for item in items
            ]
            out_rows = [tuple(fn(row) for fn in compiled) for row in rows]
            if project_span is not None:
                if fallback_reason is None:
                    project_span.attributes["strategy"] = "row"
                else:
                    project_span.attributes["strategy"] = "row (fallback)"
                    project_span.attributes["fallback_reason"] = fallback_reason
                project_span.attributes["rows"] = len(out_rows)
        return out_rows, rows

    def _project_blocks(
        self, plan: VectorizedSelectPlan
    ) -> tuple[list[tuple], list[tuple]]:
        """The block-wise projection: each partition task materializes
        its column block and runs :func:`_project_block`.  Results
        concatenate in partition order, so the output row order equals
        the row path's scan order exactly.  No source rows return: the
        planner guaranteed ORDER BY resolves against the output columns.
        """
        with self.tracer.span("project") as project_span:
            partials = self._scan_partitions(
                plan.table,
                _Reads(blocks=((tuple(plan.positions), ()),)),
                functools.partial(_project_block, plan.items, plan.where_fn),
                stage="project",
                attributes={"strategy": "vectorized-scan"},
            )
            out_rows = [row for rows in partials for row in rows]
            if project_span is not None:
                project_span.attributes["strategy"] = "vectorized-scan"
                project_span.attributes["rows"] = len(out_rows)
        return out_rows, []

    def _expand_stars(
        self, items: Sequence[ast.SelectItem], binder: Binder
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expression, ast.Star):
                for position in binder.positions_for_star(item.expression.table):
                    column = binder.columns[position]
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(column.name, column.binding))
                    )
            else:
                expanded.append(item)
        return expanded

    # ----------------------------------------------------------- aggregation
    def _aggregate_object(self, name: str) -> AggregateFunction | AggregateUdf:
        factory = AGGREGATE_BUILTINS.get(name.lower())
        if factory is not None:
            return factory()
        udf = self._catalog.aggregate_udf(name)
        if udf is None:
            raise PlanningError(f"unknown aggregate {name!r}")
        return udf

    def _execute_aggregate(
        self,
        select: ast.Select,
        env: Relation,
        aggregate_calls: list[AggregateCall],
    ) -> "tuple[Relation, _OrderContext]":
        stmt = self._prepare_statement(select, env, aggregate_calls)
        self._accumulate_groups(stmt)
        self._record_aggregate(stmt)
        return self._finalize_aggregate(
            select, stmt.aggregates, stmt.group_exprs, stmt.groups
        )

    def _finalize_aggregate(
        self,
        select: ast.Select,
        aggregates: list["_AggregateSpec"],
        group_exprs: list[ast.Expression],
        groups: dict[tuple, list[Any]],
    ) -> "tuple[Relation, _OrderContext]":
        """Phase 4: finalize group states and project the result rows.

        Shared by serial execution and ``execute_batch`` — a batched
        statement's states take exactly this path, so the only thing the
        batch changes is how the states were *accumulated*.
        """
        # Build the post-aggregation environment and rewrite select items.
        replacements: dict[str, ast.Expression] = {}
        post_columns: list[BoundColumn] = []
        for index, expr in enumerate(group_exprs):
            name = f"__g{index}"
            replacements[ast.render(expr)] = ast.ColumnRef(name)
            post_columns.append(BoundColumn(None, name))
        for index, spec in enumerate(aggregates):
            name = f"__a{index}"
            replacements[spec.call.key] = ast.ColumnRef(name)
            post_columns.append(BoundColumn(None, name))
        post_binder = Binder(post_columns)

        out_columns = [
            BoundColumn(None, output_name(item, position))
            for position, item in enumerate(select.items)
        ]
        item_fns = []
        for item in select.items:
            rewritten = substitute(item.expression, replacements)
            self._check_no_raw_columns(rewritten, post_binder)
            item_fns.append(
                compile_row_expression(
                    rewritten, post_binder.resolve, self._scalar_registry
                )
            )
        having_fn = None
        if select.having is not None:
            rewritten = substitute(select.having, replacements)
            having_fn = compile_row_expression(
                rewritten, post_binder.resolve, self._scalar_registry
            )

        self.last_metrics.groups += len(groups)
        out_rows: list[tuple] = []
        post_rows: list[tuple] = []
        # Projection of an aggregate query is fused into finalization
        # (one pass packs states and builds output rows), so ANALYZE
        # shows its time under the finalize span, not a project span.
        with self.tracer.span("finalize") as finalize_span, StageTimer(
            self.last_metrics, "finalize", finalize_span
        ):
            for key, states in groups.items():
                finalized = tuple(
                    spec.finalize(state) for spec, state in zip(aggregates, states)
                )
                post_row = key + finalized
                if having_fn is not None and having_fn(post_row) is not True:
                    continue
                post_rows.append(post_row)
                out_rows.append(tuple(fn(post_row) for fn in item_fns))

        self.last_work.result(max(len(out_rows), 1), len(out_columns))
        result = Relation(columns=out_columns, rows=out_rows, row_scale=1.0)

        def rewrite(expression: ast.Expression) -> ast.Expression:
            rewritten = substitute(expression, replacements)
            self._check_no_raw_columns(rewritten, post_binder)
            return rewritten

        return result, _OrderContext(post_rows, post_binder, rewrite)

    def _check_no_raw_columns(
        self, expression: ast.Expression, post_binder: Binder
    ) -> None:
        """After substitution, any remaining column ref must be a synthetic
        group/aggregate column — otherwise the query selected a column
        that is neither aggregated nor in GROUP BY."""
        for node in ast.walk(expression):
            if isinstance(node, ast.ColumnRef):
                if not any(column.matches(node) for column in post_binder.columns):
                    raise PlanningError(
                        f"column {node.display()!r} must appear in GROUP BY "
                        "or inside an aggregate"
                    )

    # ------------------------------------------------------ factorized joins
    def _try_factorized_select(self, select: ast.Select) -> "Relation | None":
        """Run *select* factorized if the planner proves it safe.

        Returns ``None`` to continue on the materializing join path —
        either the pass refused (``last_factorize_decision.reason``
        says why) or a run-time assumption failed mid-build (e.g. a
        duplicated dimension primary key) and the statement degraded
        gracefully, exactly like a vectorized→row fallback.
        """
        decision = plan_factorize(self._catalog, select)
        self.last_factorize_decision = decision
        if not decision.factorized:
            return None
        snapshot = self.last_metrics.to_dict()
        try:
            return self._execute_factorized_aggregate(select, decision)
        except fcore.FactorizedFallback as exc:
            fallback: BaseException = exc
        except PartitionExecutionError as exc:
            # A guard tripping *inside* a partition task (e.g. a
            # duplicate dimension key found while folding one
            # partition's map) surfaces wrapped; unwrap it so the
            # statement still degrades instead of failing.  Genuine
            # task failures (faults, crashes) stay typed errors.
            if not isinstance(exc.first_error, fcore.FactorizedFallback):
                raise
            fallback = exc.first_error
        self._degrade("aggregate", snapshot, fallback)
        return None

    def _execute_factorized_aggregate(
        self, select: ast.Select, decision: FactorizeDecision
    ) -> Relation:
        """Answer a star-join aggregate from per-base-table partials.

        One partition-parallel pass per dimension table builds key →
        feature maps; one pass over the fact table folds FK-grouped
        partials with the shape's fold; its merge and finish weight
        dimension vectors by the fact-side multiplicities
        (:mod:`repro.core.factorized`).  The joined table never exists:
        rows scanned are Σ|base tables|.
        """
        metrics = self.last_metrics
        fact = self._catalog.table(decision.fact_table)
        dim_tables = [self._catalog.table(dim.table) for dim in decision.dims]
        # Binder over the *virtual* joined schema (fact columns, then
        # each dimension's) — aggregate specs resolve against it
        # without any joined relation existing.
        columns = [
            BoundColumn(decision.fact_binding, column.name)
            for column in fact.schema.columns
        ]
        for dim, table in zip(decision.dims, dim_tables):
            columns.extend(
                BoundColumn(dim.binding, column.name)
                for column in table.schema.columns
            )
        binder = Binder(columns)
        aggregate_calls = select_aggregates(select, self._catalog.is_aggregate)
        aggregates = [
            _AggregateSpec(call, self._aggregate_object(call.name), binder, self)
            for call in aggregate_calls
        ]

        base_tables = [fact, *dim_tables]
        for table in base_tables:
            self.last_work.scan(table.nominal_rows, table.width)

        arms = []
        for dim, table in zip(decision.dims, dim_tables):
            # ``dim-scan``, not ``scan``: the per-task ``scan`` spans
            # already carry the measured scan seconds, and
            # ``Span.total_seconds("scan")`` must keep reconciling
            # exactly with ``metrics.scan_seconds``.
            with self.tracer.span("dim-scan") as span:
                fold = fcore.DimensionFold(dim)
                arm = fold.merge(self._factorized_scan(table, fold))
                if span is not None:
                    span.attributes["table"] = table.name
                    span.attributes["rows"] = table.row_count
                    span.attributes["keys"] = len(arm.codes)
            arms.append(arm)

        with self.tracer.span("aggregate") as strategy_span:
            if strategy_span is not None:
                strategy_span.attributes["strategy"] = "factorized-join"
            star = decision.fold_type(decision, arms, aggregates[0].aggregate)
            partials = self._factorized_scan(
                fact, star, _fault_sites(aggregates)
            )
            with self.tracer.span("merge") as merge_span, StageTimer(
                metrics, "merge", merge_span
            ):
                states = star.finish(star.merge(partials))

        metrics.factorized_joins += 1
        metrics.rows_join_avoided += factorized_reads(
            fact.row_count, [table.row_count for table in dim_tables]
        )[2]

        # The select list evaluates once per *fact* row (the argument
        # gathering), and the merge covers every base table's partials.
        record_aggregate(
            self.last_work,
            select,
            fact.nominal_rows,
            _udf_calls(aggregates),
            sum(table.partition_count for table in base_tables),
            1,
            self._catalog.scalar_udf,
        )
        result, order_context = self._finalize_aggregate(
            select, aggregates, [], {(): states}
        )
        return self._apply_order_limit(select, result, order_context)

    def _factorized_scan(
        self,
        table: Table,
        fold: Any,
        sites: "tuple[tuple[str, str], ...]" = (),
    ) -> list[Any]:
        """Fan a star *fold* out over *table*, each task reading the fact
        columns as a block (a fold that ``reads_block``) or only the
        lanes at ``fold.positions``; partials return in partition
        order."""
        reads = (
            _Reads(blocks=((tuple(fold.fact_positions), sites),))
            if fold.reads_block
            else _Reads(rows=(tuple(fold.positions), sites))
        )
        return self._scan_partitions(
            table, reads, functools.partial(_fold_star, fold)
        )

    def _accumulate_groups(self, stmt: "_BatchStatement") -> None:
        env = stmt.env
        if env.base_table is not None and not env._materialized:
            # One partial state per partition (the paper's per-AMP
            # accumulation), merged in partition order — runs
            # concurrently when the engine has workers.
            self._shared_scan(env.base_table, [stmt], batch=False)
            return

        # Materialized relations (joins, derived tables, views) have no
        # partition structure; accumulate serially into a single state.
        env.materialize()
        with self.tracer.span("aggregate") as span:
            with self.tracer.span("accumulate") as accumulate_span, StageTimer(
                self.last_metrics, "accumulate", accumulate_span
            ):
                local, folded = _fold_rows_into(
                    env.rows, stmt.aggregates, stmt.group_fns, stmt.where_fn
                )
                # Not merge(): these ARE the states, in scan order.
                stmt.groups.update(local)
                self.last_metrics.rows_processed += folded
            if span is not None:
                span.attributes["strategy"] = "row-serial"
                span.attributes["groups"] = len(stmt.groups)

    def _record_aggregate(self, stmt: "_BatchStatement") -> None:
        """Add an accumulated statement's work: its WHERE over every
        input row, then the aggregate operator with the actual group
        count (:func:`~repro.dbms.cost.record_aggregate`, which EXPLAIN
        calls with its estimates).  The per-row select list is where the
        long 1+d+d²-term SQL query pays; an aggregate-UDF call is one
        node."""
        env = stmt.env
        rows = env.nominal_rows
        if stmt.where is not None:
            self.last_work.evaluate(rows, [stmt.where])
        table = env.base_table
        record_aggregate(
            self.last_work,
            stmt.select,
            rows,
            _udf_calls(stmt.aggregates),
            table.partition_count if table is not None else 1,
            len(stmt.groups),
            self._catalog.scalar_udf,
        )

    # -------------------------------------------------------- order and limit
    def _apply_order_limit(
        self,
        select: ast.Select,
        result: Relation,
        order_context: "_OrderContext",
    ) -> Relation:
        """Sort and truncate the output.

        ORDER BY expressions resolve in SQL's order of preference:
        an integer literal is an output position; then output columns
        (aliases); then the pre-projection environment — source columns
        not in the select list, or (after aggregation) aggregate
        expressions rewritten onto the group result.
        """
        if select.order_by:
            out_binder = Binder(result.columns)
            key_fns: list[tuple[Callable[[int], Any], bool]] = []
            out_rows = result.rows
            key_rows = order_context.rows
            for expr, ascending in select.order_by:
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    position = expr.value - 1
                    if not 0 <= position < result.width:
                        raise PlanningError(
                            f"ORDER BY position {expr.value} out of range"
                        )
                    key_fns.append(
                        (lambda i, p=position: out_rows[i][p], ascending)
                    )
                    continue
                try:
                    fn = compile_row_expression(
                        expr, out_binder.resolve, self._scalar_registry
                    )
                    key_fns.append(
                        (lambda i, f=fn: f(out_rows[i]), ascending)
                    )
                    continue
                except PlanningError:
                    pass
                rewritten = (
                    order_context.rewrite(expr)
                    if order_context.rewrite is not None
                    else expr
                )
                fn = compile_row_expression(
                    rewritten, order_context.binder.resolve, self._scalar_registry
                )
                key_fns.append((lambda i, f=fn: f(key_rows[i]), ascending))

            with self.tracer.span("sort") as sort_span:
                order = list(range(len(out_rows)))
                for fn, ascending in reversed(key_fns):
                    order.sort(
                        key=lambda i: _sort_key(fn(i)), reverse=not ascending
                    )
                result = Relation(
                    columns=result.columns,
                    rows=[out_rows[i] for i in order],
                    row_scale=result.row_scale,
                )
                if sort_span is not None:
                    sort_span.attributes["rows"] = len(result.rows)
            self.last_work.sort(result.nominal_rows)
        if select.limit is not None:
            result = Relation(
                columns=result.columns,
                rows=result.rows[: select.limit],
                row_scale=result.row_scale,
            )
        return result

    # -------------------------------------------------------------- utilities
    def _scalar_registry(self, name: str) -> Callable[..., Any] | None:
        builtin = SCALAR_BUILTINS.get(name)
        if builtin is not None:
            return builtin
        return self._catalog.scalar_udf(name)


def _udf_calls(aggregates: "list[_AggregateSpec]") -> "list[tuple[Any, int]]":
    """``(aggregate UDF, argument count)`` of every non-builtin call —
    what :func:`~repro.dbms.cost.record_aggregate` prices."""
    return [
        (spec.aggregate, len(spec.call.call.args))
        for spec in aggregates
        if not spec.is_builtin
    ]


def _fault_sites(
    aggregates: "list[_AggregateSpec]",
) -> "tuple[tuple[str, str], ...]":
    """``(fault site, udf name)`` of every call whose UDF declares a
    site (the fused iteration UDFs), armed per task after its read."""
    return tuple(
        (site, spec.call.name)
        for spec in aggregates
        if (site := getattr(spec.aggregate, "fault_site", None))
    )


@dataclass
class _OrderContext:
    """Pre-projection rows/binder for ORDER BY resolution, plus an
    optional expression rewriter (aggregate substitution)."""

    rows: list[tuple]
    binder: Binder
    rewrite: "Callable[[ast.Expression], ast.Expression] | None" = None


def _sort_key(value: Any) -> tuple:
    """NULLs sort last among ascending values; mixed types sort by type name."""
    if value is None:
        return (2, 0)
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


def _empty_result() -> Relation:
    return Relation(columns=[], rows=[])


def _describe_failure(exc: BaseException) -> str:
    """One-line ``fallback_reason`` text: exception type plus message,
    truncated so a pathological message cannot bloat metrics or spans."""
    text = f"{type(exc).__name__}: {exc}"
    if len(text) > 200:
        text = text[:197] + "..."
    return text


def _matrix_resolver(
    refs: list[ast.ColumnRef],
) -> Callable[[ast.ColumnRef], int]:
    """Resolve a column ref to its position in the block of *refs*."""
    mapping = {(ref.table, ref.name.lower()): index for index, ref in enumerate(refs)}

    def resolve(ref: ast.ColumnRef) -> int:
        return mapping[(ref.table, ref.name.lower())]

    return resolve


class _DistinctState:
    """Aggregate state paired with the set of argument tuples seen so far
    (DISTINCT aggregation; row path only).

    Partial states merge: the surviving state unions the seen-sets and
    re-accumulates only the unseen argument tuples (the delta) into its
    inner state, so duplicates spread across partitions count once.
    """

    __slots__ = ("inner", "seen")

    def __init__(self, inner: Any, seen: set) -> None:
        self.inner = inner
        self.seen = seen


def _distinct_merge_order(args: tuple) -> tuple:
    """Sort key for re-accumulating a DISTINCT delta during merge.

    Set iteration order varies with ``PYTHONHASHSEED`` for strings;
    sorting the delta keeps floating-point accumulation order — and so
    the merged state — identical across processes."""
    return tuple(_sort_key(value) for value in args)


class _AggregateSpec:
    """One aggregate call bound to its arguments and execution strategy."""

    def __init__(
        self,
        call: AggregateCall,
        aggregate: AggregateFunction | AggregateUdf,
        binder: Binder,
        executor: Executor,
    ) -> None:
        self.call = call
        self.aggregate = aggregate
        self.is_builtin = isinstance(aggregate, AggregateFunction)
        self._distinct = call.call.distinct
        args = call.call.args
        self._star_args = len(args) == 1 and isinstance(args[0], ast.Star)
        if self._star_args:
            if call.name != "count":
                raise PlanningError(f"'*' argument only valid in COUNT(*)")
            args = ()
        self._arg_exprs = args
        self._row_fns = [
            compile_row_expression(arg, binder.resolve, executor._scalar_registry)
            for arg in args
        ]
        arity = 0 if self._star_args else aggregate.arity
        if arity is not None and len(args) != arity:
            raise PlanningError(
                f"aggregate {call.name!r} expects {arity} arguments, "
                f"got {len(args)}"
            )
        self._vector_fns: list | None = None
        self._argument_block: ArgumentBlockPlan | None = None
        #: what a block remembers this call's whole-block partial under
        #: (None: the call folds every time, see :meth:`fold_block`)
        self._partial_key: Any = None
        self._skips_nulls = aggregate.skips_nulls and bool(args)

    # The vector path is usable when the aggregate object supports block
    # accumulation, the call is not DISTINCT, and all arguments vectorize
    # (prepare_vector's answer).
    @property
    def folds_blocks(self) -> bool:
        if self._distinct:
            return False
        if self.is_builtin:
            return (
                type(self.aggregate).accumulate_vector
                is not AggregateFunction.accumulate_vector
            )
        return getattr(self.aggregate, "supports_block", False)

    def prepare_vector(self, matrix_resolver: Callable[[ast.ColumnRef], int]) -> bool:
        """Compile the arguments against the statement's block; False
        when one of them does not vectorize."""
        if self.is_builtin:
            self._vector_fns = [
                compile_vector_expression(arg, matrix_resolver)
                for arg in self._arg_exprs
            ]
            return all(fn is not None for fn in self._vector_fns)
        plan = compile_argument_block(self._arg_exprs, matrix_resolver)
        self._argument_block = plan
        if plan is None:
            return False
        if self.aggregate.summary_cacheable and plan.key is not None:
            self._partial_key = (self.aggregate, plan.key)
        return True

    def initialize(self) -> Any:
        state = self.aggregate.initialize()
        if self._distinct:
            return _DistinctState(state, set())
        return state

    def merge(self, state: Any, other: Any) -> Any:
        if self._distinct:
            assert isinstance(state, _DistinctState)
            assert isinstance(other, _DistinctState)
            delta = other.seen - state.seen
            for args in sorted(delta, key=_distinct_merge_order):
                state.inner = self.aggregate.accumulate(state.inner, args)
            state.seen |= delta
            return state
        return self.aggregate.merge(state, other)

    def finalize(self, state: Any) -> Any:
        if self._distinct:
            assert isinstance(state, _DistinctState)
            return self.aggregate.finalize(state.inner)
        return self.aggregate.finalize(state)

    def accumulate_row(self, state: Any, row: tuple) -> Any:
        args = tuple(fn(row) for fn in self._row_fns)
        if self._skips_nulls and any(value is None for value in args):
            return state
        if self._distinct:
            assert isinstance(state, _DistinctState)
            if args in state.seen:
                return state
            state.seen.add(args)
            state.inner = self.aggregate.accumulate(state.inner, args)
            return state
        if not self.is_builtin:
            assert isinstance(self.aggregate, AggregateUdf)
            self.aggregate.check_args(args)
        return self.aggregate.accumulate(state, args)

    def fold_block(self, block: ScanBlock) -> Any:
        """The partial of a whole partition block.  A
        ``summary_cacheable`` UDF over argument lanes has one per block,
        so the block's facts remember it (:meth:`ScanBlock.fold_once`)
        and a warm repeat gets a copy: the partition is still the fold
        unit, so answers are bit-identical to folding again."""
        if self._partial_key is None:
            return self.accumulate_vector(self.initialize(), block)
        return block.fold_once(
            self._partial_key,
            lambda: self.accumulate_vector(self.initialize(), block),
            self.aggregate.copy_state,
        )

    def accumulate_vector(self, state: Any, block: ScanBlock) -> Any:
        if self.is_builtin:
            assert self._vector_fns is not None
            assert isinstance(self.aggregate, AggregateFunction)
            array = block.array
            vectors = [fn(array) for fn in self._vector_fns]  # type: ignore[misc]
            result = self.aggregate.accumulate_vector(
                state, vectors, array.shape[0]
            )
            if result is NotImplemented:
                raise ExecutionError(
                    f"aggregate {self.call.name!r} has no vector path"
                )
            return result
        assert isinstance(self.aggregate, AggregateUdf)
        assert self._argument_block is not None
        arg_block = self._argument_block(block.array)
        # A block that passed the NULL pre-test holds no NaN, so neither
        # does an argument block that only copies its lanes and stores
        # non-NULL literals: drop_null_rows would hand it back as it is.
        if self._skips_nulls and not (
            self._argument_block.null_preserving and block.null_free()
        ):
            arg_block = block.drop_null_rows(arg_block)
        return self.aggregate.accumulate_block(state, arg_block)
