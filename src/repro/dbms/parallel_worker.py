"""Worker-process task bodies for the process-pool partition engine.

A :class:`~repro.dbms.engine.PartitionEngine` with ``kind="process"``
never pickles partition data.  The executor publishes each table to the
on-disk columnar format (:mod:`repro.dbms.columnar`) and ships plain
**descriptors** — ``(store root, table, version, partition id)`` plus a
picklable plan fragment (AST expressions, aggregate objects, position
maps).  :func:`run_task` runs in the pool worker: it opens the
partition's block file via ``mmap`` (cached per worker process),
recompiles the plan fragment with the *same* compile functions the
thread path uses (cached per statement fingerprint), folds the
partition, and returns only the partial state.

Every task body here mirrors its thread-path twin in
``repro.dbms.sql.executor`` line for line — same fault-site firing
order, same fold functions (``_fold_rows_into`` / ``_fold_vector_block``
/ the ``repro.core.factorized`` folds), same result tuple shape — so the
coordinator's partition-order merge produces bit-identical answers on
either executor.

Fault protocol: the engine ships each attempt a
:meth:`~repro.dbms.faults.FaultPlan.fork` snapshot; ``run_task``
evaluates fault sites against it and returns the counter deltas (for
**failed** attempts too) so the coordinator can absorb them — the same
per-``(spec, partition)`` hit counts a thread would have produced
against the shared plan.  Errors travel as values (``("err", exc,
meta)``), never as raised exceptions, so the deltas always make it
home; exceptions that cannot pickle are summarized into a typed
:class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.core import factorized as fcore
from repro.dbms.blocks import take_rows
from repro.dbms.columnar import BlockReader
from repro.dbms.expressions import (
    compile_row_expression,
    compile_vector_expression,
)
from repro.dbms.faults import NULL_FAULTS, FaultPlan
from repro.dbms.functions import SCALAR_BUILTINS
from repro.dbms.storage import BlockCacheStats
from repro.errors import ExecutionError

#: open block readers, keyed (root, table, version, partition) — one
#: mmap per block per worker process, reused across statements
_READERS: "OrderedDict[tuple, BlockReader]" = OrderedDict()
_MAX_READERS = 16

#: compiled plan fragments keyed by statement fingerprint; entries are
#: only stored for fault-free compiles (a faulty compile closes over
#: that one task's plan snapshot and must not outlive it)
_COMPILED: "OrderedDict[str, Any]" = OrderedDict()
_MAX_COMPILED = 64


class _Resolver:
    """``Binder.resolve`` stand-in backed by a shipped position map."""

    __slots__ = ("_mapping",)

    def __init__(self, mapping: "dict[tuple, int]") -> None:
        self._mapping = mapping

    def resolve(self, ref: Any) -> int:
        return self._mapping[(ref.table, ref.name.lower())]


class _Registry:
    """``Executor._scalar_registry`` stand-in over shipped scalar UDFs."""

    __slots__ = ("_udfs",)

    def __init__(self, udfs: "dict[str, Any]") -> None:
        self._udfs = udfs

    def _scalar_registry(self, name: str) -> "Callable[..., Any] | None":
        builtin = SCALAR_BUILTINS.get(name)
        if builtin is not None:
            return builtin
        return self._udfs.get(name.lower())


class _TableShim:
    """Bare-schema table stand-in for re-planning a vectorized select."""

    __slots__ = ("schema",)

    def __init__(self, schema: Any) -> None:
        self.schema = schema


class _CatalogShim:
    """The exact catalog surface ``plan_vectorized_select`` touches."""

    __slots__ = ("_name", "_table", "_udfs")

    def __init__(
        self, table_name: str, schema: Any, scalar_udfs: "dict[str, Any]"
    ) -> None:
        self._name = table_name.lower()
        self._table = _TableShim(schema)
        self._udfs = scalar_udfs

    def has_view(self, name: str) -> bool:
        return False

    def has_table(self, name: str) -> bool:
        return name.lower() == self._name

    def table(self, name: str) -> _TableShim:
        return self._table

    def scalar_udf(self, name: str) -> Any:
        return self._udfs.get(name.lower())


def _reader_for(block: "tuple[str, str, int, int]") -> "tuple[BlockReader, bool]":
    """The (cached) mmap reader for one published partition block.

    Returns ``(reader, already_open)`` — the flag feeds the task's
    cache-hit slot, the process-side analogue of the thread path's
    partition block-cache hit.
    """
    reader = _READERS.get(block)
    if reader is not None:
        _READERS.move_to_end(block)
        return reader, True
    root, table, version, pid = block
    path = os.path.join(root, table, f"v{version}", f"p{pid}.blk")
    reader = BlockReader(path)
    _READERS[block] = reader
    while len(_READERS) > _MAX_READERS:
        _, stale = _READERS.popitem(last=False)
        stale.close()
    return reader, False


def _cache_compiled(key: str, value: Any) -> None:
    _COMPILED[key] = value
    while len(_COMPILED) > _MAX_COMPILED:
        _COMPILED.popitem(last=False)


def worker_init() -> None:
    """Pool-worker initializer: pay the heavy imports at spawn time.

    Runs in each child before it serves tasks, so a freshly spawned
    worker never charges numpy/module import time to a real task's
    wall clock (and therefore to its timeout budget).
    """
    import repro.dbms.sql.executor  # noqa: F401 - imported for side effect
    import repro.dbms.sql.vectorized  # noqa: F401


def warm_worker(seconds: float = 0.0) -> int:
    """Warm-up task submitted at pool creation (see the engine).

    The optional sleep keeps one fast child from draining every
    warm-up before its siblings finish spawning, so creation leaves
    roughly ``max_workers`` children imported and ready.
    """
    if seconds:
        time.sleep(seconds)
    return os.getpid()


def _portable_error(exc: BaseException) -> BaseException:
    """*exc* if it survives a pickle round trip, else a summary that does."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        text = f"{type(exc).__name__}: {exc}"
        return ExecutionError(text[:500])


def run_task(
    payload: "dict[str, Any]",
    plan: "FaultPlan | None",
    partition: int,
    attempt: int,
) -> "tuple[str, Any, dict[str, Any]]":
    """Run one partition task in a pool worker process.

    Returns ``("ok", result, meta)`` or ``("err", exception, meta)``;
    ``meta`` always carries the worker pid, the attempt's wall seconds,
    and — when a fault plan rode along — the counter deltas the attempt
    produced, so the coordinator can absorb them whether the attempt
    succeeded or not.
    """
    started = time.perf_counter()
    faults: Any = plan if plan is not None else NULL_FAULTS
    baseline = plan.counter_snapshot() if plan is not None else None
    try:
        if faults.enabled:
            faults.fire("engine.task", partition=partition, attempt=attempt)
        result = _dispatch(payload, faults, partition)
        status: str = "ok"
        value: Any = result
    except Exception as exc:  # noqa: BLE001 - errors travel as values
        status = "err"
        value = _portable_error(exc)
    meta: "dict[str, Any]" = {
        "pid": os.getpid(),
        "seconds": time.perf_counter() - started,
    }
    if plan is not None and baseline is not None:
        hits, tripped = plan.counter_deltas(*baseline)
        meta["hits"] = hits
        meta["tripped"] = tripped
    return status, value, meta


def _dispatch(
    payload: "dict[str, Any]", faults: Any, partition: int
) -> Any:
    kind = payload["kind"]
    reader, already_open = _reader_for(payload["block"])
    # The cache-hit flag ships from the coordinator ("was this table
    # version already published when the statement started?") so the
    # reported hit/miss totals are deterministic at any worker count —
    # per-process reader caches depend on task scheduling and are not.
    cached = payload.get("cached", already_open)
    if kind == "agg-row":
        return _run_agg_row(payload, faults, partition, reader)
    if kind == "agg-vector":
        return _run_agg_vector(payload, faults, partition, reader, cached)
    if kind == "project":
        return _run_project(payload, faults, partition, reader, cached)
    if kind == "fact-fold":
        return _run_fact_fold(payload, faults, partition, reader)
    raise ExecutionError(f"unknown process-task kind {kind!r}")


# ------------------------------------------------------------ aggregate row
def _compiled_agg_row(payload: "dict[str, Any]") -> Any:
    key = payload["fingerprint"]
    cached = _COMPILED.get(key)
    if cached is not None:
        return cached
    # Imported here (not at module top) to keep the worker import cheap
    # and avoid import cycles: executor imports engine imports this.
    from repro.dbms.sql.executor import _AggregateSpec

    resolver = _Resolver(payload["resolve"])
    registry = _Registry(payload["scalar_udfs"])
    aggregates = [
        _AggregateSpec(call, aggregate, resolver, registry)
        for call, aggregate in zip(payload["calls"], payload["aggregates"])
    ]
    group_fns = [
        compile_row_expression(
            expr, resolver.resolve, registry._scalar_registry
        )
        for expr in payload["group_exprs"]
    ]
    where = payload["where"]
    where_fn = (
        compile_row_expression(
            where, resolver.resolve, registry._scalar_registry
        )
        if where is not None
        else None
    )
    compiled = (aggregates, group_fns, where_fn)
    _cache_compiled(key, compiled)
    return compiled


def _run_agg_row(
    payload: "dict[str, Any]",
    faults: Any,
    partition: int,
    reader: BlockReader,
) -> "tuple[dict, int, float, float]":
    from repro.dbms.sql.executor import _fold_rows_into

    scan_start = time.perf_counter()
    if faults.enabled:
        faults.fire("partition.scan", partition=partition)
    rows = reader.row_tuples()
    aggregates, group_fns, where_fn = _compiled_agg_row(payload)
    accumulate_start = time.perf_counter()
    local, folded = _fold_rows_into(rows, aggregates, group_fns, where_fn)
    done = time.perf_counter()
    return (
        local,
        folded,
        accumulate_start - scan_start,
        done - accumulate_start,
    )


# --------------------------------------------------------- aggregate vector
def _compiled_agg_vector(payload: "dict[str, Any]") -> Any:
    key = payload["fingerprint"]
    cached = _COMPILED.get(key)
    if cached is not None:
        return cached
    from repro.dbms.sql.executor import _AggregateSpec

    resolver = _Resolver(payload["resolve"])
    registry = _Registry(payload["scalar_udfs"])
    matrix = _Resolver(payload["matrix_map"])
    aggregates = [
        _AggregateSpec(call, aggregate, resolver, registry)
        for call, aggregate in zip(payload["calls"], payload["aggregates"])
    ]
    for spec in aggregates:
        spec.prepare_vector(matrix.resolve)
    group_vector_fns = [
        compile_vector_expression(expr, matrix.resolve)
        for expr in payload["group_exprs"]
    ]
    compiled = (aggregates, group_vector_fns)
    _cache_compiled(key, compiled)
    return compiled


def _run_agg_vector(
    payload: "dict[str, Any]",
    faults: Any,
    partition: int,
    reader: BlockReader,
    cache_hit: bool,
) -> "tuple[dict, int, float, float, BlockCacheStats]":
    from repro.dbms.sql.executor import _fold_vector_block

    scan_start = time.perf_counter()
    if faults.enabled:
        faults.fire("block.materialize", partition=partition)
    block = reader.float_matrix(payload["positions"])
    if faults.enabled:
        for site, udf_name in payload["fused"]:
            faults.fire(site, partition=partition, udf=udf_name)
    aggregates, group_vector_fns = _compiled_agg_vector(payload)
    accumulate_start = time.perf_counter()
    local = _fold_vector_block(
        block, aggregates, payload["group_exprs"], group_vector_fns
    )
    done = time.perf_counter()
    return (
        local,
        block.shape[0],
        accumulate_start - scan_start,
        done - accumulate_start,
        # mmap readers never evict or spill; the hit flag is the
        # worker-side reader-cache outcome
        BlockCacheStats(hit=cache_hit),
    )


# ------------------------------------------------------ vectorized project
def _compiled_project(payload: "dict[str, Any]", faults: Any) -> Any:
    cacheable = not faults.enabled
    key = payload["fingerprint"]
    if cacheable:
        cached = _COMPILED.get(key)
        if cached is not None:
            return cached
    from repro.dbms.sql.vectorized import plan_vectorized_select

    catalog = _CatalogShim(
        payload["table_name"], payload["schema"], payload["scalar_udfs"]
    )
    decision = plan_vectorized_select(catalog, payload["select"], faults)
    if decision.plan is None:
        raise ExecutionError(
            "process worker could not re-plan vectorized select: "
            f"{decision.reason}"
        )
    if cacheable:
        _cache_compiled(key, decision.plan)
    return decision.plan


def _run_project(
    payload: "dict[str, Any]",
    faults: Any,
    partition: int,
    reader: BlockReader,
    cache_hit: bool,
) -> "tuple[list, int, float, float, BlockCacheStats]":
    from repro.dbms.sql.vectorized import RawColumnItem

    scan_start = time.perf_counter()
    if faults.enabled:
        faults.fire("block.materialize", partition=partition)
    plan = _compiled_project(payload, faults)
    block = reader.float_matrix(plan.positions)
    project_start = time.perf_counter()
    keep_list: "list[int] | None" = None
    if plan.where_fn is None:
        sub = block
    else:
        keep = np.flatnonzero(plan.where_fn(block) == 1.0)
        sub = take_rows(block, keep)
        keep_list = keep.tolist()
    columns: "list[list[Any]]" = []
    for item in plan.items:
        if isinstance(item, RawColumnItem):
            source = reader.column_values(item.position)
            if keep_list is None:
                columns.append(list(source))
            else:
                columns.append([source[i] for i in keep_list])
        else:
            values = item.fn(sub)
            if item.integer_result:
                columns.append(
                    [None if v != v else int(v) for v in values.tolist()]
                )
            else:
                # v != v is the NaN test; NaN carried NULL.
                columns.append(
                    [None if v != v else v for v in values.tolist()]
                )
    out = list(zip(*columns)) if columns else []
    done = time.perf_counter()
    return (
        out,
        block.shape[0],
        project_start - scan_start,
        done - project_start,
        BlockCacheStats(hit=cache_hit),
    )


# --------------------------------------------------------- factorized fold
def _run_fact_fold(
    payload: "dict[str, Any]",
    faults: Any,
    partition: int,
    reader: BlockReader,
) -> "tuple[Any, int, float, float]":
    scan_start = time.perf_counter()
    if faults.enabled:
        faults.fire("partition.scan", partition=partition)
    rows = reader.row_tuples()
    fire_site = payload.get("fire_site")
    if fire_site is not None and faults.enabled:
        faults.fire(fire_site, partition=partition, udf=payload.get("fire_udf"))
    fold_start = time.perf_counter()
    fold = payload["fold"]
    tag = fold[0]
    if tag == "dim":
        partial = fcore.fold_dim_partition(rows, fold[1], fold[2])
    elif tag == "summary":
        partial = fcore.fold_summary_fact_partition(
            rows, fold[1], fold[2], fold[3], fold[4]
        )
    elif tag == "fused":
        partial = fcore.fold_fused_fact_partition(
            rows, fold[1], fold[2], fold[3], fold[4]
        )
    elif tag == "builtins":
        partial = fcore.fold_builtin_fact_partition(
            rows, fold[1], fold[2], fold[3], fold[4]
        )
    else:
        raise ExecutionError(f"unknown factorized fold {tag!r}")
    done = time.perf_counter()
    return partial, len(rows), fold_start - scan_start, done - fold_start
