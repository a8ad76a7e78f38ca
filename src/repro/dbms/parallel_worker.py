"""Worker-process side of the process-pool partition engine.

A :class:`~repro.dbms.engine.PartitionEngine` with ``kind="process"``
never pickles partition data.  The executor's partition-scan operator
publishes each table to the on-disk columnar format
(:mod:`repro.dbms.columnar`) and ships plain **descriptors** — ``(store
root, table, version, partition id)``, what to read, plus a picklable
plan fragment (AST expressions, aggregate objects, position maps).
:func:`run_task` runs in the pool worker: it opens the partition's
block file via ``mmap`` (cached per worker process), rebuilds the fold
body from the plan fragment with the *same* compile functions the
coordinator uses (cached per statement fingerprint), and runs the
executor's own :func:`~repro.dbms.sql.executor._scan_partition` against
the mapped block — no task body is re-implemented here, so fault-site
firing order, folds and result shape are the thread path's by
construction and the coordinator's partition-order merge is
bit-identical on either executor.

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

import functools
import os
import pickle
import time
from collections import OrderedDict
from typing import Any, Callable

from repro.dbms.columnar import BlockReader
from repro.dbms.faults import NULL_FAULTS, FaultPlan
from repro.dbms.functions import SCALAR_BUILTINS
from repro.dbms.sql.executor import (
    _BatchStatement,
    _fold_factorized,
    _fold_statements,
    _project_block,
    _scan_partition,
)
from repro.dbms.sql.vectorized import plan_vectorized_select
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


class _PublishedPartition:
    """The read surface :func:`_scan_partition` uses of a
    :class:`~repro.dbms.storage.Partition`, over one mmap'd block.

    A row scan decodes every lane (pruning is a coordinator-side
    saving); mmap readers never evict or spill, so a block read's cache
    outcome is just the *cached* flag the coordinator shipped — and
    fresh :class:`~repro.dbms.blocks.BlockFacts`: a worker remembers
    nothing about a block's NULLs, each task asks once.
    """

    __slots__ = ("_reader", "_cached")

    def __init__(self, reader: BlockReader, cached: bool) -> None:
        self._reader = reader
        self._cached = cached

    def rows(self, lanes: Any = None) -> "list[tuple]":
        return self._reader.row_tuples()

    def values(self, position: int) -> "list[Any]":
        return self._reader.column_values(position)

    def numeric_matrix_with_cache_stats(
        self, positions: Any
    ) -> "tuple[Any, BlockCacheStats]":
        return (
            self._reader.float_matrix(positions),
            BlockCacheStats(hit=self._cached),
        )


def _reader_for(block: "tuple[str, str, int, int]") -> BlockReader:
    """The (cached) mmap reader for one published partition block."""
    reader = _READERS.get(block)
    if reader is not None:
        _READERS.move_to_end(block)
        return reader
    root, table, version, pid = block
    path = os.path.join(root, table, f"v{version}", f"p{pid}.blk")
    reader = BlockReader(path)
    _READERS[block] = reader
    while len(_READERS) > _MAX_READERS:
        _, stale = _READERS.popitem(last=False)
        stale.close()
    return reader


def _cache_compiled(key: str, value: Any) -> None:
    _COMPILED[key] = value
    while len(_COMPILED) > _MAX_COMPILED:
        _COMPILED.popitem(last=False)


def worker_init() -> None:
    """Pool-worker initializer: pay the heavy imports at spawn time.

    Resolving this function in the child is what imports this module —
    numpy and the executor — so every worker, including one spawned
    after the warm-up tasks were drained, never charges import time to
    a real task's wall clock (and therefore to its timeout budget).
    """


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
    """Rebuild the fold body *payload* describes and run the executor's
    partition task against the published block."""
    kind = payload["kind"]
    if kind == "aggregate":
        body = _aggregate_body(payload)
    elif kind == "project":
        body = _project_body(payload, faults)
    elif kind == "factorized":
        body = functools.partial(_fold_factorized, payload["fold"])
    else:
        raise ExecutionError(f"unknown process-task kind {kind!r}")
    source = _PublishedPartition(
        _reader_for(payload["block"]), payload["cached"]
    )
    return _scan_partition(source, partition, faults, payload["reads"], body)


def _aggregate_body(payload: "dict[str, Any]") -> Any:
    """The shared-scan fold of the one statement *payload* describes."""
    key = payload["fingerprint"]
    stmt = _COMPILED.get(key)
    if stmt is None:
        stmt = _BatchStatement(
            payload["aggregates"],
            payload["group_exprs"],
            payload["where"],
            _Resolver(payload["resolve"]),
            _Registry(payload["scalar_udfs"]),
        )
        if payload["int_keys"] is not None:
            stmt.prepare_vector(payload["int_keys"])
        _cache_compiled(key, stmt)
    return functools.partial(_fold_statements, [stmt], payload["shared"])


def _project_body(payload: "dict[str, Any]", faults: Any) -> Any:
    """The projection fold of the SELECT *payload* carries, re-planned
    against a schema shim.  A compile under an armed fault plan closes
    over that one task's plan snapshot and is never cached."""
    cacheable = not faults.enabled
    key = payload["fingerprint"]
    plan = _COMPILED.get(key) if cacheable else None
    if plan is None:
        catalog = _CatalogShim(
            payload["table_name"], payload["schema"], payload["scalar_udfs"]
        )
        decision = plan_vectorized_select(catalog, payload["select"], faults)
        plan = decision.plan
        if plan is None:
            raise ExecutionError(
                "process worker could not re-plan vectorized select: "
                f"{decision.reason}"
            )
        if cacheable:
            _cache_compiled(key, plan)
    return functools.partial(_project_block, plan.items, plan.where_fn)
