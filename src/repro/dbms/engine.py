"""The parallel partition-execution engine.

The paper's run-time story (Section 3.4) is partition-parallel
aggregation: every AMP scans its own horizontal partition and folds rows
into a private partial state; the partials are then merged into the
final answer.  The storage layer has always been partitioned that way —
this module makes the execution actually concurrent, and makes it
*survivable*: a slow, crashing, or flaky partition task may cost the
statement, never a hang, a leaked sibling task, or a nondeterministic
error.

:class:`PartitionEngine` runs one task per partition inline or on a
``ThreadPoolExecutor``.  Threads fit because the hot per-partition work
is vectorized numpy: block materialization of cached float columns and
the aggregate block updates — ``X.T @ X``, axis sums, extrema — release
the GIL.  Row-path folds hold it; ``docs/parallel_engine.md`` has the
measurements that set the default worker count to 1.

Invariants the executor relies on:

* **Deterministic merge order.**  ``map`` returns results in *task
  submission order* (= partition order), never completion order, so the
  partial-result merge — and therefore every floating-point sum and the
  first-appearance ordering of GROUP BY keys — is identical whether the
  engine runs serial or with any number of workers.
* **Deterministic error identity.**  Results are gathered strictly in
  submission order, so the first failure the caller sees is always the
  lowest-numbered failing partition.  Serial execution (``workers=1``)
  re-raises that error as-is — bit-identical to the seed engine.
  Parallel execution raises
  :class:`~repro.errors.PartitionExecutionError` aggregating every
  *observed* sibling error with per-partition attribution; its
  ``first_error`` (also the ``__cause__``) is that same deterministic
  first failure.
* **No leaked work.**  On a fatal task failure the engine cancels every
  future that has not started and *waits out* the ones already running
  before raising — no task outlives the ``map`` call.  The one
  exception is a task **timeout**: a Python thread cannot be killed, so
  the engine cancels the tasks that have not started, abandons its pool
  (``shutdown(wait=False)``) instead of waiting for the running ones,
  lazily
  creates a fresh one for the next statement, and the stuck task stays
  visible through :attr:`PartitionEngine.active_tasks` until it
  finishes on the orphaned pool.

Fault tolerance knobs (all default off; see ``docs/fault_tolerance.md``):

* ``timeout_seconds`` — per-task result-wait budget.  Timeouts are
  fatal, never retried (the worker may still be running the task).
* ``max_retries`` / ``retry_backoff_seconds`` — bounded retries with
  exponential backoff, applied **only** to ``map(..., idempotent=True)``
  calls (pure partition scans are; DML is not).  Retries run inside the
  worker, so result ordering and pool occupancy are unchanged.
* ``faults`` — a :class:`~repro.dbms.faults.FaultPlan` arming the
  ``engine.task`` injection site inside the task wrapper.

With the defaults (``NULL_FAULTS``, no timeout, no retries) ``map``
takes the exact pre-supervision code path: no wrapper closures, no
bookkeeping, one extra attribute check.

``workers=1`` (the default everywhere) bypasses the pool entirely and
runs tasks inline, preserving the seed engine's bit-identical behaviour
and zero thread overhead.

The thread pool is **persistent**: it is created lazily on the first
parallel ``map`` call and reused by every subsequent one, so iterative
workloads (K-means/EM issue one scan per iteration) stop paying pool
construction and teardown per query.  :meth:`PartitionEngine.close`
shuts the pool down; ``Database.close()`` (and its context manager)
call it.  A closed engine simply re-creates the pool on next use.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, Sequence, TypeVar

from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.trace import Span
from repro.errors import PartitionExecutionError, PartitionTimeoutError

T = TypeVar("T")


class PartitionEngine:
    """Runs per-partition tasks serially or on a bounded thread pool."""

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout_seconds: float | None = None,
        max_retries: int = 0,
        retry_backoff_seconds: float = 0.01,
        faults: "FaultPlan | NullFaults" = NULL_FAULTS,
    ) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds must be >= 0")
        self._workers = workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        #: pools created over this engine's lifetime (regression tests
        #: assert repeated queries reuse one pool instead of churning)
        self.pools_created = 0
        #: per-task wait budget; None = wait forever (seed behaviour)
        self.timeout_seconds = timeout_seconds
        #: bounded retry budget for idempotent tasks
        self.max_retries = max_retries
        #: first backoff sleep; doubles per attempt (exponential)
        self.retry_backoff_seconds = retry_backoff_seconds
        #: fault-injection plan consulted at the ``engine.task`` site
        self.faults = faults
        #: retries spent / timeouts hit by the most recent ``map`` call
        #: (coordinator-read; the executor folds them into QueryMetrics)
        self.last_task_retries = 0
        self.last_task_timeouts = 0
        self._active_lock = threading.Lock()
        self._active_tasks = 0

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def parallel(self) -> bool:
        return self._workers > 1

    @property
    def active_tasks(self) -> int:
        """Tasks currently executing a body on any thread.

        Zero whenever no ``map`` call is in flight — except after a
        timeout, when the abandoned task stays counted until it finishes
        on the orphaned pool (chaos tests poll this to prove stuck work
        drains instead of leaking forever).
        """
        with self._active_lock:
            return self._active_tasks

    @property
    def supervised(self) -> bool:
        """Whether map() must wrap tasks (faults, timeouts or retries)."""
        return (
            self.faults.enabled
            or self.timeout_seconds is not None
            or self.max_retries > 0
        )

    def configured_like(self, workers: int) -> "PartitionEngine":
        """A new engine with this one's supervision config but *workers*
        workers (``Database.executor_workers`` swap path)."""
        return PartitionEngine(
            workers,
            timeout_seconds=self.timeout_seconds,
            max_retries=self.max_retries,
            retry_backoff_seconds=self.retry_backoff_seconds,
            faults=self.faults,
        )

    def _acquire_pool(self) -> ThreadPoolExecutor:
        """The persistent pool, created lazily on first parallel use."""
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self._workers,
                        thread_name_prefix="repro-amp",
                    )
                    self._pool = pool
                    self.pools_created += 1
        return pool

    def close(self) -> None:
        """Shut the persistent pool down (idempotent).

        The engine stays usable: the next parallel ``map`` lazily
        creates a fresh pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _abandon_pool(self) -> None:
        """Detach the pool without waiting (timeout path).

        Its threads finish their current tasks and exit; the next
        parallel ``map`` creates a fresh pool so new statements never
        queue behind a stuck task.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def map(
        self,
        tasks: Sequence[Callable[[], T]],
        spans: list[Span] | None = None,
        *,
        idempotent: bool = False,
        partition_ids: Sequence[int] | None = None,
    ) -> list[T]:
        """Run every task and return the results in task order.

        Completion order never matters: results are gathered by
        submission index, so merging ``map`` output left-to-right is
        deterministic regardless of scheduling.

        ``idempotent=True`` declares the tasks safe to re-run (pure
        partition scans); only then do the engine's bounded retries
        apply.  ``partition_ids`` (aligned with *tasks*) labels errors
        and timeouts with real partition numbers; the task index is used
        when omitted.

        When *spans* is a list (EXPLAIN ANALYZE tracing), one
        :class:`~repro.dbms.trace.Span` per task is appended to it — in
        task order — recording the task's run seconds, the time it
        waited in the pool queue, the worker thread that ran it, and
        (when supervision retried it) its ``retries`` count.  Each span
        is built inside its own task, so no shared state is written from
        worker threads; the caller attaches the collected spans to its
        trace afterwards.  ``spans=None`` (every non-traced query) adds
        no per-task work beyond a constant ``if``.
        """
        self.last_task_retries = 0
        self.last_task_timeouts = 0
        supervised = self.supervised
        retry_counts: list[int] | None = None
        if supervised:
            # Each slot is written only by its own task's wrapper.
            retry_counts = [0] * len(tasks)

        if spans is None and not supervised:
            run_tasks: Sequence[Callable[[], T]] = tasks
        else:
            task_spans: list[Span | None] | None = (
                None if spans is None else [None] * len(tasks)
            )
            run_tasks = [
                self._instrument(
                    index,
                    task,
                    task_spans,
                    retry_counts,
                    idempotent,
                    partition_ids,
                )
                for index, task in enumerate(tasks)
            ]

        try:
            if self._workers == 1 or len(run_tasks) <= 1:
                results = self._run_inline(run_tasks, partition_ids)
            else:
                results = self._run_pooled(run_tasks, partition_ids)
        finally:
            # Counters must survive a raising map: a failed statement
            # (or one that degrades to the row path) still reports the
            # retries its tasks spent before giving up.
            if retry_counts is not None:
                self.last_task_retries = sum(retry_counts)
        if spans is not None:
            spans.extend(span for span in task_spans if span is not None)
        return results

    # ------------------------------------------------------------ wrappers
    def _instrument(
        self,
        index: int,
        task: Callable[[], T],
        task_spans: "list[Span | None] | None",
        retry_counts: "list[int] | None",
        idempotent: bool,
        partition_ids: Sequence[int] | None,
    ) -> Callable[[], T]:
        """Wrap one task with tracing and/or supervision.

        The retry loop lives *inside* the wrapper, so a retried task
        keeps its pool slot and its submission-order position; the
        backoff sleeps on the worker thread, never the coordinator.
        """
        submitted = time.perf_counter()
        faults = self.faults
        retries = self.max_retries if idempotent else 0
        backoff = self.retry_backoff_seconds
        partition = (
            partition_ids[index] if partition_ids is not None else index
        )

        def run() -> T:
            with self._active_lock:
                self._active_tasks += 1
            started = time.perf_counter()
            try:
                attempt = 0
                while True:
                    try:
                        if faults.enabled:
                            faults.fire(
                                "engine.task",
                                partition=partition,
                                attempt=attempt,
                            )
                        result = task()
                        break
                    except Exception:
                        if attempt >= retries:
                            raise
                        if backoff:
                            time.sleep(backoff * (2.0 ** attempt))
                        attempt += 1
                        if retry_counts is not None:
                            retry_counts[index] = attempt
                if task_spans is not None:
                    span = Span(
                        "task",
                        seconds=time.perf_counter() - started,
                        attributes={
                            "index": index,
                            "queued_seconds": started - submitted,
                            "thread": threading.current_thread().name,
                        },
                    )
                    if attempt:
                        span.attributes["retries"] = attempt
                    task_spans[index] = span
                return result
            finally:
                with self._active_lock:
                    self._active_tasks -= 1

        return run

    # ----------------------------------------------------------- execution
    def _run_inline(
        self,
        run_tasks: Sequence[Callable[[], T]],
        partition_ids: Sequence[int] | None,
    ) -> list[T]:
        """Serial execution: errors re-raise as-is (seed behaviour).

        A timeout cannot preempt an inline task, so it is enforced
        post-hoc: a task that ran longer than the budget still fails the
        statement, keeping serial and parallel runs of a delay fault
        equally fatal.
        """
        timeout = self.timeout_seconds
        results: list[T] = []
        for index, task in enumerate(run_tasks):
            started = time.perf_counter()
            results.append(task())
            if (
                timeout is not None
                and time.perf_counter() - started > timeout
            ):
                partition = (
                    partition_ids[index]
                    if partition_ids is not None
                    else index
                )
                self.last_task_timeouts += 1
                raise PartitionTimeoutError(partition, timeout)
        return results

    def _run_pooled(
        self,
        run_tasks: Sequence[Callable[[], T]],
        partition_ids: Sequence[int] | None,
    ) -> list[T]:
        """Pool execution with submission-order gathering, per-task
        timeouts, and cancel + drain on fatal failure."""
        pool = self._acquire_pool()
        futures: list[Future] = [pool.submit(task) for task in run_tasks]
        timeout = self.timeout_seconds
        results: list[T] = []
        errors: list[tuple[int | None, BaseException]] = []
        timed_out = False
        for index, future in enumerate(futures):
            partition = (
                partition_ids[index] if partition_ids is not None else index
            )
            try:
                results.append(future.result(timeout))
                continue
            except FutureTimeout:
                self.last_task_timeouts += 1
                errors.append(
                    (partition, PartitionTimeoutError(partition, timeout))
                )
                timed_out = True
            except Exception as exc:
                errors.append((partition, exc))
            # A fatal failure.  First cancel everything still pending in
            # one fast pass — interleaving cancellation with draining
            # would let the workers grab (and run) tasks we are about to
            # cancel — so ``cancelled`` counts exactly the tasks that
            # never ran.
            survivors = [
                later_index
                for later_index in range(index + 1, len(futures))
                if not futures[later_index].cancel()
            ]
            if not timed_out:
                # Then wait out the siblings that were already running,
                # collecting their errors (bounded wait — they are not
                # hung, or we would have configured a timeout) for
                # attribution, preserving this error as the
                # deterministic first.  After a timeout they may be
                # stuck too: the pool is abandoned instead.
                for later_index in survivors:
                    later_partition = (
                        partition_ids[later_index]
                        if partition_ids is not None
                        else later_index
                    )
                    try:
                        futures[later_index].result(timeout)
                    except FutureTimeout:
                        self.last_task_timeouts += 1
                        errors.append(
                            (
                                later_partition,
                                PartitionTimeoutError(
                                    later_partition, timeout
                                ),
                            )
                        )
                        timed_out = True
                    except Exception as sibling_exc:
                        errors.append((later_partition, sibling_exc))
            break
        if not errors:
            return results
        cancelled = sum(1 for future in futures if future.cancelled())
        if timed_out:
            # The stuck worker cannot be interrupted; abandon the pool
            # so the next statement never queues behind it.
            self._abandon_pool()
        raise PartitionExecutionError(
            errors, cancelled=cancelled
        ) from errors[0][1]
