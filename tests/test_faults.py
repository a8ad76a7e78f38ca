"""Fault injection, engine supervision, and failure-recovery contracts.

Covers the :mod:`repro.dbms.faults` plan itself (determinism, flaky /
skip / probability semantics), the :class:`PartitionEngine` supervision
knobs (bounded retries, per-task timeouts, cancel + drain on fatal
failure), graceful degradation from the vectorized paths to the row
path, the thread-safe block-cache accounting, ``insert_many``'s
validated-prefix and flush-rollback guarantees, and ``Database.close()``
exception safety.
"""

import threading
import time

import numpy as np
import pytest

from repro.dbms.database import Database
from repro.dbms.engine import PartitionEngine
from repro.dbms.faults import FAULT_SITES, NULL_FAULTS, FaultPlan, FaultSpec
from repro.dbms.schema import dataset_schema, dimension_names
from repro.errors import (
    ConstraintViolation,
    FaultInjected,
    PartitionExecutionError,
    PartitionTimeoutError,
    ReproError,
)


# ------------------------------------------------------------- FaultPlan
class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("no.such.site")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("engine.task", kind="explode")

    def test_null_faults_disabled_without_a_call(self):
        assert NULL_FAULTS.enabled is False
        NULL_FAULTS.fire("engine.task", partition=0)  # no-op, never raises

    def test_error_fault_raises_fault_injected_by_default(self):
        plan = FaultPlan().fail("partition.scan")
        with pytest.raises(FaultInjected) as excinfo:
            plan.fire("partition.scan", partition=3)
        assert excinfo.value.site == "partition.scan"
        assert excinfo.value.attributes["partition"] == 3
        assert isinstance(excinfo.value, ReproError)
        assert plan.trips("partition.scan") == 1

    def test_partition_filter(self):
        plan = FaultPlan().fail("partition.scan", partition=2)
        plan.fire("partition.scan", partition=0)
        plan.fire("partition.scan", partition=1)
        with pytest.raises(FaultInjected):
            plan.fire("partition.scan", partition=2)
        assert plan.trips() == 1

    def test_flaky_fails_then_succeeds(self):
        plan = FaultPlan().flaky("engine.task", times=2)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                plan.fire("engine.task", partition=0)
        plan.fire("engine.task", partition=0)  # healed
        assert plan.trips("engine.task") == 2

    def test_flaky_hit_counters_are_per_partition(self):
        plan = FaultPlan().flaky("engine.task", times=1)
        with pytest.raises(FaultInjected):
            plan.fire("engine.task", partition=0)
        # A different partition has its own counter: still armed.
        with pytest.raises(FaultInjected):
            plan.fire("engine.task", partition=1)
        plan.fire("engine.task", partition=0)
        plan.fire("engine.task", partition=1)

    def test_skip_first_arms_late(self):
        plan = FaultPlan().add(
            FaultSpec("partition.scan", "error", skip_first=2)
        )
        plan.fire("partition.scan", partition=0)
        plan.fire("partition.scan", partition=0)
        with pytest.raises(FaultInjected):
            plan.fire("partition.scan", partition=0)

    def test_custom_error_class_and_instance(self):
        plan = FaultPlan().fail("insert.flush", error=OSError)
        with pytest.raises(OSError):
            plan.fire("insert.flush", partition=0)
        marker = RuntimeError("disk on fire")
        plan = FaultPlan().fail("insert.flush", error=marker)
        with pytest.raises(RuntimeError) as excinfo:
            plan.fire("insert.flush", partition=0)
        assert excinfo.value is marker

    def test_delay_sleeps_then_proceeds(self):
        plan = FaultPlan().delay("engine.task", seconds=0.02)
        started = time.perf_counter()
        plan.fire("engine.task", partition=0)
        assert time.perf_counter() - started >= 0.02

    def test_probability_draws_are_seed_deterministic(self):
        def trip_pattern(seed):
            plan = FaultPlan(seed=seed).add(
                FaultSpec("partition.scan", "error", probability=0.5)
            )
            pattern = []
            for partition in range(4):
                for _ in range(8):
                    try:
                        plan.fire("partition.scan", partition=partition)
                        pattern.append(False)
                    except FaultInjected:
                        pattern.append(True)
            return pattern

        first = trip_pattern(seed=11)
        assert trip_pattern(seed=11) == first  # replayable
        assert any(first) and not all(first)  # actually probabilistic
        assert trip_pattern(seed=12) != first  # seed matters

    def test_probability_independent_of_interleaving(self):
        # Decisions are keyed per (spec, site, partition, hit), so firing
        # partitions in any order yields the same per-partition pattern.
        def pattern(order):
            plan = FaultPlan(seed=3).add(
                FaultSpec("partition.scan", "error", probability=0.5)
            )
            trips = {p: [] for p in order}
            for _ in range(6):
                for partition in order:
                    try:
                        plan.fire("partition.scan", partition=partition)
                        trips[partition].append(False)
                    except FaultInjected:
                        trips[partition].append(True)
            return trips

        assert pattern([0, 1, 2, 3]) == pattern([3, 1, 0, 2])

    def test_reset_forgets_hits_keeps_specs(self):
        plan = FaultPlan().flaky("engine.task", times=1)
        with pytest.raises(FaultInjected):
            plan.fire("engine.task", partition=0)
        plan.fire("engine.task", partition=0)
        plan.reset()
        with pytest.raises(FaultInjected):
            plan.fire("engine.task", partition=0)

    def test_all_sites_are_armable(self):
        for site in FAULT_SITES:
            plan = FaultPlan().fail(site)
            with pytest.raises(FaultInjected):
                plan.fire(site)


# ------------------------------------------------- engine supervision
class TestEngineSupervision:
    def test_retries_heal_flaky_idempotent_tasks(self):
        engine = PartitionEngine(4, max_retries=3, retry_backoff_seconds=0.0)
        attempts = [0, 0, 0]

        def make(index):
            def task():
                attempts[index] += 1
                if index == 1 and attempts[index] <= 2:
                    raise RuntimeError("flaky")
                return index

            return task

        results = engine.map([make(i) for i in range(3)], idempotent=True)
        assert results == [0, 1, 2]
        assert attempts == [1, 3, 1]
        assert engine.last_task_retries == 2
        engine.close()

    def test_non_idempotent_tasks_never_retry(self):
        engine = PartitionEngine(2, max_retries=5, retry_backoff_seconds=0.0)
        attempts = [0]

        def boom():
            attempts[0] += 1
            raise RuntimeError("not safe to retry")

        with pytest.raises(PartitionExecutionError):
            engine.map([boom, lambda: 1])
        assert attempts[0] == 1
        engine.close()

    def test_retry_budget_exhausted_raises_with_attribution(self):
        engine = PartitionEngine(2, max_retries=2, retry_backoff_seconds=0.0)

        def boom():
            raise RuntimeError("always broken")

        with pytest.raises(PartitionExecutionError) as excinfo:
            engine.map(
                [lambda: 1, boom], idempotent=True, partition_ids=[5, 9]
            )
        assert excinfo.value.partitions == [9]
        assert engine.last_task_retries == 2
        engine.close()

    def test_exponential_backoff_sleeps_between_attempts(self):
        engine = PartitionEngine(
            2, max_retries=2, retry_backoff_seconds=0.02
        )
        attempts = [0]

        def flaky():
            attempts[0] += 1
            if attempts[0] <= 2:
                raise RuntimeError("flaky")
            return 1

        started = time.perf_counter()
        assert engine.map([flaky, lambda: 2], idempotent=True) == [1, 2]
        # Two backoffs: 0.02 + 0.04.
        assert time.perf_counter() - started >= 0.06
        engine.close()

    def test_timeout_raises_partition_timeout(self):
        engine = PartitionEngine(4, timeout_seconds=0.1)

        def slow():
            time.sleep(1.0)
            return 1

        with pytest.raises(PartitionExecutionError) as excinfo:
            engine.map([lambda: 0, slow, lambda: 2], partition_ids=[0, 7, 2])
        error = excinfo.value
        assert isinstance(error.first_error, PartitionTimeoutError)
        assert error.partitions == [7]
        assert engine.last_task_timeouts == 1
        engine.close()

    def test_timeout_abandons_pool_and_stuck_task_drains(self):
        engine = PartitionEngine(4, timeout_seconds=0.05)
        release = threading.Event()

        def stuck():
            release.wait(5.0)
            return 1

        pools_before = None
        with pytest.raises(PartitionExecutionError):
            engine.map([stuck, lambda: 2])
        pools_before = engine.pools_created
        # The stuck task is still running on the orphaned pool, visible
        # through active_tasks only while supervision wraps tasks.
        assert engine.map([lambda: 10, lambda: 20]) == [10, 20]
        assert engine.pools_created == pools_before + 1
        release.set()
        deadline = time.perf_counter() + 5.0
        while engine.active_tasks and time.perf_counter() < deadline:
            time.sleep(0.005)
        assert engine.active_tasks == 0
        engine.close()

    def test_timeout_cancels_pending_tasks_before_counting(self):
        # Two workers, six tasks: task 0 outlives the budget while task
        # 1 runs, so tasks 2-5 are still queued when the timeout fires.
        # They must never run, and ``cancelled`` must say so.
        engine = PartitionEngine(2, timeout_seconds=0.1)
        ran: list[int] = []

        def make(index):
            def task():
                ran.append(index)
                time.sleep(0.6 if index == 0 else 0.5)
                return index

            return task

        with pytest.raises(PartitionExecutionError) as excinfo:
            engine.map([make(i) for i in range(6)])
        assert isinstance(excinfo.value.first_error, PartitionTimeoutError)
        assert excinfo.value.cancelled == 4
        assert "(4 cancelled before starting)" in str(excinfo.value)
        # Both running tasks finish on the orphaned pool; nothing follows.
        deadline = time.perf_counter() + 5.0
        while engine.active_tasks and time.perf_counter() < deadline:
            time.sleep(0.005)
        assert engine.active_tasks == 0
        assert sorted(ran) == [0, 1]
        engine.close()

    def test_serial_timeout_enforced_post_hoc(self):
        engine = PartitionEngine(1, timeout_seconds=0.02)

        def slow():
            time.sleep(0.05)
            return 1

        # Serial tasks cannot be preempted, but a budget overrun still
        # fails the statement — raised directly, seed-style.
        with pytest.raises(PartitionTimeoutError):
            engine.map([slow])
        assert engine.last_task_timeouts == 1

    def test_fatal_error_cancels_pending_and_drains_running(self):
        # Satellite regression: an exception in task 0 must not leave
        # tasks 1..N running after map() returns.
        engine = PartitionEngine(2)
        started: set[int] = set()
        finished: set[int] = set()
        lock = threading.Lock()

        def boom():
            time.sleep(0.01)
            raise RuntimeError("first partition exploded")

        def make(index):
            def task():
                with lock:
                    started.add(index)
                time.sleep(0.05)
                with lock:
                    finished.add(index)
                return index

            return task

        tasks = [boom] + [make(i) for i in range(1, 8)]
        with pytest.raises(PartitionExecutionError) as excinfo:
            engine.map(tasks)
        # No task outlives the call: whatever started has finished...
        with lock:
            assert started == finished
        # ...and with 2 workers and a fast failure, some of the 7
        # trailing tasks never started at all (they were cancelled).
        assert len(started) < 7
        assert excinfo.value.cancelled >= 1
        # The error identity is deterministic: partition 0's failure.
        assert excinfo.value.partitions[0] == 0
        assert isinstance(excinfo.value.first_error, RuntimeError)
        engine.close()

    def test_engine_task_fault_site_fires_per_attempt(self):
        plan = FaultPlan().flaky("engine.task", times=1, partition=1)
        engine = PartitionEngine(
            2, max_retries=1, retry_backoff_seconds=0.0, faults=plan
        )
        assert engine.map(
            [lambda: 10, lambda: 20], idempotent=True
        ) == [10, 20]
        assert engine.last_task_retries == 1
        assert plan.trips("engine.task") == 1
        engine.close()

    def test_unsupervised_map_runs_raw_tasks(self):
        # With NULL_FAULTS and no knobs the tasks run unwrapped: the
        # exact objects are invoked, nothing is counted.
        engine = PartitionEngine(1)
        assert not engine.supervised
        assert engine.map([lambda: 1, lambda: 2]) == [1, 2]
        assert engine.last_task_retries == 0
        assert engine.last_task_timeouts == 0

    def test_configured_like_copies_supervision(self):
        plan = FaultPlan()
        engine = PartitionEngine(
            2,
            timeout_seconds=1.5,
            max_retries=3,
            retry_backoff_seconds=0.2,
            faults=plan,
        )
        clone = engine.configured_like(8)
        assert clone.workers == 8
        assert clone.timeout_seconds == 1.5
        assert clone.max_retries == 3
        assert clone.retry_backoff_seconds == 0.2
        assert clone.faults is plan
        engine.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PartitionEngine(2, timeout_seconds=0.0)
        with pytest.raises(ValueError):
            PartitionEngine(2, max_retries=-1)
        with pytest.raises(ValueError):
            PartitionEngine(2, retry_backoff_seconds=-0.1)


# -------------------------------------------------- graceful degradation
def _scoring_db(workers=1, **kwargs):
    rng = np.random.default_rng(7)
    n, d = 120, 2
    X = rng.normal(50.0, 10.0, size=(n, d))
    y = 2.0 + X @ np.asarray([1.0, -2.0]) + rng.normal(0, 0.1, n)
    db = Database(amps=4, executor_workers=workers, **kwargs)
    db.create_table("x", dataset_schema(d, with_y=True))
    columns = {"i": np.arange(1, n + 1), "y": y}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = X[:, index]
    db.load_columns("x", columns)
    return db


class TestGracefulDegradation:
    AGG = "SELECT sum(x1), sum(x2), count(*) FROM x"
    # A WHERE that keeps every row forces the row-partitioned path: the
    # bit-exact reference the degraded vectorized query must reproduce
    # (block-wise float summation associates differently, so the
    # vectorized answer itself is only approximately equal).
    AGG_ROW = "SELECT sum(x1), sum(x2), count(*) FROM x WHERE i >= 1"
    PROJ = "SELECT i, x1 * 2 + x2 FROM x"

    @pytest.mark.parametrize("workers", [1, 4])
    def test_vectorized_aggregate_falls_back_to_row_path(self, workers):
        with _scoring_db(workers) as db:
            row_reference = db.execute(self.AGG_ROW)
            vectorized = db.execute(self.AGG)
            db.faults = FaultPlan().fail(
                "block.materialize", error=RuntimeError("kernel bug")
            )
            result = db.execute(self.AGG)
            # Bit-identical to the row path it degraded to, and within
            # float noise of the vectorized answer it replaced.
            assert result.rows == row_reference.rows
            assert result.rows[0] == pytest.approx(vectorized.rows[0])
            assert result.metrics.fallbacks == 1
            assert "kernel bug" in result.metrics.fallback_reason
            # The degraded statement reports row-path work, once.
            assert result.metrics.rows_processed == 120

    @pytest.mark.parametrize("workers", [1, 4])
    def test_vectorized_projection_falls_back_to_row_path(self, workers):
        with _scoring_db(workers) as db:
            expected = db.execute(self.PROJ)
            db.faults = FaultPlan().fail(
                "block.materialize", error=RuntimeError("kernel bug")
            )
            result = db.execute(self.PROJ)
            assert result.rows == expected.rows
            assert result.metrics.fallbacks == 1
            assert "kernel bug" in result.metrics.fallback_reason

    def test_fallback_metrics_match_plain_row_path(self):
        # A degraded run's counters equal a row-path run's, plus the
        # fallback record itself.
        with _scoring_db(4) as db:
            row = db.execute(self.AGG_ROW).metrics
            db.faults = FaultPlan().fail("block.materialize")
            degraded = db.execute(self.AGG).metrics
            assert degraded.fallbacks == 1
            assert degraded.rows_processed == row.rows_processed
            assert degraded.parallel_tasks == row.parallel_tasks
            assert degraded.partitions_processed == row.partitions_processed
            assert degraded.block_cache_hits == 0
            assert degraded.block_cache_misses == 0

    def test_fallback_visible_in_explain_analyze(self):
        with _scoring_db(4) as db:
            db.faults = FaultPlan().fail(
                "block.materialize", error=RuntimeError("kernel bug")
            )
            plan = db.explain_plan(self.AGG, analyze=True)
            [aggregate] = plan.find("aggregate")
            assert aggregate.span is not None
            strategy = aggregate.span.attributes["strategy"]
            assert strategy == "row-partitioned (fallback)"
            assert (
                "kernel bug"
                in aggregate.span.attributes["fallback_reason"]
            )
            # The failed vectorized attempt stays visible in the raw
            # trace, marked failed, and did not pair with the operator.
            failed = [
                span
                for span in plan.trace.find("aggregate")
                if span.attributes.get("failed")
            ]
            assert len(failed) == 1
            # Stage totals still reconcile with the (row-path) spans.
            metrics = plan.metrics
            assert plan.trace.total_seconds("scan") == pytest.approx(
                metrics.scan_seconds
            )

    def test_fallback_failure_propagates_typed(self):
        # When the row path fails too, the statement fails with the row
        # path's typed error — degradation retries once, not forever.
        with _scoring_db(4) as db:
            db.faults = FaultPlan().fail("engine.task", partition=1)
            with pytest.raises(PartitionExecutionError) as excinfo:
                db.execute(self.AGG)
            assert excinfo.value.partitions == [1]
            assert db._executor.last_metrics.fallbacks == 1
            assert db._executor.engine.active_tasks == 0

    def test_armed_but_silent_supervision_changes_nothing(self):
        # The default database runs unsupervised.  A plan armed at every
        # task site, filtered to a partition that does not exist, runs
        # fire() for real and never trips: same rows, no counters.
        with _scoring_db(4) as bare:
            assert bare.faults is NULL_FAULTS
            assert not bare._executor.engine.supervised
            expected = bare.execute(self.AGG)
        silent = FaultPlan([
            FaultSpec(site, partition=99)
            for site in ("partition.scan", "block.materialize", "engine.task")
        ])
        with _scoring_db(4, faults=silent, task_retries=2) as armed:
            result = armed.execute(self.AGG)
        assert result.rows == expected.rows
        assert silent.trips() == 0
        metrics = result.metrics
        assert (metrics.task_retries, metrics.task_timeouts) == (0, 0)
        assert metrics.fallbacks == 0 and not metrics.fallback_reason

    def test_retries_preempt_fallback(self):
        # A flaky kernel healed by engine retries never degrades.
        with _scoring_db(4) as db:
            expected = db.execute(self.AGG)
            db.task_retries = 2
            db.faults = FaultPlan().flaky(
                "block.materialize", times=1, partition=2
            )
            result = db.execute(self.AGG)
            assert result.rows == expected.rows
            assert result.metrics.fallbacks == 0
            assert result.metrics.task_retries == 1


# ------------------------------------------- block-cache thread safety
class TestBlockCacheAccounting:
    def test_counters_exact_under_many_workers(self):
        # Satellite regression: cache hit/miss totals are assembled from
        # per-task locals merged in partition order, so they are exact
        # for every statement at any worker count.
        with _scoring_db(8) as db:
            query = "SELECT sum(x1), sum(x2) FROM x"
            first = db.execute(query).metrics
            tasks = first.parallel_tasks
            assert tasks > 1
            assert first.block_cache_misses == tasks
            assert first.block_cache_hits == 0
            for _ in range(20):
                metrics = db.execute(query).metrics
                assert metrics.block_cache_hits == tasks
                assert metrics.block_cache_misses == 0


# -------------------------------------------------- insert_many atomicity
def _pk_table(db):
    db.execute(
        "CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT)"
    )
    return db.table("t")


class TestInsertManyFaults:
    def test_validation_failure_keeps_validated_prefix(self):
        with Database(amps=4) as db:
            table = _pk_table(db)
            rows = [(0, 0.0), (1, 1.0), (2, 2.0), (1, 99.0), (4, 4.0)]
            with pytest.raises(ConstraintViolation):
                table.insert_many(rows)
            # Rows validated before the duplicate PK are kept — exactly
            # the per-row loop's behaviour; the suffix never lands.
            assert table.row_count == 3
            assert sorted(r[0] for r in table.rows()) == [0, 1, 2]

    def test_flush_failure_rolls_back_whole_batch(self):
        # Fail the flush of partition 2: partitions 0 and 1 have already
        # been extended when it trips, and must be rolled back.
        plan = FaultPlan().fail("insert.flush", partition=2)
        with Database(amps=4, faults=plan) as db:
            table = _pk_table(db)
            rows = [(i, float(i)) for i in range(20)]
            with pytest.raises(FaultInjected):
                table.insert_many(rows)
            assert table.row_count == 0
            assert all(p.row_count == 0 for p in table.partitions)

    def test_flush_rollback_releases_primary_keys(self):
        plan = FaultPlan().flaky("insert.flush", times=1, partition=0)
        with Database(amps=4, faults=plan) as db:
            table = _pk_table(db)
            rows = [(i, float(i)) for i in range(20)]
            with pytest.raises(FaultInjected):
                table.insert_many(rows)
            assert table.row_count == 0
            # Retrying the identical batch succeeds: the failed flush
            # released its staged keys — no phantom duplicates.
            assert table.insert_many(rows) == 20
            assert table.row_count == 20

    def test_sql_insert_under_flush_fault_leaves_table_unchanged(self):
        with Database(amps=4) as db:
            _pk_table(db)
            db.execute("INSERT INTO t VALUES (1, 1.0)")
            # Arm after the seed row so only the batch can trip.
            db.faults = FaultPlan().fail("insert.flush")
            with pytest.raises(FaultInjected):
                db.execute(
                    "INSERT INTO t VALUES (2, 2.0), (3, 3.0), "
                    "(4, 4.0), (5, 5.0), (6, 6.0)"
                )
            db.faults = None
            assert db.table("t").row_count == 1
            assert db.execute("SELECT i FROM t").rows == [(1,)]


# ------------------------------------------------------- close() safety
class TestCloseSafety:
    def test_close_during_in_flight_parallel_query(self):
        with _scoring_db(4) as db:
            expected = db.execute("SELECT sum(x1), count(*) FROM x").rows
            db.faults = FaultPlan().delay("engine.task", seconds=0.05)
            outcome: dict = {}

            def run():
                try:
                    outcome["rows"] = db.execute(
                        "SELECT sum(x1), count(*) FROM x"
                    ).rows
                except BaseException as exc:  # noqa: BLE001
                    outcome["error"] = exc

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.02)  # let the query reach the pool
            db.close()  # blocks until in-flight tasks finish
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            # The in-flight statement completed correctly or failed
            # typed — never hung, never returned garbage.
            if "error" in outcome:
                assert isinstance(outcome["error"], ReproError)
            else:
                assert outcome["rows"] == expected
            assert db._executor.engine.active_tasks == 0

    def test_double_close_is_idempotent(self):
        db = _scoring_db(4)
        db.execute("SELECT count(*) FROM x")
        db.close()
        db.close()

    def test_query_after_close_recreates_pool(self):
        db = _scoring_db(4)
        before = db.execute("SELECT sum(x1), count(*) FROM x").rows
        db.close()
        assert db.execute("SELECT sum(x1), count(*) FROM x").rows == before
        assert db._executor.engine.pools_created == 2
        db.close()

    def test_context_manager_closes_after_exception(self):
        with pytest.raises(RuntimeError, match="user code"):
            with _scoring_db(4) as db:
                db.execute("SELECT count(*) FROM x")
                raise RuntimeError("user code")
        assert db._executor.engine._pool is None
