"""The Database facade: the user-visible entry point to the substrate.

A :class:`Database` owns a catalog, a cost model with its simulated
clock, and an executor.  ``execute()`` takes SQL text and returns a
:class:`QueryResult` carrying both the rows and the simulated seconds
the statement cost — the number every benchmark in this reproduction
reports.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.dbms.catalog import Catalog
from repro.dbms.cost import CostModel, CostParameters, Work
from repro.dbms.engine import PartitionEngine
from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.metrics import QueryMetrics
from repro.dbms.schema import TableSchema
from repro.dbms.sql.ast import Explain, Select, Statement
from repro.dbms.sql.executor import Executor, Relation
from repro.dbms.sql.parser import parse_statements
from repro.dbms.sql.plan import Plan
from repro.dbms.storage import Table
from repro.dbms.udf import AggregateUdf, ScalarUdf
from repro.errors import SqlSyntaxError


@dataclass
class QueryResult:
    """Rows plus metadata from one executed statement.

    ``simulated_seconds`` is the analytical cost-model charge (the
    paper's 2007 hardware); ``metrics`` is the real wall-clock record of
    the same execution — per-stage timings, rows and partitions
    processed, worker count.  For a multi-statement script, ``metrics``
    describes the last statement.

    ``plan`` is filled only by ``EXPLAIN [ANALYZE]`` statements: the
    structured operator tree (with cost estimates, optimizer decisions
    and — for ANALYZE — the measured span tree) whose rendered text the
    result rows carry.  Benchmarks assert on plan *shape* through it,
    e.g. ``len(result.plan.scans) == 1``.
    """

    columns: list[str]
    rows: list[tuple]
    simulated_seconds: float
    metrics: QueryMetrics | None = None
    plan: Plan | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """The single value of a 1×1 result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError(
                f"expected a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        return self.rows[0][0]

    def first(self) -> tuple:
        if not self.rows:
            raise ValueError("result has no rows")
        return self.rows[0]

    def column(self, name: str) -> list[Any]:
        lowered = [c.lower() for c in self.columns]
        try:
            position = lowered.index(name.lower())
        except ValueError:
            raise KeyError(f"no column {name!r} in result") from None
        return [row[position] for row in self.rows]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


#: SQL texts a database keeps parsed; the least recently used goes first
STATEMENT_CACHE_CAPACITY = 128


class _StatementCache:
    """Parsed read-only SQL texts of one database, keyed by the text.

    A text is kept only when every statement in it is a SELECT (or an
    EXPLAIN, which wraps one): DML and DDL texts embed their data and
    are rarely re-issued.  AST nodes are frozen dataclasses over tuples
    and nothing downstream writes to them, so executions share the
    cached statements without copying.  Nothing bound is cached — names
    resolve against the catalog on every execution, so dropping a table
    or re-registering a UDF needs no invalidation.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, tuple[Statement, ...]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries

    def get(self, sql: str) -> "tuple[Statement, ...] | None":
        with self._lock:
            statements = self._entries.get(sql)
            if statements is not None:
                self._entries.move_to_end(sql)
            return statements

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def put(self, sql: str, statements: "tuple[Statement, ...]") -> None:
        if not all(isinstance(s, (Select, Explain)) for s in statements):
            return
        with self._lock:
            self._entries[sql] = statements
            while len(self._entries) > STATEMENT_CACHE_CAPACITY:
                self._entries.popitem(last=False)


class Database:
    """An in-process relational database with simulated-time accounting.

    Parameters
    ----------
    amps:
        Number of simulated parallel workers (horizontal partitions per
        table) the *cost model* divides work across; the paper's server
        used 20.
    cost_parameters:
        Charging constants; defaults are calibrated to the paper.
    executor_workers:
        Real OS threads the execution engine uses to run per-partition
        aggregation and block-wise projection concurrently.  The default
        of 1 executes serially and bit-identically to the seed engine;
        any value produces the same query results (partials always merge
        in partition order) — only the wall clock changes.
    vectorized_select:
        Whether eligible single-table SELECTs run block-wise (see
        :mod:`repro.dbms.sql.vectorized`); True by default.  Turning it
        off forces the reference row path — parity tests and the
        row-vs-vector benchmark flip this toggle.
    faults:
        A :class:`~repro.dbms.faults.FaultPlan` to inject failures,
        delays, and flaky behaviour at the engine's fault sites (see
        ``docs/fault_tolerance.md``).  The default ``None`` installs the
        no-op plan, which costs one attribute check on the hot path.
    task_timeout_seconds:
        Per-task wall-clock budget for parallel partition tasks; a task
        exceeding it fails the statement with
        :class:`~repro.errors.PartitionTimeoutError` attribution.
        ``None`` (the default) means no timeout.
    task_retries:
        Bounded retry count for *idempotent* partition tasks (pure
        scans).  0 — the default — preserves fail-fast seed behaviour.
        Attempts are spaced by the engine's exponential backoff (0.01 s,
        doubling).

    A database holding a parallel engine owns a persistent thread pool;
    :meth:`close` releases it (the database stays usable — the pool is
    lazily re-created).  ``Database`` is also a context manager that
    closes on exit.
    """

    def __init__(
        self,
        amps: int = 20,
        cost_parameters: CostParameters | None = None,
        executor_workers: int = 1,
        vectorized_select: bool = True,
        faults: "FaultPlan | NullFaults | None" = None,
        task_timeout_seconds: float | None = None,
        task_retries: int = 0,
    ) -> None:
        params = cost_parameters or CostParameters()
        params.amps = amps
        self.cost = CostModel(params=params)
        self.catalog = Catalog(default_partitions=amps)
        engine = PartitionEngine(
            executor_workers,
            timeout_seconds=task_timeout_seconds,
            max_retries=task_retries,
            faults=faults if faults is not None else NULL_FAULTS,
        )
        self._executor = Executor(self.catalog, self.cost, engine=engine)
        self._executor.vectorized_select = vectorized_select
        if faults is not None:
            self._executor.faults = faults
            self.catalog.install_faults(faults)
        #: parsed SELECT texts (``execute`` / ``execute_batch`` look a
        #: text up before they parse it)
        self._statements = _StatementCache()
        #: callbacks fired by :meth:`close` *before* the engine pool is
        #: released; the serving layer subscribes here so in-flight
        #: score requests drain instead of deadlocking on a dead pool
        self._close_listeners: list[Any] = []

    @property
    def executor_workers(self) -> int:
        """Worker count of the partition-execution engine."""
        return self._executor.engine.workers

    @executor_workers.setter
    def executor_workers(self, workers: int) -> None:
        old = self._executor.engine
        # Keep timeout/retry/fault configuration across swaps.
        self._executor.engine = old.configured_like(workers)
        old.close()

    @property
    def faults(self) -> "FaultPlan | NullFaults":
        """The installed fault plan (``NULL_FAULTS`` when none)."""
        return self._executor.faults

    @faults.setter
    def faults(self, faults: "FaultPlan | NullFaults | None") -> None:
        plan = faults if faults is not None else NULL_FAULTS
        self._executor.faults = plan
        self._executor.engine.faults = plan
        self.catalog.install_faults(plan)

    @property
    def task_timeout_seconds(self) -> float | None:
        """Per-task wall-clock budget (None = unbounded)."""
        return self._executor.engine.timeout_seconds

    @task_timeout_seconds.setter
    def task_timeout_seconds(self, seconds: float | None) -> None:
        self._executor.engine.timeout_seconds = seconds

    @property
    def task_retries(self) -> int:
        """Bounded retry count for idempotent partition tasks."""
        return self._executor.engine.max_retries

    @task_retries.setter
    def task_retries(self, retries: int) -> None:
        self._executor.engine.max_retries = retries

    @property
    def vectorized_select(self) -> bool:
        """Whether eligible SELECTs run block-wise (row path when False)."""
        return self._executor.vectorized_select

    @vectorized_select.setter
    def vectorized_select(self, enabled: bool) -> None:
        self._executor.vectorized_select = enabled

    @property
    def factorized_joins_enabled(self) -> bool:
        """Whether eligible star-join aggregates run factorized (per-base-
        table partial aggregates, the join never materialized).  On by
        default; disable to force the materialized nested-loop join —
        the reference path the factorized results are asserted against."""
        return self._executor.factorized_joins_enabled

    @factorized_joins_enabled.setter
    def factorized_joins_enabled(self, enabled: bool) -> None:
        self._executor.factorized_joins_enabled = enabled

    @property
    def last_factorize_decision(self) -> "Any | None":
        """The :class:`~repro.dbms.sql.factorize.FactorizeDecision` from
        the most recent join statement (``None`` before any)."""
        return self._executor.last_factorize_decision

    def add_close_listener(self, listener: Any) -> None:
        """Invoke *listener()* at the start of every :meth:`close`.

        Listeners run before the engine pool is released and must be
        idempotent (``close`` may be called more than once).  The
        serving layer (:mod:`repro.serving`) registers its shutdown
        here: queued score requests drain and new sessions are rejected
        with a typed error before the pool they depend on disappears.
        """
        self._close_listeners.append(listener)

    def close(self) -> None:
        """Shut down the engine's persistent thread pool (idempotent).

        Close listeners (a :class:`~repro.serving.ServingServer`, for
        example) run first, so anything still executing through this
        database finishes or is rejected in a typed way before the pool
        goes away.  The data stays: the database remains usable, and its
        next parallel statement starts a new pool.  A
        :class:`~repro.dbms.wal.DurableDatabase` closes for good instead
        — its tables let go of their rows, and further use raises
        :class:`~repro.errors.RecoveryError`.
        """
        for listener in self._close_listeners:
            listener()
        self._executor.engine.close()

    def serve(self, **kwargs: Any) -> "Any":
        """A :class:`~repro.serving.ServingServer` over this database.

        Keyword arguments are forwarded to the server constructor
        (``max_sessions``, ``max_batch_size``, ``max_wait_ms``,
        ``max_queue_depth``).  Imported lazily: the serving layer sits
        above both ``repro.dbms`` and ``repro.core``.
        """
        from repro.serving import ServingServer

        return ServingServer(self, **kwargs)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------- SQL
    def execute(self, sql: str) -> QueryResult:
        """Execute one or more ``;``-separated statements.

        Returns the result of the *last* statement; simulated seconds
        cover the whole script.  A SELECT-only text that ran before is
        not parsed again (``metrics.statement_cache_hits``).
        """
        return self._run_script(sql, *self._parse(sql))

    def _parse(self, sql: str) -> "tuple[tuple[Statement, ...], bool]":
        """*sql* parsed, and whether the statement cache supplied it."""
        cached = self._statements.get(sql)
        if cached is not None:
            return cached, True
        return tuple(parse_statements(sql)), False

    def _run_script(
        self, sql: str, statements: "tuple[Statement, ...]", cached: bool
    ) -> QueryResult:
        """Execute the parsed script of *sql*; a text that ran without
        raising enters the statement cache."""
        if not statements:
            raise ValueError("empty SQL script")
        with self.cost.clock.span() as span:
            relation: Relation | None = None
            for statement in statements:
                relation = self._run_statement(statement, cached)
        assert relation is not None
        if not cached:
            self._statements.put(sql, statements)
        return QueryResult(
            columns=relation.column_names,
            rows=relation.rows,
            simulated_seconds=span.seconds,
            metrics=self._executor.last_metrics,
            plan=self._executor.last_plan,
        )

    def _run_statement(self, statement: "Any", cached: bool = False) -> Relation:
        """Execute one parsed statement — the single seam every
        statement of an ``execute()`` script passes through (*cached*:
        its text came from the statement cache).
        :class:`~repro.dbms.wal.DurableDatabase` overrides this to group
        the statement's committed mutations into one atomic write-ahead
        log record (an UPDATE's truncate + re-insert replay as a unit)."""
        return self._executor.execute(statement, statement_cache_hits=int(cached))

    def execute_batch(self, statements: "Sequence[str]") -> list[QueryResult]:
        """Execute N SELECT statements, sharing one scan when provable.

        The guarded rewrite pass (:mod:`repro.dbms.sql.rewrite`) checks
        whether every statement is a single-table aggregate over the
        same stored table.  If so, ONE partition-parallel scan feeds
        every statement's accumulator states (identical statements
        additionally share one accumulation), and each result is
        bit-identical to executing that statement serially at any worker
        count.  If not, the batch silently runs serially — the decision,
        including the refusal reason, is inspectable via
        :meth:`explain_batch`.

        Returns one :class:`QueryResult` per input statement, in order.
        A consolidated batch runs as one unit of work: its statements
        share a single :class:`~repro.dbms.metrics.QueryMetrics` record
        and report the batch's total simulated seconds.
        """
        from repro.dbms.sql.rewrite import plan_batch

        if not statements:
            raise ValueError("empty statement batch")
        # Each distinct text is looked up (and, on a miss, parsed) once,
        # whichever way the batch then runs.
        parsed = {sql: self._parse(sql) for sql in dict.fromkeys(statements)}
        selects = []
        for index, sql in enumerate(statements):
            script, _ = parsed[sql]
            if len(script) != 1:
                raise SqlSyntaxError(
                    f"expected exactly one statement, found {len(script)}"
                )
            if not isinstance(script[0], Select):
                raise ValueError(
                    f"execute_batch takes SELECT statements only; "
                    f"statement {index + 1} is "
                    f"{type(script[0]).__name__}"
                )
            selects.append(script[0])
        decision = plan_batch(self.catalog, selects)
        self._executor.last_batch_decision = decision
        if not decision.consolidated:
            return [self._run_script(sql, *parsed[sql]) for sql in statements]
        with self.cost.clock.span() as span:
            relations = self._executor.execute_batch(
                selects,
                decision,
                statement_cache_hits=sum(parsed[sql][1] for sql in statements),
            )
        for sql, (script, cached) in parsed.items():
            if not cached:
                self._statements.put(sql, script)
        metrics = self._executor.last_metrics
        return [
            QueryResult(
                columns=relation.column_names,
                rows=relation.rows,
                simulated_seconds=span.seconds,
                metrics=metrics,
            )
            for relation in relations
        ]

    def explain_batch(
        self, statements: "Sequence[str]", analyze: bool = False
    ) -> Plan:
        """The structured plan :meth:`execute_batch` would run.

        A consolidated batch shows exactly one ``scan`` node — later
        distinct statements carry ``shared-scan`` markers — plus the
        rewrite pass's decision notes on the ``batch`` root; a refused
        batch keeps all N scans and notes the refusing guard.
        Analytical only by default (nothing executes, no time charged);
        ``analyze=True`` executes the batch under span tracing and
        attaches the measured spans.
        """
        from repro.dbms.sql.ast import Select
        from repro.dbms.sql.parser import parse_statement
        from repro.dbms.sql.rewrite import build_batch_plan, plan_batch
        from repro.dbms.trace import NULL_TRACER, Tracer

        if not statements:
            raise ValueError("empty statement batch")
        selects = []
        for index, sql in enumerate(statements):
            statement = parse_statement(sql)
            if not isinstance(statement, Select):
                raise ValueError(
                    f"explain_batch takes SELECT statements only; "
                    f"statement {index + 1} is "
                    f"{type(statement).__name__}"
                )
            selects.append(statement)
        decision = plan_batch(self.catalog, selects)
        self._executor.last_batch_decision = decision
        plan = build_batch_plan(
            self.catalog,
            selects,
            self.cost.params,
            decision,
            self._executor.vectorized_select,
        )
        if analyze:
            tracer = Tracer()
            self._executor.tracer = tracer
            try:
                if decision.consolidated:
                    self._executor.execute_batch(selects, decision)
                else:
                    for select in selects:
                        self._executor.execute(select)
            finally:
                self._executor.tracer = NULL_TRACER
            plan.analyze = True
            plan.attach_trace(tracer.root, self._executor.last_metrics)
        self._executor.last_plan = plan
        return plan

    def explain(self, sql: str, analyze: bool = False) -> str:
        """EXPLAIN a SELECT: plan tree, rewrites, estimated cost.

        Analytical only by default — nothing is executed and no time is
        charged.  With ``analyze=True`` the statement runs under span
        tracing and the text includes measured per-operator wall clock
        (equivalent to ``execute("EXPLAIN ANALYZE ...")``).
        """
        from repro.dbms.sql.ast import Explain, Select
        from repro.dbms.sql.parser import parse_statement

        statement = parse_statement(sql)
        if isinstance(statement, Explain):
            statement = statement.statement
        if not isinstance(statement, Select):
            raise ValueError("EXPLAIN is only supported for SELECT statements")
        relation = self._executor.execute(Explain(statement, analyze=analyze))
        return "\n".join(row[0] for row in relation.rows)

    def explain_plan(self, sql: str, analyze: bool = False) -> Plan:
        """The structured :class:`~repro.dbms.sql.plan.Plan` for a SELECT.

        Same semantics as :meth:`explain`, returning the operator tree
        instead of its rendered text — the API plan-shape tests and the
        bench harness assert against."""
        self.explain(sql, analyze=analyze)
        plan = self._executor.last_plan
        assert plan is not None
        return plan

    def execute_optimized(self, sql: str) -> QueryResult:
        """Execute one SELECT after the Section 3.6 rewrites (join
        elimination, group-by pushdown).  Results are identical to
        :meth:`execute`; only the plan — and therefore the simulated
        time — may differ."""
        from repro.dbms.sql.ast import Select
        from repro.dbms.sql.optimizer import QueryOptimizer
        from repro.dbms.sql.parser import parse_statement

        statement = parse_statement(sql)
        if not isinstance(statement, Select):
            return self.execute(sql)
        optimized = QueryOptimizer(self.catalog).optimize(statement).optimized
        with self.cost.clock.span() as span:
            relation = self._executor.execute(optimized)
        return QueryResult(
            columns=relation.column_names,
            rows=relation.rows,
            simulated_seconds=span.seconds,
            metrics=self._executor.last_metrics,
        )

    # ------------------------------------------------------------- catalogue
    def create_table(
        self,
        name: str,
        schema: TableSchema,
        row_scale: float = 1.0,
    ) -> Table:
        """Create a table directly (bypassing SQL), with an optional
        cost-model row scale for benchmarking (see repro.dbms.cost)."""
        return self.catalog.create_table(name, schema, row_scale=row_scale)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        self.catalog.drop_table(name, if_exists)

    def register_udf(self, udf: ScalarUdf | AggregateUdf) -> None:
        if isinstance(udf, AggregateUdf):
            self.catalog.register_aggregate_udf(udf)
        else:
            self.catalog.register_scalar_udf(udf)

    # --------------------------------------------------------------- loading
    def load_columns(
        self, table_name: str, columns: dict[str, "np.ndarray | Sequence[Any]"]
    ) -> int:
        """Bulk load column arrays into a table, charging insert cost."""
        table = self.catalog.table(table_name)
        loaded = table.bulk_load_arrays(columns)
        self._clock_insert(table, loaded)
        return loaded

    def insert_rows(
        self, table_name: str, rows: Iterable[Sequence[Any]]
    ) -> int:
        table = self.catalog.table(table_name)
        inserted = table.insert_many(rows)
        self._clock_insert(table, inserted)
        return inserted

    def _clock_insert(self, table: Table, rows: int) -> None:
        work = Work()
        work.insert(rows * table.row_scale, table.width)
        self.cost.charge(work)

    # ------------------------------------------------------------------ time
    @property
    def simulated_time(self) -> float:
        """Total simulated seconds charged so far."""
        return self.cost.clock.elapsed

    def reset_clock(self) -> None:
        self.cost.clock.reset()
