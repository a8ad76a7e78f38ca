"""The multi-client serving layer: sessions, snapshots, one writer door.

A :class:`ServingServer` wraps one :class:`~repro.dbms.database.Database`
for concurrent model scoring:

* **sessions** — every client opens a :class:`ServingSession` from a
  bounded pool (``max_sessions``); a session's reads are
  *snapshot-consistent*: the first touch of a table pins its
  ``Table.version`` and per-partition row counts under the server's
  write lock, and every later read in the session answers against that
  immutable prefix while writers keep appending;
* **registry** — models are bound through the catalog-resident
  :class:`~repro.serving.registry.ModelRegistry`; a session pins its
  binding (name → version) at first use, so a concurrent ``promote``
  never flips which parameters answer an in-flight session;
* **micro-batching** — point-score requests funnel into the
  :class:`~repro.serving.batcher.MicroBatchScorer`, which coalesces
  concurrent small requests into one batched-kernel dispatch.

Writes go through :meth:`ServingServer.write` /
:meth:`ServingServer.insert_rows`, serialized on one lock.  That lock is
also held while pinning snapshots, which is what makes pins safe against
``insert_many``'s rollback (a pin can never observe a half-flushed batch
whose tail a failure would retract).

``ServingServer.close`` — called directly or via ``Database.close``,
where it is registered as a close listener — drains the micro-batch
queue (queued requests are answered, not dropped) and rejects new
sessions and requests with :class:`~repro.errors.ServingClosedError`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.core.scoring.udfs import register_scoring_udfs
from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.metrics import QueryMetrics
from repro.errors import ServingClosedError, ServingError, ServingOverloadedError
from repro.serving.batcher import MicroBatchScorer
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry, RegisteredModel
from repro.serving.snapshot import TableSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dbms.database import Database, QueryResult


@dataclass
class ScoreResult:
    """One answered score request, stamped with its provenance.

    ``model_version`` says exactly which registered parameters produced
    the values; ``batched_with`` how many requests the answering flush
    coalesced (1 = the request ran alone); ``metrics`` the flush's
    shared :class:`QueryMetrics` record.
    """

    values: "list[Any]"
    model_name: str
    model_version: int
    batched_with: int
    latency_seconds: float
    metrics: QueryMetrics | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def scalar(self) -> Any:
        if len(self.values) != 1:
            raise ValueError(
                f"expected a single score, got {len(self.values)}"
            )
        return self.values[0]


class ServingSession:
    """One client's view of the server: pinned snapshots, pinned models.

    Sessions are cheap; hold one per logical unit of work (a scoring
    conversation that must see a consistent database state) and close it
    — or use it as a context manager — when done.  Sessions are not
    thread-safe; each client thread opens its own.
    """

    def __init__(self, server: "ServingServer", session_id: int) -> None:
        self._server = server
        self.session_id = session_id
        self._snapshots: dict[str, TableSnapshot] = {}
        self._models: dict[tuple[str, "int | None"], RegisteredModel] = {}
        self._closed = False

    # ------------------------------------------------------------- pinning
    def snapshot(self, table: str) -> TableSnapshot:
        """This session's pinned snapshot of *table* (pinned on first
        use, under the server's write lock; reused afterwards)."""
        self._check_open()
        key = table.lower()
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            snapshot = self._server._pin_snapshot(key)
            self._snapshots[key] = snapshot
        return snapshot

    def model(
        self, name: str, version: "int | None" = None
    ) -> RegisteredModel:
        """This session's binding of *name* (resolved on first use).

        With ``version=None`` the binding resolves to the version
        promoted *at first use* and stays pinned: a concurrent
        ``promote`` changes later sessions, never this one.
        """
        self._check_open()
        key = (name.lower(), version)
        model = self._models.get(key)
        if model is None:
            model = self._server.registry.get(name, version)
            self._models[key] = model
        return model

    # ------------------------------------------------------------- scoring
    def score(
        self,
        model_name: str,
        points: "np.ndarray | Sequence[Any]",
        version: "int | None" = None,
        coalesce: bool = True,
        timeout: float = 30.0,
    ) -> ScoreResult:
        """Score *points* (one row or a small block) through the
        micro-batch queue.

        ``coalesce=False`` bypasses the queue and scores synchronously —
        the naive per-request path the serving benchmark compares
        against; results are bit-identical either way.
        """
        self._check_open()
        model = self.model(model_name, version)
        X = model.validate_points(points)
        if coalesce:
            request = self._server._batcher.submit(model, X)
        else:
            request = self._server._batcher.score_sync(model, X)
        values = request.wait(timeout)
        return ScoreResult(
            values=values,
            model_name=model.name,
            model_version=model.version,
            batched_with=request.batched_with,
            latency_seconds=time.monotonic() - request.submitted_at,
            metrics=request.metrics,
        )

    def score_table(
        self,
        model_name: str,
        table: str,
        columns: Sequence[str],
        version: "int | None" = None,
    ) -> ScoreResult:
        """Score every pinned row of *table* against a registered model.

        Reads the session snapshot (appends after the pin are invisible;
        a TRUNCATE since the pin raises
        :class:`~repro.errors.SnapshotInvalidatedError`) and makes one
        batched-kernel dispatch over the whole block — no queue, the
        request already is a batch.
        """
        self._check_open()
        model = self.model(model_name, version)
        snapshot = self.snapshot(table)
        started = time.perf_counter()
        X = snapshot.numeric_matrix(columns)
        if X.shape[1] != model.d:
            raise ServingError(
                f"model {model.name!r} v{model.version} scores d={model.d} "
                f"points but {len(list(columns))} columns were read from "
                f"{snapshot.name!r}"
            )
        self._server.metrics.record_snapshot_read()
        values = model.finalize_scores(model.score_batch(X))
        elapsed = time.perf_counter() - started
        metrics = QueryMetrics(
            workers=1,
            total_seconds=elapsed,
            scan_seconds=0.0,
            accumulate_seconds=elapsed,
            rows_processed=snapshot.row_count,
            rows_scanned=snapshot.row_count,
            partitions_processed=len(snapshot.table.partitions),
            groups=1,
        )
        return ScoreResult(
            values=values,
            model_name=model.name,
            model_version=model.version,
            batched_with=1,
            latency_seconds=elapsed,
            metrics=metrics,
        )

    def summary(
        self,
        table: str,
        columns: Sequence[str],
        matrix_type: MatrixType = MatrixType.TRIANGULAR,
    ) -> SummaryStatistics:
        """The (n, L, Q) summary of the session's pinned rows, computed
        over the snapshot prefix."""
        self._check_open()
        snapshot = self.snapshot(table)
        snapshot.validate()
        self._server.metrics.record_snapshot_read()
        return snapshot.summary(columns, matrix_type)

    # ----------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._snapshots.clear()
        self._server._release_session()

    def _check_open(self) -> None:
        if self._closed:
            raise ServingClosedError(
                f"session {self.session_id} is closed"
            )
        if self._server.closed:
            raise ServingClosedError(
                "the serving server is shut down; open sessions are "
                "read-only tombstones"
            )

    def __enter__(self) -> "ServingSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServingSession(id={self.session_id}, "
            f"snapshots={sorted(self._snapshots)}, "
            f"models={sorted(k[0] for k in self._models)}, "
            f"closed={self._closed})"
        )


class ServingServer:
    """Multi-client serving over one database.

    Construct directly or via :meth:`Database.serve`.  The server
    registers itself as a database close listener, so ``db.close()``
    drains in-flight requests and rejects new work with a typed error
    instead of letting queued requests deadlock on a dead engine pool.
    """

    def __init__(
        self,
        db: "Database",
        max_sessions: int = 64,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        max_queue_depth: int = 1024,
    ) -> None:
        if max_sessions < 1:
            raise ServingError("max_sessions must be >= 1")
        self.db = db
        self.max_sessions = max_sessions
        self.metrics = ServingMetrics()
        #: serializes writers, registry mutations and snapshot pins
        self._write_lock = threading.RLock()
        self.registry = ModelRegistry(db, lock=self._write_lock)
        self._batcher = MicroBatchScorer(
            self.metrics,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            max_queue_depth=max_queue_depth,
            faults=lambda: db.faults,
        )
        self._admission = threading.Lock()
        self._session_count = 0
        self._session_serial = 0
        self._closed = False
        # Scoring goes through the same UDF kernels as SQL; make sure
        # the SQL route (EXPLAIN included) can resolve them too.
        if db.catalog.scalar_udf("linearregscore") is None:
            register_scoring_udfs(db)
        db.add_close_listener(self.close)

    # -------------------------------------------------------------- sessions
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def max_batch_size(self) -> int:
        return self._batcher.max_batch_size

    @property
    def max_wait_ms(self) -> float:
        return self._batcher.max_wait_ms

    @property
    def max_queue_depth(self) -> int:
        return self._batcher.max_queue_depth

    def session(self) -> ServingSession:
        """Open a session (raises typed errors when closed / at the cap)."""
        with self._admission:
            if self._closed:
                self.metrics.record_session_rejected()
                raise ServingClosedError(
                    "serving is shut down; new sessions are rejected"
                )
            if self._session_count >= self.max_sessions:
                self.metrics.record_session_rejected()
                raise ServingOverloadedError(
                    f"session pool is full ({self.max_sessions} active); "
                    f"close a session or raise max_sessions"
                )
            self._session_count += 1
            self._session_serial += 1
            serial = self._session_serial
        self.metrics.record_session(opened=True)
        return ServingSession(self, serial)

    def _release_session(self) -> None:
        with self._admission:
            self._session_count = max(0, self._session_count - 1)
        self.metrics.record_session(opened=False)

    # --------------------------------------------------------------- writes
    def write(self, sql: str) -> "QueryResult":
        """Execute a mutating statement, serialized with other writers
        and with snapshot pins."""
        if self._closed:
            raise ServingClosedError("serving is shut down; write rejected")
        with self._write_lock:
            return self.db.execute(sql)

    def insert_rows(
        self, table: str, rows: "Sequence[Sequence[Any]]"
    ) -> int:
        """Append rows, serialized like :meth:`write`."""
        if self._closed:
            raise ServingClosedError("serving is shut down; write rejected")
        with self._write_lock:
            return self.db.insert_rows(table, rows)

    def _pin_snapshot(self, table: str) -> TableSnapshot:
        # Under the write lock a pin can never observe a half-flushed
        # insert_many batch (whose rollback would retract pinned rows).
        with self._write_lock:
            return TableSnapshot(self.db.table(table))

    # -------------------------------------------------------------- explain
    def explain_score(
        self,
        model_name: str,
        version: "int | None" = None,
        table: "str | None" = None,
        columns: "Sequence[str] | None" = None,
        id_column: str = "i",
    ) -> str:
        """What scoring through this server executes, and why.

        Always reports the registry binding (which version answered and
        why) and the micro-batching configuration with live queue state.
        Given a *table* and its dimension *columns*, also renders the
        engine's EXPLAIN of the equivalent single-scan inline-parameter
        statement — the same kernels the micro-batcher dispatches.
        """
        binding = "explicit" if version is not None else "promoted"
        model = self.registry.get(model_name, version)
        lines = [
            f"serving: registry bind {model.name!r} -> v{model.version} "
            f"({binding}; kind={model.kind}, d={model.d}, "
            f"output={model.output_column})",
            f"serving: micro-batch max_batch_size={self.max_batch_size} "
            f"max_wait_ms={self.max_wait_ms:g} "
            f"queue_depth={self._batcher.queue_depth} "
            f"coalesce_factor={self.metrics.coalesce_factor:.2f}",
            "serving: snapshot reads pin table.version at session start; "
            "concurrent appends stay invisible, TRUNCATE invalidates",
        ]
        if table is not None:
            if columns is None:
                raise ServingError(
                    "explain_score needs the dimension columns when a "
                    "table is given"
                )
            generator = ScoringSqlGenerator(
                table=table, dimensions=list(columns), id_column=id_column
            )
            spec = model.spec
            sql = generator.inline_sql(
                spec.kernel, spec.params, spec.combine, spec.sql_column
            )
            with self._write_lock:
                plan = self.db.explain(sql)
            lines.append(
                "serving: plan of the equivalent single-scan statement:"
            )
            lines.append(plan)
        return "\n".join(lines)

    # ------------------------------------------------------------- shutdown
    def close(self, drain: bool = True) -> None:
        """Shut serving down (idempotent; registered on ``db.close``).

        New sessions, writes and score requests are rejected with
        :class:`ServingClosedError`; requests already queued are drained
        and answered (``drain=False`` fails them typed instead).
        """
        with self._admission:
            if self._closed:
                return
            self._closed = True
        self._batcher.close(drain=drain)

    def __enter__(self) -> "ServingServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServingServer(sessions={self._session_count}/"
            f"{self.max_sessions}, queue={self._batcher.queue_depth}, "
            f"closed={self._closed})"
        )
