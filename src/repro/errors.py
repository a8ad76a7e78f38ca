"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The DBMS substrate mirrors the
error categories a real relational engine reports: syntax errors from the
parser, semantic errors from the planner (unknown tables/columns, type
mismatches), runtime errors from the executor, and UDF-specific errors
that model the constraints the paper describes for Teradata's C UDF API
(no arrays, bounded heap segment, static MAX_d).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class DatabaseError(ReproError):
    """Base class for errors raised by the DBMS substrate."""


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so error messages can point at the
    token, the way a DBMS parser reports ``Syntax error at or near ...``.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CatalogError(DatabaseError):
    """A catalog object (table, view, UDF) is missing or duplicated."""


class SchemaError(DatabaseError):
    """A table schema is invalid (duplicate columns, bad types, ...)."""


class PlanningError(DatabaseError):
    """The statement parsed but cannot be planned.

    Examples: unknown column, aggregate nested in aggregate, GROUP BY
    referencing a missing expression.
    """


class ExecutionError(DatabaseError):
    """A runtime failure while executing a plan (division by zero on a
    non-null path, bad cast, arity mismatch in a function call)."""


class FaultInjected(DatabaseError):
    """The default error raised by a fault-injection site.

    Only ever raised when a :class:`repro.dbms.faults.FaultPlan` is
    installed (tests, chaos engineering); production code paths never
    construct it.  Carries the site name and the attributes the site
    fired with, so chaos tests can assert exactly which injection
    tripped.
    """

    def __init__(self, site: str, **attributes: object) -> None:
        detail = ", ".join(f"{k}={v!r}" for k, v in attributes.items())
        message = f"injected fault at {site!r}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)
        self.site = site
        self.attributes = attributes


class RecoveryError(DatabaseError):
    """Crash recovery found durable state it cannot trust.

    Raised by ``open_durable`` when the write-ahead log is corrupt in
    the *middle* (a bad checksum with valid records after it — disk
    damage, not a torn tail), when the manifest is unreadable, or when a
    WAL record references state the checkpoint does not have.  A torn
    *tail* — an interrupted final write — is not an error: it is
    truncated silently, which is the standard ARIES contract.
    """


class SimulatedCrash(DatabaseError):
    """A deterministic, injected process death for crash-recovery tests.

    Armed through a :class:`~repro.dbms.faults.FaultSpec` at one of the
    durability fault sites (``wal.append``, ``wal.fsync``,
    ``checkpoint.write``).  When it fires, the durable session drops
    every WAL byte that was not yet fsynced — the pessimistic model of
    dying with dirty OS buffers — optionally leaves the first
    ``torn_bytes`` bytes of the first lost record on disk (a torn
    write), and marks itself dead; the test then reopens the directory
    with ``open_durable`` and asserts the committed-prefix invariant.
    """

    def __init__(
        self, message: str = "simulated process crash", torn_bytes: int = 0
    ) -> None:
        super().__init__(message)
        self.torn_bytes = torn_bytes

    def __reduce__(self):
        return (type(self), (self.args[0], self.torn_bytes))


class PartitionTimeoutError(DatabaseError):
    """A per-partition engine task exceeded its ``timeout_seconds``.

    The worker thread running the task cannot be killed, so the engine
    abandons its pool (see ``PartitionEngine.map``) and reports the
    timeout through :class:`PartitionExecutionError`; the stuck task is
    accounted for by ``PartitionEngine.active_tasks`` until it finishes.
    """

    def __init__(
        self, partition: int | None, timeout_seconds: float
    ) -> None:
        where = f"partition {partition}" if partition is not None else "task"
        super().__init__(
            f"{where} exceeded the {timeout_seconds:g}s task timeout"
        )
        self.partition = partition
        self.timeout_seconds = timeout_seconds

    def __reduce__(self):
        return (type(self), (self.partition, self.timeout_seconds))


class PartitionExecutionError(DatabaseError):
    """One or more per-partition engine tasks failed under parallel
    execution.

    Aggregates every *observed* task error with per-partition
    attribution (``errors`` is a list of ``(partition, exception)``
    pairs in partition order).  ``first_error`` — the failure of the
    lowest-numbered failing partition — is deterministic across runs and
    worker counts because the engine gathers results strictly in
    submission order; it is also set as ``__cause__``.  Later siblings
    may or may not have started before cancellation, so ``errors`` can
    grow with scheduling, but its first entry never changes.
    """

    def __init__(
        self,
        errors: "list[tuple[int | None, BaseException]]",
        cancelled: int = 0,
    ) -> None:
        if not errors:
            raise ValueError("PartitionExecutionError needs >= 1 task error")
        partition, first = errors[0]
        where = f"partition {partition}" if partition is not None else "a task"
        message = (
            f"{len(errors)} partition task(s) failed "
            f"({cancelled} cancelled before starting); first error in "
            f"{where}: {type(first).__name__}: {first}"
        )
        super().__init__(message)
        self.errors = errors
        self.cancelled = cancelled

    def __reduce__(self):
        return (type(self), (self.errors, self.cancelled))

    @property
    def first_error(self) -> BaseException:
        """The lowest-partition-number failure (deterministic identity)."""
        return self.errors[0][1]

    @property
    def partitions(self) -> "list[int | None]":
        """The partitions that reported errors, in partition order."""
        return [partition for partition, _ in self.errors]


class TypeMismatchError(ExecutionError):
    """A value could not be coerced to the declared SQL type."""


class ConstraintViolation(DatabaseError):
    """A primary-key or not-null constraint was violated on insert."""


class UdfError(DatabaseError):
    """Base class for errors in user-defined function handling."""


class UdfRegistrationError(UdfError):
    """The UDF definition itself is invalid (bad arity, name clash)."""


class UdfArgumentError(UdfError):
    """A UDF was invoked with arguments it cannot accept.

    This mirrors the paper's constraint that Teradata UDF parameters may
    only be simple types — never arrays or result sets.
    """


class UdfMemoryError(UdfError):
    """Aggregate UDF state outgrew its allocated heap segment.

    The paper notes the aggregate heap is limited to one 64 KB segment on
    Unix/Windows; exceeding it is an error at allocation time, and the
    static ``MAX_d`` struct layout exists precisely to respect it.
    """


class PackingError(ReproError):
    """A packed-string payload (vector or (n, L, Q) result) is malformed."""


class ModelError(ReproError):
    """A statistical model cannot be built or applied.

    Examples: singular X·Xᵀ in regression, k > d in PCA, scoring a data
    set whose dimensionality does not match the model.
    """


class ServingError(ReproError):
    """Base class for errors raised by the model-serving layer
    (:mod:`repro.serving`): session admission, snapshot reads, the
    versioned model registry, and the micro-batching scorer."""


class ServingClosedError(ServingError):
    """The serving server has shut down (directly or via
    ``Database.close``): new sessions and new score requests are
    rejected.  Requests already queued when the shutdown began are
    drained and answered, never dropped."""


class ServingOverloadedError(ServingError):
    """Admission control rejected the request: the micro-batch queue is
    at ``max_queue_depth`` or the session pool is at ``max_sessions``.
    The caller should back off and retry; nothing was enqueued."""


class SnapshotInvalidatedError(ServingError):
    """A snapshot read found its pinned table version destroyed.

    Appends after the pin are fine — the snapshot keeps serving its
    stale-but-consistent prefix — but a destructive mutation (TRUNCATE,
    DROP/CREATE) discards the pinned rows, so every later read through
    the snapshot raises this instead of returning torn data.
    """


class RegistryError(ServingError):
    """A model-registry operation failed: unknown model name, unknown
    version, an unregistrable model object, or an invalid model name."""


class ExportError(ReproError):
    """The ODBC export simulator failed (bad path, unsupported type)."""


class WorkloadError(ReproError):
    """A synthetic workload specification is invalid."""
