"""Deterministic simulated-time accounting for the DBMS substrate.

The paper's evaluation ran on a 2007 Teradata system (20 parallel AMP
threads) and a 1.6 GHz workstation.  We cannot rerun that hardware, so
the engine executes every query for real (numeric results are exact)
while *time* is accounted here, in two steps:

* a statement fills one :class:`Work` record of what ran — rows scanned
  × width, expression nodes per row, UDF calls with their parameters,
  spooled cells, sorted rows, inserted values — through the record's
  per-operator helpers and :func:`record_aggregate`;
* :func:`simulate` prices a record in simulated seconds.  It is the only
  code that reads a :class:`CostParameters` field.

The executor charges a statement's record to the :class:`SimulatedClock`
once, when the statement ends.  EXPLAIN fills one record per plan
operator with the same helpers from estimated cardinalities.  The rules,
the paper mechanisms they encode and their fit to Tables 1-5 and
Figures 1-5 are in ``docs/cost_model.md`` and :mod:`repro.bench.calibration`.

Tables may carry a ``row_scale`` factor: the storage holds ``n / scale``
physical rows but every per-row quantity is multiplied by the scale, so
benchmarks can simulate the paper's 1.6M-row data sets while computing
on a reduced sample.  Every per-row price is linear, so the accounting
is exact.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.dbms.functions import AGGREGATE_BUILTINS, SCALAR_BUILTINS
from repro.dbms.sql import ast
from repro.dbms.types import VALUE_WIDTH_BYTES
from repro.dbms.udf import RowCost


@dataclass
class CostParameters:
    """Pricing constants, all in simulated seconds (or bytes where noted).

    Per-row constants are *pre-parallelism*: the price of one row on
    one worker; :func:`simulate` divides by ``amps`` where work is spread.
    """

    #: number of parallel AMP threads the server divides scan work across
    amps: int = 20

    # ------------------------------------------------------------------ scans
    #: per-row overhead of reading a row from disk
    scan_row: float = 60.0e-6
    #: additional per-value cost of reading one column of a row
    scan_value: float = 2.0e-6

    # ------------------------------------------------------------ SQL queries
    #: fixed statement overhead (optimizer, dispatch)
    sql_statement_overhead: float = 0.2
    #: parse/plan cost per select-list term (the 1+d+d² query pays d² here)
    sql_parse_per_term: float = 8.0e-3
    #: creating one column of the result/spool relation (the wide one-row
    #: result of the long query is what hurts SQL at high d)
    sql_spool_cell: float = 8.0e-3
    #: interpreted evaluation of one expression AST node for one row
    sql_eval_node: float = 0.28e-6
    #: writing one cell of a multi-row intermediate spool (joins, derived
    #: tables); tiny — model tables are small and stay in memory
    sql_spool_row_cell: float = 1.0e-8

    # ---------------------------------------------------------- aggregate UDF
    #: per-row overhead of invoking an aggregate UDF (row dispatch into
    #: the protected UDF execution context)
    udf_row_overhead: float = 482.0e-6
    #: transferring one scalar parameter on the run-time stack (list style)
    udf_param: float = 3.0e-6
    #: packing/parsing one character of a string-passed vector
    udf_string_char: float = 1.17e-6
    #: one multiply-add inside the aggregate update loop
    udf_arith_op: float = 0.19e-6
    #: merging one accumulated value during partial-result aggregation
    udf_merge_value: float = 1.2e-5
    #: packing one value of the returned (n, L, Q) payload string
    udf_return_value: float = 1.1e-4

    # ------------------------------------------------------------- scalar UDF
    #: per-call overhead of a scalar UDF in the projection pipeline
    scalar_udf_overhead: float = 12.0e-6
    #: per-parameter transfer for a scalar UDF call
    scalar_udf_param: float = 0.02e-6
    #: one arithmetic operation inside a scalar UDF
    scalar_udf_arith: float = 0.15e-6

    # ----------------------------------------------------------------- groups
    #: hashing a row to its group during GROUP BY aggregation
    groupby_hash_row: float = 0.55e-6
    #: the single heap segment available to an aggregate UDF (paper: 64 KB)
    heap_segment_bytes: int = 65536
    #: aggregation-work multiplier when group state fills over half the
    #: segment (cache pressure — Table 5's climb at k=16)
    groupby_pressure_factor: float = 1.35
    #: multiplier once group state exceeds the whole segment and spills
    #: (Table 5's jump at k=32)
    groupby_spill_factor: float = 5.5

    # ------------------------------------------------------------------- DML
    #: inserting one value (bulk load path)
    insert_value: float = 0.30e-6
    #: per-comparison cost in ORDER BY sorting
    sort_compare: float = 0.35e-6

    def scaled(self, **overrides: float) -> "CostParameters":
        """A copy with some constants replaced (used by ablation benches)."""
        return replace(self, **overrides)


class SimulatedClock:
    """Accumulates simulated seconds charged by the cost model."""

    def __init__(self) -> None:
        self._elapsed = 0.0

    @property
    def elapsed(self) -> float:
        """Total simulated seconds charged since the last reset."""
        return self._elapsed

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._elapsed += seconds

    def reset(self) -> None:
        self._elapsed = 0.0

    @contextlib.contextmanager
    def span(self) -> Iterator["_Span"]:
        """Measure the simulated time charged inside a ``with`` block."""
        span = _Span(self, self._elapsed)
        yield span
        span.finish(self._elapsed)


class _Span:
    """The simulated-seconds delta across a :meth:`SimulatedClock.span`."""

    def __init__(self, clock: SimulatedClock, start: float) -> None:
        self._clock = clock
        self._start = start
        self._end: float | None = None

    def finish(self, end: float) -> None:
        self._end = end

    @property
    def seconds(self) -> float:
        end = self._end if self._end is not None else self._clock.elapsed
        return end - self._start


class UdfRows(NamedTuple):
    """*rows* calls of one aggregate UDF's *profile*; per group,
    *partitions* partials of *state_values* merged and a payload packed.
    *grouped* state presses on the heap segment (the spill grades)."""

    rows: float
    profile: RowCost
    state_values: int = 0
    partitions: int = 0
    groups: int = 1
    grouped: bool = False


@dataclass
class Work:
    """What ran, in the quantities :func:`simulate` prices.  Per-row
    quantities are nominal (physical rows × row scale)."""

    statements: int = 0
    select_terms: int = 0
    scanned_rows: float = 0.0
    #: rows × width read by scans
    scanned_values: float = 0.0
    #: rows × interpreted AST nodes (:func:`expression_nodes`)
    evaluated_nodes: float = 0.0
    #: ``(rows, profile)`` per scalar UDF call site
    scalar_udfs: list[tuple[float, RowCost]] = field(default_factory=list)
    grouped_rows: float = 0.0
    udfs: list[UdfRows] = field(default_factory=list)
    #: columns of result relations
    result_columns: int = 0
    #: rows × width written to multi-row spools
    spooled_cells: float = 0.0
    #: the row count of every sort
    sorts: list[float] = field(default_factory=list)
    inserted_values: float = 0.0

    def statement(self, select_terms: int) -> None:
        self.statements += 1
        self.select_terms += select_terms

    def scan(self, rows: float, width: int) -> None:
        self.scanned_rows += rows
        self.scanned_values += rows * width

    def evaluate(
        self,
        rows: float,
        expressions: Sequence[ast.Expression],
        scalar_udf: "Callable[[str], Any] | None" = None,
    ) -> None:
        """Interpret *expressions* once per row; with a *scalar_udf*
        lookup, each scalar UDF called in them runs once per row too."""
        self.evaluated_nodes += rows * expression_nodes(expressions)
        if scalar_udf is None:
            return
        for expression in expressions:
            for node in ast.walk(expression):
                if isinstance(node, ast.FuncCall):
                    udf = scalar_udf(node.name)
                    if udf is not None:
                        profile = udf.cost_per_row(len(node.args))
                        self.scalar_udfs.append((rows, profile))

    def group(self, rows: float) -> None:
        self.grouped_rows += rows

    def result(self, rows: float, width: int) -> None:
        """A result relation: per *column* (the paper blames SQL's
        superlinear growth in d on the 1 + d + d²-column result table),
        plus a per-cell spool share for more than one row."""
        self.result_columns += width
        if rows > 1:
            self.spool(rows - 1, width)

    def spool(self, rows: float, width: int) -> None:
        self.spooled_cells += rows * width

    def sort(self, rows: float) -> None:
        if rows > 1:  # one row needs no comparison
            self.sorts.append(rows)

    def insert(self, rows: float, width: int) -> None:
        self.inserted_values += rows * width


def record_aggregate(
    work: Work,
    select: ast.Select,
    rows: float,
    udfs: "Sequence[tuple[Any, int]]",
    partitions: int,
    groups: int,
    scalar_udf: "Callable[[str], Any]",
) -> None:
    """The aggregate operator over *rows* input rows: the select list and
    GROUP BY keys per row (scalar UDFs counted in the keys only), the
    group hash, and each ``(aggregate UDF, argument count)`` of *udfs*.
    A WHERE is the caller's own operator over the same rows."""
    work.evaluate(rows, [item.expression for item in select.items])
    work.evaluate(rows, select.group_by, scalar_udf)
    grouped = bool(select.group_by)
    if grouped:
        work.group(rows)
    for udf, arg_count in udfs:
        profile, state = udf.cost_per_row(arg_count), udf.state_value_count()
        work.udfs.append(
            UdfRows(rows, profile, state, partitions, max(groups, 1), grouped)
        )


def expression_nodes(expressions: Sequence[ast.Expression]) -> int:
    """AST-node count the interpreted evaluator pays per row.  A UDF
    call skips its plain column-ref and literal arguments: they ride the
    run-time stack, priced with the call.  Builtin calls count fully."""
    total = 0
    pending = list(expressions)
    while pending:
        node = pending.pop()
        total += 1
        if isinstance(node, ast.FuncCall) and not (
            node.name in SCALAR_BUILTINS or node.name in AGGREGATE_BUILTINS
        ):
            pending.extend(
                arg for arg in node.args
                if not isinstance(arg, (ast.ColumnRef, ast.Literal))
            )
        else:
            pending.extend(ast.children(node))
    return total


def simulate(work: Work, params: CostParameters) -> float:
    """Simulated seconds of *work* under *params* — a pure function."""
    p = params
    seconds = (
        work.statements * p.sql_statement_overhead
        + work.select_terms * p.sql_parse_per_term
        + work.result_columns * p.sql_spool_cell
        + work.inserted_values * p.insert_value
    )
    # Everything per row divides across the AMPs.
    per_amp = (
        work.scanned_rows * p.scan_row
        + work.scanned_values * p.scan_value
        + work.evaluated_nodes * p.sql_eval_node
        + work.grouped_rows * p.groupby_hash_row
        + work.spooled_cells * p.sql_spool_row_cell
        + sum(rows * math.log2(rows) for rows in work.sorts) * p.sort_compare
    )
    for rows, profile in work.scalar_udfs:
        per_amp += rows * (
            p.scalar_udf_overhead
            + profile.list_params * p.scalar_udf_param
            + profile.arith_ops * p.scalar_udf_arith
        )
    for udf in work.udfs:
        multiplier = 1.0
        if udf.grouped:
            # Gentle under half the 64 KB segment (k=1..8), cache pressure
            # up to all of it (k=16), a spill past it (k=32).
            ratio = (
                udf.groups * udf.state_values * VALUE_WIDTH_BYTES
                / p.heap_segment_bytes
            )
            if ratio > 1.0:
                multiplier = p.groupby_spill_factor
            elif ratio > 0.5:
                multiplier = p.groupby_pressure_factor
            else:
                multiplier = 1.0 + 0.25 * ratio
        profile = udf.profile
        per_amp += udf.rows * multiplier * (
            p.udf_row_overhead
            + profile.list_params * p.udf_param
            + profile.arith_ops * p.udf_arith_op
        )
        # String pack/parse is not state management: never multiplied.
        per_amp += udf.rows * profile.string_chars * p.udf_string_char
        seconds += udf.state_values * udf.groups * (
            udf.partitions * p.udf_merge_value + p.udf_return_value
        )
    return seconds + per_amp / p.amps


@dataclass
class CostModel:
    """The cost constants and the clock a database charges."""

    params: CostParameters = field(default_factory=CostParameters)
    clock: SimulatedClock = field(default_factory=SimulatedClock)

    def charge(self, work: Work) -> float:
        """Charge the simulated seconds of *work*; returns them."""
        seconds = simulate(work, self.params)
        self.clock.charge(seconds)
        return seconds
