"""Planning for block-wise (vectorized) SELECT execution.

The paper's scoring story — "apply the model in one scan with scalar
UDFs" (Section 3.5) — is semantically one projection over one table.
This module decides when the executor may run that projection the way
the vectorized aggregate path already runs model builds: materialize
each partition's referenced columns as one float block
(:meth:`~repro.dbms.storage.Partition.numeric_matrix`), evaluate the
WHERE predicate as a three-valued truth *vector*
(:func:`~repro.dbms.expressions.compile_vector_predicate`), evaluate
every computed select item as a numpy array function, and dispatch
scoring UDFs through :meth:`~repro.dbms.udf.ScalarUdf.compute_batch` —
one partition-parallel task per non-empty partition instead of one
Python call per row.

:func:`plan_vectorized_select` is a *pure* analysis: it never touches
stored rows, so both the executor (to run the fast path) and the
EXPLAIN plan builder (to annotate the project operator with
``strategy: vectorized-scan`` / ``strategy: row-scan``) call it and
agree by construction.  The returned :class:`VectorizedDecision`
carries either a compiled :class:`VectorizedSelectPlan` or the precise
reason the query must stay on the row path.

Fallback rules (any one sends the query to the row path, whose
semantics are the reference):

* more than one FROM source, a join, a derived table, or a view;
* a referenced column that is not numeric (blocks are float matrices);
* a WHERE predicate or select item outside the vectorizable subset
  (CASE, IN, string work, non-batch UDFs, ...);
* a select item the row path would return as Python ``int`` — unless it
  is exactly a batch UDF call flagged ``batch_integer_result`` (the
  executor then restores ints from the float block);
* ORDER BY keys that need pre-projection source rows (the block path
  never materializes row tuples);
* nothing to vectorize at all — a plain column projection gains nothing
  from blocks and keeps its exact storage values by staying row-wise.

Bit-identity contract: everything the plan compiles must produce — per
row — exactly the Python value the row path produces.  Raw column items
bypass the float block entirely (served from partition column lists),
batch UDF kernels replay the row path's accumulation order, and NULLs
ride through as NaN and are restored to ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dbms.catalog import Catalog
from repro.dbms.expressions import (
    VectorFunction,
    compile_argument_block,
    compile_row_expression,
    compile_vector_expression,
    compile_vector_predicate,
    referenced_columns_of_all,
)
from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.functions import SCALAR_BUILTINS
from repro.dbms.sql import ast
from repro.dbms.sql.planner import Binder, BoundColumn, output_name
from repro.dbms.storage import Table
from repro.dbms.types import SqlType
from repro.errors import PlanningError


@dataclass(frozen=True)
class RawColumnItem:
    """A bare column-reference select item.

    Served from the partition's lane values — not the float block —
    so INTEGER columns keep exact ints and no value round-trips through
    float64.  ``position`` indexes the table's storage columns.
    """

    position: int


@dataclass(frozen=True)
class BlockItem:
    """A computed select item: one numpy function of the column block.

    ``integer_result`` marks batch UDFs whose row path returns Python
    ints (argmin/argmax subscripts); the executor restores ``int(v)``
    per non-NaN value.
    """

    fn: VectorFunction
    integer_result: bool = False


@dataclass
class VectorizedSelectPlan:
    """Everything the executor needs to run one block-wise projection."""

    table: Table
    #: storage positions materialized into each partition block, in
    #: matrix-column order (the compiled closures index into this order)
    positions: list[int]
    #: three-valued truth vector for WHERE, or None (no predicate)
    where_fn: VectorFunction | None
    items: list[RawColumnItem | BlockItem]
    #: names of scalar UDFs dispatched through compute_batch, in
    #: first-appearance order (EXPLAIN note + fallback detection)
    batch_udf_names: list[str] = field(default_factory=list)


@dataclass
class VectorizedDecision:
    """The outcome of :func:`plan_vectorized_select`."""

    plan: VectorizedSelectPlan | None
    #: why the row path must run instead (empty when vectorized)
    reason: str = ""

    @property
    def vectorized(self) -> bool:
        return self.plan is not None


def _fallback(reason: str) -> VectorizedDecision:
    return VectorizedDecision(plan=None, reason=reason)


def plan_vectorized_select(
    catalog: Catalog,
    select: ast.Select,
    faults: "FaultPlan | NullFaults" = NULL_FAULTS,
) -> VectorizedDecision:
    """Decide whether *select* can run block-wise, compiling it if so.

    Precondition: the caller has already established that *select* has
    no aggregates and no GROUP BY (those take the aggregation path).

    *faults* arms the ``udf.compute_batch`` injection site inside the
    compiled batch-UDF closures; the EXPLAIN plan builder calls with the
    default (its analysis never executes the closures).
    """
    if select.joins or len(select.from_sources) != 1:
        return _fallback("query joins multiple sources")
    source = select.from_sources[0]
    if not isinstance(source, ast.TableName):
        return _fallback("FROM source is a derived table")
    if catalog.has_view(source.name):
        return _fallback("FROM source is a view")
    if not catalog.has_table(source.name):
        # Let the row path raise its usual unknown-table error.
        return _fallback(f"unknown table {source.name!r}")
    table = catalog.table(source.name)
    binding = source.binding_name
    binder = Binder(
        [BoundColumn(binding, column.name) for column in table.schema.columns]
    )

    try:
        items = _expand_stars(select.items, binder)
    except PlanningError as exc:
        return _fallback(str(exc))

    blocked_order = _order_by_blocks(catalog, select, items)
    if blocked_order is not None:
        return _fallback(blocked_order)

    # Classify items: bare column refs bypass the float block entirely.
    raw_items: dict[int, RawColumnItem] = {}
    computed: dict[int, ast.Expression] = {}
    for index, item in enumerate(items):
        expression = item.expression
        if isinstance(expression, ast.ColumnRef):
            try:
                raw_items[index] = RawColumnItem(binder.resolve(expression))
            except PlanningError as exc:
                return _fallback(str(exc))
        else:
            computed[index] = expression

    block_expressions = list(computed.values())
    if select.where is not None:
        block_expressions.append(select.where)
    refs = referenced_columns_of_all(block_expressions)
    for ref in refs:
        try:
            position = binder.resolve(ref)
        except PlanningError as exc:
            return _fallback(str(exc))
        column = table.schema.columns[position]
        if not column.sql_type.is_numeric:
            return _fallback(
                f"references non-numeric column {column.name!r} "
                f"({column.sql_type.value})"
            )
    positions = [binder.resolve(ref) for ref in refs]
    resolver_map = {
        (ref.table, ref.name.lower()): index for index, ref in enumerate(refs)
    }

    def matrix_resolver(ref: ast.ColumnRef) -> int:
        return resolver_map[(ref.table, ref.name.lower())]

    batch_udf_names: list[str] = []
    compile_call = _batch_call_compiler(
        catalog, matrix_resolver, batch_udf_names, faults
    )

    where_fn: VectorFunction | None = None
    if select.where is not None:
        where_fn = compile_vector_predicate(
            select.where, matrix_resolver, compile_call
        )
        if where_fn is None:
            return _fallback(
                f"WHERE {ast.render(select.where)} is not block-compilable"
            )

    plan_items: list[RawColumnItem | BlockItem] = []
    for index, item in enumerate(items):
        raw = raw_items.get(index)
        if raw is not None:
            plan_items.append(raw)
            continue
        expression = computed[index]
        fn = compile_vector_expression(expression, matrix_resolver, compile_call)
        if fn is None:
            return _fallback(
                f"select item {ast.render(expression)} is not block-compilable"
            )
        if produces_floats(expression, catalog, table, binder):
            plan_items.append(BlockItem(fn))
        elif _is_integer_batch_call(expression, catalog):
            plan_items.append(BlockItem(fn, integer_result=True))
        else:
            # int + int etc. — the row path returns Python ints, which a
            # float block cannot reproduce faithfully.
            return _fallback(
                f"select item {ast.render(expression)} yields integers "
                "on the row path"
            )

    if where_fn is None and not any(
        isinstance(item, BlockItem) for item in plan_items
    ):
        return _fallback("plain column projection; nothing to vectorize")

    return VectorizedDecision(
        plan=VectorizedSelectPlan(
            table=table,
            positions=positions,
            where_fn=where_fn,
            items=plan_items,
            batch_udf_names=batch_udf_names,
        )
    )


def _expand_stars(
    items: "tuple[ast.SelectItem, ...] | list[ast.SelectItem]", binder: Binder
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


def _order_by_blocks(
    catalog: Catalog, select: ast.Select, items: "list[ast.SelectItem]"
) -> str | None:
    """None when every ORDER BY key resolves against the *output*.

    The block path never materializes pre-projection row tuples, so an
    ORDER BY that falls back to source columns cannot be served.  Output
    positions (integer literals) and expressions over output names both
    sort on the projected rows only — same resolution order the
    executor's ``_apply_order_limit`` uses.
    """
    if not select.order_by:
        return None
    out_binder = Binder(
        [
            BoundColumn(None, output_name(item, position))
            for position, item in enumerate(items)
        ]
    )

    def registry(name: str):
        builtin = SCALAR_BUILTINS.get(name)
        if builtin is not None:
            return builtin
        return catalog.scalar_udf(name)

    for expr, _ascending in select.order_by:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            continue  # output position; out-of-range raises at runtime
        try:
            compile_row_expression(expr, out_binder.resolve, registry)
        except PlanningError:
            return f"ORDER BY {ast.render(expr)} references source columns"
    return None


def _batch_call_compiler(
    catalog: Catalog,
    resolver: Callable[[ast.ColumnRef], int],
    batch_udf_names: list[str],
    faults: "FaultPlan | NullFaults" = NULL_FAULTS,
) -> Callable[[ast.FuncCall], VectorFunction | None]:
    """A call-compiler hook vectorizing batch-capable scalar UDF calls.

    Consulted by :func:`compile_vector_expression` before its builtin
    math table; returns ``None`` (fall through / fall back) for builtins
    and for UDFs without :meth:`compute_batch`.  Arity mismatches also
    return ``None`` so the row path raises its usual error.
    """
    def compile_call(call: ast.FuncCall) -> VectorFunction | None:
        if call.distinct:
            return None
        udf = catalog.scalar_udf(call.name)
        if udf is None or not udf.supports_batch:
            return None
        if udf.arity is not None and len(call.args) != udf.arity:
            return None
        argument_block = compile_argument_block(
            call.args, resolver, compile_call
        )
        if argument_block is None:
            return None
        if udf.name not in batch_udf_names:
            batch_udf_names.append(udf.name)

        def run(block: np.ndarray) -> np.ndarray:
            if faults.enabled:
                faults.fire("udf.compute_batch", udf=udf.name)
            return udf.compute_batch(argument_block(block))

        return run

    return compile_call


def produces_floats(
    expression: ast.Expression,
    catalog: Catalog,
    table: Table,
    binder: Binder,
) -> bool:
    """True when the row path is guaranteed to produce floats (or NULL).

    Conservative: anything not provably float-typed is reported False
    and the caller decides (integer batch UDFs get their own carve-out;
    everything else falls back).  Mirrors the row evaluator's numeric
    promotion rules: ``/``, sqrt/exp/ln/log/power always produce floats;
    ``+ - * MOD`` and unary minus produce floats iff any operand does;
    ``abs`` preserves its argument's type.
    """
    if isinstance(expression, ast.Literal):
        return expression.value is None or isinstance(expression.value, float)
    if isinstance(expression, ast.ColumnRef):
        try:
            position = binder.resolve(expression)
        except PlanningError:
            return False
        return table.schema.columns[position].sql_type is SqlType.FLOAT
    if isinstance(expression, ast.Unary) and expression.op == "-":
        return produces_floats(expression.operand, catalog, table, binder)
    if isinstance(expression, ast.Binary):
        if expression.op == "/":
            return True
        if expression.op in ("+", "-", "*", "MOD"):
            return produces_floats(
                expression.left, catalog, table, binder
            ) or produces_floats(expression.right, catalog, table, binder)
        return False
    if isinstance(expression, ast.FuncCall):
        if expression.name in ("sqrt", "exp", "ln", "log", "power"):
            return True
        if expression.name == "abs":
            return len(expression.args) == 1 and produces_floats(
                expression.args[0], catalog, table, binder
            )
        udf = catalog.scalar_udf(expression.name)
        if udf is not None and udf.supports_batch:
            return not udf.batch_integer_result
        return False
    return False


def _is_integer_batch_call(
    expression: ast.Expression, catalog: Catalog
) -> bool:
    if not isinstance(expression, ast.FuncCall):
        return False
    udf = catalog.scalar_udf(expression.name)
    return (
        udf is not None
        and udf.supports_batch
        and udf.batch_integer_result
    )
