"""Factorized-join planning: push summary aggregates through key–FK joins.

The paper builds every model from one scan of a single table via the
``(n, L, Q)`` sufficient statistics.  Real deployments keep that table
normalized as a star schema, and materializing the key–FK join before
aggregating costs O(|join|) rows scanned and copied.  Because the
statistics are sums of per-row monomials, they *distribute* through an
FK → PK inner join (the sparse-tensor / functional-dependency view of
arXiv:1703.04780): group the dimension-side feature vectors by key,
count the fact-side key multiplicities, and combine the partials — the
joined table never exists.  Scan cost drops from |join| to
Σ|base tables|.

This module is the *planning* half: :func:`plan_factorize` inspects a
parsed ``SELECT`` and either produces a :class:`FactorizeDecision`
describing exactly how to decompose the aggregation — every argument
resolved once to a row position, the shape named by its fold — or
refuses with a human-readable reason (surfaced in EXPLAIN).  The
execution half is the shape's fold in :mod:`repro.core.factorized`,
fanned out by ``Executor._execute_factorized_aggregate``.

The pass is deliberately conservative — anything it cannot prove
distributive falls back to the ordinary materialize-then-aggregate
path, which remains the semantic reference.

Apply-order contract with :class:`~repro.dbms.sql.optimizer.
QueryOptimizer`: join elimination and the group-by-before-join rewrite
run first; factorize only fires on what survives.  If the group-by
pushdown already restructured the statement the pass refuses (the
derived-table form it produces is no longer a recognizable star), and
an eliminated join simply no longer appears in ``select.joins``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core import factorized as fcore
from repro.core.summary import MatrixType
from repro.dbms.functions import AGGREGATE_BUILTINS
from repro.dbms.sql import ast
from repro.dbms.sql.planner import AggregateCall, find_aggregates
from repro.errors import PlanningError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dbms.catalog import Catalog
    from repro.dbms.schema import TableSchema
    from repro.dbms.sql.optimizer import OptimizationReport


@dataclass(frozen=True)
class DimJoin:
    """One dimension arm of the star: ``fact.fact_key = dim.dim_key``,
    named for EXPLAIN and resolved to row positions for execution."""

    table: str  # stored table name
    binding: str  # alias the query binds it under (or the table name)
    fact_key: str  # FK column on the fact table
    dim_key: str  # the dimension table's primary key
    fact_key_position: int  # the FK's position in a fact row
    key_position: int  # the PK's position in a dimension row
    #: dimension row positions of the features the aggregates read,
    #: de-duplicated; ``("dim", arm, feature)`` sources index this
    feature_positions: "tuple[int, ...]" = ()


@dataclass
class FactorizeDecision:
    """Outcome of :func:`plan_factorize`: a star aggregate resolved to
    row positions, or a refusal.

    When ``factorized`` is False, ``reason`` says why — the wording is
    shown verbatim as an EXPLAIN note so refusals are debuggable.
    Argument sources are ``("fact", index)`` (into ``fact_positions``;
    a fact row position in builtin terms), ``("dim", arm, feature)``
    (into ``dims[arm].feature_positions``) or ``("const", value)``.
    """

    factorized: bool
    reason: str = ""
    fact_table: str = ""
    fact_binding: str = ""
    dims: "tuple[DimJoin, ...]" = ()
    #: the shape's fact-side fold (:mod:`repro.core.factorized`):
    #: SummaryFold (one (n, L, Q)-style UDF), FusedFold (k-means/EM
    #: iteration UDF) or BuiltinFold (COUNT(*)/SUM combinations)
    fold_type: "type[fcore.StarFold] | None" = None
    udf_name: str = ""
    matrix_type: "MatrixType | None" = None
    #: for summary/fused: the fact row positions the fold reads
    fact_positions: "tuple[int, ...]" = ()
    #: for summary/fused: one source per feature column (the UDF's args
    #: after the leading dimension-count literal)
    arg_sources: "tuple[tuple, ...]" = ()
    #: for builtins, per aggregate call in select-list order:
    #: ("count_star",) or ("sum", (source, ...)) with 1 or 2 sources
    builtin_shapes: "tuple[tuple, ...]" = ()

    @property
    def shape(self) -> str:
        """"summary", "fused" or "builtins" ("" when refused)."""
        return self.fold_type.shape if self.fold_type is not None else ""

    @property
    def fact_key_positions(self) -> "tuple[int, ...]":
        return tuple(dim.fact_key_position for dim in self.dims)


def factorized_reads(
    fact_rows: float, dim_rows: "list[float]"
) -> "tuple[float, float, float]":
    """``(scanned, nested_loop_reads, avoided)`` of a star: the
    factorized route scans Σ|base tables| rows, a nested-loop join reads
    Σ_i |fact| × (1 + |dim_i|) input rows, and the difference is the
    rows the factorized route avoids."""
    scanned = sum(dim_rows) + fact_rows
    reads = sum(fact_rows * (1 + rows) for rows in dim_rows)
    return scanned, reads, max(0, reads - scanned)


def _refuse(reason: str) -> FactorizeDecision:
    return FactorizeDecision(factorized=False, reason=reason)


def _column_map(schema) -> "dict[str, object]":
    return {column.name.lower(): column for column in schema.columns}


class _StarShape:
    """Resolved base tables of a candidate star query.  Resolving an
    argument column gives its row position, registering a dimension
    feature on its arm the first time it is read."""

    def __init__(
        self,
        fact_table: str,
        fact_binding: str,
        fact_schema: "TableSchema",
        dims: "list[DimJoin]",
        dim_schemas: "list[TableSchema]",
    ) -> None:
        self.fact_table = fact_table
        self.fact_binding = fact_binding
        self.dims = dims
        #: (arm, binding, schema, columns) per base table; arm None is
        #: the fact table
        self.tables = [
            (None, fact_binding, fact_schema, _column_map(fact_schema)),
            *(
                (arm, dim.binding, schema, _column_map(schema))
                for arm, (dim, schema) in enumerate(zip(dims, dim_schemas))
            ),
        ]
        #: per arm: feature column name -> feature index, in first-read
        #: order
        self.features: "list[dict[str, int]]" = [{} for _ in dims]

    def _lookup(self, ref: ast.ColumnRef) -> "tuple | None":
        """The ``tables`` entry and column a reference reads, or None.

        Mirrors Binder semantics: a qualified reference must match its
        binding; an unqualified one must match exactly one base table
        (ambiguity returns None so the reference falls back to the row
        path, which raises the proper PlanningError).
        """
        name = ref.name.lower()
        if ref.table is not None:
            qualifier = ref.table.lower()
            for table in self.tables:
                _arm, binding, _schema, columns = table
                if qualifier == binding.lower():
                    return (table, name) if name in columns else None
            return None
        matches = [(table, name) for table in self.tables if name in table[3]]
        return matches[0] if len(matches) == 1 else None

    def resolve(self, ref: ast.ColumnRef) -> "tuple | str":
        """The source a column reads — ``("fact", row position)`` or
        ``("dim", arm, feature)`` — or why it cannot be factorized."""
        found = self._lookup(ref)
        if found is None:
            return f"cannot resolve column {ast.render(ref)} to one base table"
        (arm, _binding, schema, columns), name = found
        if not columns[name].sql_type.is_numeric:
            return f"column {ast.render(ref)} is not numeric"
        if arm is None:
            return ("fact", schema.position_of(name))
        features = self.features[arm]
        return ("dim", arm, features.setdefault(name, len(features)))

    def resolved_dims(self) -> "tuple[DimJoin, ...]":
        """The arms with their de-duplicated feature positions."""
        return tuple(
            replace(
                dim,
                feature_positions=tuple(
                    schema.position_of(name) for name in features
                ),
            )
            for dim, (_arm, _binding, schema, _columns), features in zip(
                self.dims, self.tables[1:], self.features
            )
        )


def _resolve_star(
    catalog: "Catalog", select: ast.Select
) -> "_StarShape | FactorizeDecision":
    """Check the FROM/JOIN clauses form an FK → PK star; resolve tables."""
    source = select.from_sources[0]
    if not isinstance(source, ast.TableName):
        return _refuse("FROM source is a subquery, not a stored table")
    if not catalog.has_table(source.name):
        return _refuse(
            f"FROM source {source.name} is not a stored base table"
        )
    fact_table = catalog.table(source.name)
    fact_binding = source.binding_name
    fact_columns = _column_map(fact_table.schema)
    dims: "list[DimJoin]" = []
    dim_schemas: "list[TableSchema]" = []
    seen_bindings = {fact_binding.lower()}
    for join in select.joins:
        if join.outer:
            return _refuse(
                "outer join (only INNER joins preserve the sum "
                "decomposition)"
            )
        if join.condition is None:
            return _refuse("cross join (no ON condition to factorize over)")
        if not isinstance(join.source, ast.TableName):
            return _refuse("join source is a subquery, not a stored table")
        if not catalog.has_table(join.source.name):
            return _refuse(
                f"join source {join.source.name} is not a stored base table"
            )
        dim_table = catalog.table(join.source.name)
        dim_binding = join.source.binding_name
        if dim_binding.lower() in seen_bindings:
            return _refuse(f"duplicate binding name {dim_binding}")
        condition = join.condition
        if not (
            isinstance(condition, ast.Binary)
            and condition.op == "="
            and isinstance(condition.left, ast.ColumnRef)
            and isinstance(condition.right, ast.ColumnRef)
        ):
            return _refuse("join condition is not column = column")
        left, right = condition.left, condition.right
        if left.table is None or right.table is None:
            return _refuse(
                "unqualified column in join condition (qualify both sides)"
            )
        by_binding = {left.table.lower(): left, right.table.lower(): right}
        dim_ref = by_binding.get(dim_binding.lower())
        fact_ref = by_binding.get(fact_binding.lower())
        if dim_ref is None or fact_ref is None or dim_ref is fact_ref:
            return _refuse(
                "join condition does not equate the fact table with the "
                "joined table (snowflake chains are not factorized)"
            )
        primary_key = dim_table.schema.primary_key
        if primary_key is None or dim_ref.name.lower() != primary_key.lower():
            return _refuse(
                f"join key {dim_binding}.{dim_ref.name} is not "
                f"{dim_table.name}'s primary key (multiplicities would "
                "be wrong)"
            )
        if fact_ref.name.lower() not in fact_columns:
            return _refuse(
                f"fact-side join key {fact_ref.name} not found in "
                f"{fact_table.name}"
            )
        dims.append(
            DimJoin(
                table=dim_table.name,
                binding=dim_binding,
                fact_key=fact_ref.name.lower(),
                dim_key=primary_key.lower(),
                fact_key_position=fact_table.schema.position_of(fact_ref.name),
                key_position=dim_table.schema.position_of(primary_key),
            )
        )
        dim_schemas.append(dim_table.schema)
        seen_bindings.add(dim_binding.lower())
    return _StarShape(
        fact_table.name, fact_binding, fact_table.schema, dims, dim_schemas
    )


def _literal_source(node: ast.Expression) -> "tuple | None":
    """``("const", value)`` for a numeric literal, its value as written:
    an integer literal stays an integer, so an integer SUM is one."""
    if (
        isinstance(node, ast.Literal)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return ("const", node.value)
    return None


def _list_form_sources(
    call: ast.FuncCall, star: _StarShape
) -> "tuple[tuple, tuple[int, ...]] | str":
    """``(sources, fact_positions)`` for the list form ``udf(d, x1, ...,
    xd)``, or a refusal."""
    args = call.args
    if not args:
        return f"{call.name} called without arguments"
    head = args[0]
    if not (
        isinstance(head, ast.Literal)
        and isinstance(head.value, int)
        and not isinstance(head.value, bool)
        and head.value == len(args) - 1
    ):
        return (
            f"{call.name}'s leading argument must be the literal "
            "dimension count"
        )
    sources = []
    fact_positions: "list[int]" = []
    for arg in args[1:]:
        constant = _literal_source(arg)
        if constant is not None:
            sources.append(constant)
            continue
        if not isinstance(arg, ast.ColumnRef):
            return (
                f"{call.name} argument {ast.render(arg)} is not a column "
                "or numeric literal"
            )
        source = star.resolve(arg)
        if isinstance(source, str):
            return source
        if source[0] == "fact":
            fact_positions.append(source[1])
            source = ("fact", len(fact_positions) - 1)
        sources.append(source)
    return tuple(sources), tuple(fact_positions)


def _builtin_shape(
    call: AggregateCall, star: _StarShape
) -> "tuple | str":
    """Classify one builtin call, or explain why it does not distribute."""
    func = call.call
    if func.distinct:
        return "DISTINCT aggregates do not distribute through the join"
    name = func.name.lower()
    if name == "count":
        if len(func.args) == 1 and isinstance(func.args[0], ast.Star):
            return ("count_star",)
        return "COUNT over an expression is not factorized (use COUNT(*))"
    if name != "sum":
        return (
            f"builtin {func.name} over a join is not factorized "
            "(supported: COUNT(*), SUM of columns and products)"
        )
    if len(func.args) != 1:
        return "SUM takes exactly one argument"
    arg = func.args[0]
    terms: "list[ast.Expression]"
    if isinstance(arg, ast.Binary) and arg.op == "*":
        terms = [arg.left, arg.right]
    else:
        terms = [arg]
    sources = []
    for term in terms:
        constant = _literal_source(term)
        if constant is not None:
            sources.append(constant)
            continue
        if not isinstance(term, ast.ColumnRef):
            return (
                f"SUM argument {ast.render(arg)} is not a column, product "
                "of columns, or numeric literal"
            )
        source = star.resolve(term)
        if isinstance(source, str):
            return source
        sources.append(source)
    return ("sum", tuple(sources))


def _child_expressions(node: ast.Expression) -> "list[ast.Expression]":
    if isinstance(node, ast.Unary):
        return [node.operand]
    if isinstance(node, ast.Binary):
        return [node.left, node.right]
    if isinstance(node, ast.FuncCall):
        return list(node.args)
    if isinstance(node, ast.Case):
        children = [part for when in node.whens for part in when]
        if node.else_result is not None:
            children.append(node.else_result)
        return children
    if isinstance(node, ast.IsNull):
        return [node.operand]
    if isinstance(node, ast.InList):
        return [node.operand, *node.items]
    return []


def _non_aggregate_refs(
    expression: ast.Expression, aggregate_keys: "set[str]"
) -> bool:
    """True if the expression reads a column outside any aggregate call."""
    if isinstance(expression, (ast.ColumnRef, ast.Star)):
        return True
    if (
        isinstance(expression, ast.FuncCall)
        and ast.render(expression) in aggregate_keys
    ):
        return False
    for child in _child_expressions(expression):
        if _non_aggregate_refs(child, aggregate_keys):
            return True
    return False


def plan_factorize(
    catalog: "Catalog",
    select: ast.Select,
    report: "OptimizationReport | None" = None,
) -> FactorizeDecision:
    """Decide whether *select* is a factorizable star aggregation.

    *report*, when the optimizer ran first, gates the apply order: a
    statement the group-by pushdown already restructured is refused
    rather than double-rewritten.
    """
    if not select.joins:
        return _refuse("no joins in statement")
    if report is not None and report.pushed_group_by:
        return _refuse(
            "group-by-before-join rewrite already restructured the "
            "statement (apply order: join elimination -> group-by "
            "pushdown -> factorize)"
        )
    if select.group_by:
        return _refuse(
            "GROUP BY present (factorize handles grand aggregates only)"
        )
    if select.where is not None:
        return _refuse("WHERE clause present (predicates are not pushed)")
    if select.having is not None:
        return _refuse("HAVING clause present")
    if select.order_by or select.limit is not None:
        return _refuse("ORDER BY / LIMIT present")
    if len(select.from_sources) != 1:
        return _refuse("multiple FROM sources (comma joins are not planned)")
    star = _resolve_star(catalog, select)
    if isinstance(star, FactorizeDecision):
        return star
    try:
        calls = find_aggregates(
            [item.expression for item in select.items], catalog.is_aggregate
        )
    except PlanningError as error:
        return _refuse(str(error))
    if not calls:
        return _refuse("no aggregate calls in the select list")
    aggregate_keys = {call.key for call in calls}
    for item in select.items:
        if _non_aggregate_refs(item.expression, aggregate_keys):
            return _refuse(
                "select list reads columns outside aggregate calls"
            )
    decision = FactorizeDecision(
        factorized=True,
        fact_table=star.fact_table,
        fact_binding=star.fact_binding,
    )
    udf_calls = [
        call for call in calls if catalog.aggregate_udf(call.name) is not None
    ]
    if udf_calls:
        if len(calls) != 1:
            return _refuse(
                "aggregate UDFs over a join factorize one call at a time"
            )
        call = calls[0]
        if call.call.distinct:
            return _refuse(
                "DISTINCT aggregates do not distribute through the join"
            )
        udf = catalog.aggregate_udf(call.name)
        resolved = _list_form_sources(call.call, star)
        if isinstance(resolved, str):
            return _refuse(resolved)
        if udf.summary_cacheable and getattr(
            udf, "matrix_type", None
        ) is not None:
            decision.fold_type = fcore.SummaryFold
            decision.matrix_type = udf.matrix_type
        elif getattr(udf, "fused_iteration", False):
            decision.fold_type = fcore.FusedFold
        else:
            return _refuse(
                f"aggregate UDF {call.name} is neither a summary builder "
                "nor a fused clustering iteration"
            )
        decision.udf_name = call.name
        decision.arg_sources, decision.fact_positions = resolved
    else:
        shapes = []
        for call in calls:
            if call.name.lower() not in AGGREGATE_BUILTINS:
                return _refuse(f"unknown aggregate {call.name}")
            shape = _builtin_shape(call, star)
            if isinstance(shape, str):
                return _refuse(shape)
            shapes.append(shape)
        decision.fold_type = fcore.BuiltinFold
        decision.builtin_shapes = tuple(shapes)
    decision.dims = star.resolved_dims()
    return decision
