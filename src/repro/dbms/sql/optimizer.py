"""Query optimization rewrites (paper, Section 3.6).

The paper names three rewrites that matter when X is derived from
normalized tables rather than materialized:

1. **Join elimination** — after feature selection or a step-wise
   procedure drops dimensions, the joins that only produced those
   dimensions can be removed.  A join is removable when (a) none of its
   columns are referenced anywhere else in the query and (b) it cannot
   change the row count — here, an inner join whose condition equates a
   column with the joined table's primary key (at most one match) and is
   known not to drop rows, or a cross join against a one-row model
   table.  We implement the conservative PK-equality form for model
   tables (the scoring case the paper highlights) and the unused cross
   join against single-row tables.

2. **Group-by before join** — when an aggregate groups by the join key
   of a large fact table, aggregating first shrinks the join input.
   Implemented for the canonical shape
   ``SELECT g.key, agg(f.value) FROM dim g JOIN fact f ON f.key = g.key
   GROUP BY g.key`` → aggregate the fact table by key in a derived
   table, then join.

3. **Predicate pushdown into derived tables** — a conjunct of the outer
   WHERE that only touches one derived table's columns filters *inside*
   the subquery, shrinking the spool it materializes.  Safe when the
   inner select has no GROUP BY/aggregates/LIMIT (pushing past those
   would change semantics); the referenced columns are substituted by
   the inner select items they alias.

4. **Projection pruning** — only scan the columns a query actually
   references (reflected in the cost model's scan width).

The optimizer is *advisory and semantics-preserving*: every rewrite is
validated by tests asserting identical results with and without it.
:func:`explain` renders the decisions, with estimated costs from the
cost model, without executing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dbms.catalog import Catalog
from repro.dbms.functions import SCALAR_BUILTINS
from repro.dbms.sql import ast
from repro.dbms.sql.planner import find_aggregates

SCALAR_BUILTINS_NAMES = frozenset(SCALAR_BUILTINS)


@dataclass
class OptimizationReport:
    """What the optimizer did to one statement."""

    original: ast.Select
    optimized: ast.Select
    eliminated_joins: list[str] = field(default_factory=list)
    pushed_group_by: bool = False
    pushed_predicates: list[str] = field(default_factory=list)
    referenced_columns: dict[str, list[str]] = field(default_factory=dict)


class QueryOptimizer:
    """AST-level rewrites against a catalog (for schema/PK knowledge)."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    # ------------------------------------------------------------ entry point
    def optimize(self, select: ast.Select) -> OptimizationReport:
        report = OptimizationReport(original=select, optimized=select)
        report.referenced_columns = self._referenced_by_binding(select)
        current = self._eliminate_joins(select, report)
        current = self._push_group_by_before_join(current, report)
        current = self._push_predicates_into_derived(current, report)
        report.optimized = current
        return report

    # ------------------------------------------------------- column analysis
    def _referenced_by_binding(self, select: ast.Select) -> dict[str, list[str]]:
        """Qualified column references per binding name, across the whole
        statement (select list, joins, WHERE, GROUP BY, HAVING, ORDER)."""
        expressions: list[ast.Expression] = [
            item.expression for item in select.items
        ]
        for join in select.joins:
            if join.condition is not None:
                expressions.append(join.condition)
        if select.where is not None:
            expressions.append(select.where)
        expressions.extend(select.group_by)
        if select.having is not None:
            expressions.append(select.having)
        expressions.extend(expr for expr, _ in select.order_by)

        by_binding: dict[str, list[str]] = {}
        for expression in expressions:
            for node in ast.walk(expression):
                if isinstance(node, ast.ColumnRef) and node.table is not None:
                    bucket = by_binding.setdefault(node.table.lower(), [])
                    if node.name.lower() not in bucket:
                        bucket.append(node.name.lower())
                if isinstance(node, ast.Star) and node.table is not None:
                    by_binding.setdefault(node.table.lower(), []).append("*")
        return by_binding

    # --------------------------------------------------------- rule 1: joins
    def _eliminate_joins(
        self, select: ast.Select, report: OptimizationReport
    ) -> ast.Select:
        if not select.joins:
            return select
        has_unqualified = self._has_unqualified_refs(select)
        if has_unqualified:
            # Unqualified columns could bind to any source; be conservative.
            return select
        referenced = report.referenced_columns
        kept_joins: list[ast.JoinClause] = []
        for join in select.joins:
            binding = self._binding_of(join.source)
            if binding is None:
                kept_joins.append(join)
                continue
            used = referenced.get(binding.lower(), [])
            used_outside_condition = self._used_outside_condition(
                select, join, binding
            )
            removable = (
                not used_outside_condition
                and self._join_cannot_change_cardinality(join, binding)
            )
            if removable:
                report.eliminated_joins.append(binding)
            else:
                kept_joins.append(join)
            del used
        if len(kept_joins) == len(select.joins):
            return select
        return ast.Select(
            items=select.items,
            from_sources=select.from_sources,
            joins=tuple(kept_joins),
            where=select.where,
            group_by=select.group_by,
            having=select.having,
            order_by=select.order_by,
            limit=select.limit,
        )

    def _has_unqualified_refs(self, select: ast.Select) -> bool:
        expressions: list[ast.Expression] = [
            item.expression for item in select.items
        ]
        if select.where is not None:
            expressions.append(select.where)
        expressions.extend(select.group_by)
        if select.having is not None:
            expressions.append(select.having)
        expressions.extend(expr for expr, _ in select.order_by)
        for expression in expressions:
            for node in ast.walk(expression):
                if isinstance(node, ast.ColumnRef) and node.table is None:
                    return True
                if isinstance(node, ast.Star) and node.table is None:
                    return True
        return False

    def _binding_of(self, source: ast.FromSource) -> str | None:
        if isinstance(source, ast.TableName):
            return source.binding_name
        return source.alias

    def _used_outside_condition(
        self, select: ast.Select, join: ast.JoinClause, binding: str
    ) -> bool:
        """Is the joined binding referenced anywhere besides its own ON?"""
        expressions: list[ast.Expression] = [
            item.expression for item in select.items
        ]
        for other in select.joins:
            if other is join:
                continue
            if other.condition is not None:
                expressions.append(other.condition)
        if select.where is not None:
            expressions.append(select.where)
        expressions.extend(select.group_by)
        if select.having is not None:
            expressions.append(select.having)
        expressions.extend(expr for expr, _ in select.order_by)
        lowered = binding.lower()
        for expression in expressions:
            for node in ast.walk(expression):
                if isinstance(node, ast.ColumnRef) and node.table is not None:
                    if node.table.lower() == lowered:
                        return True
                if isinstance(node, ast.Star):
                    if node.table is None or node.table.lower() == lowered:
                        return True
        return False

    def _join_cannot_change_cardinality(
        self, join: ast.JoinClause, binding: str
    ) -> bool:
        """True when removing the join provably keeps the same rows.

        Two safe cases:
        * a CROSS JOIN against a table that currently holds exactly one
          row (the BETA/MU model-table pattern), or
        * an inner join whose condition is ``<binding>.pk = <literal>``
          against a table where that literal key exists — at most and at
          least one match (the LAMBDA/C per-component join pattern).
        """
        source = join.source
        if not isinstance(source, ast.TableName):
            return False
        if not self._catalog.has_table(source.name):
            return False
        table = self._catalog.table(source.name)
        if join.condition is None:
            return table.row_count == 1
        condition = join.condition
        if not (isinstance(condition, ast.Binary) and condition.op == "="):
            return False
        sides = [condition.left, condition.right]
        column = next(
            (
                s for s in sides
                if isinstance(s, ast.ColumnRef)
                and s.table is not None
                and s.table.lower() == binding.lower()
            ),
            None,
        )
        if column is None:
            return False
        pk = table.schema.primary_key
        if pk is None or pk.lower() != column.name.lower():
            return False
        if join.outer:
            # LEFT JOIN on the PK: at most one match, unmatched rows are
            # padded — every left row survives exactly once, so an
            # unused outer join is always removable.
            return True
        literal = next((s for s in sides if isinstance(s, ast.Literal)), None)
        if literal is None:
            return False
        position = table.schema.position_of(pk)
        matches = sum(
            1 for row in table.scan() if row[position] == literal.value
        )
        return matches == 1

    # --------------------------------------------- rule 2: group-by pushdown
    def _push_group_by_before_join(
        self, select: ast.Select, report: OptimizationReport
    ) -> ast.Select:
        """Rewrite ``SELECT k, agg(f.v) FROM dim d JOIN fact f ON f.k = d.k
        GROUP BY k`` so the fact table is pre-aggregated by k.

        Conditions (all checked): exactly one join; the join condition
        equates one column from each side; the GROUP BY is exactly the
        dimension side's join column; every aggregate argument touches
        only the fact binding; no HAVING/WHERE touching the fact side
        beyond the aggregates; aggregates are SUM or COUNT (decomposable
        through the pre-aggregation without finalizer changes).
        """
        if len(select.joins) != 1 or len(select.from_sources) != 1:
            return select
        if select.where is not None or select.having is not None:
            return select
        if len(select.group_by) != 1:
            return select
        join = select.joins[0]
        if join.condition is None or join.outer:
            return select
        if not isinstance(join.source, ast.TableName):
            return select
        condition = join.condition
        if not (isinstance(condition, ast.Binary) and condition.op == "="):
            return select
        if not (
            isinstance(condition.left, ast.ColumnRef)
            and isinstance(condition.right, ast.ColumnRef)
        ):
            return select
        fact_binding = join.source.binding_name.lower()
        dim_source = select.from_sources[0]
        dim_binding = (self._binding_of(dim_source) or "").lower()
        refs = {condition.left, condition.right}
        fact_key = next(
            (r for r in refs if r.table and r.table.lower() == fact_binding), None
        )
        dim_key = next(
            (r for r in refs if r.table and r.table.lower() == dim_binding), None
        )
        if fact_key is None or dim_key is None:
            return select
        group_expr = select.group_by[0]
        if not (
            isinstance(group_expr, ast.ColumnRef)
            and group_expr.table is not None
            and group_expr.table.lower() == dim_binding
            and group_expr.name.lower() == dim_key.name.lower()
        ):
            return select

        aggregates = find_aggregates(
            [item.expression for item in select.items], self._catalog.is_aggregate
        )
        if not aggregates:
            return select
        inner_items: list[ast.SelectItem] = [
            ast.SelectItem(
                ast.ColumnRef(fact_key.name, fact_key.table), alias="__k"
            )
        ]
        replacements: dict[str, ast.Expression] = {}
        for index, aggregate in enumerate(aggregates):
            call = aggregate.call
            if call.distinct:
                return select
            if call.name == "sum":
                pass
            elif call.name == "count":
                # count pre-aggregates to a sum of partial counts.
                pass
            else:
                return select
            for arg in call.args:
                for node in ast.walk(arg):
                    if isinstance(node, ast.ColumnRef):
                        if node.table is None or node.table.lower() != fact_binding:
                            return select
            alias = f"__a{index}"
            inner_items.append(ast.SelectItem(call, alias=alias))
            outer_call = ast.FuncCall("sum", (ast.ColumnRef(alias, "__f"),))
            replacements[ast.render(call)] = outer_call

        inner = ast.Select(
            items=tuple(inner_items),
            from_sources=(ast.TableName(join.source.name, join.source.alias),),
            group_by=(ast.ColumnRef(fact_key.name, fact_key.table),),
        )
        new_condition = ast.Binary(
            "=",
            ast.ColumnRef("__k", "__f"),
            ast.ColumnRef(dim_key.name, dim_key.table),
        )
        new_items = tuple(
            ast.SelectItem(
                _substitute_rendered(item.expression, replacements), item.alias
            )
            for item in select.items
        )
        rewritten = ast.Select(
            items=new_items,
            from_sources=select.from_sources,
            joins=(ast.JoinClause(ast.DerivedTable(inner, "__f"), new_condition),),
            group_by=select.group_by,
            order_by=select.order_by,
            limit=select.limit,
        )
        report.pushed_group_by = True
        return rewritten


    # ------------------------------------------- rule 3: predicate pushdown
    def _push_predicates_into_derived(
        self, select: ast.Select, report: OptimizationReport
    ) -> ast.Select:
        """Move outer WHERE conjuncts that touch only one derived table
        inside that subquery."""
        if select.where is None:
            return select
        derived_aliases = {
            source.alias.lower(): index
            for index, source in enumerate(select.from_sources)
            if isinstance(source, ast.DerivedTable)
        }
        derived_joins = {
            join.source.alias.lower(): index
            for index, join in enumerate(select.joins)
            if isinstance(join.source, ast.DerivedTable) and not join.outer
        }
        if not derived_aliases and not derived_joins:
            return select

        conjuncts = _split_conjuncts(select.where)
        remaining: list[ast.Expression] = []
        pushes: dict[str, list[ast.Expression]] = {}
        for conjunct in conjuncts:
            target = self._single_derived_target(
                conjunct, set(derived_aliases) | set(derived_joins)
            )
            if target is None:
                remaining.append(conjunct)
                continue
            inner = self._derived_select(select, target, derived_aliases, derived_joins)
            rewritten = self._rewrite_for_inner(conjunct, target, inner)
            if rewritten is None:
                remaining.append(conjunct)
                continue
            pushes.setdefault(target, []).append(rewritten)
            report.pushed_predicates.append(ast.render(conjunct))
        if not pushes:
            return select

        new_sources = list(select.from_sources)
        new_joins = list(select.joins)
        for alias, predicates in pushes.items():
            if alias in derived_aliases:
                index = derived_aliases[alias]
                source = new_sources[index]
                new_sources[index] = ast.DerivedTable(
                    _with_extra_where(source.select, predicates), source.alias
                )
            else:
                index = derived_joins[alias]
                join = new_joins[index]
                assert isinstance(join.source, ast.DerivedTable)
                new_joins[index] = ast.JoinClause(
                    ast.DerivedTable(
                        _with_extra_where(join.source.select, predicates),
                        join.source.alias,
                    ),
                    join.condition,
                    join.outer,
                )
        new_where: ast.Expression | None = None
        for conjunct in remaining:
            new_where = (
                conjunct if new_where is None
                else ast.Binary("AND", new_where, conjunct)
            )
        return ast.Select(
            items=select.items,
            from_sources=tuple(new_sources),
            joins=tuple(new_joins),
            where=new_where,
            group_by=select.group_by,
            having=select.having,
            order_by=select.order_by,
            limit=select.limit,
        )

    def _single_derived_target(
        self, conjunct: ast.Expression, aliases: set[str]
    ) -> str | None:
        """The sole derived alias the conjunct references, or None."""
        bindings: set[str] = set()
        for node in ast.walk(conjunct):
            if isinstance(node, ast.ColumnRef):
                if node.table is None:
                    return None  # ambiguous: stay conservative
                bindings.add(node.table.lower())
            if isinstance(node, ast.FuncCall) and not (
                node.name in SCALAR_BUILTINS_NAMES
            ):
                return None  # UDF predicates stay where they are
        if len(bindings) == 1:
            only = next(iter(bindings))
            if only in aliases:
                return only
        return None

    def _derived_select(
        self,
        select: ast.Select,
        alias: str,
        derived_aliases: dict[str, int],
        derived_joins: dict[str, int],
    ) -> ast.Select:
        if alias in derived_aliases:
            source = select.from_sources[derived_aliases[alias]]
        else:
            source = select.joins[derived_joins[alias]].source
        assert isinstance(source, ast.DerivedTable)
        return source.select

    def _rewrite_for_inner(
        self, conjunct: ast.Expression, alias: str, inner: ast.Select
    ) -> ast.Expression | None:
        """Map outer references ``alias.col`` to the inner expressions.

        Returns None when the push would be unsafe: the inner select
        aggregates, groups, limits, or a referenced output column cannot
        be traced to an inner expression.
        """
        if inner.group_by or inner.having is not None or inner.limit is not None:
            return None
        from repro.dbms.sql.planner import contains_aggregate, output_name

        if any(
            contains_aggregate(item.expression, self._catalog.is_aggregate)
            for item in inner.items
        ):
            return None
        outputs: dict[str, ast.Expression] = {}
        for position, item in enumerate(inner.items):
            if isinstance(item.expression, ast.Star):
                return None
            outputs[output_name(item, position).lower()] = item.expression

        def rewrite(node: ast.Expression) -> ast.Expression | None:
            if isinstance(node, ast.ColumnRef):
                replacement = outputs.get(node.name.lower())
                return replacement
            if isinstance(node, ast.Binary):
                left = rewrite(node.left)
                right = rewrite(node.right)
                if left is None or right is None:
                    return None
                return ast.Binary(node.op, left, right)
            if isinstance(node, ast.Unary):
                operand = rewrite(node.operand)
                return None if operand is None else ast.Unary(node.op, operand)
            if isinstance(node, ast.Literal):
                return node
            if isinstance(node, ast.IsNull):
                operand = rewrite(node.operand)
                return None if operand is None \
                    else ast.IsNull(operand, node.negated)
            if isinstance(node, ast.InList):
                operand = rewrite(node.operand)
                items = [rewrite(item) for item in node.items]
                if operand is None or any(item is None for item in items):
                    return None
                return ast.InList(operand, tuple(items), node.negated)
            if isinstance(node, ast.FuncCall):
                args = [rewrite(arg) for arg in node.args]
                if any(arg is None for arg in args):
                    return None
                return ast.FuncCall(node.name, tuple(args), node.distinct)
            return None

        return rewrite(conjunct)


def _split_conjuncts(expression: ast.Expression) -> list[ast.Expression]:
    if isinstance(expression, ast.Binary) and expression.op == "AND":
        return _split_conjuncts(expression.left) + _split_conjuncts(
            expression.right
        )
    return [expression]


def _with_extra_where(
    select: ast.Select, predicates: "list[ast.Expression]"
) -> ast.Select:
    combined = select.where
    for predicate in predicates:
        combined = (
            predicate if combined is None
            else ast.Binary("AND", combined, predicate)
        )
    return ast.Select(
        items=select.items,
        from_sources=select.from_sources,
        joins=select.joins,
        where=combined,
        group_by=select.group_by,
        having=select.having,
        order_by=select.order_by,
        limit=select.limit,
    )


def _substitute_rendered(
    expression: ast.Expression, replacements: dict[str, ast.Expression]
) -> ast.Expression:
    from repro.dbms.sql.planner import substitute

    return substitute(expression, replacements)


# ------------------------------------------------------------------- explain
def explain(catalog: Catalog, select: ast.Select) -> str:
    """A human-readable account of binding, rewrites and estimated cost.

    Purely analytical — nothing is executed; cost estimates price the
    executor's work record, filled from catalog row counts.  The
    heavy lifting lives in :mod:`repro.dbms.sql.plan`; this wrapper is
    kept for callers that only want the text.
    """
    from repro.dbms.cost import CostParameters
    from repro.dbms.sql.plan import build_plan

    return build_plan(catalog, select, CostParameters()).text()
