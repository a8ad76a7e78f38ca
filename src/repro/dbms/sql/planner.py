"""Name binding and select-list analysis.

The planner's job is the bind step a DBMS runs between parse and
execute: resolve column references against the FROM sources, decide
which function names are aggregates (against the catalog), and rewrite
select items so that aggregate subtrees become positional references
into the aggregation output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.dbms.sql import ast
from repro.errors import PlanningError


@dataclass(frozen=True)
class BoundColumn:
    """One column of a runtime relation: its source binding and name."""

    binding: str | None
    name: str

    def matches(self, ref: ast.ColumnRef) -> bool:
        if ref.name.lower() != self.name.lower():
            return False
        if ref.table is None:
            return True
        return self.binding is not None and ref.table.lower() == self.binding.lower()

    @property
    def display(self) -> str:
        return self.name


class Binder:
    """Resolves column references to positions in a column list."""

    def __init__(self, columns: list[BoundColumn]) -> None:
        self.columns = columns

    def resolve(self, ref: ast.ColumnRef) -> int:
        matches = [
            position
            for position, column in enumerate(self.columns)
            if column.matches(ref)
        ]
        if not matches:
            known = ", ".join(c.display for c in self.columns)
            raise PlanningError(
                f"unknown column {ref.display()!r} (available: {known})"
            )
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column reference {ref.display()!r}")
        return matches[0]

    def positions_for_star(self, table: str | None) -> list[int]:
        if table is None:
            return list(range(len(self.columns)))
        positions = [
            position
            for position, column in enumerate(self.columns)
            if column.binding is not None
            and column.binding.lower() == table.lower()
        ]
        if not positions:
            raise PlanningError(f"unknown table alias {table!r} in '{table}.*'")
        return positions


# ------------------------------------------------------- aggregate extraction
@dataclass(frozen=True)
class AggregateCall:
    """One distinct aggregate invocation found in a select list/HAVING."""

    call: ast.FuncCall
    key: str

    @property
    def name(self) -> str:
        return self.call.name


def find_aggregates(
    expressions: Iterable[ast.Expression],
    is_aggregate: "callable[[str], bool]",
) -> list[AggregateCall]:
    """All distinct aggregate calls, rejecting nested aggregation."""
    found: dict[str, AggregateCall] = {}

    def visit(node: ast.Expression, inside_aggregate: bool) -> None:
        if isinstance(node, ast.FuncCall) and is_aggregate(node.name):
            if inside_aggregate:
                raise PlanningError(
                    f"aggregate {node.name!r} nested inside another aggregate"
                )
            key = ast.render(node)
            found.setdefault(key, AggregateCall(node, key))
            for arg in node.args:
                visit(arg, True)
            return
        for child in ast.children(node):
            visit(child, inside_aggregate)

    for expression in expressions:
        visit(expression, False)
    return list(found.values())


def select_aggregates(
    select: ast.Select, is_aggregate: "callable[[str], bool]"
) -> list[AggregateCall]:
    """The aggregates *select* computes: its select list's and HAVING's,
    and ORDER BY's (``ORDER BY count(*)``) only when the query already
    aggregates — a bare projection cannot be turned into an aggregate by
    its ORDER BY."""
    expressions = [item.expression for item in select.items]
    if select.having is not None:
        expressions.append(select.having)
    calls = find_aggregates(expressions, is_aggregate)
    if (calls or select.group_by) and select.order_by:
        expressions.extend(expr for expr, _ in select.order_by)
        calls = find_aggregates(expressions, is_aggregate)
    return calls


def contains_aggregate(
    expression: ast.Expression, is_aggregate: "callable[[str], bool]"
) -> bool:
    return bool(find_aggregates([expression], is_aggregate))


def substitute(
    expression: ast.Expression, replacements: dict[str, ast.Expression]
) -> ast.Expression:
    """Replace any subtree whose rendering matches a key in *replacements*.

    Used to rewrite post-aggregation select items: each aggregate call
    and each GROUP BY expression is replaced by a positional reference
    into the aggregation output row.
    """
    key = ast.render(expression)
    if key in replacements:
        return replacements[key]
    if isinstance(expression, ast.Unary):
        return ast.Unary(expression.op, substitute(expression.operand, replacements))
    if isinstance(expression, ast.Binary):
        return ast.Binary(
            expression.op,
            substitute(expression.left, replacements),
            substitute(expression.right, replacements),
        )
    if isinstance(expression, ast.FuncCall):
        return ast.FuncCall(
            expression.name,
            tuple(substitute(arg, replacements) for arg in expression.args),
            expression.distinct,
        )
    if isinstance(expression, ast.Case):
        return ast.Case(
            tuple(
                (substitute(c, replacements), substitute(r, replacements))
                for c, r in expression.whens
            ),
            substitute(expression.else_result, replacements)
            if expression.else_result is not None
            else None,
        )
    if isinstance(expression, ast.IsNull):
        return ast.IsNull(
            substitute(expression.operand, replacements), expression.negated
        )
    if isinstance(expression, ast.InList):
        return ast.InList(
            substitute(expression.operand, replacements),
            tuple(substitute(item, replacements) for item in expression.items),
            expression.negated,
        )
    return expression


def output_name(item: ast.SelectItem, position: int) -> str:
    """The column name a select item produces."""
    if item.alias:
        return item.alias
    if isinstance(item.expression, ast.ColumnRef):
        return item.expression.name
    return f"col{position + 1}"
