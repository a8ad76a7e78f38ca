"""Abstract syntax tree for the SQL subset.

Expression nodes are shared between the parser, the planner and the two
evaluators (row-at-a-time and vectorized).  Nodes are immutable
dataclasses; ``repr`` is the debugging aid and :func:`render` produces
SQL text back from a tree (used by tests and by the TWM-style code
generator to verify round-tripping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


# ---------------------------------------------------------------- expressions
class Expression:
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    """A numeric, string or NULL literal."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    name: str
    table: str | None = None

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``alias.*`` — only valid in select lists and COUNT(*)."""

    table: str | None = None


@dataclass(frozen=True)
class Unary(Expression):
    """Unary minus or NOT."""

    op: str
    operand: Expression


@dataclass(frozen=True)
class Binary(Expression):
    """Arithmetic, comparison or boolean binary operation."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class FuncCall(Expression):
    """A function call — builtin scalar, builtin aggregate, or UDF.

    Whether the name denotes an aggregate is decided at planning time
    against the catalog, exactly as a DBMS binds names.
    """

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False


@dataclass(frozen=True)
class Case(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: tuple[tuple[Expression, Expression], ...]
    else_result: Expression | None = None


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (literal, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


# ----------------------------------------------------------------- statements
class Statement:
    """Base class for all statement nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class SelectItem:
    """One select-list item: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None


@dataclass(frozen=True)
class TableName:
    """A base table or view reference in FROM."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class DerivedTable:
    """A parenthesized subquery in FROM; SQL requires it to be aliased."""

    select: "Select"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias


FromSource = TableName | DerivedTable


@dataclass(frozen=True)
class JoinClause:
    """One join step: ``[CROSS | INNER | LEFT [OUTER]] JOIN source
    [ON condition]``; *outer* marks a left outer join (unmatched left
    rows survive with NULLs — the paper's star-join construction)."""

    source: FromSource
    condition: Expression | None = None
    outer: bool = False


@dataclass(frozen=True)
class Select(Statement):
    """A SELECT statement (or subquery)."""

    items: tuple[SelectItem, ...]
    from_sources: tuple[FromSource, ...] = ()
    joins: tuple[JoinClause, ...] = ()
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[tuple[Expression, bool], ...] = ()
    limit: int | None = None


@dataclass(frozen=True)
class ColumnDef:
    """A column definition in CREATE TABLE."""

    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: str | None = None
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateView(Statement):
    name: str
    select: Select
    or_replace: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO t [(cols)] VALUES (...), ...`` or ``INSERT ... SELECT``."""

    table: str
    columns: tuple[str, ...] = ()
    values: tuple[tuple[Expression, ...], ...] = ()
    select: Select | None = None


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE t SET col = expr [, ...] [WHERE condition]``."""

    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Expression | None = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Expression | None = None


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <statement>``.

    Plain EXPLAIN renders the optimized plan with analytical cost
    estimates and executes nothing; ANALYZE additionally runs the
    statement under span tracing and annotates each operator with its
    measured wall clock (see :mod:`repro.dbms.trace`).
    """

    statement: Statement
    analyze: bool = False


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class DropView(Statement):
    name: str
    if_exists: bool = False


# -------------------------------------------------------------------- render
def render(node: Expression | Statement) -> str:
    """Render an AST node back to SQL text."""
    if isinstance(node, Literal):
        if node.value is None:
            return "NULL"
        if isinstance(node.value, str):
            escaped = node.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(node.value)
    if isinstance(node, ColumnRef):
        return node.display()
    if isinstance(node, Star):
        return f"{node.table}.*" if node.table else "*"
    if isinstance(node, Unary):
        if node.op == "NOT":
            return f"NOT ({render(node.operand)})"
        return f"{node.op}({render(node.operand)})"
    if isinstance(node, Binary):
        return f"({render(node.left)} {node.op} {render(node.right)})"
    if isinstance(node, FuncCall):
        distinct = "DISTINCT " if node.distinct else ""
        args = ", ".join(render(arg) for arg in node.args)
        return f"{node.name}({distinct}{args})"
    if isinstance(node, Case):
        parts = ["CASE"]
        for condition, result in node.whens:
            parts.append(f"WHEN {render(condition)} THEN {render(result)}")
        if node.else_result is not None:
            parts.append(f"ELSE {render(node.else_result)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, IsNull):
        keyword = "IS NOT NULL" if node.negated else "IS NULL"
        return f"({render(node.operand)} {keyword})"
    if isinstance(node, InList):
        keyword = "NOT IN" if node.negated else "IN"
        items = ", ".join(render(item) for item in node.items)
        return f"({render(node.operand)} {keyword} ({items}))"
    if isinstance(node, Select):
        return _render_select(node)
    if isinstance(node, Insert):
        cols = f" ({', '.join(node.columns)})" if node.columns else ""
        if node.select is not None:
            return f"INSERT INTO {node.table}{cols} {_render_select(node.select)}"
        rows = ", ".join(
            "(" + ", ".join(render(v) for v in row) + ")" for row in node.values
        )
        return f"INSERT INTO {node.table}{cols} VALUES {rows}"
    raise TypeError(f"cannot render {type(node).__name__}")


def _render_from_source(source: FromSource) -> str:
    if isinstance(source, TableName):
        return f"{source.name} {source.alias}" if source.alias else source.name
    return f"({_render_select(source.select)}) {source.alias}"


def _render_select(select: Select) -> str:
    items = ", ".join(
        render(item.expression) + (f" AS {item.alias}" if item.alias else "")
        for item in select.items
    )
    parts = [f"SELECT {items}"]
    if select.from_sources:
        sources = ", ".join(_render_from_source(s) for s in select.from_sources)
        parts.append(f"FROM {sources}")
        for join in select.joins:
            if join.condition is None:
                parts.append(f"CROSS JOIN {_render_from_source(join.source)}")
            else:
                keyword = "LEFT JOIN" if join.outer else "JOIN"
                parts.append(
                    f"{keyword} {_render_from_source(join.source)} "
                    f"ON {render(join.condition)}"
                )
    if select.where is not None:
        parts.append(f"WHERE {render(select.where)}")
    if select.group_by:
        parts.append("GROUP BY " + ", ".join(render(e) for e in select.group_by))
    if select.having is not None:
        parts.append(f"HAVING {render(select.having)}")
    if select.order_by:
        orders = ", ".join(
            render(expr) + ("" if ascending else " DESC")
            for expr, ascending in select.order_by
        )
        parts.append(f"ORDER BY {orders}")
    if select.limit is not None:
        parts.append(f"LIMIT {select.limit}")
    return " ".join(parts)


def count_select_terms(select: Select) -> int:
    """Number of select-list terms — the unit the cost model charges
    SQL parse/evaluation by (the paper's 1 + d + d² query is the
    motivating case)."""
    return len(select.items)


def children(node: Expression) -> list[Expression]:
    """The direct sub-expressions of *node*, in source order."""
    if isinstance(node, Unary):
        return [node.operand]
    if isinstance(node, Binary):
        return [node.left, node.right]
    if isinstance(node, FuncCall):
        return list(node.args)
    if isinstance(node, Case):
        found: list[Expression] = []
        for condition, result in node.whens:
            found.extend((condition, result))
        if node.else_result is not None:
            found.append(node.else_result)
        return found
    if isinstance(node, IsNull):
        return [node.operand]
    if isinstance(node, InList):
        return [node.operand, *node.items]
    return []


def walk(expression: Expression) -> Sequence[Expression]:
    """All nodes of an expression tree, preorder."""
    found: list[Expression] = []

    def visit(node: Expression) -> None:
        found.append(node)
        if isinstance(node, Unary):
            visit(node.operand)
        elif isinstance(node, Binary):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, FuncCall):
            for arg in node.args:
                visit(arg)
        elif isinstance(node, Case):
            for condition, result in node.whens:
                visit(condition)
                visit(result)
            if node.else_result is not None:
                visit(node.else_result)
        elif isinstance(node, IsNull):
            visit(node.operand)
        elif isinstance(node, InList):
            visit(node.operand)
            for item in node.items:
                visit(item)

    visit(expression)
    return found
