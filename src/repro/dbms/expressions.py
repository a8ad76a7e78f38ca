"""Expression evaluation: row-at-a-time compilation and a vectorized path.

The planner binds every :class:`~repro.dbms.sql.ast.ColumnRef` to a
position in the executor's row tuples and then calls
:func:`compile_row_expression`, which turns the AST into a nest of Python
closures — evaluated once per row with no per-row dispatch on node types.

:func:`compile_vector_expression` additionally compiles *numeric*
expressions (literals, column refs, arithmetic, a few math functions)
into numpy-array functions.  The executor uses it as a fast path for
aggregate arguments over full scans and for block-wise SELECT
evaluation (see :mod:`repro.dbms.sql.vectorized`); any expression it
cannot handle falls back to the row path, so semantics never change —
NULLs are carried as NaN and restored afterwards.  An optional
*call_compiler* hook lets the caller vectorize function calls the
generic compiler does not know (batched scalar UDFs).

:func:`compile_vector_predicate` compiles WHERE predicates to
three-valued truth *vectors*: 1.0 true, 0.0 false, 0.5 unknown.
Kleene logic then becomes elementwise arithmetic — AND is ``minimum``,
OR is ``maximum``, NOT is ``1 − x`` — which reproduces the row path's
NULL semantics exactly (NOT NULL stays unknown, FALSE AND NULL is
false, ...).  The executor keeps the rows whose truth value is exactly
1.0, matching the row path's ``predicate(row) is True``.

SQL three-valued logic: NULL propagates through arithmetic and
comparisons; AND/OR follow Kleene logic; WHERE treats unknown as false
(the executor's responsibility).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.dbms.functions import SCALAR_BUILTINS, VECTORIZABLE_SCALARS
from repro.dbms.sql import ast
from repro.errors import ExecutionError, PlanningError

RowFunction = Callable[[tuple], Any]
ColumnResolver = Callable[[ast.ColumnRef], int]
ScalarRegistry = Callable[[str], Callable[..., Any] | None]


def builtin_scalar_registry(name: str) -> Callable[..., Any] | None:
    """Resolver over the builtin scalar functions only (no UDFs)."""
    return SCALAR_BUILTINS.get(name)


# ------------------------------------------------------------------ row path
def compile_row_expression(
    expression: ast.Expression,
    resolver: ColumnResolver,
    scalar_registry: ScalarRegistry = builtin_scalar_registry,
) -> RowFunction:
    """Compile *expression* to a function of one row tuple."""
    if isinstance(expression, ast.Literal):
        value = expression.value
        return lambda row: value

    if isinstance(expression, ast.ColumnRef):
        position = resolver(expression)
        return lambda row: row[position]

    if isinstance(expression, ast.Unary):
        operand = compile_row_expression(
            expression.operand, resolver, scalar_registry
        )
        if expression.op == "-":
            return lambda row: _negate(operand(row))
        if expression.op == "NOT":
            return lambda row: _not(operand(row))
        raise PlanningError(f"unknown unary operator {expression.op!r}")

    if isinstance(expression, ast.Binary):
        left = compile_row_expression(expression.left, resolver, scalar_registry)
        right = compile_row_expression(expression.right, resolver, scalar_registry)
        return _compile_binary(expression.op, left, right)

    if isinstance(expression, ast.Case):
        compiled_whens = [
            (
                compile_row_expression(cond, resolver, scalar_registry),
                compile_row_expression(result, resolver, scalar_registry),
            )
            for cond, result in expression.whens
        ]
        compiled_else = (
            compile_row_expression(expression.else_result, resolver, scalar_registry)
            if expression.else_result is not None
            else None
        )

        def case(row: tuple) -> Any:
            for condition, result in compiled_whens:
                if condition(row) is True:
                    return result(row)
            return compiled_else(row) if compiled_else is not None else None

        return case

    if isinstance(expression, ast.IsNull):
        operand = compile_row_expression(
            expression.operand, resolver, scalar_registry
        )
        if expression.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    if isinstance(expression, ast.InList):
        operand = compile_row_expression(
            expression.operand, resolver, scalar_registry
        )
        items = [
            compile_row_expression(item, resolver, scalar_registry)
            for item in expression.items
        ]
        negated = expression.negated

        def in_list(row: tuple) -> Any:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return in_list

    if isinstance(expression, ast.FuncCall):
        function = scalar_registry(expression.name)
        if function is None:
            raise PlanningError(f"unknown function {expression.name!r}")
        args = [
            compile_row_expression(arg, resolver, scalar_registry)
            for arg in expression.args
        ]
        if len(args) == 1:
            only = args[0]
            return lambda row: function(only(row))
        if len(args) == 2:
            first, second = args
            return lambda row: function(first(row), second(row))
        return lambda row: function(*(arg(row) for arg in args))

    if isinstance(expression, ast.Star):
        raise PlanningError("'*' is only valid in a select list or COUNT(*)")

    raise PlanningError(f"cannot compile {type(expression).__name__}")


def _negate(value: Any) -> Any:
    return None if value is None else -value


def _not(value: Any) -> Any:
    if value is None:
        return None
    return not value


def _compile_binary(op: str, left: RowFunction, right: RowFunction) -> RowFunction:
    if op == "+":
        return lambda row: _arith(left(row), right(row), _add)
    if op == "-":
        return lambda row: _arith(left(row), right(row), _sub)
    if op == "*":
        return lambda row: _arith(left(row), right(row), _mul)
    if op == "/":
        return lambda row: _divide(left(row), right(row))
    if op == "MOD":
        return lambda row: _modulo(left(row), right(row))
    if op == "=":
        return lambda row: _compare(left(row), right(row), lambda a, b: a == b)
    if op == "<>":
        return lambda row: _compare(left(row), right(row), lambda a, b: a != b)
    if op == "<":
        return lambda row: _compare(left(row), right(row), lambda a, b: a < b)
    if op == "<=":
        return lambda row: _compare(left(row), right(row), lambda a, b: a <= b)
    if op == ">":
        return lambda row: _compare(left(row), right(row), lambda a, b: a > b)
    if op == ">=":
        return lambda row: _compare(left(row), right(row), lambda a, b: a >= b)
    if op == "AND":
        return lambda row: _kleene_and(left(row), right(row))
    if op == "OR":
        return lambda row: _kleene_or(left(row), right(row))
    raise PlanningError(f"unknown binary operator {op!r}")


def _add(a: Any, b: Any) -> Any:
    return a + b


def _sub(a: Any, b: Any) -> Any:
    return a - b


def _mul(a: Any, b: Any) -> Any:
    return a * b


def _arith(a: Any, b: Any, op: Callable[[Any, Any], Any]) -> Any:
    if a is None or b is None:
        return None
    try:
        return op(a, b)
    except TypeError as exc:
        raise ExecutionError(f"type error in arithmetic: {exc}") from exc


def _divide(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _modulo(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("MOD by zero")
    result = np.fmod(a, b)
    if isinstance(a, int) and isinstance(b, int):
        return int(result)
    return float(result)


def _compare(a: Any, b: Any, op: Callable[[Any, Any], bool]) -> Any:
    if a is None or b is None:
        return None
    try:
        return op(a, b)
    except TypeError as exc:
        raise ExecutionError(f"type error in comparison: {exc}") from exc


def _kleene_and(a: Any, b: Any) -> Any:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _kleene_or(a: Any, b: Any) -> Any:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)


# --------------------------------------------------------------- vector path
VectorFunction = Callable[[np.ndarray], np.ndarray]
CallCompiler = Callable[[ast.FuncCall], "VectorFunction | None"]


def _vector_sqrt(values: np.ndarray) -> np.ndarray:
    # The row path raises for negative inputs (NULLs propagate as NaN,
    # and NaN < 0 is False, so they never trip the check).
    bad = values < 0
    if bad.any():
        raise ExecutionError(
            f"sqrt of negative value {float(values[bad][0])}"
        )
    return np.sqrt(values)


def _vector_ln(values: np.ndarray) -> np.ndarray:
    bad = values <= 0
    if bad.any():
        raise ExecutionError(
            f"ln of non-positive value {float(values[bad][0])}"
        )
    return np.log(values)


_VECTOR_MATH: dict[str, Callable[..., np.ndarray]] = {
    "abs": np.abs,
    "sqrt": _vector_sqrt,
    "exp": np.exp,
    "ln": _vector_ln,
    "log": _vector_ln,
    "power": np.power,
}


def referenced_columns(expression: ast.Expression) -> list[ast.ColumnRef]:
    """All column references in *expression*, in first-appearance order."""
    refs: list[ast.ColumnRef] = []
    seen: set[tuple[str | None, str]] = set()
    for node in ast.walk(expression):
        if isinstance(node, ast.ColumnRef):
            key = (node.table, node.name.lower())
            if key not in seen:
                seen.add(key)
                refs.append(node)
    return refs


def referenced_columns_of_all(
    expressions: Sequence[ast.Expression],
) -> list[ast.ColumnRef]:
    """Distinct column references across *expressions*, in order."""
    refs: list[ast.ColumnRef] = []
    seen: set[tuple[str | None, str]] = set()
    for expression in expressions:
        for ref in referenced_columns(expression):
            key = (ref.table, ref.name.lower())
            if key not in seen:
                seen.add(key)
                refs.append(ref)
    return refs


def compile_vector_expression(
    expression: ast.Expression,
    resolver: ColumnResolver,
    call_compiler: CallCompiler | None = None,
) -> VectorFunction | None:
    """Compile a numeric expression over a column-block matrix.

    The returned function takes a ``(rows, columns)`` float matrix whose
    columns are indexed by *resolver* and returns one value per row.
    Returns ``None`` when the expression uses features the vector path
    does not support (CASE, UDFs, strings, NULL-sensitive logic) — the
    caller must then use the row path.

    *call_compiler*, when given, is consulted first for every
    :class:`~repro.dbms.sql.ast.FuncCall`: it may return a block
    function for calls the generic compiler cannot handle (batched
    scalar UDFs) or ``None`` to fall through to the builtin math table.
    """
    if isinstance(expression, ast.Literal):
        value = _literal_lane(expression)
        if value is None:
            return None
        return lambda block: np.full(block.shape[0], value)

    if isinstance(expression, ast.ColumnRef):
        try:
            position = resolver(expression)
        except Exception:
            return None
        return lambda block: block[:, position]

    if isinstance(expression, ast.Unary) and expression.op == "-":
        operand = compile_vector_expression(
            expression.operand, resolver, call_compiler
        )
        if operand is None:
            return None
        return lambda block: -operand(block)

    if isinstance(expression, ast.Binary) and expression.op in ("+", "-", "*", "/", "MOD"):
        left = compile_vector_expression(expression.left, resolver, call_compiler)
        right = compile_vector_expression(expression.right, resolver, call_compiler)
        if left is None or right is None:
            return None
        op = expression.op
        if op == "MOD":

            def modulo(block: np.ndarray) -> np.ndarray:
                denominator = right(block)
                if np.any(denominator == 0):
                    raise ExecutionError("MOD by zero")
                return np.fmod(left(block), denominator)

            return modulo
        if op == "+":
            return lambda block: left(block) + right(block)
        if op == "-":
            return lambda block: left(block) - right(block)
        if op == "*":
            return lambda block: left(block) * right(block)

        def divide(block: np.ndarray) -> np.ndarray:
            denominator = right(block)
            if np.any(denominator == 0):
                raise ExecutionError("division by zero")
            return left(block) / denominator

        return divide

    if isinstance(expression, ast.FuncCall):
        if call_compiler is not None:
            compiled_call = call_compiler(expression)
            if compiled_call is not None:
                return compiled_call
        if expression.name not in VECTORIZABLE_SCALARS:
            return None
        compiled = [
            compile_vector_expression(arg, resolver, call_compiler)
            for arg in expression.args
        ]
        if any(arg is None for arg in compiled):
            return None
        math_fn = _VECTOR_MATH[expression.name]
        args: Sequence[VectorFunction] = compiled  # type: ignore[assignment]
        return lambda block: math_fn(*(arg(block) for arg in args))

    return None


def _literal_lane(literal: ast.Literal) -> float | None:
    """The float a numeric or NULL literal puts in every row of a lane
    (NULL is NaN); ``None`` for literals blocks cannot hold."""
    value = literal.value
    if value is None:
        return math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


#: what one lane of an argument block is filled from
_COLUMN, _LITERAL, _COMPUTED = range(3)


class ArgumentBlockPlan:
    """A UDF call's argument list, planned once as block-copy steps.

    Calling the plan with a column block builds the ``(rows,
    len(arguments))`` lane-major argument block by running its steps
    into one ``np.empty(order="F")``: a run of consecutive block lanes
    is one 2-D slice assignment, a run of literals one broadcast row, a
    computed lane one call of its compiled expression.

    ``null_preserving`` records that every lane is a bare column or a
    non-NULL literal, so the argument block holds a NULL (NaN) only
    where the column block it is built from holds one.
    """

    __slots__ = ("_width", "_steps", "null_preserving")

    def __init__(self, lanes: "Sequence[tuple[int, Any]]") -> None:
        """*lanes* holds one ``(kind, source)`` per argument: a block
        position for ``_COLUMN``, a float for ``_LITERAL`` (NULL is
        NaN), a compiled vector expression for ``_COMPUTED``."""
        self._width = len(lanes)
        self._steps: list[tuple[int, Any, Any]] = []
        self.null_preserving = True
        index = 0
        while index < len(lanes):
            kind, source = lanes[index]
            stop = index + 1
            if kind == _COLUMN:
                while stop < len(lanes) and lanes[stop] == (
                    _COLUMN, source + stop - index
                ):
                    stop += 1
                self._steps.append(
                    (kind, slice(index, stop), slice(source, source + stop - index))
                )
            elif kind == _LITERAL:
                while stop < len(lanes) and lanes[stop][0] == _LITERAL:
                    stop += 1
                row = np.array([value for _, value in lanes[index:stop]])
                if np.isnan(row).any():
                    self.null_preserving = False
                self._steps.append((kind, slice(index, stop), row))
            else:
                self.null_preserving = False
                self._steps.append((kind, index, source))
            index = stop

    def __call__(self, block: np.ndarray) -> np.ndarray:
        out = np.empty((block.shape[0], self._width), order="F")
        for kind, lanes, source in self._steps:
            if kind == _COLUMN:
                out[:, lanes] = block[:, source]
            elif kind == _LITERAL:
                out[:, lanes] = source
            else:
                out[:, lanes] = source(block)
        return out


def compile_argument_block(
    arguments: Sequence[ast.Expression],
    resolver: ColumnResolver,
    call_compiler: CallCompiler | None = None,
) -> ArgumentBlockPlan | None:
    """Compile a UDF call's argument list to one lane-major matrix.

    The returned :class:`ArgumentBlockPlan` maps a column block to the
    ``(rows, len(arguments))`` argument block that ``accumulate_block``
    / ``compute_batch`` receive.  Literals stay scalars and are stored
    by broadcast, so a long inlined model-parameter list allocates no
    column per literal per block.  ``None`` when any argument is outside
    :func:`compile_vector_expression`'s subset.
    """
    lanes: list[tuple[int, Any]] = []
    for argument in arguments:
        if isinstance(argument, ast.Literal):
            kind, source = _LITERAL, _literal_lane(argument)
        elif isinstance(argument, ast.ColumnRef):
            kind = _COLUMN
            try:
                source = resolver(argument)
            except Exception:
                return None
        else:
            kind = _COMPUTED
            source = compile_vector_expression(argument, resolver, call_compiler)
        if source is None:
            return None
        lanes.append((kind, source))
    return ArgumentBlockPlan(lanes)


# ---------------------------------------------------- vector predicates (3VL)
_VECTOR_COMPARISONS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def compile_vector_predicate(
    expression: ast.Expression,
    resolver: ColumnResolver,
    call_compiler: CallCompiler | None = None,
) -> VectorFunction | None:
    """Compile a WHERE predicate to a three-valued truth vector.

    Truth values are encoded as floats — 0.0 false, 0.5 unknown (NULL),
    1.0 true — so Kleene connectives are elementwise ``minimum`` /
    ``maximum`` / ``1 − x``: exactly min/max/negation over the ordering
    F < U < T, the standard arithmetization of three-valued logic.
    Comparisons with a NaN (NULL) operand yield 0.5.  Returns ``None``
    for anything outside {comparisons, AND, OR, NOT, IS [NOT] NULL over
    numeric vector expressions}; the caller then uses the row path.
    """
    if isinstance(expression, ast.Binary):
        op = expression.op
        compare = _VECTOR_COMPARISONS.get(op)
        if compare is not None:
            left = compile_vector_expression(
                expression.left, resolver, call_compiler
            )
            right = compile_vector_expression(
                expression.right, resolver, call_compiler
            )
            if left is None or right is None:
                return None

            def comparison(block: np.ndarray) -> np.ndarray:
                a = left(block)
                b = right(block)
                truth = compare(a, b).astype(float)
                unknown = np.isnan(a) | np.isnan(b)
                if unknown.any():
                    truth[unknown] = 0.5
                return truth

            return comparison
        if op in ("AND", "OR"):
            left_tv = compile_vector_predicate(
                expression.left, resolver, call_compiler
            )
            right_tv = compile_vector_predicate(
                expression.right, resolver, call_compiler
            )
            if left_tv is None or right_tv is None:
                return None
            combine = np.minimum if op == "AND" else np.maximum
            return lambda block: combine(left_tv(block), right_tv(block))
        return None

    if isinstance(expression, ast.Unary) and expression.op == "NOT":
        operand_tv = compile_vector_predicate(
            expression.operand, resolver, call_compiler
        )
        if operand_tv is None:
            return None
        return lambda block: 1.0 - operand_tv(block)

    if isinstance(expression, ast.IsNull):
        operand = compile_vector_expression(
            expression.operand, resolver, call_compiler
        )
        if operand is None:
            return None
        if expression.negated:
            return lambda block: (~np.isnan(operand(block))).astype(float)
        return lambda block: np.isnan(operand(block)).astype(float)

    return None
