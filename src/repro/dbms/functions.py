"""Builtin SQL functions: scalar and aggregate.

Scalar builtins are plain Python callables over row values (NULL-aware).
Aggregate builtins implement the same four-phase protocol as aggregate
UDFs (initialize → accumulate → merge partials → finalize), so the
executor runs builtins and UDFs through one pipeline — mirroring how the
paper's aggregate UDF slots in beside ``sum()`` in Teradata.

Beyond the standard set, the two-variable regression/correlation
aggregates (``corr``, ``regr_slope``, ``regr_intercept``) are provided
because the paper notes Teradata ships them *for two dimensions only* —
the whole point of the nLQ UDF is generalizing them to d dimensions.
"""

from __future__ import annotations

import fnmatch
import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ExecutionError


# ------------------------------------------------------------ scalar builtins
def _null_propagating(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap *fn* so any NULL argument yields NULL (SQL semantics)."""

    def wrapper(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return fn(*args)

    return wrapper


def _sql_sqrt(value: float) -> float:
    if value < 0:
        raise ExecutionError(f"sqrt of negative value {value}")
    return math.sqrt(value)


def _sql_ln(value: float) -> float:
    if value <= 0:
        raise ExecutionError(f"ln of non-positive value {value}")
    return math.log(value)


def _sql_mod(left: float, right: float) -> float:
    if right == 0:
        raise ExecutionError("MOD by zero")
    result = math.fmod(left, right)
    if isinstance(left, int) and isinstance(right, int):
        return int(result)
    return result


def _sql_like(value: str, pattern: str) -> bool:
    translated = (
        pattern.replace("\\", "\\\\")
        .replace("*", "[*]")
        .replace("?", "[?]")
        .replace("%", "*")
        .replace("_", "?")
    )
    return fnmatch.fnmatchcase(str(value), translated)


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(left: Any, right: Any) -> Any:
    if left is None:
        return None
    return None if left == right else left


SCALAR_BUILTINS: dict[str, Callable[..., Any]] = {
    "abs": _null_propagating(abs),
    "sqrt": _null_propagating(_sql_sqrt),
    "exp": _null_propagating(math.exp),
    "ln": _null_propagating(_sql_ln),
    "log": _null_propagating(_sql_ln),
    "power": _null_propagating(lambda base, exponent: float(base) ** exponent),
    "floor": _null_propagating(lambda v: float(math.floor(v))),
    "ceil": _null_propagating(lambda v: float(math.ceil(v))),
    "ceiling": _null_propagating(lambda v: float(math.ceil(v))),
    "round": _null_propagating(lambda v, nd=0: round(float(v), int(nd))),
    "sign": _null_propagating(lambda v: float((v > 0) - (v < 0))),
    "mod": _null_propagating(_sql_mod),
    "least": _null_propagating(min),
    "greatest": _null_propagating(max),
    "coalesce": _coalesce,
    "nullif": _nullif,
    "like": _null_propagating(_sql_like),
    "concat": _null_propagating(lambda a, b: f"{a}{b}"),
    "upper": _null_propagating(lambda s: str(s).upper()),
    "lower": _null_propagating(lambda s: str(s).lower()),
    "length": _null_propagating(lambda s: len(str(s))),
    "substr": _null_propagating(
        lambda s, start, count=None: str(s)[
            int(start) - 1 : None if count is None else int(start) - 1 + int(count)
        ]
    ),
    "cast_float": _null_propagating(float),
    "cast_int": _null_propagating(int),
}

#: scalar builtins that the vectorized evaluator can map over numpy arrays
VECTORIZABLE_SCALARS = frozenset({"abs", "sqrt", "exp", "ln", "log", "power"})


# --------------------------------------------------------- aggregate builtins
class AggregateFunction:
    """The four-phase aggregate protocol (builtin flavor).

    The aggregate-UDF class in :mod:`repro.dbms.udf` implements the same
    protocol with the paper's extra constraints layered on top; the
    executor drives both identically.
    """

    #: number of arguments the aggregate takes (None = variadic)
    arity: int | None = 1
    #: whether NULL arguments are skipped (SQL aggregates ignore NULLs)
    skips_nulls: bool = True

    def initialize(self) -> Any:
        raise NotImplementedError

    def accumulate(self, state: Any, args: Sequence[Any]) -> Any:
        raise NotImplementedError

    def merge(self, state: Any, other: Any) -> Any:
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        raise NotImplementedError

    def accumulate_vector(
        self, state: Any, vectors: Sequence[np.ndarray], rows: int
    ) -> Any:
        """Optional vectorized accumulate over column blocks.

        *vectors* holds one float array per argument with NaN for NULL;
        *rows* is the block's row count (needed by COUNT(*)).  Returns
        ``NotImplemented`` when the aggregate has no vector path, in
        which case the executor falls back to per-row accumulation.
        The vector path must produce exactly the state the row path
        would (tests enforce this).
        """
        return NotImplemented


def _non_null(values: np.ndarray) -> np.ndarray:
    """The non-NULL entries of one argument lane, in order; the lane
    itself (no copy) when it holds no NULL."""
    mask = ~np.isnan(values)
    return values if mask.all() else values[mask]


class _SumAggregate(AggregateFunction):
    def initialize(self) -> Any:
        return None

    def accumulate(self, state: Any, args: Sequence[Any]) -> Any:
        (value,) = args
        if state is None:
            return value
        return state + value

    def merge(self, state: Any, other: Any) -> Any:
        if state is None:
            return other
        if other is None:
            return state
        return state + other

    def finalize(self, state: Any) -> Any:
        return state

    def accumulate_vector(
        self, state: Any, vectors: Sequence[np.ndarray], rows: int
    ) -> Any:
        kept = _non_null(vectors[0])
        if not kept.size:
            return state
        total = float(kept.sum())
        return total if state is None else state + total


class _CountAggregate(AggregateFunction):
    arity = None
    skips_nulls = False

    def initialize(self) -> int:
        return 0

    def accumulate(self, state: int, args: Sequence[Any]) -> int:
        # COUNT(*) receives no args; COUNT(expr) skips NULLs itself.
        if args and args[0] is None:
            return state
        return state + 1

    def merge(self, state: int, other: int) -> int:
        return state + other

    def finalize(self, state: int) -> int:
        return state

    def accumulate_vector(
        self, state: int, vectors: Sequence[np.ndarray], rows: int
    ) -> int:
        if not vectors:
            return state + rows
        return state + int((~np.isnan(vectors[0])).sum())


class _AvgAggregate(AggregateFunction):
    def initialize(self) -> tuple[float, int]:
        return (0.0, 0)

    def accumulate(self, state: tuple[float, int], args: Sequence[Any]) -> Any:
        total, count = state
        return (total + args[0], count + 1)

    def merge(self, state: Any, other: Any) -> Any:
        return (state[0] + other[0], state[1] + other[1])

    def finalize(self, state: tuple[float, int]) -> Any:
        total, count = state
        return None if count == 0 else total / count

    def accumulate_vector(
        self, state: tuple[float, int], vectors: Sequence[np.ndarray], rows: int
    ) -> tuple[float, int]:
        kept = _non_null(vectors[0])
        total, count = state
        return (total + float(kept.sum()), count + kept.size)


class _MinAggregate(AggregateFunction):
    def initialize(self) -> Any:
        return None

    def accumulate(self, state: Any, args: Sequence[Any]) -> Any:
        (value,) = args
        return value if state is None or value < state else state

    def merge(self, state: Any, other: Any) -> Any:
        if state is None:
            return other
        if other is None:
            return state
        return min(state, other)

    def finalize(self, state: Any) -> Any:
        return state

    def accumulate_vector(
        self, state: Any, vectors: Sequence[np.ndarray], rows: int
    ) -> Any:
        kept = _non_null(vectors[0])
        if not kept.size:
            return state
        low = float(kept.min())
        return low if state is None or low < state else state


class _MaxAggregate(AggregateFunction):
    def initialize(self) -> Any:
        return None

    def accumulate(self, state: Any, args: Sequence[Any]) -> Any:
        (value,) = args
        return value if state is None or value > state else state

    def merge(self, state: Any, other: Any) -> Any:
        if state is None:
            return other
        if other is None:
            return state
        return max(state, other)

    def finalize(self, state: Any) -> Any:
        return state

    def accumulate_vector(
        self, state: Any, vectors: Sequence[np.ndarray], rows: int
    ) -> Any:
        kept = _non_null(vectors[0])
        if not kept.size:
            return state
        high = float(kept.max())
        return high if state is None or high > state else state


class _MomentsState:
    """Shared state for variance/correlation aggregates: the 1-or-2
    dimensional version of the paper's (n, L, Q)."""

    __slots__ = ("n", "sx", "sy", "sxx", "syy", "sxy")

    def __init__(self) -> None:
        self.n = 0.0
        self.sx = 0.0
        self.sy = 0.0
        self.sxx = 0.0
        self.syy = 0.0
        self.sxy = 0.0

    def add(self, x: float, y: float = 0.0) -> None:
        self.n += 1.0
        self.sx += x
        self.sy += y
        self.sxx += x * x
        self.syy += y * y
        self.sxy += x * y

    def merge(self, other: "_MomentsState") -> None:
        self.n += other.n
        self.sx += other.sx
        self.sy += other.sy
        self.sxx += other.sxx
        self.syy += other.syy
        self.sxy += other.sxy


class _VarianceAggregate(AggregateFunction):
    def __init__(self, sample: bool) -> None:
        self._sample = sample

    def initialize(self) -> _MomentsState:
        return _MomentsState()

    def accumulate(self, state: _MomentsState, args: Sequence[Any]) -> Any:
        state.add(float(args[0]))
        return state

    def merge(self, state: _MomentsState, other: _MomentsState) -> Any:
        state.merge(other)
        return state

    def accumulate_vector(
        self, state: _MomentsState, vectors: Sequence[np.ndarray], rows: int
    ) -> _MomentsState:
        kept = _non_null(vectors[0])
        state.n += float(kept.size)
        state.sx += float(kept.sum())
        state.sxx += float((kept * kept).sum())
        return state

    def finalize(self, state: _MomentsState) -> Any:
        denominator = state.n - 1.0 if self._sample else state.n
        if denominator <= 0:
            return None
        mean = state.sx / state.n
        return max(state.sxx / state.n - mean * mean, 0.0) * (
            state.n / denominator
        )


class _TwoVariableAggregate(AggregateFunction):
    """Base for corr / regr_slope / regr_intercept (two arguments)."""

    arity = 2

    def initialize(self) -> _MomentsState:
        return _MomentsState()

    def accumulate(self, state: _MomentsState, args: Sequence[Any]) -> Any:
        state.add(float(args[0]), float(args[1]))
        return state

    def merge(self, state: _MomentsState, other: _MomentsState) -> Any:
        state.merge(other)
        return state

    def accumulate_vector(
        self, state: _MomentsState, vectors: Sequence[np.ndarray], rows: int
    ) -> _MomentsState:
        xs, ys = vectors[0], vectors[1]
        mask = ~(np.isnan(xs) | np.isnan(ys))
        x, y = (xs, ys) if mask.all() else (xs[mask], ys[mask])
        state.n += float(x.size)
        state.sx += float(x.sum())
        state.sy += float(y.sum())
        state.sxx += float((x * x).sum())
        state.syy += float((y * y).sum())
        state.sxy += float((x * y).sum())
        return state


class _CorrAggregate(_TwoVariableAggregate):
    def finalize(self, state: _MomentsState) -> Any:
        n = state.n
        if n == 0:
            return None
        num = n * state.sxy - state.sx * state.sy
        den_x = n * state.sxx - state.sx * state.sx
        den_y = n * state.syy - state.sy * state.sy
        if den_x <= 0 or den_y <= 0:
            return None
        return num / math.sqrt(den_x * den_y)


class _RegrSlopeAggregate(_TwoVariableAggregate):
    """Slope of the least-squares line of the first argument (dependent)
    on the second (independent), following the SQL standard's REGR_SLOPE
    argument order."""

    def finalize(self, state: _MomentsState) -> Any:
        n = state.n
        if n == 0:
            return None
        den = n * state.syy - state.sy * state.sy
        if den == 0:
            return None
        return (n * state.sxy - state.sx * state.sy) / den


class _RegrInterceptAggregate(_TwoVariableAggregate):
    def finalize(self, state: _MomentsState) -> Any:
        n = state.n
        if n == 0:
            return None
        den = n * state.syy - state.sy * state.sy
        if den == 0:
            return None
        slope = (n * state.sxy - state.sx * state.sy) / den
        return state.sx / n - slope * state.sy / n


AGGREGATE_BUILTINS: dict[str, Callable[[], AggregateFunction]] = {
    "sum": _SumAggregate,
    "count": _CountAggregate,
    "avg": _AvgAggregate,
    "min": _MinAggregate,
    "max": _MaxAggregate,
    "var_samp": lambda: _VarianceAggregate(sample=True),
    "var_pop": lambda: _VarianceAggregate(sample=False),
    "stddev_samp": lambda: _StddevAggregate(sample=True),
    "stddev_pop": lambda: _StddevAggregate(sample=False),
    "corr": _CorrAggregate,
    "regr_slope": _RegrSlopeAggregate,
    "regr_intercept": _RegrInterceptAggregate,
}


class _StddevAggregate(_VarianceAggregate):
    def finalize(self, state: _MomentsState) -> Any:
        variance = super().finalize(state)
        return None if variance is None else math.sqrt(variance)


def is_aggregate_name(name: str) -> bool:
    return name.lower() in AGGREGATE_BUILTINS
