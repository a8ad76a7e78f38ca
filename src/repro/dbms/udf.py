"""The user-defined function framework.

Models the Teradata C UDF API the paper builds on, including its
constraints (Section 2.2), which are enforced rather than merely
documented because they are what drive the paper's design choices:

* **Simple-typed parameters only** — numbers and strings, never arrays.
  This is why the nLQ UDF has a string-packing variant and a list-of-
  scalars variant.
* **Single simple-typed return value** — an aggregate returns one value,
  so the (n, L, Q) result is packed into one long string.
* **Bounded heap** — aggregate state lives in one 64 KB segment;
  :meth:`AggregateUdf.ensure_state_fits` raises once the state (sized in
  8-byte values) outgrows it.  This is why ``MAX_d`` exists and why very
  high ``d`` must be block-partitioned across calls (Table 6).
* **No nested UDF calls** — a UDF body cannot invoke another UDF.
* **No I/O** — UDF bodies get no handle to the catalog or storage.

Aggregates follow the paper's four run-time stages: (1) initialization
per worker, (2) per-row accumulation, (3) partial-result merge across
workers, (4) packing the returned value.  The executor drives one state
per partition (AMP) and merges, exactly as Section 3.4 describes.

**Thread-safety contract.**  The partition-execution engine
(:mod:`repro.dbms.engine`) may call :meth:`AggregateUdf.initialize` /
``accumulate`` / ``accumulate_block`` concurrently from worker threads,
one *state* per partition.  The contract mirrors the C API the paper
describes (each AMP owns its scratch segment):

* accumulation must only mutate the state object passed in — never
  shared attributes of the UDF instance (last-writer-wins hints like a
  cached observed dimensionality are tolerable only because every
  partition writes the same value within one scan);
* ``merge`` and ``finalize`` are always invoked from the coordinating
  thread, in deterministic partition order;
* the nested-call guard below is a ``threading.local``, so a scalar UDF
  running inside one worker thread never trips the guard for another.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.dbms.types import VALUE_WIDTH_BYTES
from repro.errors import UdfArgumentError, UdfMemoryError, UdfRegistrationError

#: the one heap segment available to an aggregate UDF (paper: 64 kb)
HEAP_SEGMENT_BYTES = 65536

_SIMPLE_TYPES = (int, float, str, bool)

_in_udf_call = threading.local()


def _check_simple(value: Any, udf_name: str) -> None:
    if value is None or isinstance(value, _SIMPLE_TYPES):
        return
    if isinstance(value, np.generic):
        return
    raise UdfArgumentError(
        f"UDF {udf_name!r} received a {type(value).__name__} argument; "
        "UDF parameters can only be simple types (numbers or strings), "
        "never arrays"
    )


class _NestedCallGuard:
    """Context manager enforcing 'UDFs cannot internally call other UDFs'.

    The active-call flag lives in a ``threading.local`` so concurrent
    engine workers each track their own call stack; a UDF executing on
    one thread cannot spuriously flag a UDF on another as nested.
    """

    def __init__(self, udf_name: str) -> None:
        self._udf_name = udf_name

    def __enter__(self) -> None:
        if getattr(_in_udf_call, "active", None):
            raise UdfArgumentError(
                f"UDF {self._udf_name!r} invoked from inside UDF "
                f"{_in_udf_call.active!r}; UDFs cannot call other UDFs"
            )
        _in_udf_call.active = self._udf_name

    def __exit__(self, *exc: object) -> None:
        _in_udf_call.active = None


@dataclass(frozen=True)
class RowCost:
    """Per-row cost profile of one UDF invocation.

    The executor records it with the (nominal) row count in a
    :class:`repro.dbms.cost.Work` record, which
    :func:`repro.dbms.cost.simulate` prices.
    """

    list_params: int = 0
    string_chars: float = 0.0
    arith_ops: float = 0.0


class ScalarUdf:
    """A scalar UDF: one value in per row, one value out per row.

    Subclass and override :meth:`compute`, or wrap a plain function with
    :func:`scalar_udf`.

    A subclass may additionally implement :meth:`compute_batch` and set
    ``supports_batch = True`` to let the block-wise SELECT path (see
    :mod:`repro.dbms.sql.vectorized`) evaluate the UDF over whole
    partition blocks at once — a pure execution fast path that must
    return exactly the values :meth:`compute` would produce row by row
    (parity tests enforce this, bit for bit).
    """

    #: set true in subclasses that implement :meth:`compute_batch`
    supports_batch = False
    #: batch results are 1-based subscripts (argmin/argmax scores); the
    #: executor restores them to Python ints per row, as the row path
    #: returns them
    batch_integer_result = False

    def __init__(self, name: str, arity: int | None = None) -> None:
        if not name:
            raise UdfRegistrationError("scalar UDF needs a name")
        self.name = name.lower()
        self.arity = arity

    def compute(self, *args: Any) -> Any:
        raise NotImplementedError

    def compute_batch(self, args: np.ndarray) -> np.ndarray:
        """Optional vectorized :meth:`compute` over an argument block.

        *args* is a ``(rows, arg_count)`` float matrix with NaN carrying
        NULL; the result is one float per row, NaN where the row's
        result is NULL.  NULL-in → NULL-out must hold per row (any NaN
        argument makes that row's result NaN), and argument-count
        validation must raise the same :class:`UdfArgumentError` the row
        path raises — the executor relies on both paths failing alike.
        """
        raise NotImplementedError

    def __call__(self, *args: Any) -> Any:
        if self.arity is not None and len(args) != self.arity:
            raise UdfArgumentError(
                f"UDF {self.name!r} expects {self.arity} arguments, "
                f"got {len(args)}"
            )
        for value in args:
            _check_simple(value, self.name)
        with _NestedCallGuard(self.name):
            result = self.compute(*args)
        _check_simple(result, self.name)
        return result

    def cost_per_row(self, arg_count: int) -> RowCost:
        """Default costing: per-call overhead plus one transfer per arg."""
        return RowCost(list_params=arg_count)


class _FunctionScalarUdf(ScalarUdf):
    def __init__(
        self, name: str, function: Callable[..., Any], arity: int | None
    ) -> None:
        super().__init__(name, arity)
        self._function = function

    def compute(self, *args: Any) -> Any:
        return self._function(*args)


def scalar_udf(
    name: str, function: Callable[..., Any], arity: int | None = None
) -> ScalarUdf:
    """Wrap a plain Python function as a scalar UDF."""
    return _FunctionScalarUdf(name, function, arity)


class AggregateUdf:
    """An aggregate UDF following the paper's four-phase protocol.

    Subclasses override :meth:`initialize`, :meth:`accumulate`,
    :meth:`merge` and :meth:`finalize`.  A subclass may also implement
    :meth:`accumulate_block` and set ``supports_block = True`` to receive
    whole numpy column blocks when every argument is a plain column
    reference — a pure execution fast path that must produce state
    identical to per-row accumulation (tests enforce this).
    """

    #: set true in subclasses that implement accumulate_block
    supports_block = False
    #: number of SQL arguments (None = variadic)
    arity: int | None = None
    #: aggregate UDFs skip rows where any argument is NULL unless told not to
    skips_nulls = True

    def __init__(self, name: str) -> None:
        if not name:
            raise UdfRegistrationError("aggregate UDF needs a name")
        self.name = name.lower()

    # ------------------------------------------------------------- the phases
    def initialize(self) -> Any:
        """Phase 1: allocate per-worker state (must fit the heap segment)."""
        raise NotImplementedError

    def accumulate(self, state: Any, args: Sequence[Any]) -> Any:
        """Phase 2: fold one row's arguments into the state."""
        raise NotImplementedError

    def merge(self, state: Any, other: Any) -> Any:
        """Phase 3: combine another worker's partial state into this one."""
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        """Phase 4: pack the state into a single simple-typed value."""
        raise NotImplementedError

    def accumulate_block(self, state: Any, block: np.ndarray) -> Any:
        """Optional vectorized phase 2 over a (rows × args) block."""
        raise NotImplementedError

    # ---------------------------------------------------------------- costing
    def cost_per_row(self, arg_count: int) -> RowCost:
        return RowCost(list_params=arg_count)

    def state_value_count(self) -> int:
        """Number of 8-byte values in the state (for merge/return costs)."""
        return 1

    # ------------------------------------------------------------ constraints
    def ensure_state_fits(self, value_count: int) -> None:
        """Raise :class:`UdfMemoryError` if *value_count* 8-byte values
        exceed the 64 KB heap segment."""
        needed = value_count * VALUE_WIDTH_BYTES
        if needed > HEAP_SEGMENT_BYTES:
            raise UdfMemoryError(
                f"aggregate UDF {self.name!r} needs {needed} bytes of state "
                f"but only one {HEAP_SEGMENT_BYTES}-byte heap segment is "
                "available; partition the computation (see Table 6 of the "
                "paper and repro.core.blockwise)"
            )

    def check_args(self, args: Sequence[Any]) -> None:
        if self.arity is not None and len(args) != self.arity:
            raise UdfArgumentError(
                f"aggregate UDF {self.name!r} expects {self.arity} "
                f"arguments, got {len(args)}"
            )
        for value in args:
            _check_simple(value, self.name)
