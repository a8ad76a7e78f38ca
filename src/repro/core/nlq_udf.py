"""The aggregate UDF that computes (n, L, Q) in one table scan.

This is the paper's Section 3.4.  Because Teradata UDF parameters cannot
be arrays, there are two parameter-passing variants:

* :class:`NlqListUdf` — the point is passed as an explicit list of
  scalar parameters, ``nlq_tri(d, x1, ..., xd)``.  Fast (values land on
  the run-time stack) but bounded by the engine's parameter limit.
* :class:`NlqStringUdf` — the point is packed into one string,
  ``nlq_str_tri(x1 || ',' || x2 || ...)``; the UDF's unpacking routine
  determines ``d``.  Costs O(d) pack/parse per row, which the paper
  found to outweigh even the O(d²) update arithmetic at high ``d``.

Each variant comes in three matrix types (diagonal / triangular / full
Q), fixed at creation so the aggregate state struct can be sized the way
the paper's C struct is: statically, for ``MAX_d`` dimensions, allocated
before the first row arrives.  The 64 KB heap-segment check therefore
uses the static size, and a GROUP BY over many groups spills once
``groups × state size`` exceeds the segment (Table 5's jump at k=32 with
the diagonal struct).

The four run-time stages map to :meth:`initialize` / :meth:`accumulate`
(or the vectorized :meth:`accumulate_block`) / :meth:`merge` /
:meth:`finalize`, which packs the result into one long string (UDFs
cannot return arrays either) — decode it with
:func:`repro.core.packing.unpack_summary`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.packing import (
    pack_summary,
    unpack_vector,
    vector_char_cost,
)
from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.database import Database
from repro.dbms.udf import AggregateUdf, RowCost
from repro.errors import UdfArgumentError

#: the paper's static struct bound; d=64 keeps the full struct inside 64 KB
DEFAULT_MAX_D = 64


class _NlqState:
    """The aggregate's heap struct: n, L, Q (+ per-dimension extrema).

    Arrays are lazily shaped on the first row (the C struct is static;
    we size on first use but *account* statically — see
    ``state_value_count``).
    """

    __slots__ = ("d", "n", "L", "Q", "mins", "maxs", "diagonal")

    def __init__(self, diagonal: bool) -> None:
        self.d: int | None = None
        self.n = 0.0
        self.L: np.ndarray | None = None
        self.Q: np.ndarray | None = None
        self.mins: np.ndarray | None = None
        self.maxs: np.ndarray | None = None
        self.diagonal = diagonal

    def shape_for(self, d: int) -> None:
        if self.d is None:
            self.d = d
            self.L = np.zeros(d)
            self.Q = np.zeros(d) if self.diagonal else np.zeros((d, d))
            self.mins = np.full(d, np.inf)
            self.maxs = np.full(d, -np.inf)
        elif self.d != d:
            raise UdfArgumentError(
                f"point dimensionality changed mid-scan: {self.d} -> {d}"
            )


class _NlqUdfBase(AggregateUdf):
    """Shared machinery of the two parameter-passing variants."""

    def __init__(
        self,
        name: str,
        matrix_type: MatrixType = MatrixType.TRIANGULAR,
        max_d: int = DEFAULT_MAX_D,
    ) -> None:
        super().__init__(name)
        self.matrix_type = matrix_type
        self.max_d = max_d
        #: dimensionality seen during the last scan (used for costing).
        #: Written from concurrent engine workers, which is benign:
        #: every partition of one scan observes the same d (a change
        #: mid-scan raises), so the race is last-writer-wins over equal
        #: values.
        self._observed_d = 0

    # --------------------------------------------------------------- phases
    def initialize(self) -> _NlqState:
        # The C struct is allocated up front at its static MAX_d size;
        # the heap segment must fit it before any row is read.
        self.ensure_state_fits(self.state_value_count())
        return _NlqState(self.matrix_type is MatrixType.DIAGONAL)

    def _update(self, state: _NlqState, x: np.ndarray) -> None:
        d = x.shape[0]
        if d > self.max_d:
            raise UdfArgumentError(
                f"UDF {self.name!r} was compiled with MAX_d={self.max_d} "
                f"but received a {d}-dimensional point; partition the "
                "computation across calls (repro.core.blockwise)"
            )
        if d == 0:
            raise UdfArgumentError(f"UDF {self.name!r} received an empty point")
        state.shape_for(d)
        self._observed_d = d
        state.n += 1.0
        state.L += x
        if state.diagonal:
            state.Q += x * x
        else:
            # The triangular optimization halves the multiply-adds; the
            # stored result is the same symmetric matrix either way, so
            # the cost model (not the storage) carries the difference.
            state.Q += np.outer(x, x)
        np.minimum(state.mins, x, out=state.mins)
        np.maximum(state.maxs, x, out=state.maxs)

    def _update_block(self, state: _NlqState, X: np.ndarray) -> None:
        rows, d = X.shape
        if d > self.max_d:
            raise UdfArgumentError(
                f"UDF {self.name!r} was compiled with MAX_d={self.max_d} "
                f"but received {d}-dimensional points"
            )
        if rows == 0:
            return
        self._observed_d = d
        L = X.sum(axis=0)
        Q = (X * X).sum(axis=0) if state.diagonal else X.T @ X
        mins, maxs = X.min(axis=0), X.max(axis=0)
        if state.d is None:
            # A fresh state takes the block's sums as they are.  Adding
            # into zeros turned a -0.0 sum into +0.0; ``+= 0.0`` keeps
            # that rounding, so partials stay byte-equal.  inf and -inf
            # are the identities of min and max, nothing to fold.
            L += 0.0
            Q += 0.0
            state.d, state.n = d, float(rows)
            state.L, state.Q, state.mins, state.maxs = L, Q, mins, maxs
            return
        state.shape_for(d)
        state.n += float(rows)
        state.L += L
        state.Q += Q
        np.minimum(state.mins, mins, out=state.mins)
        np.maximum(state.maxs, maxs, out=state.maxs)

    def merge(self, state: _NlqState, other: _NlqState) -> _NlqState:
        if other.d is None:
            return state
        if state.d is None:
            return other
        if state.d != other.d:
            raise UdfArgumentError(
                f"cannot merge partial states of dimension {state.d} and {other.d}"
            )
        state.n += other.n
        state.L += other.L
        state.Q += other.Q
        np.minimum(state.mins, other.mins, out=state.mins)
        np.maximum(state.maxs, other.maxs, out=state.maxs)
        return state

    def finalize(self, state: _NlqState) -> str | None:
        if state.d is None:
            return None
        Q = np.diag(state.Q) if state.diagonal else state.Q
        stats = SummaryStatistics(
            n=state.n,
            L=state.L,
            Q=Q,
            matrix_type=self.matrix_type,
            mins=state.mins,
            maxs=state.maxs,
        )
        return pack_summary(stats)

    def state_from_stats(self, stats: SummaryStatistics) -> _NlqState:
        """Synthesize a finished aggregate state from an existing summary.

        This is how the summary-matrix cache serves a statement without
        scanning: the cached :class:`SummaryStatistics` is loaded into a
        fresh state, and the ordinary :meth:`finalize` then produces the
        exact payload a scan would have.  ``n == 0`` maps to the
        unshaped state, whose finalize returns NULL like an empty scan.
        """
        state = self.initialize()
        if stats.n == 0:
            return state
        state.shape_for(stats.d)
        self._observed_d = stats.d
        state.n = float(stats.n)
        state.L = stats.L.copy()
        state.Q = np.diag(stats.Q).copy() if state.diagonal else stats.Q.copy()
        if stats.mins is not None:
            state.mins = stats.mins.copy()
        if stats.maxs is not None:
            state.maxs = stats.maxs.copy()
        return state

    # -------------------------------------------------------------- costing
    def state_value_count(self) -> int:
        """Static struct size in 8-byte values: d and n, L[MAX_d], the Q
        storage for this matrix type, and the two extrema vectors."""
        q_values = self.max_d if self.matrix_type is MatrixType.DIAGONAL \
            else self.max_d * self.max_d
        return 3 + self.max_d + q_values + 2 * self.max_d

    def _arith_ops(self, d: int) -> int:
        # L update (d) + Q update (type-dependent) + extrema (2d).
        return d + self.matrix_type.update_ops(d) + 2 * d


class NlqListUdf(_NlqUdfBase):
    """List-passing variant: ``nlq_*(d, x1, ..., xd)``.

    ``d`` must be passed because the UDF's parameter list is declared at
    compile time (paper, Section 3.4); the engine's vectorized block path
    is available since every parameter is numeric.
    """

    supports_block = True
    #: eligible for the database's summary-matrix cache: a grand
    #: ``nlq_*(d, x1, ..., xd)`` call is exactly a (table, columns,
    #: matrix type) summary, so its payload can be served from cache
    summary_cacheable = True

    def accumulate(self, state: _NlqState, args: Sequence[Any]) -> _NlqState:
        if len(args) < 2:
            raise UdfArgumentError(
                f"UDF {self.name!r} needs (d, x1, ..., xd); got {len(args)} args"
            )
        d = int(args[0])
        values = args[1:]
        if len(values) != d:
            raise UdfArgumentError(
                f"UDF {self.name!r}: declared d={d} but received "
                f"{len(values)} point values"
            )
        self._update(state, np.asarray([float(v) for v in values]))
        return state

    def accumulate_block(self, state: _NlqState, block: np.ndarray) -> _NlqState:
        if block.shape[0] == 0:
            return state
        d = int(block[0, 0])
        if block.shape[1] - 1 != d:
            raise UdfArgumentError(
                f"UDF {self.name!r}: declared d={d} but received "
                f"{block.shape[1] - 1} point values"
            )
        self._update_block(state, block[:, 1:])
        return state

    def cost_per_row(self, arg_count: int) -> RowCost:
        # The call names d: (d, x1, ..., xd).  So the price is known
        # before any row is read, and EXPLAIN's estimate needs no scan.
        return RowCost(
            list_params=arg_count, arith_ops=self._arith_ops(arg_count - 1)
        )


class NlqStringUdf(_NlqUdfBase):
    """String-passing variant: ``nlq_str_*(packed_point)``.

    One parameter regardless of ``d`` — which is the whole appeal when
    the engine caps parameter counts — but each row pays the float→text
    cast at the call site and the text→float parse inside the UDF.
    """

    arity = 1
    supports_block = False

    def accumulate(self, state: _NlqState, args: Sequence[Any]) -> _NlqState:
        (packed,) = args
        if not isinstance(packed, str):
            raise UdfArgumentError(
                f"UDF {self.name!r} expects a packed string point, got "
                f"{type(packed).__name__}"
            )
        self._update(state, unpack_vector(packed))
        return state

    def cost_per_row(self, arg_count: int) -> RowCost:
        # d is inside the packed string: known once a row was parsed.
        d = self._observed_d or self.max_d
        return RowCost(
            list_params=1,
            string_chars=vector_char_cost(d),
            arith_ops=self._arith_ops(d),
        )


#: registration names for the six variants
NLQ_UDF_NAMES = {
    (MatrixType.DIAGONAL, "list"): "nlq_diag",
    (MatrixType.TRIANGULAR, "list"): "nlq_tri",
    (MatrixType.FULL, "list"): "nlq_full",
    (MatrixType.DIAGONAL, "string"): "nlq_str_diag",
    (MatrixType.TRIANGULAR, "string"): "nlq_str_tri",
    (MatrixType.FULL, "string"): "nlq_str_full",
}


def register_nlq_udfs(
    db: Database, max_d: int = DEFAULT_MAX_D
) -> dict[str, _NlqUdfBase]:
    """Register all six nLQ UDF variants on *db*; returns them by name."""
    registered: dict[str, _NlqUdfBase] = {}
    for (matrix_type, passing), name in NLQ_UDF_NAMES.items():
        udf_class = NlqListUdf if passing == "list" else NlqStringUdf
        udf = udf_class(name, matrix_type, max_d)
        db.register_udf(udf)
        registered[name] = udf
    return registered


def compute_nlq_udf(
    db: Database,
    table: str,
    dimensions: Sequence[str],
    matrix_type: MatrixType = MatrixType.TRIANGULAR,
    passing: str = "list",
) -> SummaryStatistics:
    """Run the aggregate UDF on *table* and decode its packed payload.

    The UDF variants must already be registered (see
    :func:`register_nlq_udfs`)."""
    from repro.core.packing import unpack_summary

    payload = db.execute(
        nlq_call_sql(table, dimensions, matrix_type, passing)
    ).scalar()
    if payload is None:
        return SummaryStatistics.zeros(len(dimensions), matrix_type)
    return unpack_summary(payload)


def compute_nlq_udf_groups(
    db: Database,
    table: str,
    dimensions: Sequence[str],
    group_by: str,
    matrix_type: MatrixType = MatrixType.DIAGONAL,
    passing: str = "list",
) -> "dict[object, SummaryStatistics]":
    """Per-group (n, L, Q) through the aggregate UDF with GROUP BY."""
    from repro.core.packing import unpack_summary

    result = db.execute(
        nlq_call_sql(table, dimensions, matrix_type, passing, group_by=group_by)
    )
    groups: dict[object, SummaryStatistics] = {}
    for key, payload in result.rows:
        if payload is not None:
            groups[key] = unpack_summary(payload)
    return groups


def nlq_call_sql(
    table: str,
    dimensions: Sequence[str],
    matrix_type: MatrixType = MatrixType.TRIANGULAR,
    passing: str = "list",
    group_by: str | None = None,
) -> str:
    """Generate the SELECT that invokes the aggregate UDF on *table*.

    With *group_by*, one (n, L, Q) is computed per group — the paper's
    sub-model query used to recompute clustering statistics.
    """
    name = NLQ_UDF_NAMES[(matrix_type, passing)]
    if passing == "list":
        args = ", ".join([str(len(dimensions)), *dimensions])
    else:
        pieces: list[str] = []
        for position, dimension in enumerate(dimensions):
            if position:
                pieces.append("','")
            pieces.append(dimension)
        args = " || ".join(pieces)
    call = f"{name}({args})"
    if group_by is None:
        return f"SELECT {call} FROM {table}"
    return (
        f"SELECT {group_by} AS grp, {call} FROM {table} "
        f"GROUP BY {group_by} ORDER BY grp"
    )
