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
    unpack_summary,
    unpack_vector,
    vector_char_cost,
)
from repro.core.summary import MatrixType, SummaryAccumulator, SummaryStatistics
from repro.dbms.database import Database
from repro.dbms.udf import AggregateUdf, RowCost
from repro.errors import ModelError, UdfArgumentError

#: the paper's static struct bound; d=64 keeps the full struct inside 64 KB
DEFAULT_MAX_D = 64


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
    def initialize(self) -> SummaryAccumulator:
        # The C struct is allocated up front at its static MAX_d size;
        # the heap segment must fit it before any row is read.
        self.ensure_state_fits(self.state_value_count())
        return SummaryAccumulator(self.matrix_type is MatrixType.DIAGONAL)

    def _check_points(self, state: SummaryAccumulator, d: int) -> None:
        """The argument checks ahead of every fold into *state*."""
        if d > self.max_d:
            raise UdfArgumentError(
                f"UDF {self.name!r} was compiled with MAX_d={self.max_d} "
                f"but received {d}-dimensional points; partition the "
                "computation across calls (repro.core.blockwise)"
            )
        if d == 0:
            raise UdfArgumentError(f"UDF {self.name!r} received an empty point")
        if state.d is not None and state.d != d:
            raise UdfArgumentError(
                f"point dimensionality changed mid-scan: {state.d} -> {d}"
            )
        self._observed_d = d

    def merge(
        self, state: SummaryAccumulator, other: SummaryAccumulator
    ) -> SummaryAccumulator:
        try:
            return state.merge(other)
        except ModelError as error:
            raise UdfArgumentError(str(error)) from None

    def finalize(self, state: SummaryAccumulator) -> str | None:
        if state.d is None:
            return None
        return pack_summary(state.summary(self.matrix_type))

    def copy_state(self, state: SummaryAccumulator) -> SummaryAccumulator:
        return state.copy()

    def state_from_stats(self, stats: SummaryStatistics) -> SummaryAccumulator:
        """A finished state holding *stats*, so :meth:`finalize` packs the
        payload a scan would have (how a factorized star summary answers);
        ``n == 0`` is the unshaped state, NULL like an empty scan."""
        state = self.initialize()
        if stats.n == 0:
            return state
        self._check_points(state, stats.d)
        return SummaryAccumulator.from_stats(stats)

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
    #: a partition block's (n, L, Q) partial depends on the block alone,
    #: so a cached block remembers it; a star join factorizes the call
    summary_cacheable = True

    def accumulate(
        self, state: SummaryAccumulator, args: Sequence[Any]
    ) -> SummaryAccumulator:
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
        self._check_points(state, d)
        return state.add(np.asarray([float(v) for v in values]))

    def accumulate_block(
        self, state: SummaryAccumulator, block: np.ndarray
    ) -> SummaryAccumulator:
        if block.shape[0] == 0:
            return state
        d = int(block[0, 0])
        if block.shape[1] - 1 != d:
            raise UdfArgumentError(
                f"UDF {self.name!r}: declared d={d} but received "
                f"{block.shape[1] - 1} point values"
            )
        self._check_points(state, d)
        return state.fold(block[:, 1:])

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

    def accumulate(
        self, state: SummaryAccumulator, args: Sequence[Any]
    ) -> SummaryAccumulator:
        (packed,) = args
        if not isinstance(packed, str):
            raise UdfArgumentError(
                f"UDF {self.name!r} expects a packed string point, got "
                f"{type(packed).__name__}"
            )
        x = unpack_vector(packed)
        self._check_points(state, x.shape[0])
        return state.add(x)

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
