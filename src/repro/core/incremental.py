"""Incremental maintenance of the summary matrices.

Because (n, L, Q) are additive — the merge invariant the partition-
parallel UDF already relies on — they can be maintained *incrementally*
as a table grows: scan only the rows appended since the last refresh and
merge their partial summary into the running one.  The paper leaves this
as future work ("other statistical techniques can benefit from the same
approach"); it is what makes always-fresh models practical on append-
heavy warehouse tables.

:class:`IncrementalSummary` tracks a per-partition watermark (partitions
are append-only in this engine), so ``refresh()`` reads each partition's
suffix only.  The cost model is charged for exactly the new rows — an
n-row table that grew by k rows costs O(k), not O(n).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.blocks import drop_null_rows
from repro.dbms.database import Database
from repro.dbms.udf import RowCost
from repro.errors import ModelError


class IncrementalSummary:
    """A continuously maintainable (n, L, Q) over one table."""

    def __init__(
        self,
        db: Database,
        table: str,
        dimensions: Sequence[str],
        matrix_type: MatrixType = MatrixType.TRIANGULAR,
    ) -> None:
        self._db = db
        self._table_name = table
        self.dimensions = list(dimensions)
        self.matrix_type = matrix_type
        table_obj = db.table(table)
        self._positions = [
            table_obj.schema.position_of(name) for name in self.dimensions
        ]
        self._watermarks = [0] * table_obj.partition_count
        self._stats = SummaryStatistics.zeros(len(self.dimensions), matrix_type)
        self._refreshes = 0

    # ------------------------------------------------------------ properties
    @property
    def stats(self) -> SummaryStatistics:
        """The summary as of the last refresh (call :meth:`refresh` first
        for an up-to-date value)."""
        return self._stats

    @property
    def refresh_count(self) -> int:
        return self._refreshes

    def pending_rows(self) -> int:
        """Rows appended since the last refresh."""
        table = self._db.table(self._table_name)
        if table.partition_count != len(self._watermarks):
            raise ModelError("table was rebuilt; create a new IncrementalSummary")
        return sum(
            partition.row_count - mark
            for partition, mark in zip(table.partitions, self._watermarks)
        )

    def is_fresh(self) -> bool:
        return self.pending_rows() == 0

    # --------------------------------------------------------------- refresh
    def refresh(self) -> SummaryStatistics:
        """Fold all appended rows into the summary; O(new rows) only."""
        table = self._db.table(self._table_name)
        if table.partition_count != len(self._watermarks):
            raise ModelError("table was rebuilt; create a new IncrementalSummary")
        d = len(self.dimensions)
        new_rows = 0
        delta = SummaryStatistics.zeros(d, self.matrix_type)
        for index, partition in enumerate(table.partitions):
            mark = self._watermarks[index]
            count = partition.row_count
            if count < mark:
                raise ModelError(
                    "table shrank (delete/truncate); incremental state is "
                    "invalid — create a new IncrementalSummary"
                )
            if count == mark:
                continue
            block = partition.block(self._positions, mark, count)
            # Match the aggregate UDF: skip rows with any NULL dimension.
            delta = delta.merge(
                SummaryStatistics.from_matrix(
                    drop_null_rows(block), self.matrix_type
                )
            )
            new_rows += count - mark
            self._watermarks[index] = count
        if new_rows:
            scale = table.row_scale
            cost = self._db.cost
            cost.charge_scan(new_rows * scale, len(self.dimensions))
            profile = RowCost(
                list_params=d + 1,
                arith_ops=3 * d + self.matrix_type.update_ops(d),
            )
            cost.charge_udf_rows(
                new_rows * scale,
                list_params=profile.list_params,
                arith_ops=profile.arith_ops,
            )
            self._stats = self._stats.merge(delta)
        self._refreshes += 1
        return self._stats

    def reset(self) -> None:
        """Forget everything and start from an empty summary."""
        table = self._db.table(self._table_name)
        self._watermarks = [0] * table.partition_count
        self._stats = SummaryStatistics.zeros(
            len(self.dimensions), self.matrix_type
        )
        self._refreshes = 0
