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

from repro.core.nlq_udf import NLQ_UDF_NAMES, NlqListUdf
from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.blocks import drop_null_rows
from repro.dbms.cost import UdfRows, Work
from repro.dbms.database import Database
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
        #: the list-passing nLQ UDF a refresh stands in for (its
        #: ``cost_per_row`` prices the refreshed rows)
        self._udf = NlqListUdf(NLQ_UDF_NAMES[(matrix_type, "list")], matrix_type)
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
            # The suffix scan and the list UDF's per-row calls over it;
            # the running merge is free, like a cache serve.
            rows = new_rows * table.row_scale
            work = Work()
            work.scan(rows, d)
            work.udfs.append(UdfRows(rows, self._udf.cost_per_row(d + 1)))
            self._db.cost.charge(work)
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
