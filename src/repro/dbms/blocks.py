"""The float block every vectorized kernel is handed.

Block contract: **read-only, float64, lane-major; NULL is NaN.**  A
block is a ``(rows, lanes)`` matrix in Fortran order, so ``block[:, j]``
is one contiguous lane and per-lane reductions (``sum``/``min``/``max``
along axis 0, the NULL pre-test) stream memory instead of striding
across rows.  Every producer builds its block with :func:`lane_block`
and every row selection goes through :func:`take_rows`, so the layout
holds from storage to kernel without a knob.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


def lane_block(rows: int, lanes: Sequence[Any]) -> np.ndarray:
    """A lane-major ``(rows, len(lanes))`` float64 block.

    Each lane is a length-*rows* sequence, or a scalar (a SQL literal)
    stored by broadcast.
    """
    block = np.empty((rows, len(lanes)), order="F")
    for index, lane in enumerate(lanes):
        block[:, index] = lane
    return block


def take_rows(block: np.ndarray, selector: np.ndarray) -> np.ndarray:
    """The rows of *block* picked by a boolean mask or an index array,
    as a lane-major block (``block[selector]`` would come back
    row-major).  Row order follows *selector*."""
    lanes = block.T
    if selector.dtype == bool:
        return lanes.compress(selector, axis=1).T
    return lanes.take(selector, axis=1).T


def drop_null_rows(block: np.ndarray) -> np.ndarray:
    """*block* without the rows that hold a NULL (NaN) in any lane.

    One contiguous pass decides the common no-NULL case: a NaN anywhere
    makes the grand sum NaN.  ``inf - inf`` also does, so the exact row
    mask is the judge whenever the pre-test fires.
    """
    if not block.size:
        return block
    with np.errstate(invalid="ignore", over="ignore"):
        suspect = np.isnan(block.sum())
    if suspect:
        keep = ~np.isnan(block).any(axis=1)
        if not keep.all():
            return take_rows(block, keep)
    return block
