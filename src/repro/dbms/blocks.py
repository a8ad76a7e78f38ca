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

from typing import Any, Callable, Sequence

import numpy as np

#: partials one block remembers; the oldest goes first beyond this
PARTIALS_PER_BLOCK = 8


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


def may_hold_null(block: np.ndarray) -> bool:
    """The NULL pre-test: one contiguous pass that decides the common
    no-NULL case, because a NaN anywhere makes the grand sum NaN.
    ``inf - inf`` also does, so ``True`` only means "look closer"."""
    with np.errstate(invalid="ignore", over="ignore"):
        return bool(np.isnan(block.sum()))


def drop_null_rows(block: np.ndarray) -> np.ndarray:
    """*block* without the rows that hold a NULL (NaN) in any lane; the
    exact row mask is the judge whenever :func:`may_hold_null` fires."""
    if not block.size:
        return block
    if may_hold_null(block):
        keep = ~np.isnan(block).any(axis=1)
        if not keep.all():
            return take_rows(block, keep)
    return block


class BlockFacts:
    """What folds have learned about one block, kept by whoever keeps
    the block (a partition's block cache holds one per entry and drops
    it with the entry), so a warm block is not asked twice.

    ``null_free`` is ``None`` until a fold runs :func:`may_hold_null`
    over the block, then whether the block passed.  A block that did not
    pass (a NULL, a stored NaN, ``inf - inf``) keeps taking the exact
    per-fold :func:`drop_null_rows` path.

    ``partials`` maps a fold's key (the aggregate object and its
    argument lanes in call order) to the partial state that fold
    computed over the whole block.  Only a block that passed the NULL
    pre-test remembers one, so a reused partial skips no NULL scan.
    """

    __slots__ = ("null_free", "partials")

    def __init__(self) -> None:
        self.null_free: "bool | None" = None
        self.partials: dict[Any, Any] = {}


class ScanBlock:
    """One block as a partition task holds it: the float matrix plus the
    read's :class:`~repro.dbms.storage.BlockCacheStats`, which carries
    the block's :class:`BlockFacts` to the fold and the fold's NULL-scan
    and reused-partial counts back to the coordinator."""

    __slots__ = ("array", "_stats", "_root")

    def __init__(
        self, array: np.ndarray, stats: Any, root: "ScanBlock | None" = None
    ) -> None:
        self.array = array
        self._stats = stats
        self._root = root if root is not None else self

    def take(self, selector: np.ndarray) -> "ScanBlock":
        """The sub-block :func:`take_rows` picks; it answers
        :meth:`null_free` from the block it was taken from, whose rows
        are a superset of its own."""
        return ScanBlock(take_rows(self.array, selector), self._stats, self._root)

    def null_free(self) -> bool:
        """Whether the block as read passed the NULL pre-test — run at
        most once per cached block, by the first fold that asks."""
        facts = self._stats.facts
        if facts.null_free is None:
            self._stats.null_scans += 1
            facts.null_free = not may_hold_null(self._root.array)
        return facts.null_free

    def fold_once(
        self, key: Any, fold: Callable[[], Any], copy: Callable[[Any], Any]
    ) -> Any:
        """``fold()`` over this whole block, remembered under *key* in
        the block's :class:`BlockFacts`: a later fold with the same key
        gets ``copy(partial)`` instead (merges mutate the partial they
        are handed), counted as one reused partial."""
        facts = self._stats.facts
        partial = facts.partials.get(key)
        if partial is not None:
            self._stats.partials_reused += 1
            return copy(partial)
        partial = fold()
        if facts.null_free:
            if len(facts.partials) >= PARTIALS_PER_BLOCK:
                del facts.partials[next(iter(facts.partials))]
            facts.partials[key] = copy(partial)
        return partial

    def drop_null_rows(self, argument_block: np.ndarray) -> np.ndarray:
        """:func:`drop_null_rows` of an argument block built from this
        block, counted as one NULL scan."""
        self._stats.null_scans += 1
        return drop_null_rows(argument_block)
