"""The float block every vectorized kernel is handed.

Block contract: **read-only, float64, lane-major; NULL is NaN.**  A
block is a ``(rows, lanes)`` matrix in Fortran order, so ``block[:, j]``
is one contiguous lane and per-lane reductions (``sum``/``min``/``max``
along axis 0, the NULL pre-test) stream memory instead of striding
across rows.  Every producer builds its block with :func:`lane_block`
and every block cut from it goes through :func:`take_rows`; only
:func:`keyed_fold` cuts row-major segments, for kernels that add rows.
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


def key_codes(columns: "Sequence[np.ndarray]") -> np.ndarray:
    """One integer code per row of the key *columns*, equal exactly when
    every column's value is: ``-0.0`` and ``0.0`` are one key and every
    NaN (NULL) is one more."""
    codes = None
    for column in columns:
        distinct, more = np.unique(column, return_inverse=True)
        if codes is not None:  # both below the row count: no overflow
            more = np.unique(codes * len(distinct) + more, return_inverse=True)[1]
        codes = more
    return codes


def running_sum(values: np.ndarray) -> np.ndarray:
    """*values* summed over axis 0 a row at a time in scan order from
    0.0 — the association (and sign of zero) of a ``total += row`` loop,
    which ``sum`` does not promise."""
    if not len(values):
        return np.zeros(values.shape[1:])
    return np.cumsum(values, axis=0)[-1] + 0.0


def keyed_fold(
    codes: np.ndarray,
    rows: Any,
    kernel: "Callable[[Any], Any] | None" = None,
    lane_major: bool = False,
) -> "tuple[np.ndarray, Any]":
    """Fold each key's rows with *kernel*: one stable argsort of the
    per-row integer *codes* makes a key's rows one contiguous segment in
    scan order — a row-major slice of ``rows[order]``, or with
    *lane_major* a :class:`ScanBlock`'s ``rows.take`` of them.

    Returns ``(firsts, folded)``, keys in first-appearance order:
    ``firsts[i]`` is key *i*'s first row (its first-seen value) and
    ``folded[i]`` its segment's kernel result.  Without a *kernel*,
    *folded* is the ``(keys, ...)`` array of each segment's
    :func:`running_sum`: one call per segment when segments are few,
    else one vector add per rank (every segment's r-th row at once).
    """
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    starts = np.flatnonzero(np.r_[len(codes) > 0, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], len(codes)]
    appearance = np.argsort(order[starts])
    starts, stops = starts[appearance], stops[appearance]
    bounds = zip(starts.tolist(), stops.tolist())
    if lane_major:
        return order[starts], [kernel(rows.take(order[a:b])) for a, b in bounds]
    gathered = rows[order]
    if kernel is not None:
        return order[starts], [kernel(gathered[a:b]) for a, b in bounds]
    lengths = stops - starts
    longest = lengths.max(initial=0)
    if len(starts) <= longest:
        sums = np.zeros((len(starts), *gathered.shape[1:]))
        for index, (a, b) in enumerate(bounds):
            sums[index] = running_sum(gathered[a:b])
        return order[starts], sums
    sums = 0.0 + gathered[starts]
    live = np.flatnonzero(lengths > 1)
    for rank in range(1, longest):
        live = live[lengths[live] > rank]
        sums[live] += gathered[starts[live] + rank]
    return order[starts], sums


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
