"""The per-block NULL fact: a cached block is asked once whether it
holds a NULL, and the answer never changes what a fold returns.

The reference for every case is a *cold* database holding the same rows
(no cache entry, so no fact: every fold runs the exact
``drop_null_rows`` path), compared byte for byte, plus the row path's
row count wherever the two paths agree on what a NULL is (a stored NaN
is a value to the row path and a NULL to a block — that divergence is
older than this file and pinned here, not introduced).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.nlq_udf import register_nlq_udfs
from repro.core.packing import unpack_summary
from repro.dbms.blocks import (
    PARTIALS_PER_BLOCK,
    BlockFacts,
    ScanBlock,
    lane_block,
)
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema
from repro.dbms.storage import BLOCK_CACHE_CAPACITY, BlockCacheStats
from repro.errors import ConstraintViolation

AMPS = 4
N = 60
NLQ = "SELECT nlq_tri(3, x1, x2, x3) FROM x"
GROUPED = (
    "SELECT i % 3 AS g, nlq_diag(3, x1, x2, x3) FROM x GROUP BY i % 3 ORDER BY g"
)
#: the same statements on the row path (a WHERE sends an aggregate there)
ROW_NLQ = NLQ + " WHERE i > 0"
ROW_GROUPED = GROUPED.replace("GROUP BY", "WHERE i > 0 GROUP BY")


def _rows(n: int = N, seed: int = 2) -> list[tuple]:
    X = np.random.default_rng(seed).normal(5.0, 2.0, size=(n, 3))
    return [(i + 1, *map(float, x)) for i, x in enumerate(X)]


def _database(rows: list[tuple], **knobs) -> Database:
    db = Database(amps=AMPS, **knobs)
    db.create_table("x", dataset_schema(3))
    if rows:
        db.insert_rows("x", rows)
    register_nlq_udfs(db)
    return db


def _cold(db: Database, sql: str):
    """*sql* on a fresh database holding *db*'s rows."""
    with _database(db.table("x").rows()) as fresh:
        result = fresh.execute(sql)
        assert result.metrics.block_cache_hits == 0
        return result.rows


def _n(payload: "str | None") -> float:
    return 0.0 if payload is None else unpack_summary(payload).n


@pytest.fixture
def warm():
    """A NULL-free table whose blocks are cached and known NULL-free."""
    with _database(_rows()) as db:
        cold = db.execute(NLQ)
        assert cold.metrics.null_scans == AMPS
        again = db.execute(NLQ)
        assert again.metrics.null_scans == 0
        assert again.metrics.block_cache_hits == AMPS
        assert again.rows == cold.rows
        yield db


# ------------------------------------------------------------ the mechanism
class TestScanBlock:
    def _block(self, *lanes):
        return lane_block(len(lanes[0]), [np.asarray(lane, float) for lane in lanes])

    def test_asks_once_and_remembers_either_answer(self):
        for lanes, expected in (
            (([1.0, 2.0], [3.0, 4.0]), True),
            (([1.0, math.nan], [3.0, 4.0]), False),
            (([math.inf, 1.0], [-math.inf, 2.0]), False),  # inf - inf
            (([math.inf, 1.0], [math.inf, 2.0]), True),  # inf is a value
        ):
            stats = BlockCacheStats()
            block = ScanBlock(self._block(*lanes), stats)
            assert stats.facts.null_free is None
            assert block.null_free() is expected
            assert block.null_free() is expected
            assert stats.null_scans == 1
            # the next read of the same cache entry shares the facts
            later = BlockCacheStats(facts=stats.facts)
            assert ScanBlock(block.array, later).null_free() is expected
            assert later.null_scans == 0

    def test_sub_blocks_answer_from_the_block_they_were_taken_from(self):
        stats = BlockCacheStats()
        block = ScanBlock(self._block([1.0, math.nan, 3.0], [4.0, 5.0, 6.0]), stats)
        clean_rows = block.take(np.asarray([0, 2]))
        assert clean_rows.array.flags.f_contiguous
        # its own rows are clean, the block it came from is not
        assert not np.isnan(clean_rows.array).any()
        assert clean_rows.null_free() is False
        assert clean_rows.take(np.asarray([0])).null_free() is False
        assert stats.null_scans == 1
        assert clean_rows.drop_null_rows(clean_rows.array) is clean_rows.array
        assert stats.null_scans == 2

    def test_remembers_partials_of_a_null_free_block_only(self):
        folds = []

        def fold(key):
            return lambda: folds.append(key) or [key]

        unknown = ScanBlock(self._block([1.0, 2.0]), BlockCacheStats())
        unknown.fold_once("a", fold("a"), list)  # NULL fact not asked yet
        unknown.fold_once("a", fold("a"), list)
        dirty = ScanBlock(self._block([1.0, math.nan]), BlockCacheStats())
        assert not dirty.null_free()
        dirty.fold_once("b", fold("b"), list)
        dirty.fold_once("b", fold("b"), list)
        stats = BlockCacheStats()
        clean = ScanBlock(self._block([1.0, 2.0]), stats)
        assert clean.null_free()
        for key in range(PARTIALS_PER_BLOCK + 1):
            clean.fold_once(key, fold(key), list)
        kept = clean.fold_once(PARTIALS_PER_BLOCK, fold(None), list)
        kept.append("merged into")  # a copy: the remembered one is intact
        assert clean.fold_once(PARTIALS_PER_BLOCK, fold(None), list) == [
            PARTIALS_PER_BLOCK
        ]
        clean.fold_once(0, fold(0), list)  # the oldest went first
        assert folds == ["a", "a", "b", "b", *range(PARTIALS_PER_BLOCK + 1), 0]
        assert stats.partials_reused == 2

    def test_facts_are_not_part_of_stats_equality(self):
        known = BlockFacts()
        known.null_free = True
        assert BlockCacheStats(hit=True, facts=known) == BlockCacheStats(hit=True)


# ----------------------------------------------- a fact dies with its block
class TestMutationsDropTheFact:
    def test_append_a_null_row(self, warm):
        warm.insert_rows("x", [(N + 1, None, 1.0, 2.0)])
        after = warm.execute(NLQ)
        # one partition took the row: its block is rebuilt and asked
        # (fires), then its fold takes the exact path; the rest skip
        assert after.metrics.block_cache_misses == 1
        assert after.metrics.null_scans == 2
        assert after.rows == _cold(warm, NLQ)
        assert _n(after.scalar()) == _n(warm.execute(ROW_NLQ).scalar()) == N
        again = warm.execute(NLQ)
        assert again.metrics.null_scans == 1  # the exact path, not re-asked
        assert again.rows == after.rows

    def test_append_a_stored_nan(self, warm):
        warm.load_columns(
            "x",
            {
                "i": np.asarray([N + 1, N + 2]),
                "x1": np.asarray([math.nan, 1.0]),
                "x2": np.asarray([2.0, 2.0]),
                "x3": np.asarray([3.0, 3.0]),
            },
        )
        after = warm.execute(NLQ)
        assert after.rows == _cold(warm, NLQ) == warm.execute(NLQ).rows
        # a block cannot tell a stored NaN from a NULL: dropped, as before
        assert _n(after.scalar()) == N + 1
        assert _n(warm.execute(ROW_NLQ).scalar()) == N + 2

    def test_update_to_null(self, warm):
        warm.execute("UPDATE x SET x1 = NULL WHERE i % 7 = 0")
        after = warm.execute(NLQ)
        assert after.metrics.block_cache_misses == AMPS
        assert after.rows == _cold(warm, NLQ)
        kept = N - len(range(7, N + 1, 7))
        assert _n(after.scalar()) == _n(warm.execute(ROW_NLQ).scalar()) == kept
        assert warm.execute(NLQ).rows == after.rows

    def test_update_back_to_clean(self, warm):
        warm.execute("UPDATE x SET x1 = NULL WHERE i = 3")
        assert _n(warm.execute(NLQ).scalar()) == N - 1
        warm.execute("UPDATE x SET x1 = 0.5 WHERE i = 3")
        clean = warm.execute(NLQ)
        assert clean.metrics.null_scans == AMPS
        assert _n(clean.scalar()) == N
        assert warm.execute(NLQ).metrics.null_scans == 0

    def test_truncate_and_reload(self, warm):
        warm.table("x").truncate()
        empty = warm.execute(NLQ)
        assert empty.rows == [(None,)] == warm.execute(ROW_NLQ).rows
        assert empty.metrics.parallel_tasks == 0 and empty.metrics.null_scans == 0
        warm.insert_rows("x", [(1, None, 1.0, 1.0), (2, 2.0, 2.0, 2.0)])
        assert _n(warm.execute(NLQ).scalar()) == 1
        assert warm.execute(NLQ).rows == _cold(warm, NLQ)

    def test_a_batch_that_fails_half_way(self, warm):
        before = warm.execute(NLQ).rows
        with pytest.raises(ConstraintViolation):
            # the NULL row commits, the duplicate key after it raises
            warm.insert_rows("x", [(N + 1, None, 1.0, 1.0), (1, 0.0, 0.0, 0.0)])
        assert warm.table("x").row_count == N + 1
        after = warm.execute(NLQ)
        assert after.metrics.block_cache_misses == 1
        assert after.rows == before == _cold(warm, NLQ)
        assert _n(warm.execute(ROW_NLQ).scalar()) == N


# ------------------------------------------------------------- pinned values
class TestEdgeValues:
    def _check(self, rows, sql, expect_n, row_sql=None, runs=3):
        with _database(rows) as db:
            answers = [db.execute(sql) for _ in range(runs)]
            assert all(a.rows == answers[0].rows for a in answers)
            assert answers[0].rows == _cold(db, sql)
            for row in answers[0].rows:
                assert _n(row[-1]) == expect_n
            if row_sql is not None:
                for row in db.execute(row_sql).rows:
                    assert _n(row[-1]) == expect_n
            return answers

    def test_same_sign_infinities_are_values_and_null_free(self):
        rows = _rows()
        rows[4] = (5, math.inf, 1.0, math.inf)
        answers = self._check(rows, NLQ, N, ROW_NLQ)
        assert [a.metrics.null_scans for a in answers] == [AMPS, 0, 0]
        assert "inf" in answers[0].scalar()

    def test_opposite_infinities_fire_the_pretest_but_drop_nothing(self):
        rows = _rows()
        rows[4] = (5, math.inf, -math.inf, 2.0)  # the block's sum is NaN
        answers = self._check(rows, NLQ, N, ROW_NLQ)
        # that row's partition keeps the exact path, which keeps the row
        assert [a.metrics.null_scans for a in answers] == [AMPS + 1, 1, 1]

    def test_an_all_null_lane_drops_every_row(self):
        rows = [(i, a, b, None) for i, a, b, _ in _rows()]
        answers = self._check(rows, NLQ, 0.0, ROW_NLQ)
        assert answers[0].rows == [(None,)]
        assert [a.metrics.null_scans for a in answers] == [2 * AMPS, AMPS, AMPS]

    def test_a_null_literal_argument_on_a_known_clean_block(self):
        sql = "SELECT nlq_tri(3, x1, NULL, x3) FROM x"
        with _database(_rows()) as db:
            db.execute("SELECT nlq_tri(2, x1, x3) FROM x")
            warm = db.execute("SELECT nlq_tri(2, x1, x3) FROM x")
            assert warm.metrics.null_scans == 0  # (x1, x3) block is known
            for _ in range(2):
                result = db.execute(sql)
                assert result.metrics.block_cache_hits == AMPS
                assert result.rows == [(None,)] == _cold(db, sql)
                assert result.metrics.null_scans == AMPS  # never skipped
            assert db.execute(sql + " WHERE i > 0").rows == [(None,)]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_a_computed_lane_makes_a_nan_from_a_clean_block(self):
        rows = _rows()
        rows[7] = (8, math.inf, math.inf, 1.0)  # clean: inf + inf is inf
        sql = "SELECT nlq_diag(2, x1 / x2, x3) FROM x"
        with _database(rows) as db:
            first = db.execute("SELECT nlq_diag(3, x1, x2, x3) FROM x")
            assert _n(first.scalar()) == N
            for _ in range(2):
                result = db.execute(sql)
                # inf / inf is NaN: the row is dropped although the
                # source block is known to be clean
                assert _n(result.scalar()) == N - 1
                assert result.metrics.null_scans == AMPS
                assert result.rows == _cold(db, sql)

    def test_a_negative_zero_lane(self):
        rows = [(i, -0.0, b, c) for i, _, b, c in _rows()]
        answers = self._check(rows, NLQ, N, ROW_NLQ)
        stats = unpack_summary(answers[0].scalar())
        assert stats.L[0] == 0.0 and not math.copysign(1.0, stats.L[0]) < 0

    def test_empty_partitions(self):
        rows = _rows(n=2)
        with _database(rows) as db:
            filled = sum(1 for p in db.table("x").partitions if p.row_count)
            assert filled < AMPS
            cold = db.execute(NLQ)
            assert cold.metrics.parallel_tasks == cold.metrics.null_scans == filled
            assert db.execute(NLQ).metrics.null_scans == 0
            assert db.execute(NLQ).rows == cold.rows == _cold(db, NLQ)


# -------------------------------------------------------------- sub-blocks
class TestGroupBySubBlocks:
    def test_a_null_free_block_is_asked_once_for_all_its_groups(self):
        with _database(_rows()) as db:
            cold = db.execute(GROUPED)
            assert cold.metrics.groups == 3
            assert cold.metrics.null_scans == AMPS  # not AMPS x groups
            warm = db.execute(GROUPED)
            assert warm.metrics.null_scans == 0
            assert warm.rows == cold.rows == _cold(db, GROUPED)
            row = db.execute(ROW_GROUPED).rows
            assert [(g, _n(p)) for g, p in warm.rows] == [
                (g, _n(p)) for g, p in row
            ]

    def test_groups_of_a_block_with_a_null_take_the_exact_path(self):
        rows = _rows()
        rows[10] = (11, None, 1.0, 1.0)
        with _database(rows) as db:
            cold = db.execute(GROUPED)
            warm = db.execute(GROUPED)
            assert warm.rows == cold.rows == _cold(db, GROUPED)
            # the NULL's partition: one scan per group, every run
            assert warm.metrics.null_scans == 3
            assert cold.metrics.null_scans == AMPS + 3
            row = db.execute(ROW_GROUPED).rows
            assert [(g, _n(p)) for g, p in warm.rows] == [
                (g, _n(p)) for g, p in row
            ]
            assert sum(_n(p) for _, p in warm.rows) == N - 1

    def test_builtin_aggregates_never_ask(self):
        with _database(_rows()) as db:
            sql = "SELECT i % 3, sum(x1), avg(x2), count(*) FROM x GROUP BY i % 3"
            assert db.execute(sql).metrics.null_scans == 0
            partition = db.table("x").partitions[0]
            assert all(
                facts.null_free is None for facts in partition._block_facts.values()
            )


# ----------------------------------------------------------------- eviction
#: BLOCK_CACHE_CAPACITY column selections other than NLQ's (x1, x2, x3)
OTHER_SELECTIONS = [
    f"SELECT nlq_diag({len(columns)}, {', '.join(columns)}) FROM x"
    for columns in [
        ("x1",), ("x2",), ("x3",), ("x1", "x2"),
        ("x1", "x3"), ("x2", "x1"), ("x2", "x3"), ("x3", "x1"),
    ]
]


class TestEvictedBlocks:
    def test_a_cached_block_answers_the_same(self):
        with _database(_rows()) as db:
            runs = [db.execute(NLQ) for _ in range(3)]
            expected = _cold(db, NLQ)
            assert all(run.rows == expected for run in runs)
            assert runs[0].metrics.block_cache_misses == AMPS
            assert all(
                run.metrics.block_cache_hits == AMPS
                and run.metrics.block_cache_misses == 0
                for run in runs[1:]
            )
            # The fact lives with its entry: asked once, then never.
            assert [run.metrics.null_scans for run in runs] == [AMPS, 0, 0]
            for partition in db.table("x").partitions:
                assert set(partition._block_facts) == set(partition._block_cache)

    def test_eviction_drops_the_block_and_its_fact(self):
        assert len(OTHER_SELECTIONS) == BLOCK_CACHE_CAPACITY
        with _database(_rows()) as db:
            db.execute(NLQ)
            assert db.execute(NLQ).metrics.null_scans == 0
            evictions = [
                db.execute(sql).metrics.cache_evictions
                for sql in OTHER_SELECTIONS
            ]
            # The ninth selection evicts the oldest, (x1, x2, x3).
            assert evictions == [0] * (BLOCK_CACHE_CAPACITY - 1) + [AMPS]
            for partition in db.table("x").partitions:
                assert not partition.has_cached_block([1, 2, 3])
                assert set(partition._block_facts) == set(partition._block_cache)
                assert len(partition._block_cache) == BLOCK_CACHE_CAPACITY
            back = db.execute(NLQ)
            assert back.metrics.block_cache_misses == AMPS
            assert back.metrics.null_scans == AMPS  # asked again
            assert back.rows == _cold(db, NLQ)
