"""The block contract: read-only, float64, lane-major; NULL is NaN.

Five groups of checks:

* every block producer — partition cache (miss, hit) over typed float
  lanes and object lanes, whole-table matrix, mmap ``BlockReader``,
  serving snapshot, incremental refresh, UDF argument matrices and
  filtered / grouped sub-blocks — hands out F-contiguous float64, a
  cached block refuses writes, and the in-memory lane, the block
  file's lane and a cached block hold the same bytes;
* every vectorized kernel gives the same answer on a lane-major block
  and on a C-ordered copy of it: bit for bit where the kernel is
  elementwise per lane, within a *derived* reordering bound where it
  reduces over rows;
* serial and thread-pool execution agree bit for bit;
* pinned edge cases: NULL rows, an all-NULL lane, ±inf, −0.0, empty
  partitions, a WHERE-filtered projection;
* the planned argument copy and the fresh nLQ state build the very bytes
  their lane-by-lane and zeros-then-add predecessors built (both kept
  here as oracles).

The reordering bound.  Two float64 evaluations of the same n-term sum,
in any two orders, each err by at most γₙ₋₁·Σ|tᵢ| (Higham, *Accuracy and
Stability of Numerical Algorithms*, eq. 4.4), γₙ = n·u / (1 − n·u),
u = 2⁻⁵³ — so they differ by at most 2·γₙ₋₁·Σ|tᵢ|.  When the terms are
themselves rounded products the constant is γₙ.  ``_sum_bound`` uses
2·γₙ₊₁ for both, which covers either case.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fused import EmIterUdf, KMeansIterUdf, register_fused_udfs
from repro.core.incremental import IncrementalSummary
from repro.core.models.em_mixture import GaussianMixtureModel
from repro.core.nlq_udf import register_nlq_udfs
from repro.core.packing import unpack_summary
from repro.core.scoring.udfs import register_scoring_udfs
from repro.core.summary import SummaryAccumulator, SummaryStatistics
from repro.dbms.blocks import drop_null_rows, lane_block, take_rows
from repro.dbms.columnar import BlockReader, atomic_write_bytes, encode_block
from repro.dbms.database import Database
from repro.dbms.expressions import compile_argument_block, compile_vector_expression
from repro.dbms.functions import AGGREGATE_BUILTINS, _MomentsState, _non_null
from repro.dbms.schema import dataset_schema, dimension_names
from repro.dbms.sql.ast import Literal
from repro.dbms.sql.parser import parse_statement

U = 2.0**-53


def _gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


def _sum_bound(n: int, abs_terms: "np.ndarray | float") -> "np.ndarray | float":
    """How far two orderings of an n-term sum (of possibly rounded
    products) can be apart, given Σ|term|."""
    return 2.0 * _gamma(n + 1) * abs_terms


def _is_lane_major(block: np.ndarray) -> bool:
    return block.dtype == np.float64 and block.flags.f_contiguous


def _make_db(rows, d, amps=4, **knobs) -> Database:
    """Table ``x(i, x1..xd)`` holding *rows* (tuples of d values, None
    for NULL), with every UDF family registered."""
    db = Database(amps=amps, **knobs)
    db.create_table("x", dataset_schema(d))
    db.insert_rows("x", [(i + 1, *row) for i, row in enumerate(rows)])
    register_nlq_udfs(db)
    register_scoring_udfs(db)
    register_fused_udfs(db)
    return db


def _normal_rows(n, d, seed=3):
    X = np.random.default_rng(seed).normal(50.0, 10.0, size=(n, d))
    return [tuple(map(float, x)) for x in X]


def _block_file(path, partition) -> BlockReader:
    """*partition* written as a block file at *path*, opened."""
    atomic_write_bytes(path, encode_block(partition.lanes, partition.row_count))
    return BlockReader(path)


def _nlq_sql(udf, d, suffix=""):
    return f"SELECT {udf}({d}, {', '.join(dimension_names(d))}) FROM x{suffix}"


# ------------------------------------------------------------- producers
class TestEveryProducerIsLaneMajor:
    def test_partition_cache_miss_hit_and_degenerate_shapes(self):
        with _make_db(_normal_rows(40, 3), 3, amps=8) as db:
            db.insert_rows("x", [(41, None, 1.0, 2.0)])
            for partition in db.table("x").partitions:
                miss, first = partition.numeric_matrix_with_cache_stats([1, 2, 3])
                hit, again = partition.numeric_matrix_with_cache_stats([1, 2, 3])
                assert not first.hit and again.hit and hit is miss
                assert _is_lane_major(miss) and not miss.flags.writeable
                assert miss.shape == (partition.row_count, 3)
                assert _is_lane_major(partition.numeric_matrix([]))
        with _make_db([], 3) as db:  # every partition empty
            for partition in db.table("x").partitions:
                block = partition.numeric_matrix([1, 2])
                assert block.shape == (0, 2) and _is_lane_major(block)

    def test_table_matrix_and_serving_snapshot(self):
        with _make_db(_normal_rows(40, 3), 3) as db:
            whole = db.table("x").numeric_matrix(["x1", "x3"])
            assert whole.shape == (40, 2) and _is_lane_major(whole)
            server = db.serve()
            with server.session() as session:
                pinned = session.snapshot("x").numeric_matrix(["x1", "x3"])
            assert _is_lane_major(pinned)
            np.testing.assert_array_equal(pinned, whole)

    def test_mmap_block_reader(self, tmp_path):
        with _make_db(_normal_rows(40, 3), 3) as db:
            table = db.table("x")
            for pid, partition in enumerate(table.partitions):
                if not partition.row_count:
                    continue
                reader = _block_file(tmp_path / f"p{pid}.blk", partition)
                block = reader.float_matrix([1, 2, 3])
                assert _is_lane_major(block)
                np.testing.assert_array_equal(
                    block, table.partitions[pid].numeric_matrix([1, 2, 3])
                )
                reader.close()

    def test_incremental_refresh(self, monkeypatch):
        seen = []
        original = SummaryAccumulator.fold

        def spy(state, X):
            seen.append(X)
            return original(state, X)

        monkeypatch.setattr(SummaryAccumulator, "fold", spy)
        with _make_db(_normal_rows(40, 3), 3) as db:
            db.insert_rows("x", [(41, None, 1.0, 2.0)])  # dropped row
            stats = IncrementalSummary(db, "x", dimension_names(3)).refresh()
        assert stats.n == 40.0
        assert seen and all(_is_lane_major(X) for X in seen)
        assert not any(np.isnan(X).any() for X in seen)

    def test_cached_block_yields_the_same_summary(self):
        """A block served from the cache is the F-contiguous, read-only
        array the miss built and yields a bit-identical (n, L, Q) to a
        fresh uncached copy of the same lanes."""
        rows = _normal_rows(200, 3)
        with _make_db(rows, 3) as db:
            partition = next(
                p for p in db.table("x").partitions if p.row_count
            )
            partition.numeric_matrix([1, 2, 3])
            cached, stats = partition.numeric_matrix_with_cache_stats([1, 2, 3])
            assert stats.hit and _is_lane_major(cached)
            assert not cached.flags.writeable
            fresh = SummaryStatistics.from_matrix(partition.block([1, 2, 3]))
            served = SummaryStatistics.from_matrix(cached)
            assert served.n == fresh.n
            assert np.array_equal(served.L, fresh.L)
            assert np.array_equal(served.Q, fresh.Q)
            sql = _nlq_sql("nlq_tri", 3)
            db.execute(sql)
            warm = db.execute(sql)
            assert warm.metrics.block_cache_misses == 0
        with _make_db(rows, 3) as db:
            assert db.execute(sql).scalar() == warm.scalar()

    def test_blocks_are_copies_of_typed_and_object_lanes(self):
        """Column 0 (``i INTEGER``) is an object lane, the rest are typed
        float lanes: either way the block is a fresh lane-major copy
        that later appends cannot reach, for any row range."""
        with _make_db(_normal_rows(40, 3), 3, amps=2) as db:
            partition = db.table("x").partitions[0]
            rows = partition.row_count
            block = partition.numeric_matrix([0, 2, 3])
            assert _is_lane_major(block) and block.shape == (rows, 3)
            lane = partition.lanes[2].floats(0, rows)
            assert not np.shares_memory(block, lane)
            np.testing.assert_array_equal(block[:, 1], lane)
            frozen = block.copy()
            db.insert_rows("x", [(100 + j, 9.0, 9.0, None) for j in range(500)])
            np.testing.assert_array_equal(block, frozen)
            tail = partition.block([3, 1], rows - 5, rows)
            assert _is_lane_major(tail) and tail.shape == (5, 2)
            np.testing.assert_array_equal(tail[:, 0], frozen[-5:, 2])
            grown = partition.numeric_matrix([0, 2, 3])
            assert _is_lane_major(grown) and np.isnan(grown[rows:, 2]).all()
            np.testing.assert_array_equal(grown[:rows], frozen)

    def test_memory_lane_block_file_and_cached_block_are_the_same_bytes(
        self, tmp_path
    ):
        rows = _normal_rows(60, 3)
        rows[7] = (1.0, None, float("nan"))
        with _make_db(rows, 3, amps=1) as db:
            partition = db.table("x").partitions[0]
            cached = partition.numeric_matrix([1, 2, 3])
            reader = _block_file(tmp_path / "p0.blk", partition)
            for index, position in enumerate((1, 2, 3)):
                lane = partition.lanes[position].floats(0, 60).tobytes()
                assert cached[:, index].tobytes() == lane
                assert reader.float_column(position).tobytes() == lane
            reader.close()

    def test_argument_matrices_and_sub_blocks(self, monkeypatch):
        """What ``accumulate_block`` and ``compute_batch`` receive —
        including after NULL-row dropping, GROUP BY slicing and WHERE
        filtering — is lane-major, with literals stored by broadcast."""
        rows = _normal_rows(60, 3)
        rows[5] = (None, 1.0, 2.0)
        with _make_db(rows, 3) as db:
            seen = []
            nlq = db.catalog.aggregate_udf("nlq_tri")
            score = db.catalog.scalar_udf("linearregscore")
            fold, kernel = nlq.accumulate_block, score.compute_batch

            def spy_fold(state, block):
                seen.append(block)
                return fold(state, block)

            def spy_kernel(args):
                seen.append(args)
                return kernel(args)

            monkeypatch.setattr(nlq, "accumulate_block", spy_fold)
            monkeypatch.setattr(score, "compute_batch", spy_kernel)
            db.execute(_nlq_sql("nlq_tri", 3))
            db.execute(_nlq_sql("nlq_tri", 3, " GROUP BY i MOD 3"))
            db.execute(
                "SELECT linearregscore(x1, x2, x3, 1.5, 2.0, -3.0, 0.25) "
                "FROM x WHERE x2 > 50"
            )
            assert len(seen) > 8
            assert all(_is_lane_major(block) for block in seen)
            assert sum(block.shape[0] for block in seen[:4]) == 59
            literal_lanes = seen[-1][:, 3:]
            assert np.array_equal(
                literal_lanes,
                np.broadcast_to([1.5, 2.0, -3.0, 0.25], literal_lanes.shape),
            )

    def test_block_helpers(self):
        block = lane_block(4, [np.arange(4.0), 7, np.array([1, np.nan, 3, 4])])
        assert _is_lane_major(block) and block[2].tolist() == [2.0, 7.0, 3.0]
        for source in (block, np.ascontiguousarray(block)):
            by_mask = take_rows(source, np.array([True, False, True, True]))
            by_index = take_rows(source, np.array([3, 0]))
            assert _is_lane_major(by_mask) and _is_lane_major(by_index)
            assert by_mask[:, 0].tolist() == [0.0, 2.0, 3.0]
            assert by_index[:, 0].tolist() == [3.0, 0.0]
            kept = drop_null_rows(source)
            assert _is_lane_major(kept) and kept[:, 0].tolist() == [0.0, 2.0, 3.0]
        clean = lane_block(3, [np.arange(3.0)])
        assert drop_null_rows(clean) is clean
        assert drop_null_rows(lane_block(0, [()])).shape == (0, 1)


# ---------------------------------------------- lane-major == C-ordered
N, D = 2500, 8


def _both_layouts(seed=5, n=N, d=D):
    X = np.random.default_rng(seed).normal(50.0, 10.0, size=(n, d))
    fortran = np.asfortranarray(X)
    assert fortran.flags.f_contiguous and X.flags.c_contiguous
    return fortran, X


def _with_leading(value, X):
    """The (d, x1..xd) argument block the list-passing UDFs receive."""
    lanes = [value, *(X[:, j] for j in range(X.shape[1]))]
    block = lane_block(X.shape[0], lanes)
    return block, np.ascontiguousarray(block)


class TestLayoutsAgree:
    @pytest.mark.parametrize("udf_name", ["nlq_diag", "nlq_tri", "nlq_full"])
    def test_nlq(self, udf_name):
        udf = register_nlq_udfs(Database(amps=1))[udf_name]
        X, _ = _both_layouts()
        fortran, c_order = _with_leading(float(D), X)
        got = unpack_summary(
            udf.finalize(udf.accumulate_block(udf.initialize(), fortran))
        )
        ref = unpack_summary(
            udf.finalize(udf.accumulate_block(udf.initialize(), c_order))
        )
        assert got.n == ref.n == N
        absolute = np.abs(X)
        assert np.all(
            np.abs(got.L - ref.L) <= _sum_bound(N, absolute.sum(axis=0))
        )
        assert np.all(
            np.abs(got.Q - ref.Q) <= _sum_bound(N, absolute.T @ absolute)
        )
        assert np.array_equal(got.mins, ref.mins)
        assert np.array_equal(got.maxs, ref.maxs)

    def test_fused_kmeans_is_bit_identical(self):
        """Distances are elementwise per lane and the per-cluster sums
        run over a gathered copy, so the layout cannot reach a bit."""
        X, _ = _both_layouts()
        udf = KMeansIterUdf()
        udf.set_centroids(X[:4] + 0.5)
        states = []
        for block in _with_leading(float(D), X):
            states.append(udf.accumulate_block(udf.initialize(), block))
        got, ref = states
        assert np.array_equal(got.counts, ref.counts)
        assert np.array_equal(got.linear, ref.linear)
        assert np.array_equal(got.quadratic, ref.quadratic)

    def test_fused_em(self):
        """EM reduces over lanes inside the E step (Σₐ (xₐ−µₐ)²/σₐ²), so
        the responsibilities themselves move by a bounded relative
        amount before the row reductions do.

        Per row i, with q = maxⱼ quadᵢⱼ and M = max(|log density|,
        |log total|, 1): the two quad sums differ by ≤ 2γ_d·q, so each
        log density moves by ≤ γ_d·q; the k+8 further roundings on the
        way to log rᵢⱼ (subtract, exp, k−1 adds, log, add, subtract,
        exp; transcendental functions counted twice) each contribute
        ≤ u·M per run.  τᵢ = γ_d·q + 2(k+8)·u·M bounds the move of a log
        density and of log totalᵢ, 2τᵢ that of log rᵢⱼ, so
        |Δrᵢⱼ| ≤ expm1(2τᵢ)·rᵢⱼ.  Each row reduction then adds its own
        reordering bound.
        """
        X, C = _both_layouts()
        k = 3
        rng = np.random.default_rng(9)
        model = GaussianMixtureModel(
            means=X[:k] + rng.normal(0, 1, (k, D)),
            variances=np.full((k, D), 90.0),
            weights=np.full(k, 1.0 / k),
        )
        udf = EmIterUdf()
        udf.set_model(model)
        states = []
        for block in _with_leading(float(D), X):
            states.append(udf.accumulate_block(udf.initialize(), block))
        got, ref = states

        log_density = model._log_component_densities(C)
        log_resp, _ = model._e_step(C)
        resp = np.exp(log_resp)
        log_total = log_density[:, :1] - log_resp[:, :1]
        quad = np.stack(
            [
                ((C - model.means[j]) ** 2 / model.variances[j]).sum(axis=1)
                for j in range(k)
            ],
            axis=1,
        )
        magnitude = np.maximum(
            np.abs(log_density).max(axis=1), np.abs(log_total[:, 0])
        ).clip(min=1.0)
        tau = _gamma(D) * quad.max(axis=1) + 2 * (k + 8) * U * magnitude
        moved = np.expm1(2 * tau)[:, None] * resp  # |Δr| per entry

        absolute = np.abs(C)
        assert np.all(
            np.abs(got.counts - ref.counts)
            <= moved.sum(axis=0) + _sum_bound(N, resp.sum(axis=0))
        )
        assert np.all(
            np.abs(got.linear - ref.linear)
            <= moved.T @ absolute + _sum_bound(N, resp.T @ absolute)
        )
        assert np.all(
            np.abs(got.quadratic - ref.quadratic)
            <= moved.T @ (C * C) + _sum_bound(N + 1, resp.T @ (C * C))
        )
        assert abs(got.extra - ref.extra) <= tau.sum() + _sum_bound(
            N, np.abs(log_total).sum()
        )

    @pytest.mark.parametrize("name", sorted(AGGREGATE_BUILTINS))
    def test_builtin_aggregates(self, name):
        fortran, c_order = _both_layouts(d=2)
        fortran[::7, 0] = c_order[::7, 0] = np.nan  # NULLs in lane 0 only
        factory = AGGREGATE_BUILTINS[name]
        arity = 2 if factory().arity == 2 else 1

        def fold(block):
            aggregate = factory()
            lanes = [block[:, j] for j in range(arity)]
            return aggregate.accumulate_vector(
                aggregate.initialize(), lanes, block.shape[0]
            )

        got, ref = fold(fortran), fold(c_order)
        kept = ~np.isnan(c_order[:, 0])
        x = np.abs(c_order[kept, 0])
        y = np.abs(c_order[kept, 1])
        n = int(kept.sum())
        if isinstance(ref, _MomentsState):
            assert got.n == ref.n == n
            assert abs(got.sx - ref.sx) <= _sum_bound(n, x.sum())
            assert abs(got.sxx - ref.sxx) <= _sum_bound(n, (x * x).sum())
            if arity == 2:
                assert abs(got.sy - ref.sy) <= _sum_bound(n, y.sum())
                assert abs(got.syy - ref.syy) <= _sum_bound(n, (y * y).sum())
                assert abs(got.sxy - ref.sxy) <= _sum_bound(n, (x * y).sum())
        elif name == "avg":
            assert got[1] == ref[1] == n
            assert abs(got[0] - ref[0]) <= _sum_bound(n, x.sum())
        elif name == "sum":
            assert abs(got - ref) <= _sum_bound(n, x.sum())
        else:  # count, min, max: no arithmetic to reorder
            assert got == ref

    def test_builtin_null_free_lane_is_not_copied(self):
        """Skipping the mask copy on a NULL-free lane must not change a
        bit: same values in the same order reach the same reductions."""
        fortran, _ = _both_layouts(d=2)
        lane = fortran[:, 0]
        assert _non_null(lane) is lane
        copied = lane[~np.isnan(lane)]
        for name in ("sum", "avg", "min", "max", "var_samp", "corr"):
            factory = AGGREGATE_BUILTINS[name]
            lanes = [lane, fortran[:, 1]][: 2 if name == "corr" else 1]
            state = factory().accumulate_vector(
                factory().initialize(), lanes, N
            )
            if name == "sum":
                assert state == float(copied.sum())
            elif name == "avg":
                assert state == (float(copied.sum()), N)
            elif name in ("min", "max"):
                assert state == float(getattr(copied, name)())
            else:
                assert state.sx == float(copied.sum())
                assert state.sxx == float((copied * copied).sum())

    def test_scoring_kernels_are_bit_identical(self):
        """The six scoring kernels are elementwise per lane (or arg-min /
        arg-max per row): the layout cannot reach a bit."""
        udfs = register_scoring_udfs(Database(amps=1))
        X, _ = _both_layouts(d=4)
        X[::11, 1] = np.nan  # NULL rows ride through as NaN
        rng = np.random.default_rng(2)
        argument_counts = {
            "linearregscore": 2 * 4 + 1,
            "fascore": 3 * 4,
            "kmeansdistance": 2 * 4,
            "clusterscore": 4,
            "classifyscore": 4,
            "nbscore": 3 * 4 + 1,
        }
        for name, count in argument_counts.items():
            parameters = rng.normal(1.0, 0.5, count - 4)
            if name in ("clusterscore", "classifyscore"):
                lanes = [X[:, j] for j in range(4)]
            else:
                lanes = [*(X[:, j] for j in range(4)), *map(float, parameters)]
            fortran = lane_block(N, lanes)
            got = udfs[name].compute_batch(fortran)
            ref = udfs[name].compute_batch(np.ascontiguousarray(fortran))
            assert np.array_equal(got, ref, equal_nan=True), name
            assert np.isnan(got[::11]).all() and not np.isnan(got[1]), name


# ------------------------------------------------------ serial == thread
STATEMENTS = [
    _nlq_sql("nlq_tri", 3),
    _nlq_sql("nlq_diag", 3, " GROUP BY i MOD 3 ORDER BY 1"),
    "SELECT sum(x1), avg(x2), var_samp(x3), corr(x1, x2), min(x1) FROM x",
    _nlq_sql("kmeansiter", 3),
    "SELECT i, kmeansdistance(x1, x2, x3, 50.0, 49.0, 51.0), "
    "linearregscore(x1, x2, x3, 1.5, 2.0, -3.0, 0.25) FROM x "
    "WHERE x2 > 45 ORDER BY i",
]


def test_serial_and_thread_are_bit_identical():
    rows = _normal_rows(300, 3)
    rows[17] = (None, 1.0, 2.0)
    rows[40] = (3.0, None, None)
    answers = {}
    for kind, workers in (("serial", 1), ("thread", 4)):
        with _make_db(rows, 3, executor_workers=workers) as db:
            db.catalog.aggregate_udf("kmeansiter").set_centroids(
                np.array([[40.0, 50.0, 60.0], [55.0, 45.0, 50.0]])
            )
            answers[kind] = [db.execute(sql).rows for sql in STATEMENTS]
    assert answers["serial"] == answers["thread"]


# ---------------------------------------------------------- pinned cases
def _row_protocol(db, udf_name, d):
    """The aggregate's row-at-a-time answer, independent of any executor
    route: accumulate per stored row (skipping rows with a NULL), merge
    in partition order, finalize."""
    udf = db.catalog.aggregate_udf(udf_name)
    merged = udf.initialize()
    for partition in db.table("x").partitions:
        state = udf.initialize()
        for row in partition.rows():
            if all(value is not None for value in row[1:]):
                state = udf.accumulate(state, (d, *row[1:]))
        merged = udf.merge(merged, state)
    return udf.finalize(merged)


def _summary(payload):
    return None if payload is None else unpack_summary(payload)


class TestPinnedCases:
    """Small integer-valued data: every sum is exact in float64, so the
    vector path must equal the row protocol to the bit in any order."""

    def _integer_rows(self, n=30):
        return [
            (float(i % 7 - 3), float((i * 5) % 11), float(i % 3))
            for i in range(n)
        ]

    def test_null_rows_are_dropped_once(self):
        rows = self._integer_rows()
        rows[3] = (None, 2.0, 1.0)
        rows[4] = (1.0, None, None)
        rows[29] = (1.0, 2.0, None)
        with _make_db(rows, 3) as db:
            for udf in ("nlq_diag", "nlq_tri", "nlq_full"):
                payload = db.execute(_nlq_sql(udf, 3)).scalar()
                assert payload == _row_protocol(db, udf, 3)
                assert _summary(payload).n == 27.0
            assert db.execute(
                "SELECT count(*), count(x1), sum(x2), min(x3) FROM x"
            ).rows == [(30, 29, sum(r[1] for r in rows if r[1] is not None), 0.0)]

    def test_all_null_lane(self):
        rows = [(float(i), None, 1.0) for i in range(12)]
        with _make_db(rows, 3) as db:
            assert db.execute(_nlq_sql("nlq_tri", 3)).scalar() is None
            assert _row_protocol(db, "nlq_tri", 3) is None
            assert db.execute(
                "SELECT count(x2), sum(x2), avg(x2), min(x2), var_samp(x2), "
                "corr(x1, x2), sum(x1) FROM x"
            ).rows == [(0, None, None, None, None, None, 66.0)]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "specials",
        [
            (math.inf,),  # grand sum is +inf: pre-test stays quiet
            (math.inf, -math.inf),  # inf − inf = NaN: pre-test fires
            (math.inf, -math.inf, None),  # ... and there is a real NULL
        ],
    )
    def test_infinities_are_values_not_nulls(self, specials):
        rows = self._integer_rows(12)
        for index, special in enumerate(specials):
            rows[2 * index] = (special, 1.0, 2.0)
        nulls = sum(1 for special in specials if special is None)
        with _make_db(rows, 3, amps=1) as db:  # one block holds them all
            got = _summary(db.execute(_nlq_sql("nlq_tri", 3)).scalar())
            ref = _summary(_row_protocol(db, "nlq_tri", 3))
            assert got.n == ref.n == 12 - nulls
            assert np.array_equal(got.L, ref.L, equal_nan=True)
            assert np.array_equal(got.Q, ref.Q, equal_nan=True)
            assert np.array_equal(got.mins, ref.mins)
            assert np.array_equal(got.maxs, ref.maxs)
            assert got.maxs[0] == math.inf
            count, low = db.execute("SELECT count(x1), min(x1) FROM x").first()
            assert count == 12 - nulls
            assert low == (-math.inf if -math.inf in specials else -3.0)

    def test_negative_zero(self):
        rows = [(-0.0, 0.0, -0.0) for _ in range(9)]
        with _make_db(rows, 3) as db:
            payload = db.execute(_nlq_sql("nlq_tri", 3)).scalar()
            assert payload == _row_protocol(db, "nlq_tri", 3)
            stats = _summary(payload)
            assert math.copysign(1.0, stats.mins[0]) == -1.0
            assert math.copysign(1.0, stats.maxs[1]) == 1.0
            low, high = db.execute("SELECT min(x1), max(x2) FROM x").first()
            assert math.copysign(1.0, low) == -1.0
            assert math.copysign(1.0, high) == 1.0

    def test_empty_partitions_and_empty_table(self):
        rows = self._integer_rows(3)
        with _make_db(rows, 3, amps=8) as db:  # five partitions hold nothing
            assert sum(1 for p in db.table("x").partitions if p.row_count) == 3
            payload = db.execute(_nlq_sql("nlq_full", 3)).scalar()
            assert payload == _row_protocol(db, "nlq_full", 3)
            assert db.execute("SELECT sum(x1), count(*) FROM x").rows == [
                (sum(r[0] for r in rows), 3)
            ]
        with _make_db([], 3) as db:
            assert db.execute(_nlq_sql("nlq_full", 3)).scalar() is None
            assert db.execute("SELECT sum(x1), count(*) FROM x").rows == [
                (None, 0)
            ]

    def test_where_filtered_projection_matches_row_path(self):
        rows = _normal_rows(80, 3)
        rows[7] = (None, 60.0, 1.0)  # NULL argument -> NULL score
        rows[8] = (50.0, None, 1.0)  # NULL predicate -> row filtered out
        rows[9] = (math.inf, 60.0, 1.0)
        rows[10] = (-0.0, 60.0, -0.0)
        sql = (
            "SELECT i, linearregscore(x1, x2, x3, 1.5, 2.0, -3.0, 0.25), "
            "kmeansdistance(x1, x2, x3, 50.0, 49.0, 51.0), x1 * x3 - 2.5 "
            "FROM x WHERE x2 > 48 AND x3 <= 70"
        )
        with _make_db(rows, 3) as db:
            block_wise = db.execute(sql).rows
            db.vectorized_select = False
            row_wise = db.execute(sql).rows
        assert 8 < len(block_wise) < 80
        assert [r[0] for r in block_wise] == [r[0] for r in row_wise]
        ids = {r[0] for r in block_wise}
        assert {8, 10, 11} <= ids and 9 not in ids
        assert repr(block_wise) == repr(row_wise)  # repr: −0.0, nan, inf


# -------------------------------------------------- the argument copy plan
_SOURCE_LANES = 5
_ATOMS = [
    *dimension_names(_SOURCE_LANES),
    "0",
    "8",
    "1.5",
    "-0.0",
    "NULL",
    "x1 + x2",
    "-x3",
    "x5 * 2.0",
    "abs(x4) / 3",
]


def _call_arguments(text):
    """The argument expressions of ``f(<text>)``."""
    (item,) = parse_statement(f"SELECT f({text}) FROM x").items
    return item.expression.args


def _source_resolver(ref):
    return dimension_names(_SOURCE_LANES).index(ref.name.lower())


def _source_block(rows=37, seed=9):
    """A 5-lane block holding NaNs, an infinity and a −0.0."""
    block = np.asfortranarray(
        np.random.default_rng(seed).normal(0.0, 4.0, size=(rows, _SOURCE_LANES))
    )
    if rows > 6:
        block[3, 1] = np.nan
        block[5, 4] = np.inf
        block[6, 0] = -0.0
    return block


def _lane_by_lane(arguments, block):
    """The argument block built one lane at a time through ``lane_block``
    — the construction the copy plan replaced, kept here as its oracle."""
    lanes = []
    for argument in arguments:
        if isinstance(argument, Literal):
            value = argument.value
            lanes.append(math.nan if value is None else float(value))
        else:
            lanes.append(
                compile_vector_expression(argument, _source_resolver)(block)
            )
    return lane_block(block.shape[0], lanes)


def _same_bytes(got, want):
    return (
        got.shape == want.shape
        and _is_lane_major(got)
        and got.tobytes(order="F") == want.tobytes(order="F")
    )


class TestArgumentCopyPlan:
    @pytest.mark.parametrize(
        "text,steps,null_preserving",
        [
            ("x1, x1", 2, True),  # duplicate refs
            ("x3, x2, x1", 3, True),  # descending: no run
            ("x1, 2.5, x2", 3, True),  # a literal between columns
            ("1.0, 2, 3.5", 1, True),  # all literals: one broadcast row
            ("x4", 1, True),  # one column
            ("x1, x2, x1 + x2, x3, x4", 3, False),  # computed between runs
            ("8, x1, x2, x3, x4, x5", 2, True),  # the nLQ call
            ("10, 1.0, x2, x3, x4", 2, True),  # regression: runs need not start at 0
            ("x2, x3, x5", 2, True),  # a gap ends the run
            ("x1, NULL, x2", 3, False),  # a NULL literal can introduce a NULL
            ("", 0, True),
        ],
    )
    def test_pinned_shapes(self, text, steps, null_preserving):
        arguments = _call_arguments(text)
        plan = compile_argument_block(arguments, _source_resolver)
        assert len(plan._steps) == steps
        assert plan.null_preserving is null_preserving
        for rows in (37, 1, 0):
            block = _source_block(rows)
            assert _same_bytes(plan(block), _lane_by_lane(arguments, block))

    @given(st.lists(st.sampled_from(_ATOMS), max_size=12), st.integers(0, 40))
    def test_any_argument_list_matches_the_lane_by_lane_build(self, atoms, rows):
        arguments = _call_arguments(", ".join(atoms))
        plan = compile_argument_block(arguments, _source_resolver)
        block = _source_block(rows)
        built = plan(block)
        assert _same_bytes(built, _lane_by_lane(arguments, block))
        bare = all(
            atom in dimension_names(_SOURCE_LANES) or atom in ("0", "8", "1.5")
            for atom in atoms
        )
        assert plan.null_preserving is bare
        if bare and atoms:
            # the promise the flag makes: no NULL the source did not hold
            clean = np.nan_to_num(block, nan=1.0)
            assert not np.isnan(plan(clean)).any()

    def test_outside_the_vector_subset_there_is_no_plan(self):
        for text in ("x1, 'a'", "x1, nope", "CASE WHEN x1 > 0 THEN 1 ELSE 0 END"):
            assert compile_argument_block(
                _call_arguments(text), _source_resolver
            ) is None

    def test_built_blocks_are_fresh(self):
        plan = compile_argument_block(_call_arguments("x1, x2"), _source_resolver)
        block = _source_block()
        built = plan(block)
        assert not np.shares_memory(built, block)
        assert plan(block) is not built


def _zeros_then_add(X, diagonal):
    """What a fresh nLQ state held after one block when it was shaped
    with zeros and the block's sums were added in."""
    d = X.shape[1]
    n = 0.0
    n += float(X.shape[0])
    L = np.zeros(d)
    L += X.sum(axis=0)
    Q = np.zeros(d) if diagonal else np.zeros((d, d))
    Q += (X * X).sum(axis=0) if diagonal else X.T @ X
    mins, maxs = np.full(d, np.inf), np.full(d, -np.inf)
    np.minimum(mins, X.min(axis=0), out=mins)
    np.maximum(maxs, X.max(axis=0), out=maxs)
    return n, L, Q, mins, maxs


class TestFreshStateTakesTheBlocksSums:
    @pytest.mark.parametrize("udf_name", ["nlq_diag", "nlq_tri", "nlq_full"])
    def test_partials_are_the_bytes_of_zeros_then_add(self, udf_name):
        udf = register_nlq_udfs(Database(amps=1))[udf_name]
        X = np.random.default_rng(4).normal(0.0, 3.0, size=(50, 4))
        X[:, 1] = -0.0  # sums to -0.0; 0.0 + -0.0 is +0.0
        X[:, 2] = np.where(np.arange(50) % 2, 0.0, -0.0)
        block, _ = _with_leading(4.0, X)
        state = udf.accumulate_block(udf.initialize(), block)
        n, L, Q, mins, maxs = _zeros_then_add(block[:, 1:], state.diagonal)
        assert state.d == 4 and state.n == n
        assert not np.signbit(state.L[1]) and not np.signbit(state.Q.flat[1])
        for got, want in ((state.L, L), (state.Q, Q), (state.mins, mins), (state.maxs, maxs)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.signbit(state.mins[1]) and np.signbit(state.maxs[1])
        # a second block folds into the taken arrays like any other
        again = udf.accumulate_block(state, block)
        assert again is state and state.n == 2 * n
        assert state.L.tobytes() == (L + L).tobytes()
        assert state.Q.tobytes() == (Q + Q).tobytes()
        merged = udf.merge(
            udf.accumulate_block(udf.initialize(), block),
            udf.accumulate_block(udf.initialize(), block),
        )
        assert merged.Q.tobytes() == state.Q.tobytes()

    def test_an_empty_block_leaves_the_state_unshaped(self):
        udf = register_nlq_udfs(Database(amps=1))["nlq_tri"]
        state = udf.accumulate_block(udf.initialize(), lane_block(0, [(), ()]))
        assert state.d is None and udf.finalize(state) is None
