"""``adhoc_cold``: ad-hoc statements over a working set the block cache
cannot hold.

Twelve rotating six-column windows are summarized in cyclic order; the
per-partition block cache keeps eight column sets, so every window op
misses and rebuilds its float blocks from the row lists.  A 2.9 kB
plain-SQL summary statement stresses parse and plan, and the builtin
moment aggregates take the row path.  Same storage and executor layers
as ``model_build``, but cold and row-wise: a gain bought with a cache
or kernel change that taxes the cold or the row path shows here.
"""

from __future__ import annotations

import numpy as np

from repro import Database, WarehouseMiner
from repro.core.sqlgen import NlqSqlGenerator
from repro.core.summary import MatrixType
from repro.dbms.schema import dataset_schema

import datagen
from harness import CheckFailed, OpType, SelfCheckFailed, expect_close, expect_equal
from workload import Workload

N_ROWS = 36_000
D = 32
WINDOWS = 12
WINDOW_WIDTH = 6
LONG_D = 16
GROUPS = 50


class AdhocCold(Workload):
    name = "adhoc_cold"
    cycle_seconds = 3.05

    def generate(self) -> None:
        self.data = data = datagen.mixture(self.rng, self.rows(N_ROWS), D)
        X, y = data.X, data.y
        # Window w covers columns 2w .. 2w+5 (0-based): twelve distinct
        # column sets, more than the eight the block cache keeps.
        self.windows = [
            list(range(2 * w, 2 * w + WINDOW_WIDTH)) for w in range(WINDOWS)
        ]
        self.ref_windows = [
            (X[:, cols].sum(axis=0), X[:, cols].T @ X[:, cols])
            for cols in self.windows
        ]
        self.ref_long = (X[:, :LONG_D].sum(axis=0), X[:, :LONG_D].T @ X[:, :LONG_D])

        self.moment_cut = float(np.percentile(X[:, 0], 25.0))
        keep = X[:, 0] > self.moment_cut
        x3, x5, x7, x9, yk = (X[keep, 2], X[keep, 4], X[keep, 6], X[keep, 8],
                              y[keep])
        self.ref_moments = [
            float(keep.sum()),
            float(np.corrcoef(x3, yk)[0, 1]),
            float(x5.var()),
            float(np.cov(x7, yk, bias=True)[0, 1] / x7.var()),
            float(x9.std(ddof=1)),
        ]
        group = data.ids % GROUPS
        self.ref_groups = np.array([
            [g, (group == g).sum(), X[group == g, 1].sum(),
             X[group == g, 3].mean(), X[group == g, 5].min(),
             X[group == g, 7].max()]
            for g in range(GROUPS)
        ], dtype=float)
        self.filter_cut = float(np.percentile(X[:, 3], 90.0))
        chosen = X[:, 3] > self.filter_cut
        total = X[chosen, 0] + X[chosen, 1]
        order = np.argsort(total, kind="stable")
        self.ref_filter = np.column_stack([
            data.ids[chosen][order], total[order],
            (X[chosen, 2] > 50.0)[order].astype(float),
        ])

    # -------------------------------------------------------------- set-up
    def setup(self) -> None:
        db = self.db = Database(amps=16, executor_workers=1)
        miner = WarehouseMiner(db)
        db.create_table("x", dataset_schema(D, with_y=True))
        self.timed_load(
            "bulk", self.data.n,
            lambda: db.load_columns("x", self.data.columns()),
        )
        names = [f"x{a + 1}" for a in range(D)]
        n = self.data.n
        moments_sql = (
            "SELECT count(*), corr(x3, y), var_pop(x5), regr_slope(y, x7), "
            f"stddev_samp(x9) FROM x WHERE x1 > {self.moment_cut!r}"
        )
        groups_sql = (
            f"SELECT i % {GROUPS} AS g, count(*), sum(x2), avg(x4), min(x6), "
            f"max(x8) FROM x GROUP BY i % {GROUPS} ORDER BY g"
        )
        # The paper's single long query (1 + d + d*d terms, 2.9 kB at
        # d=16), sent as the SQL text a client tool would send.
        self.long_query = NlqSqlGenerator("x", names[:LONG_D])
        long_sql = self.long_query.long_query_sql()
        filter_sql = (
            "SELECT i, x1 + x2 AS s, CASE WHEN x3 > 50 THEN 1 ELSE 0 END AS f "
            f"FROM x WHERE x4 > {self.filter_cut!r} ORDER BY s"
        )
        self.ops = [
            OpType("cold_window_nlq", 60, n,
                   lambda k: miner.summarize(
                       "x", [names[c] for c in self.windows[k % WINDOWS]]),
                   self.check_window),
            OpType("nlq_sql_long", 8, n,
                   lambda k: db.execute(long_sql), self.check_long),
            OpType("builtin_moments", 7, n,
                   lambda k: db.execute(moments_sql), self.check_moments),
            OpType("groupby_builtin", 6, n,
                   lambda k: db.execute(groups_sql), self.check_groups),
            OpType("filter_project", 5, n,
                   lambda k: db.execute(filter_sql), self.check_filter),
        ]

    # -------------------------------------------------------------- checks
    def check_window(self, stats, k: int) -> None:
        linear, quadratic = self.ref_windows[k % WINDOWS]
        expect_close("n", stats.n, self.data.n, 0.0)
        expect_close("L", stats.L, linear, 1e-9)
        expect_close("Q", stats.Q, quadratic, 1e-9)

    def check_long(self, result, k: int) -> None:
        stats = self.long_query.parse_long_result(result, MatrixType.TRIANGULAR)
        linear, quadratic = self.ref_long
        expect_close("n", stats.n, self.data.n, 0.0)
        expect_close("L", stats.L, linear, 1e-9)
        expect_close("Q", stats.Q, quadratic, 1e-9)

    def check_moments(self, result, k: int) -> None:
        expect_close("moments", result.rows[0], self.ref_moments, 1e-7)

    def check_groups(self, result, k: int) -> None:
        expect_close("groups", result.rows, self.ref_groups, 1e-9)

    def check_filter(self, result, k: int) -> None:
        got = np.asarray(result.rows, dtype=float)
        if got.shape != self.ref_filter.shape:
            raise CheckFailed(f"filter: {got.shape[0]} rows")
        expect_equal("filter ids", got[:, 0], self.ref_filter[:, 0])
        expect_close("filter sums", got[:, 1], self.ref_filter[:, 1], 1e-12)
        expect_equal("filter flags", got[:, 2], self.ref_filter[:, 2])

    def self_check(self, phase, trace) -> None:
        if trace is None:
            return
        hits = sum(
            r.metrics.block_cache_hits
            for r in trace.statements
            if r.op == "cold_window_nlq" and r.op_id is not None
        )
        if hits:
            raise SelfCheckFailed(
                f"{hits} block-cache hits on cold_window_nlq ops: the "
                "working set fits the cache, so this is not a cold workload"
            )
