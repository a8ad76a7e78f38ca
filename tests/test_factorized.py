"""Factorized learning over joins: the join is never materialized.

The contract this suite pins down, end to end:

* **Planning** — :func:`plan_factorize` accepts exactly the star-shaped
  grand aggregates whose sums provably distribute through an FK → PK
  inner join, and refuses everything else with a human-readable reason
  (surfaced as an EXPLAIN note).
* **Parity** — the factorized route returns the same answer as the
  materializing reference path (``factorized_joins_enabled = False``):
  counts and per-cluster cardinalities exactly; floating-point sums
  ((n, L, Q), SUM builtins, the EM log-likelihood) to documented
  last-ulp tolerance — both routes add exactly the same per-row terms,
  the factorized one grouped by foreign key instead of row by row.
  Within the factorized route, results are bit-identical at any worker
  count (partials merge in partition order).
* **Accounting** — a factorized statement scans Σ|base tables| rows
  instead of the nested-loop join input, and the metrics/EXPLAIN
  report exactly that.
* **Freshness** — the join summary cache keys on *every* base table's
  version: appending to a dimension table can never serve a stale hit.
* **Apply order** — join elimination and the group-by-before-join
  rewrite run first; factorize fires only on what survives, and both
  orderings produce identical answers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fused import (
    fused_call_sql,
    register_fused_udfs,
    unpack_fused_payload,
)
from repro.core.nlq_udf import compute_nlq_udf, register_nlq_udfs
from repro.core.summary import MatrixType
from repro.dbms.database import Database
from repro.dbms.schema import Column, TableSchema
from repro.dbms.sql.factorize import plan_factorize
from repro.dbms.sql.optimizer import OptimizationReport, QueryOptimizer
from repro.dbms.sql.parser import parse_statement
from repro.dbms.types import SqlType
from repro.twm.miner import WarehouseMiner

_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STAR_FROM = (
    "sales JOIN stores ON sales.sid = stores.sid "
    "JOIN products ON sales.pid = products.pid"
)
STAR_DIMS = ["sales.amount", "sales.qty", "stores.sx", "stores.sy",
             "products.px"]


def _star_db(
    seed: int = 0,
    n_fact: int = 300,
    n_dim: int = 20,
    workers: int = 4,
    null_fk_every: int = 0,
    dangling_every: int = 0,
    register_udfs: bool = True,
) -> Database:
    """A sales → (stores, products) star.

    ``null_fk_every`` / ``dangling_every`` poke a NULL or a dangling
    store key into every i-th fact row — rows an INNER join drops.
    """
    rng = np.random.default_rng(seed)
    db = Database(amps=4, executor_workers=workers)
    db.create_table(
        "stores",
        TableSchema.build(
            [
                Column("sid", SqlType.INTEGER, nullable=False),
                ("sx", SqlType.FLOAT),
                ("sy", SqlType.FLOAT),
            ],
            primary_key="sid",
        ),
    )
    db.create_table(
        "products",
        TableSchema.build(
            [
                Column("pid", SqlType.INTEGER, nullable=False),
                ("px", SqlType.FLOAT),
            ],
            primary_key="pid",
        ),
    )
    db.create_table(
        "sales",
        TableSchema.build(
            [
                Column("oid", SqlType.INTEGER, nullable=False),
                Column("sid", SqlType.INTEGER),
                Column("pid", SqlType.INTEGER),
                ("amount", SqlType.FLOAT),
                ("qty", SqlType.FLOAT),
            ],
            primary_key="oid",
        ),
    )
    db.load_columns(
        "stores",
        {
            "sid": np.arange(1, n_dim + 1),
            "sx": rng.normal(0, 5, n_dim),
            "sy": rng.normal(10, 2, n_dim),
        },
    )
    db.load_columns(
        "products",
        {"pid": np.arange(1, n_dim + 1), "px": rng.normal(-3, 1, n_dim)},
    )
    sid = rng.integers(1, n_dim + 1, n_fact).astype(object)
    pid = rng.integers(1, n_dim + 1, n_fact).astype(object)
    for i in range(n_fact):
        if null_fk_every and i % null_fk_every == 0:
            sid[i] = None
        elif dangling_every and i % dangling_every == 1:
            sid[i] = n_dim + 1000 + i  # no such store
    rows = [
        (
            i + 1,
            sid[i],
            int(pid[i]),
            float(rng.normal(100, 20)),
            float(rng.normal(5, 1)),
        )
        for i in range(n_fact)
    ]
    db.table("sales").insert_many(rows)
    if register_udfs:
        register_nlq_udfs(db)
    return db


def _reference(db: Database, run):
    """Run *run* on the materializing join path and restore the toggle."""
    db.factorized_joins_enabled = False
    try:
        return run()
    finally:
        db.factorized_joins_enabled = True


def _plan(db: Database, sql: str, report: OptimizationReport | None = None):
    return plan_factorize(db.catalog, parse_statement(sql), report)


# ------------------------------------------------------------- planning
class TestPlannerDecisions:
    @pytest.fixture()
    def db(self):
        with _star_db(n_fact=40, n_dim=6) as db:
            yield db

    def test_accepts_star_builtins(self, db):
        decision = _plan(
            db,
            "SELECT COUNT(*), SUM(sales.amount), "
            "SUM(sales.amount * stores.sx), SUM(2.5 * products.px) "
            f"FROM {STAR_FROM}",
        )
        assert decision.factorized
        assert decision.shape == "builtins"
        assert decision.fact_table == "sales"
        assert [dim.table for dim in decision.dims] == ["stores", "products"]
        assert len(decision.builtin_shapes) == 4

    def test_accepts_summary_udf(self, db):
        sql = (
            "SELECT nlq_tri(5, sales.amount, sales.qty, stores.sx, "
            f"stores.sy, products.px) FROM {STAR_FROM}"
        )
        decision = _plan(db, sql)
        assert decision.factorized
        assert decision.shape == "summary"
        assert decision.matrix_type is MatrixType.TRIANGULAR
        # Resolved once by the planner: fact arguments index the fact
        # row positions the fold reads, dimension arguments index their
        # arm's de-duplicated feature positions.
        assert decision.arg_sources == (
            ("fact", 0),
            ("fact", 1),
            ("dim", 0, 0),
            ("dim", 0, 1),
            ("dim", 1, 0),
        )
        assert decision.fact_positions == (3, 4)  # sales.amount, sales.qty
        assert decision.fact_key_positions == (1, 2)  # sales.sid, sales.pid
        assert [dim.key_position for dim in decision.dims] == [0, 0]
        assert [dim.feature_positions for dim in decision.dims] == [
            (1, 2),  # stores.sx, stores.sy
            (1,),  # products.px
        ]

    @pytest.mark.parametrize(
        "sql, fragment",
        [
            (
                "SELECT COUNT(*) FROM sales LEFT JOIN stores "
                "ON sales.sid = stores.sid",
                "outer join",
            ),
            (
                "SELECT COUNT(*) FROM sales JOIN stores "
                "ON sales.sid = stores.sid GROUP BY sales.pid",
                "GROUP BY",
            ),
            (
                "SELECT COUNT(*) FROM sales JOIN stores "
                "ON sales.sid = stores.sid WHERE sales.amount > 0",
                "WHERE",
            ),
            (
                "SELECT COUNT(*) FROM sales JOIN stores "
                "ON sales.sid = stores.sid ORDER BY 1",
                "ORDER BY",
            ),
            (
                # sales.oid is a PK but the *joined* side must supply its
                # own primary key; stores.sx is not it.
                "SELECT COUNT(*) FROM sales JOIN stores "
                "ON sales.sid = stores.sx",
                "primary key",
            ),
            (
                # snowflake: the second arm hangs off a dimension.
                "SELECT COUNT(*) FROM sales "
                "JOIN stores ON sales.sid = stores.sid "
                "JOIN products ON stores.sid = products.pid",
                "snowflake",
            ),
            (
                "SELECT sales.pid, COUNT(*) FROM sales JOIN stores "
                "ON sales.sid = stores.sid",
                "outside aggregate",
            ),
            (
                "SELECT COUNT(sales.amount) FROM sales JOIN stores "
                "ON sales.sid = stores.sid",
                "COUNT(*)",
            ),
            (
                "SELECT AVG(sales.amount) FROM sales JOIN stores "
                "ON sales.sid = stores.sid",
                "not factorized",
            ),
            (
                "SELECT SUM(DISTINCT sales.amount) FROM sales JOIN stores "
                "ON sales.sid = stores.sid",
                "DISTINCT",
            ),
            (
                "SELECT SUM(sales.amount + stores.sx) FROM sales "
                "JOIN stores ON sales.sid = stores.sid",
                "not a column",
            ),
        ],
    )
    def test_refusals(self, db, sql, fragment):
        decision = _plan(db, sql)
        assert not decision.factorized
        assert fragment.lower() in decision.reason.lower()

    def test_apply_order_gate(self, db):
        """A statement the group-by pushdown already restructured is
        refused outright — rewrites compose in one fixed order."""
        sql = (
            "SELECT COUNT(*) FROM sales JOIN stores "
            "ON sales.sid = stores.sid"
        )
        statement = parse_statement(sql)
        report = OptimizationReport(original=statement, optimized=statement)
        report.pushed_group_by = True
        decision = plan_factorize(db.catalog, statement, report)
        assert not decision.factorized
        assert "apply order" in decision.reason

    def test_executor_records_decision(self, db):
        db.execute(f"SELECT COUNT(*) FROM {STAR_FROM}")
        assert db.last_factorize_decision is not None
        assert db.last_factorize_decision.factorized
        db.execute(
            "SELECT COUNT(*) FROM sales JOIN stores "
            "ON sales.sid = stores.sid WHERE sales.amount > 0"
        )
        assert not db.last_factorize_decision.factorized


# ------------------------------------------------------- execution parity
class TestFactorizedParity:
    def test_builtins_parity_and_scan_accounting(self):
        with _star_db(seed=3) as db:
            sql = (
                "SELECT COUNT(*), SUM(sales.amount), "
                "SUM(sales.amount * stores.sx), SUM(stores.sy * products.px)"
                f" FROM {STAR_FROM}"
            )
            result = db.execute(sql)
            reference = _reference(db, lambda: db.execute(sql))
            # COUNT is exact; the SUMs add the same terms grouped by
            # foreign key instead of row by row — last-ulp tolerance.
            assert result.rows[0][0] == reference.rows[0][0]
            np.testing.assert_allclose(
                np.array(result.rows[0][1:], dtype=float),
                np.array(reference.rows[0][1:], dtype=float),
                rtol=1e-12,
            )
            base = sum(
                db.table(name).row_count
                for name in ("sales", "stores", "products")
            )
            assert result.metrics.factorized_joins == 1
            assert result.metrics.rows_scanned == base
            assert result.metrics.rows_join_avoided > 0
            # The reference truly materialized: no factorized join, and
            # it read the nested-loop join input, not Σ|base| — at this
            # fan-out (15 fact rows per dimension row) >= 3x the rows.
            assert reference.metrics.factorized_joins == 0
            assert reference.metrics.rows_scanned >= 3 * base

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize(
        "aggregate", ["sum(f.i * 2)", "sum(3 * f.i)", "sum(2)"]
    )
    def test_integer_sums_are_integers_on_both_routes(
        self, aggregate, workers
    ):
        """An integer literal keeps its type on the factorized route, so
        an integer SUM is an integer there too — ``==`` alone would
        pass 2.0 for 2."""
        with Database(amps=4, executor_workers=workers) as db:
            db.execute(
                "CREATE TABLE f (i INTEGER PRIMARY KEY, k VARCHAR, v FLOAT)"
            )
            db.execute("CREATE TABLE d (k VARCHAR PRIMARY KEY, a FLOAT)")
            db.insert_rows("d", [("a", 1.5), ("b", -2.0)])
            db.insert_rows(
                "f",
                [(i, "ab"[i % 2], i / 4) for i in range(1, 21)]
                + [(21, None, 1.0), (22, "zz", 1.0)],
            )
            sql = f"SELECT {aggregate} FROM f JOIN d ON f.k = d.k"
            factorized = db.execute(sql)
            assert factorized.metrics.factorized_joins == 1
            (value,) = factorized.rows[0]
            (expected,) = _reference(db, lambda: db.execute(sql)).rows[0]
            assert (value, type(value)) == (expected, type(expected))
            assert type(value) is int

    @given(
        seed=st.integers(0, 2**16),
        workers=st.sampled_from([1, 2, 4]),
        null_fk_every=st.sampled_from([0, 7]),
        dangling_every=st.sampled_from([0, 11]),
    )
    @settings(**_SETTINGS)
    def test_summary_parity_any_star(
        self, seed, workers, null_fk_every, dangling_every
    ):
        """Factorized (n, L, Q) over a generated star vs the
        materialized join — n exact, L/Q to a few-ulp tolerance (the two
        routes add the same per-row terms in a different deterministic
        order, so entries with heavy cancellation can drift a few ulps).
        NULL and dangling FKs must drop exactly like the join.
        """
        with _star_db(
            seed=seed,
            n_fact=160,
            n_dim=8,
            workers=workers,
            null_fk_every=null_fk_every,
            dangling_every=dangling_every,
        ) as db:
            stats = compute_nlq_udf(db, STAR_FROM, STAR_DIMS)
            assert db.last_factorize_decision.factorized
            reference = _reference(
                db, lambda: compute_nlq_udf(db, STAR_FROM, STAR_DIMS)
            )
            assert stats.n == reference.n
            np.testing.assert_allclose(stats.L, reference.L, rtol=5e-13)
            np.testing.assert_allclose(stats.Q, reference.Q, rtol=5e-13)

    def test_factorized_route_worker_invariant(self):
        """Within the factorized route, partials merge in partition
        order: the worker count never changes a single bit."""
        results = []
        for workers in (1, 4):
            with _star_db(seed=9, workers=workers) as db:
                stats = compute_nlq_udf(db, STAR_FROM, STAR_DIMS)
                rows = db.execute(
                    f"SELECT SUM(sales.amount * stores.sx) FROM {STAR_FROM}"
                ).rows
                results.append((stats, rows))
        one, four = results
        assert np.array_equal(one[0].L, four[0].L)
        assert np.array_equal(one[0].Q, four[0].Q)
        assert one[1] == four[1]

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([1, 4]))
    @settings(**_SETTINGS)
    def test_fused_kmeans_iteration_parity(self, seed, workers):
        """One fused kmeansiter scan over the star: every row lands in
        the same cluster as on the joined path (cardinalities exact);
        the per-cluster sums carry the FK-grouped last-ulp tolerance."""
        with _star_db(seed=seed, n_fact=120, n_dim=6, workers=workers) as db:
            udf = register_fused_udfs(db)["kmeansiter"]
            rng = np.random.default_rng(seed)
            centroids = rng.normal(0, 20, (3, len(STAR_DIMS)))
            sql = fused_call_sql("kmeansiter", STAR_FROM, STAR_DIMS)
            udf.set_centroids(centroids)
            factorized = db.execute(sql).scalar()
            assert db.last_factorize_decision.factorized
            udf.set_centroids(centroids)
            reference = _reference(db, lambda: db.execute(sql).scalar())
            groups_f, _ = unpack_fused_payload(factorized)
            groups_r, _ = unpack_fused_payload(reference)
            assert groups_f.keys() == groups_r.keys()
            for j in groups_f:
                assert groups_f[j].n == groups_r[j].n
                np.testing.assert_allclose(
                    groups_f[j].L, groups_r[j].L, rtol=1e-12
                )
                np.testing.assert_allclose(
                    groups_f[j].Q, groups_r[j].Q, rtol=1e-12
                )

    def test_fused_em_log_likelihood_tolerance(self):
        with _star_db(seed=21, n_fact=120, n_dim=6) as db:
            udf = register_fused_udfs(db)["emiter"]
            from repro.core.models.em_mixture import GaussianMixtureModel

            rng = np.random.default_rng(0)
            d = len(STAR_DIMS)
            model = GaussianMixtureModel(
                rng.normal(0, 20, (2, d)),
                np.full((2, d), 25.0),
                np.array([0.5, 0.5]),
            )
            sql = fused_call_sql("emiter", STAR_FROM, STAR_DIMS)
            udf.set_model(model)
            _, ll = unpack_fused_payload(db.execute(sql).scalar())
            udf.set_model(model)
            _, ll_ref = unpack_fused_payload(
                _reference(db, lambda: db.execute(sql).scalar())
            )
            assert ll == pytest.approx(ll_ref, rel=1e-12)

    def test_duplicate_dim_pk_falls_back(self):
        """Storage rejects duplicate PKs at INSERT, so corrupt a
        partition directly: the run-time guard must degrade to the
        materializing path, not return wrong multiplicities."""
        with _star_db(seed=5, n_fact=60, n_dim=6) as db:
            sql = f"SELECT COUNT(*), SUM(sales.amount) FROM {STAR_FROM}"
            reference = _reference(db, lambda: db.execute(sql))
            stores = db.table("stores")
            # A second sid=1 row, injected under the PK check's radar.
            row = next(iter(stores.rows()))
            stores.partitions[0].append(row)
            result = db.execute(sql)
            assert result.metrics.fallbacks >= 1
            assert result.metrics.factorized_joins == 0
            # The answer is the materialized join's over the corrupted
            # table — recompute the reference on the same state.
            fresh = _reference(db, lambda: db.execute(sql))
            assert result.rows == fresh.rows
            assert result.rows != reference.rows  # the dup really joins


# ------------------------------------------------------------- EXPLAIN
class TestExplainFactorized:
    def test_plan_shape_and_avoided_rows_note(self):
        with _star_db(seed=1) as db:
            sql = f"SELECT COUNT(*), SUM(sales.amount) FROM {STAR_FROM}"
            plan = db.explain_plan(sql)
            nodes = plan.find("factorized-join")
            assert len(nodes) == 1
            node = nodes[0]
            assert "sales star over 2 dimension(s)" in node.detail
            assert "shape builtins" in node.detail
            # Node note: scans Σ|base| instead of the nested-loop input.
            base = sum(
                db.table(name).row_count
                for name in ("sales", "stores", "products")
            )
            note = next(n for n in node.notes if "factorized-join:" in n)
            assert f"scans {base} base-table rows" in note
            assert "rows avoided" in note
            # A dimension arm per join, annotated with its key equation.
            arm_notes = [
                n
                for child in node.children
                for n in child.notes
                if "dimension arm" in n
            ]
            assert len(arm_notes) == 2
            assert any("stores.sid = sales.sid" in n for n in arm_notes)
            # The factorized node is not a join operator: no
            # materializing join appears anywhere in the plan.
            assert plan.find("join") == []

    def test_refusal_surfaces_as_note(self):
        with _star_db(seed=1) as db:
            plan = db.explain_plan(
                "SELECT COUNT(*) FROM sales LEFT JOIN stores "
                "ON sales.sid = stores.sid"
            )
            notes = [
                note for node in plan.root.walk() for note in node.notes
            ]
            assert any(
                "factorized-join refused" in note and "outer join" in note
                for note in notes
            )

    def test_toggle_disables_planning(self):
        with _star_db(seed=1) as db:
            sql = f"SELECT COUNT(*) FROM {STAR_FROM}"
            db.factorized_joins_enabled = False
            plan = db.explain_plan(sql)
            assert plan.find("factorized-join") == []
            result = db.execute(sql)
            assert result.metrics.factorized_joins == 0

    def test_reconciles_factorized_aggregate(self):
        """EXPLAIN ANALYZE over the factorized route: span sums equal
        stage totals exactly (the contract of tests/test_explain.py,
        which pins the serial path and defers this route here)."""
        with _star_db(seed=4) as db:
            result = db.execute(
                "EXPLAIN ANALYZE SELECT nlq_tri(5, sales.amount, "
                "sales.qty, stores.sx, stores.sy, products.px) "
                f"FROM {STAR_FROM}"
            )
            metrics = result.metrics
            trace = result.plan.trace
            assert trace is not None
            aggregate = next(
                span for span in trace.walk() if span.name == "aggregate"
            )
            assert aggregate.attributes["strategy"] == "factorized-join"
            assert trace.total_seconds("scan") == metrics.scan_seconds
            assert (
                trace.total_seconds("accumulate")
                == metrics.accumulate_seconds
            )
            assert trace.total_seconds("merge") == metrics.merge_seconds
            assert (
                trace.total_seconds("finalize") == metrics.finalize_seconds
            )


# ---------------------------------------------------- repeated star summary
class TestRepeatedStarSummary:
    """A repeated factorized star summary refolds every base table: its
    partials are not remembered, so appends to any of them show."""

    def _summary_sql(self) -> str:
        return (
            "SELECT nlq_tri(5, sales.amount, sales.qty, stores.sx, "
            f"stores.sy, products.px) FROM {STAR_FROM}"
        )

    def test_repeat_refolds(self):
        with _star_db(seed=6) as db:
            sql = self._summary_sql()
            first = db.execute(sql)
            second = db.execute(sql)
            assert second.rows == first.rows
            assert second.metrics.rows_scanned == first.metrics.rows_scanned
            assert second.metrics.partials_reused == 0
            assert second.metrics.factorized_joins == 1
            assert second.metrics.rows_join_avoided > 0

    def test_dimension_append_changes_the_answer(self):
        """An append to a dimension table can match existing fact rows,
        so the next summary must see it."""
        with _star_db(seed=6, dangling_every=5) as db:
            sql = self._summary_sql()
            first = db.execute(sql)
            # Appending a store that some dangling fact keys point at
            # CHANGES the join result: those rows now match.
            dangling_sid = next(
                row[1]
                for row in db.table("sales").rows()
                if row[1] is not None and row[1] > 100
            )
            db.table("stores").insert_many(
                [(int(dangling_sid), 1.5, -2.5)]
            )
            after = db.execute(sql)
            assert after.rows != first.rows
            from repro.core.packing import unpack_summary

            got = unpack_summary(after.scalar())
            want = unpack_summary(
                _reference(db, lambda: db.execute(sql)).scalar()
            )
            assert got.n == want.n
            np.testing.assert_allclose(got.L, want.L, rtol=1e-13)
            np.testing.assert_allclose(got.Q, want.Q, rtol=1e-13)

    def test_fact_append_changes_the_answer(self):
        with _star_db(seed=6) as db:
            sql = self._summary_sql()
            db.execute(sql)
            db.table("sales").insert_many([(10_001, 1, 1, 50.0, 2.0)])
            after = db.execute(sql)
            from repro.core.packing import unpack_summary

            got = unpack_summary(after.scalar())
            want = unpack_summary(
                _reference(db, lambda: db.execute(sql)).scalar()
            )
            assert got.n == want.n
            np.testing.assert_allclose(got.L, want.L, rtol=1e-13)


# ------------------------------------------------- optimizer interaction
class TestOptimizerInteraction:
    def _with_config(self, db: Database) -> None:
        db.create_table(
            "config",
            TableSchema.build(
                [
                    Column("id", SqlType.INTEGER, nullable=False),
                    ("scale", SqlType.FLOAT),
                ],
                primary_key="id",
            ),
        )
        db.table("config").insert_many([(1, 1.0)])

    def test_join_elimination_then_factorize(self):
        """Both rewrites fire on one statement: the pk = literal arm is
        eliminated first, factorize handles the surviving star — and
        the answer matches the unoptimized execution exactly."""
        with _star_db(seed=8) as db:
            self._with_config(db)
            sql = (
                "SELECT SUM(sales.amount * stores.sx) "
                "FROM sales "
                "JOIN stores ON sales.sid = stores.sid "
                "JOIN config ON config.id = 1"
            )
            report = QueryOptimizer(db.catalog).optimize(
                parse_statement(sql)
            )
            assert report.eliminated_joins == ["config"]
            decision = plan_factorize(db.catalog, report.optimized, report)
            assert decision.factorized
            assert [dim.table for dim in decision.dims] == ["stores"]
            optimized = db.execute_optimized(sql)
            assert optimized.metrics.factorized_joins == 1
            plain = _reference(db, lambda: db.execute(sql))
            assert optimized.scalar() == pytest.approx(
                plain.scalar(), rel=1e-12
            )

    def test_group_by_pushdown_wins_and_results_agree(self):
        """When the group-by-before-join rewrite restructures the
        statement, factorize stands down (refusal names the apply
        order) and both execution orders agree."""
        with _star_db(seed=8) as db:
            sql = (
                "SELECT stores.sid, SUM(sales.amount) "
                "FROM stores JOIN sales ON sales.sid = stores.sid "
                "GROUP BY stores.sid ORDER BY stores.sid"
            )
            report = QueryOptimizer(db.catalog).optimize(
                parse_statement(sql)
            )
            assert report.pushed_group_by
            decision = plan_factorize(db.catalog, report.optimized, report)
            assert not decision.factorized
            assert "apply order" in decision.reason
            # Without the report the refusal is structural: the pushed
            # form joins a derived table, not a stored star.
            bare = plan_factorize(db.catalog, report.optimized)
            assert not bare.factorized
            optimized = db.execute_optimized(sql)
            plain = db.execute(sql)
            assert [row[0] for row in optimized.rows] == [
                row[0] for row in plain.rows
            ]
            np.testing.assert_allclose(
                [row[1] for row in optimized.rows],
                [row[1] for row in plain.rows],
                rtol=1e-12,
            )
            assert optimized.metrics.factorized_joins == 0


# ------------------------------------------------------------- miner API
class TestMinerStarApi:
    def test_models_match_wide_table(self):
        """correlation / regression over a star equal the same models
        over the pre-joined wide table (the classic workflow)."""
        with _star_db(seed=12, n_fact=240, n_dim=10,
                      register_udfs=False) as db:
            miner = WarehouseMiner(db)
            star = miner.star(
                "sales",
                ["stores", "products"],
                [("sid", "sid"), ("pid", "pid")],
            )
            assert miner.dimensions_of(star) == STAR_DIMS
            # Materialize the wide table the star replaces.
            wide_rows = _reference(
                db,
                lambda: db.execute(
                    "SELECT sales.oid, sales.amount, sales.qty, "
                    "stores.sx, stores.sy, products.px "
                    f"FROM {STAR_FROM}"
                ).rows,
            )
            db.create_table(
                "wide",
                TableSchema.build(
                    [
                        Column("i", SqlType.INTEGER, nullable=False),
                        ("amount", SqlType.FLOAT),
                        ("qty", SqlType.FLOAT),
                        ("sx", SqlType.FLOAT),
                        ("sy", SqlType.FLOAT),
                        ("px", SqlType.FLOAT),
                    ],
                    primary_key="i",
                ),
            )
            db.table("wide").insert_many(wide_rows)
            wide_dims = ["amount", "qty", "sx", "sy", "px"]

            c_star = miner.correlation(star)
            c_wide = miner.correlation("wide", wide_dims)
            np.testing.assert_allclose(c_star.rho, c_wide.rho, rtol=1e-10)

            r_star = miner.linear_regression(star, target="sales.amount")
            r_wide = miner.linear_regression(
                "wide", target="amount",
                dimensions=["qty", "sx", "sy", "px"],
            )
            np.testing.assert_allclose(
                r_star.coefficients, r_wide.coefficients, rtol=1e-9
            )
            assert r_star.intercept == pytest.approx(
                r_wide.intercept, rel=1e-9
            )

    def test_fused_clustering_worker_invariant(self):
        fits = []
        for workers in (1, 4):
            with _star_db(seed=13, n_fact=150, n_dim=8, workers=workers,
                          register_udfs=False) as db:
                miner = WarehouseMiner(db)
                star = miner.star(
                    "sales",
                    ["stores", "products"],
                    [("sid", "sid"), ("pid", "pid")],
                )
                km = miner.kmeans(star, 3, method="fused", seed=13)
                em = miner.gaussian_mixture(
                    star, 2, method="fused", seed=13, max_iterations=8
                )
                fits.append((km, em))
        (km1, em1), (km4, em4) = fits
        assert np.array_equal(km1.centroids, km4.centroids)
        assert np.array_equal(km1.weights, km4.weights)
        assert km1.iterations == km4.iterations
        assert np.array_equal(em1.means, em4.means)
        assert em1.log_likelihood == em4.log_likelihood

    def test_star_kmeans_defaults_to_fused(self):
        with _star_db(seed=13, n_fact=150, n_dim=8,
                      register_udfs=False) as db:
            miner = WarehouseMiner(db)
            star = miner.star(
                "sales",
                ["stores", "products"],
                [("sid", "sid"), ("pid", "pid")],
            )
            default = miner.kmeans(star, 3, seed=13)
            fused = miner.kmeans(star, 3, method="fused", seed=13)
        assert np.array_equal(default.centroids, fused.centroids)
        assert np.array_equal(default.weights, fused.weights)
        assert default.iterations == fused.iterations

    def test_star_requires_fused_methods(self):
        from repro.errors import ModelError

        with _star_db(seed=13, n_fact=60, n_dim=6,
                      register_udfs=False) as db:
            miner = WarehouseMiner(db)
            star = miner.star(
                "sales",
                ["stores", "products"],
                [("sid", "sid"), ("pid", "pid")],
            )
            with pytest.raises(ModelError, match="fused"):
                miner.kmeans(star, 2, method="sql")
            with pytest.raises(ModelError, match="fused"):
                miner.gaussian_mixture(star, 2, method="matrix")
            with pytest.raises(ModelError, match="list-form"):
                miner.summarize(star, method="sql")
