"""The simulated clock, the work record and its one pricing function."""

import sys

import numpy as np
import pytest

from repro.core.nlq_udf import register_nlq_udfs
from repro.core.scoring.udfs import register_scoring_udfs
from repro.dbms.cost import (
    CostParameters,
    SimulatedClock,
    UdfRows,
    Work,
    expression_nodes,
    simulate,
)
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema
from repro.dbms.sql.parser import parse_statement
from repro.dbms.udf import RowCost


def _gamma(n: int) -> float:
    """γ_n = n·u / (1 − n·u): the relative error bound of n roundings
    (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1)."""
    u = sys.float_info.epsilon / 2
    return n * u / (1 - n * u)


#: Two summation orders of one statement's simulated seconds.  Every
#: priced term is a non-negative product of at most four rounded
#: operations, a statement sums at most 32 of them, and either order
#: lies within γ_64 of the exact sum, so within 2·γ_64 of each other.
#: (``PINNED_SECONDS`` came from a clock that added each charge as it
#: happened; ``simulate`` sums a record once; EXPLAIN sums one record
#: per operator.)
SUMMATION_ORDER_REL = 2 * _gamma(64)


def _seconds(fill, params: "CostParameters | None" = None) -> float:
    work = Work()
    fill(work)
    return simulate(work, params or CostParameters())


class TestClock:
    def test_accumulates(self):
        clock = SimulatedClock()
        clock.charge(1.5)
        clock.charge(0.5)
        assert clock.elapsed == 2.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().charge(-1.0)

    def test_reset(self):
        clock = SimulatedClock()
        clock.charge(1.0)
        clock.reset()
        assert clock.elapsed == 0.0

    def test_span(self):
        clock = SimulatedClock()
        clock.charge(1.0)
        with clock.span() as span:
            clock.charge(2.5)
        assert span.seconds == 2.5
        clock.charge(1.0)
        assert span.seconds == 2.5  # frozen at exit


class TestSimulate:
    def test_empty_work_is_free(self):
        assert simulate(Work(), CostParameters()) == 0.0

    def test_scan_divides_across_amps(self):
        one = _seconds(lambda w: w.scan(1000, 8), CostParameters(amps=1))
        twenty = _seconds(lambda w: w.scan(1000, 8), CostParameters(amps=20))
        assert one == pytest.approx(20 * twenty)

    def test_scan_linear_in_rows(self):
        small = _seconds(lambda w: w.scan(100, 4))
        assert _seconds(lambda w: w.scan(1000, 4)) == pytest.approx(10 * small)

    def test_sql_statement_cost_grows_with_terms(self):
        one = _seconds(lambda w: w.statement(1))
        assert _seconds(lambda w: w.statement(1000)) > one

    def test_udf_row_components(self):
        def udf(profile):
            return lambda w: w.udfs.append(UdfRows(1000, profile))

        baseline = _seconds(udf(RowCost()))
        assert _seconds(udf(RowCost(list_params=10))) > baseline
        assert _seconds(udf(RowCost(string_chars=100))) > baseline

    def test_string_transfer_charge(self):
        params = CostParameters()
        plain = RowCost(list_params=1)
        packed = RowCost(list_params=1, string_chars=152)
        gap = _seconds(lambda w: w.udfs.append(UdfRows(1000, packed))) - \
            _seconds(lambda w: w.udfs.append(UdfRows(1000, plain)))
        assert gap == pytest.approx(
            1000 * 152 * params.udf_string_char / params.amps
        )

    def test_spool_result_per_column(self):
        narrow = _seconds(lambda w: w.result(1, 10))
        wide = _seconds(lambda w: w.result(1, 1000))
        # The wide one-row result is what hurts SQL at high d.
        assert wide == pytest.approx(100 * narrow)

    def test_sort_empty_is_free(self):
        assert _seconds(lambda w: w.sort(1)) == 0.0

    def test_udf_call_is_one_node(self):
        call = parse_statement("SELECT nlq_tri(2, x1, x2 + 1) FROM x")
        builtin = parse_statement("SELECT sum(x1 * x2) FROM x")
        # The UDF and its one non-trivial argument (x2 + 1: three nodes).
        assert expression_nodes([call.items[0].expression]) == 4
        assert expression_nodes([builtin.items[0].expression]) == 4


class TestSpillMultiplier:
    """GROUP BY state pressing on the 64 KB heap segment multiplies the
    per-row UDF work (Table 5): gently, then the pressure factor, then
    the spill factor.  Merge and return prices are zeroed so the ratio
    to the ungrouped call is the multiplier alone."""

    STATE = 256  # values: 2 KB, about the diagonal d = 32 struct

    def _multiplier(self, groups: int, string_chars: float = 0.0) -> float:
        params = CostParameters().scaled(
            udf_merge_value=0.0, udf_return_value=0.0
        )
        profile = RowCost(list_params=5, arith_ops=10, string_chars=string_chars)

        def udf(grouped):
            return lambda w: w.udfs.append(
                UdfRows(1000, profile, self.STATE, 4, groups, grouped)
            )

        return _seconds(udf(True), params) / _seconds(udf(False), params)

    def test_graded_levels(self):
        params = CostParameters()
        state_bytes = self.STATE * 8
        segment = params.heap_segment_bytes
        # Well under half the segment: near 1.
        assert 1.0 <= self._multiplier(4) < 1.1
        # Between half and the whole segment: the pressure factor.
        assert self._multiplier(segment // (2 * state_bytes) + 1) == \
            pytest.approx(params.groupby_pressure_factor)
        # Over the segment: the spill factor.
        assert self._multiplier(segment // state_bytes + 1) == \
            pytest.approx(params.groupby_spill_factor)

    def test_monotone_in_groups(self):
        values = [self._multiplier(k) for k in (1, 8, 16, 32, 33)]
        assert values == sorted(values)

    def test_string_transfer_not_multiplied(self):
        spilled = self._multiplier(64, string_chars=100)
        assert spilled < self._multiplier(64)


class TestRowScaleExactness:
    """The bench scaling mechanism: per-row charges must be exactly
    linear, so 10x physical rows at scale 1 equals 1x rows at scale 10."""

    def _query_time(self, physical: int, scale: float) -> float:
        db = Database(amps=4)
        db.create_table("t", dataset_schema(2), row_scale=scale)
        db.insert_rows(
            "t", [(i, float(i), float(i) * 2) for i in range(physical)]
        )
        db.reset_clock()
        return db.execute("SELECT sum(x1), sum(x2 * x2) FROM t").simulated_seconds

    def test_scaled_equals_unscaled(self):
        big = self._query_time(physical=200, scale=1.0)
        small = self._query_time(physical=20, scale=10.0)
        assert small == pytest.approx(big, rel=1e-9)

    def test_parameters_scaled_copy(self):
        params = CostParameters()
        copy = params.scaled(amps=5)
        assert copy.amps == 5 and params.amps == 20
        assert copy.scan_row == params.scan_row


# ----------------------------------------------------- statements, end to end
ROWS = 400
DIMS = "x1, x2, x3, x4"
PACKED = "x1 || ',' || x2 || ',' || x3 || ',' || x4"
STAR = (
    "SELECT nlq_tri(5, sales.amount, sales.qty, stores.sx, stores.sy, "
    "products.px) FROM sales JOIN stores ON sales.sid = stores.sid "
    "JOIN products ON sales.pid = products.pid"
)


def _database() -> Database:
    """x: 400 rows at row scale 25 (10,000 nominal) over 4 AMPs, with
    16- and 32-valued group keys; plus an 8 x 8 x 200 sales star."""
    rng = np.random.default_rng(7)
    db = Database(amps=4)
    db.execute(
        "CREATE TABLE x (i INTEGER PRIMARY KEY, g16 INTEGER, g32 INTEGER, "
        "x1 FLOAT, x2 FLOAT, x3 FLOAT, x4 FLOAT)"
    )
    db.table("x").row_scale = 25.0
    db.execute(
        "CREATE TABLE stores (sid INTEGER PRIMARY KEY, sx FLOAT, sy FLOAT)"
    )
    db.execute("CREATE TABLE products (pid INTEGER PRIMARY KEY, px FLOAT)")
    db.execute(
        "CREATE TABLE sales (oid INTEGER PRIMARY KEY, sid INTEGER, "
        "pid INTEGER, amount FLOAT, qty FLOAT)"
    )
    register_nlq_udfs(db)
    register_scoring_udfs(db)
    columns = {
        "i": np.arange(1, ROWS + 1),
        "g16": np.arange(ROWS) % 16,
        "g32": np.arange(ROWS) % 32,
    }
    for name in ("x1", "x2", "x3", "x4"):
        columns[name] = rng.normal(size=ROWS)
    db.load_columns("x", columns)
    db.load_columns(
        "stores",
        {"sid": np.arange(1, 9), "sx": rng.normal(size=8),
         "sy": rng.normal(size=8)},
    )
    db.load_columns(
        "products", {"pid": np.arange(1, 9), "px": rng.normal(size=8)}
    )
    db.load_columns(
        "sales",
        {"oid": np.arange(1, 201), "sid": rng.integers(1, 9, 200),
         "pid": rng.integers(1, 9, 200), "amount": rng.normal(size=200),
         "qty": rng.normal(size=200)},
    )
    return db


#: Simulated seconds of canonical statements, captured while the
#: executor still charged the clock operation by operation.  The three
#: nLQ shapes, both GROUP BY spill edges (k = 16 presses on
#: the heap segment, k = 32 spills), a derived table, a batch with a
#: duplicate, the DML and load paths, and a summary-cache miss and
#: incremental refresh.
PINNED_SECONDS = {
    "load_columns": 0.020999999999999998,
    "nlq_diag": 1.692722,
    "nlq_tri": 2.332628,
    "nlq_full": 2.335478,
    "nlq_str_tri": 2.534028,
    "builtins": 0.43860000000000005,
    "groupby_k16": 2.762862075,
    "groupby_k32": 8.605529155000001,
    "filtered_groupby": 0.42328067500000005,
    "derived": 0.48029600000000006,
    "project_order": 0.4140767483321058,
    "score": 0.4344,
    "factorized_star": 1.3349730000000002,
    "materialized_star": 0.76857,
    "batch_duplicate": 2.5674280000000005,
    "insert_select": 0.39609000000000005,
    "update": 0.2144297,
    "delete": 0.2144,
    "insert_rows": 1.8e-05,
    "summary_cache_miss": 1.8239500000000004,
    "summary_cache_refresh": 0.48139750000000003,
}


class TestPinnedClock:
    """Absolute simulated seconds of canonical statements: the record
    and :func:`simulate` must charge what the interleaved charges did,
    up to summation order."""

    @pytest.fixture(scope="class")
    def seconds(self):
        db = _database()
        out = {}

        def clocked(name, run):
            db.reset_clock()
            run()
            out[name] = db.simulated_time

        # Loading prices rows x width x row scale: a twin of x's shape.
        db.execute("CREATE TABLE x2 (i INTEGER PRIMARY KEY, g16 INTEGER, "
                   "g32 INTEGER, x1 FLOAT, x2 FLOAT, x3 FLOAT, x4 FLOAT)")
        db.table("x2").row_scale = 25.0
        twin = {name: np.arange(ROWS) for name in ("i", "g16", "g32")}
        twin.update({name: np.zeros(ROWS) for name in ("x1", "x2", "x3", "x4")})
        clocked("load_columns", lambda: db.load_columns("x2", twin))
        statements = {
            "nlq_diag": f"SELECT nlq_diag(4, {DIMS}) FROM x",
            "nlq_tri": f"SELECT nlq_tri(4, {DIMS}) FROM x",
            "nlq_full": f"SELECT nlq_full(4, {DIMS}) FROM x",
            "nlq_str_tri": f"SELECT nlq_str_tri({PACKED}) FROM x",
            "builtins": "SELECT count(*), sum(x1), sum(x1 * x2) FROM x",
            "groupby_k16":
                f"SELECT g16, nlq_diag(4, {DIMS}) FROM x GROUP BY g16",
            "groupby_k32":
                f"SELECT g32, nlq_diag(4, {DIMS}) FROM x GROUP BY g32",
            "filtered_groupby": "SELECT g16, sum(x1) FROM x WHERE x2 > 0 "
                                "GROUP BY g16 ORDER BY g16",
            "derived": "SELECT sum(s) FROM (SELECT x1 + x2 AS s FROM x "
                       "WHERE x3 > 0) AS t",
            "project_order": "SELECT i, x1 FROM x ORDER BY x1",
            "score": "SELECT i, linearregscore(x1, x2, x3, x4, "
                     "0.5, 1.0, -2.0, 0.25, 3.0) FROM x",
            "factorized_star": STAR,
        }
        for name, sql in statements.items():
            clocked(name, lambda sql=sql: db.execute(sql))
        db.factorized_joins_enabled = False
        clocked("materialized_star", lambda: db.execute(STAR))
        db.factorized_joins_enabled = True
        nlq = f"SELECT nlq_tri(4, {DIMS}) FROM x"
        builtin = "SELECT sum(x1), count(*) FROM x"
        clocked(
            "batch_duplicate", lambda: db.execute_batch([nlq, builtin, nlq])
        )
        db.execute("CREATE TABLE s (i INTEGER, score FLOAT)")
        clocked(
            "insert_select",
            lambda: db.execute("INSERT INTO s SELECT i, x1 * 2 FROM x"),
        )
        clocked(
            "update",
            lambda: db.execute("UPDATE s SET score = score + 1 WHERE i < 100"),
        )
        clocked("delete", lambda: db.execute("DELETE FROM s WHERE i > 300"))
        clocked(
            "insert_rows",
            lambda: db.insert_rows(
                "s", [(1000 + j, float(j)) for j in range(30)]
            ),
        )
        db.summary_cache_enabled = True
        clocked("summary_cache_miss", lambda: db.execute(nlq))
        db.insert_rows(
            "x",
            [(ROWS + 1 + j, 0, 0, 1.0, 2.0, 3.0, float(j)) for j in range(20)],
        )
        clocked("summary_cache_refresh", lambda: db.execute(nlq))
        return out

    @pytest.mark.parametrize("name", sorted(PINNED_SECONDS))
    def test_pinned(self, seconds, name):
        assert seconds[name] == pytest.approx(
            PINNED_SECONDS[name], rel=SUMMATION_ORDER_REL, abs=0
        )


class TestEstimateEqualsActual:
    """EXPLAIN's estimate is the simulated seconds ``execute()`` charges
    whenever the planner knows the cardinalities: both price the same
    record quantities with :func:`simulate`, so they differ by summation
    order only.

    Excluded on purpose: ``WHERE`` and ``GROUP BY``, whose output
    cardinality the planner does not know.  The string-passed nLQ UDF
    learns ``d`` from the packed string it parses, so EXPLAIN prices it
    at the ``d`` of its last scan: that shape runs once before it is
    explained.
    """

    @pytest.fixture(scope="class")
    def db(self):
        return _database()

    @pytest.mark.parametrize(
        "sql",
        [
            f"SELECT nlq_diag(4, {DIMS}) FROM x",
            f"SELECT nlq_tri(4, {DIMS}) FROM x",
            f"SELECT nlq_full(4, {DIMS}) FROM x",
            "SELECT count(*), sum(x1), sum(x1 * x2) FROM x",
            "SELECT i, x1 FROM x",
            "SELECT i, x1 FROM x ORDER BY x1",
            "SELECT i, linearregscore(x1, x2, x3, x4, "
            "0.5, 1.0, -2.0, 0.25, 3.0) FROM x",
            STAR,
        ],
        ids=["nlq_diag", "nlq_tri", "nlq_full", "builtins", "project",
             "project_order", "score", "factorized_star"],
    )
    def test_estimate_is_the_simulated_actual(self, db, sql):
        plan = db.explain_plan(sql)
        actual = db.execute(sql).simulated_seconds
        assert plan.estimated_seconds == pytest.approx(
            actual, rel=SUMMATION_ORDER_REL, abs=0
        )

    def test_string_passed_nlq(self, db):
        sql = f"SELECT nlq_str_tri({PACKED}) FROM x"
        db.execute(sql)
        plan = db.explain_plan(sql)
        actual = db.execute(sql).simulated_seconds
        assert plan.estimated_seconds == pytest.approx(
            actual, rel=SUMMATION_ORDER_REL, abs=0
        )

    def test_star_runs_factorized(self, db):
        assert db.explain_plan(STAR).find("factorized-join")
