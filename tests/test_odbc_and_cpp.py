"""The external route: ODBC export simulator + the C++-style flat-file tool."""

import numpy as np
import pytest

from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema, dimension_names
from repro.errors import ExportError
from repro.external.cpp_tool import CppAnalysisTool
from repro.external.workstation import (
    WorkstationCostModel,
    model_build_seconds,
)
from repro.odbc.export import OdbcExporter
from repro.errors import ModelError


@pytest.fixture
def export_db(tmp_path):
    rng = np.random.default_rng(61)
    n, d = 80, 3
    X = rng.normal(1.0, 2.0, size=(n, d))
    db = Database(amps=3)
    db.create_table("x", dataset_schema(d), row_scale=50.0)
    columns = {"i": np.arange(1, n + 1)}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = X[:, index]
    db.load_columns("x", columns)
    return db, X, tmp_path


class TestOdbcExport:
    def test_writes_csv_with_header(self, export_db):
        db, X, tmp_path = export_db
        report = OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        lines = (tmp_path / "x.csv").read_text().strip().splitlines()
        assert lines[0] == "i,x1,x2,x3"
        assert len(lines) == 1 + X.shape[0]
        assert report.physical_rows == X.shape[0]

    def test_column_subset(self, export_db):
        db, _X, tmp_path = export_db
        report = OdbcExporter().export_table(
            db, "x", tmp_path / "sub.csv", columns=["x1", "x3"]
        )
        header = (tmp_path / "sub.csv").read_text().splitlines()[0]
        assert header == "x1,x3"
        assert report.columns == 2

    def test_nominal_rows_costed(self, export_db):
        db, X, tmp_path = export_db
        report = OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        assert report.nominal_rows == X.shape[0] * 50.0
        per_value = OdbcExporter().params.per_value
        assert report.simulated_seconds > report.nominal_rows * 3 * per_value

    def test_export_seconds_linear(self):
        exporter = OdbcExporter()
        small = exporter.export_seconds(1000, 8)
        large = exporter.export_seconds(10000, 8)
        fixed = exporter.params.per_export
        assert large - fixed == pytest.approx(10 * (small - fixed))

    def test_null_serialized_empty(self, export_db):
        db, _X, tmp_path = export_db
        db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT)")
        db.execute("INSERT INTO t VALUES (1, NULL)")
        OdbcExporter().export_table(db, "t", tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text().splitlines()[1] == "1,"

    def test_bad_path_raises(self, export_db):
        db, _X, tmp_path = export_db
        target = tmp_path / "x.csv"
        target.write_text("occupied")
        with pytest.raises(ExportError):
            OdbcExporter().export_table(db, "x", target / "nested.csv")


class TestCppTool:
    def test_scan_matches_db_summary(self, export_db):
        db, X, tmp_path = export_db
        OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        report = CppAnalysisTool().compute_nlq(tmp_path / "x.csv")
        reference = SummaryStatistics.from_matrix(X)
        assert report.stats.allclose(reference, rtol=1e-9)
        assert report.physical_rows == X.shape[0]

    def test_chunked_scan_equals_single_chunk(self, export_db):
        db, _X, tmp_path = export_db
        OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        chunked = CppAnalysisTool(chunk_rows=7).compute_nlq(tmp_path / "x.csv")
        whole = CppAnalysisTool(chunk_rows=10_000).compute_nlq(tmp_path / "x.csv")
        assert chunked.stats.allclose(whole.stats, rtol=1e-12)

    def test_column_selection(self, export_db):
        db, X, tmp_path = export_db
        OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        report = CppAnalysisTool().compute_nlq(
            tmp_path / "x.csv", columns=["x2"]
        )
        assert report.stats.d == 1
        assert report.stats.L[0] == pytest.approx(X[:, 1].sum())

    def test_id_column_skipped_by_default(self, export_db):
        db, _X, tmp_path = export_db
        OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        report = CppAnalysisTool().compute_nlq(tmp_path / "x.csv")
        assert report.stats.d == 3

    def test_diagonal_mode(self, export_db):
        db, X, tmp_path = export_db
        OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        report = CppAnalysisTool().compute_nlq(
            tmp_path / "x.csv", matrix_type=MatrixType.DIAGONAL
        )
        assert report.stats.Q[0, 1] == 0.0

    def test_missing_column(self, export_db):
        db, _X, tmp_path = export_db
        OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        with pytest.raises(ExportError, match="lacks columns"):
            CppAnalysisTool().compute_nlq(tmp_path / "x.csv", columns=["zz"])

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,notanumber\n")
        with pytest.raises(ExportError, match="malformed"):
            CppAnalysisTool().compute_nlq(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ExportError, match="empty"):
            CppAnalysisTool().compute_nlq(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExportError):
            CppAnalysisTool().compute_nlq(tmp_path / "nope.csv")

    def test_row_scale_in_timing(self, export_db):
        db, _X, tmp_path = export_db
        OdbcExporter().export_table(db, "x", tmp_path / "x.csv")
        tool = CppAnalysisTool()
        plain = tool.compute_nlq(tmp_path / "x.csv", row_scale=1.0)
        scaled = tool.compute_nlq(tmp_path / "x.csv", row_scale=100.0)
        startup = tool.workstation.params.startup
        assert scaled.simulated_seconds - startup == pytest.approx(
            100 * (plain.simulated_seconds - startup)
        )


class TestWorkstationModel:
    def test_scan_seconds_grow_with_type(self):
        model = WorkstationCostModel()
        diag = model.nlq_scan_seconds(10_000, 16, MatrixType.DIAGONAL)
        tri = model.nlq_scan_seconds(10_000, 16, MatrixType.TRIANGULAR)
        full = model.nlq_scan_seconds(10_000, 16, MatrixType.FULL)
        assert diag < tri < full

    def test_single_threaded_slower_than_server_scan(self):
        """The headline comparison: the workstation has no 20-way
        parallelism, so at equal n it loses to the in-DBMS UDF."""
        from repro.dbms.cost import CostParameters, UdfRows, Work, simulate
        from repro.dbms.udf import RowCost

        n, d = 500_000, 32
        workstation = WorkstationCostModel().nlq_scan_seconds(n, d)
        server = Work()
        server.scan(n, d + 1)
        server.udfs.append(
            UdfRows(n, RowCost(d + 1, arith_ops=3 * d + d * (d + 1) // 2))
        )
        assert workstation > 3 * simulate(server, CostParameters())

    def test_model_build_techniques(self):
        for technique in (
            "correlation", "regression", "pca", "clustering", "factor_analysis",
        ):
            assert model_build_seconds(technique, 32) > 0

    def test_model_build_unknown_technique(self):
        with pytest.raises(ModelError, match="unknown technique"):
            model_build_seconds("svm", 32)

    def test_pca_cubic_growth(self):
        small = model_build_seconds("pca", 16)
        large = model_build_seconds("pca", 64)
        assert large > small
