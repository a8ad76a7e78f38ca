"""Golden answers of keyed folds: GROUP BY and the fused k-means kernel.

Every answer that splits rows by key is pinned here by md5 at workers 1
and 4, in ``tests/golden/grouped.json``: per-group ``(n, L, Q)`` at 8
and 64 groups, builtin GROUP BY statements over an INTEGER key, a FLOAT
key holding both ``-0.0`` and ``0.0`` (one group, keyed by the value
seen first), a NULL key and two keys at once, and one single-table
``kmeansiter`` iteration.  The digests cover the group order as the
statement returns it, so a change that splits rows differently, sums a
group in another association or reorders the groups turns this red.

A change that alters an answer on purpose re-pins in the same diff::

    PYTHONPATH=src python -m tests.test_golden_grouped --update

and names the pin and the reason in CHANGES.md.  Never re-pin to hide
a defect.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Database, WarehouseMiner
from repro.core.fused import fused_call_sql, register_fused_udfs
from repro.core.summary import MatrixType
from repro.dbms.schema import (
    Column,
    TableSchema,
    dataset_schema,
    dimension_names,
)
from repro.dbms.types import SqlType

GOLDEN = Path(__file__).parent / "golden" / "grouped.json"

N, D, AMPS = 2_000, 4, 16

#: adhoc_cold's GROUP BY builtins statement, then the same builtins over
#: the typed keys of table ``t``
BUILTINS = "count(*), sum(x2), avg(x4), min(x1), max(x3)"
STATEMENTS = {
    "builtins_int_key": f"SELECT i % 8 AS g, {BUILTINS} FROM x "
    "GROUP BY i % 8 ORDER BY g",
    "builtins_int_column": f"SELECT g, {BUILTINS} FROM t GROUP BY g",
    "builtins_float_key": f"SELECT k, {BUILTINS} FROM t GROUP BY k",
    "builtins_two_keys": f"SELECT g, k, {BUILTINS} FROM t GROUP BY g, k",
}


def _database(workers: int) -> Database:
    """``x`` at the paper's layout and ``t`` with typed group keys: an
    INTEGER ``g`` with NULLs and a FLOAT ``k`` holding -0.0, 0.0, NULL
    and a few other values."""
    rng = np.random.default_rng(23)
    db = Database(amps=AMPS, executor_workers=workers)
    db.create_table("x", dataset_schema(D))
    columns = {"i": np.arange(1, N + 1)}
    for name in dimension_names(D):
        columns[name] = rng.uniform(0.0, 100.0, size=N)
    db.load_columns("x", columns)
    db.create_table(
        "t",
        TableSchema.build(
            [
                Column("i", SqlType.INTEGER, nullable=False),
                ("g", SqlType.INTEGER),
                ("k", SqlType.FLOAT),
                *((name, SqlType.FLOAT) for name in dimension_names(D)),
            ],
            primary_key="i",
        ),
    )
    float_keys = [-0.0, 0.0, None, 1.5, -2.25, 0.0, -0.0]
    rows = []
    for i in range(1, N + 1):
        g = None if i % 11 == 0 else i % 5
        k = float_keys[i * 3 % len(float_keys)]
        values = [float(columns[name][i - 1]) for name in dimension_names(D)]
        if i % 13 == 0:
            values[1] = None  # a NULL sum argument
        rows.append((i, g, k, *values))
    db.insert_rows("t", rows)
    return db


def _groups_digest(groups: dict) -> str:
    return hashlib.md5(
        repr(
            [
                (key, stats.n, stats.L.tolist(), stats.Q.tolist())
                for key, stats in groups.items()
            ]
        ).encode()
    ).hexdigest()


def _digests(workers: int) -> "dict[str, str]":
    digests = {}
    with _database(workers) as db:
        miner = WarehouseMiner(db)
        for groups in (8, 64):
            for matrix_type in (MatrixType.DIAGONAL, MatrixType.TRIANGULAR):
                name = f"summarize_groups_{groups}_{matrix_type.name.lower()}"
                digests[name] = _groups_digest(
                    miner.summarize_groups(
                        "x", f"i % {groups}", matrix_type=matrix_type
                    )
                )
        for name, sql in STATEMENTS.items():
            rows = db.execute(sql).rows
            digests[name] = hashlib.md5(repr(rows).encode()).hexdigest()
        kmeans = register_fused_udfs(db)["kmeansiter"]
        kmeans.set_centroids(
            np.arange(3 * D, dtype=float).reshape(3, D) * 9.0 + 5.0
        )
        sql = fused_call_sql("kmeansiter", "x", dimension_names(D))
        rows = db.execute(sql).rows
        digests["kmeansiter"] = hashlib.md5(repr(rows).encode()).hexdigest()
    return digests


@pytest.mark.parametrize("workers", [1, 4])
def test_grouped_answers_are_pinned(workers):
    assert _digests(workers) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_golden_grouped --update")
    one, four = _digests(1), _digests(4)
    if one != four:
        sys.exit(f"workers 1 and 4 disagree: {one} != {four}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(one, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
