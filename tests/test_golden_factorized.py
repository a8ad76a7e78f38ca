"""Golden answers of the factorized star route.

A fixed star — two dimension arms, a NULL foreign key, a dangling
foreign key, a NULL fact value and a NULL dimension feature — is
aggregated through the factorized route (the join is never built), and
the md5 of every answer is pinned in ``tests/golden/factorized.json``
at workers 1 and 4.  A change that moves any bit of these answers (a
different merge order, a different summation association, a dropped
row) turns this test red.

A change that alters an answer on purpose re-pins in the same diff::

    PYTHONPATH=src python -m tests.test_golden_factorized --update

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

from repro.core.fused import fused_call_sql, register_fused_udfs
from repro.core.models.em_mixture import GaussianMixtureModel
from repro.core.nlq_udf import register_nlq_udfs
from repro.dbms.database import Database
from repro.dbms.schema import Column, TableSchema
from repro.dbms.types import SqlType

GOLDEN = Path(__file__).parent / "golden" / "factorized.json"

STAR = (
    "sales JOIN stores ON sales.sid = stores.sid "
    "JOIN products ON sales.pid = products.pid"
)
FEATURES = [
    "sales.amount", "sales.qty", "stores.sx", "stores.sy", "products.px"
]
N_FACT, N_STORES, N_PRODUCTS = 96, 9, 5


def _star(workers: int) -> Database:
    """The fixed star; every value comes from integer arithmetic."""
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
    db.table("stores").insert_many(
        (
            s,
            None if s == 4 else (s * 13 % 7) * 1.7 - 2.0,  # NULL feature
            (s * 5 % 11) / 3.0 + 10.0,
        )
        for s in range(1, N_STORES + 1)
    )
    db.table("products").insert_many(
        (p, (p * 7 % 9) * 0.45 - 3.0) for p in range(1, N_PRODUCTS + 1)
    )
    rows = []
    for i in range(1, N_FACT + 1):
        sid = i % N_STORES + 1
        if i == 17:
            sid = None  # NULL foreign key
        elif i == 29:
            sid = 1000  # dangling foreign key
        amount = None if i == 41 else (i * 37 % 101) / 8.0 - 3.0
        rows.append(
            (i, sid, i % N_PRODUCTS + 1, amount, (i * 11 % 17) * 0.37 + 1.0)
        )
    db.table("sales").insert_many(rows)
    register_nlq_udfs(db)
    return db


def _install(db: Database) -> None:
    fused = register_fused_udfs(db)
    d = len(FEATURES)
    grid = np.arange(3 * d, dtype=float).reshape(3, d)
    fused["kmeansiter"].set_centroids(grid * 1.5 - 4.0)
    fused["emiter"].set_model(
        GaussianMixtureModel(
            means=grid[:2] * 0.75 - 2.0,
            variances=np.full((2, d), 9.0) + grid[:2] * 0.5,
            weights=np.array([0.625, 0.375]),
        )
    )


STATEMENTS = {
    # a repeated dimension feature and an integer literal argument
    "nlq_tri": "SELECT nlq_tri(6, sales.amount, sales.qty, stores.sx, "
    f"stores.sy, products.px, stores.sx) FROM {STAR}",
    "nlq_diag": "SELECT nlq_diag(6, sales.amount, sales.qty, stores.sx, "
    f"stores.sy, products.px, 2) FROM {STAR}",
    "builtins": "SELECT COUNT(*), SUM(sales.amount), "
    "SUM(sales.amount * stores.sx), SUM(stores.sy * products.px), "
    "SUM(2.5 * products.px), SUM(sales.qty * sales.amount) "
    f"FROM {STAR}",
    "kmeansiter": fused_call_sql("kmeansiter", STAR, FEATURES),
    "emiter": fused_call_sql("emiter", STAR, FEATURES),
}


def _digests(workers: int) -> "dict[str, str]":
    digests = {}
    with _star(workers) as db:
        _install(db)
        for name, sql in STATEMENTS.items():
            rows = db.execute(sql).rows
            assert db.last_factorize_decision.factorized, name
            digests[name] = hashlib.md5(repr(rows).encode()).hexdigest()
    return digests


@pytest.mark.parametrize("workers", [1, 4])
def test_factorized_answers_are_pinned(workers):
    assert _digests(workers) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_golden_factorized --update")
    one, four = _digests(1), _digests(4)
    if one != four:
        sys.exit(f"workers 1 and 4 disagree: {one} != {four}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(one, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
