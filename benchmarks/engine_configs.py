#!/usr/bin/env python3
"""Warm operations under one engine configuration, with answer digests.

Prints the rows of the "Measured on the reference box" table in
``docs/parallel_engine.md``: per operation, the median and quartiles of
warm runs, the serial fraction of the statements it issued, and an md5
of its answer.  The data is the benchmark's ``model_build`` scale
(n = 40,000, d = 8, 16 AMPs, one BLAS thread; the star is
``model_build``'s 20,000 sales rows over 500 stores and 500 products).
Every ``KEY=VALUE`` argument is passed to ``Database(...)``, so one file
measures any configuration a checkout's constructor accepts::

    PYTHONPATH=<checkout>/src python3 benchmarks/engine_configs.py
    PYTHONPATH=<checkout>/src python3 benchmarks/engine_configs.py executor_workers=2

The first six rows are the engine comparison; the last three measure
keyed folds against an ungrouped scan: ``summarize_groups`` at 64
groups, a ``summarize`` whose blocks remember no partial (each run
starts from warm blocks with their partials forgotten, and reuses
none), and the factorized star regression.

The serial fraction is ``1 - (scan + accumulate + project) / total``
summed over the operation's statements from their ``QueryMetrics`` at
the last warm run: the share of statement wall clock spent outside the
partition tasks (parse, bind, dispatch, merge, finalize).  It bounds
what any number of workers can win.  It is printed at
``executor_workers=1`` only: with workers, the per-task seconds summed
across threads exceed the wall clock and the fraction goes negative.

Not a test and not part of ``benchmarks/e2e``: the numbers that gate a
change come from there.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time

for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")

import numpy as np  # noqa: E402

from repro import Database, WarehouseMiner  # noqa: E402
from repro.dbms.schema import dataset_schema, dimension_names  # noqa: E402
from repro.dbms.sql.executor import Executor  # noqa: E402

N, D, AMPS, RUNS = 40_000, 8, 16, 15
STAR_FACT, STAR_DIM = 20_000, 500


def _digest(*arrays: "np.ndarray") -> str:
    md5 = hashlib.md5()
    for array in arrays:
        md5.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return md5.hexdigest()


def _summary_digest(stats) -> str:
    return _digest(np.array([stats.n]), stats.L, stats.Q)


def _groups_digest(groups: dict) -> str:
    return hashlib.md5("".join(
        f"{key}:{_summary_digest(groups[key])}"
        for key in sorted(groups)).encode()).hexdigest()


def _load_star(db: Database, rng: np.random.Generator) -> None:
    """``sales`` → ``stores``, ``products`` at ``model_build``'s shape."""
    db.execute("CREATE TABLE stores (sid INTEGER PRIMARY KEY, sx FLOAT, sy FLOAT)")
    db.execute("CREATE TABLE products (pid INTEGER PRIMARY KEY, px FLOAT)")
    db.execute("CREATE TABLE sales (oid INTEGER PRIMARY KEY, sid INTEGER, "
               "pid INTEGER, amount FLOAT, qty FLOAT)")
    store_xy = rng.uniform(0.0, 50.0, size=(STAR_DIM, 2))
    product_x = rng.uniform(0.0, 20.0, size=STAR_DIM)
    sid = rng.integers(1, STAR_DIM + 1, size=STAR_FACT)
    pid = rng.integers(1, STAR_DIM + 1, size=STAR_FACT)
    qty = rng.integers(1, 10, size=STAR_FACT).astype(float)
    amount = (5.0 + 3.0 * qty + 0.5 * store_xy[sid - 1, 0]
              - 0.25 * store_xy[sid - 1, 1] + 1.5 * product_x[pid - 1]
              + rng.normal(0.0, 2.0, STAR_FACT))
    db.insert_rows("stores", [(s + 1, *map(float, store_xy[s]))
                              for s in range(STAR_DIM)])
    db.insert_rows("products", [(p + 1, float(product_x[p]))
                                for p in range(STAR_DIM)])
    db.insert_rows("sales", [
        (o + 1, int(sid[o]), int(pid[o]), float(amount[o]), float(qty[o]))
        for o in range(STAR_FACT)])


def _forget_partials(db: Database) -> None:
    """Keep ``x``'s blocks warm but drop the partials they remember."""
    for partition in db.table("x").partitions:
        for facts in partition._block_facts.values():
            facts.partials.clear()


def _operations(db: Database, miner: WarehouseMiner) -> dict:
    """name -> (run, answer digest of what *run* returned[, untimed
    step before each run])."""

    def rows(sql: str):
        return (lambda: db.execute(sql).rows, lambda r: hashlib.md5(
            repr(r).encode()).hexdigest())

    star = miner.star(
        "sales", ["stores", "products"], [("sid", "sid"), ("pid", "pid")])
    return {
        "summarize": (lambda: miner.summarize("x"), _summary_digest),
        "summarize_groups": (
            lambda: miner.summarize_groups("x", "i % 8"), _groups_digest),
        "fused_kmeans": (
            lambda: miner.kmeans("x", k=4, max_iterations=2, method="fused"),
            lambda m: _digest(m.centroids, m.radii, m.weights),
        ),
        "where_aggregate": rows(
            "SELECT sum(x1), count(*), avg(x3) FROM x WHERE x2 > 50"),
        "builtin_moments": rows(
            "SELECT count(*), corr(x3, y), var_pop(x5), regr_slope(y, x7), "
            "stddev_samp(x8) FROM x"),
        "filter_project": rows(
            "SELECT i, x1 + x2 AS s, CASE WHEN x3 > 50 THEN 1 ELSE 0 END AS f "
            "FROM x WHERE x4 > 90"),
        "summarize_groups64": (
            lambda: miner.summarize_groups("x", "i % 64"), _groups_digest),
        "summarize_no_reuse": (
            lambda: miner.summarize("x"), _summary_digest,
            lambda: _forget_partials(db)),
        "star_regression": (
            lambda: miner.linear_regression(star, target="amount"),
            lambda model: _digest(model.coefficients)),
    }


def _record_metrics(recorded: list) -> None:
    """Append every executed statement's QueryMetrics to *recorded*."""
    execute = Executor.execute

    def recording(self, *args, **kwargs):
        try:
            return execute(self, *args, **kwargs)
        finally:
            recorded.append(self.last_metrics)

    Executor.execute = recording


def _serial_fraction(metrics: list) -> float:
    total = sum(m.total_seconds for m in metrics)
    tasks = sum(
        m.scan_seconds + m.accumulate_seconds + m.project_seconds
        for m in metrics
    )
    return 1.0 - tasks / total if total else float("nan")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: "list[str]") -> None:
    options = {}
    for argument in argv:
        key, _, value = argument.partition("=")
        options[key] = int(value) if value.lstrip("-").isdigit() else value
    print(f"# {_cpu_model()}, {os.cpu_count()} cpus, numpy {np.__version__}, "
          f"Database(amps={AMPS}, {options})")
    rng = np.random.default_rng(7)
    db = Database(amps=AMPS, **options)
    miner = WarehouseMiner(db)
    db.create_table("x", dataset_schema(D, with_y=True))
    columns = {"i": np.arange(1, N + 1)}
    for name in dimension_names(D):
        columns[name] = rng.uniform(0.0, 100.0, size=N)
    columns["y"] = rng.normal(size=N) + columns["x1"] * 0.5
    db.load_columns("x", columns)
    _load_star(db, rng)
    serial = options.get("executor_workers", 1) == 1
    recorded: list = []
    _record_metrics(recorded)
    try:
        for name, (run, digest, *before) in _operations(db, miner).items():
            answer = run()  # warm the block cache and the statement cache
            times = []
            for _ in range(RUNS):
                for step in before:
                    step()
                recorded.clear()
                started = time.perf_counter()
                run()
                times.append(time.perf_counter() - started)
            if before and any(m.partials_reused for m in recorded):
                raise SystemExit(f"{name}: a run reused a remembered partial")
            q1, p50, q3 = statistics.quantiles(times, n=4, method="inclusive")
            fraction = (f"{_serial_fraction(recorded):.2f}" if serial
                        else "  - ")
            print(f"{name:18s} p50 {1e3 * p50:8.2f} ms  "
                  f"[{1e3 * q1:.2f}-{1e3 * q3:.2f}]  "
                  f"serial {fraction}  "
                  f"md5 {digest(answer)[:12]}")
    finally:
        db.close()


if __name__ == "__main__":
    main(sys.argv[1:])
