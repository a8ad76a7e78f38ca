"""``serve_points``: the request path at the concurrency two cores allow.

Two closed-loop client threads score against ``db.serve()`` with its
default knobs.  About 80% of the requests are single points and 17% are
16-row blocks, which never fill a 64-row batch, so every flush is
deadline-driven: latency is micro-batch queue wait, not kernel time.
Client B also appends 64 rows on every 20th op and scores the whole
table from a fresh session on every 150th, so appends run beside
snapshot reads.  Executor and storage changes should not move this
workload.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import Database
from repro.core.models.kmeans import KMeansModel
from repro.dbms.schema import dataset_schema

from harness import CheckFailed, Cycle, Sample, TimedPhase, expect_equal
from workload import Workload

TABLE_ROWS = 20_000
D = 8
K = 8
BLOCK_ROWS = 16
INSERT_ROWS = 64
CLIENTS = 2
MODEL = "segments"


def plan_cycle(client: int, rng: np.random.Generator) -> "list[str]":
    """One client's op kinds for one cycle: a fixed multiset, shuffled.
    Only client B (index 1) writes and scans."""
    kinds = ["block"] * 51 + ["point"] * 249
    if client == 1:
        kinds[51:68] = ["insert"] * 15 + ["table"] * 2
    return [kinds[index] for index in rng.permutation(len(kinds))]


class ServePoints(Workload):
    name = "serve_points"
    tail_pct = 99.0
    cycle_seconds = 0.84
    setup_repeats = 15

    def generate(self) -> None:
        rng = self.rng
        self.table_rows = self.rows(TABLE_ROWS)
        centers = rng.uniform(0.0, 100.0, size=(K, D))
        base = centers[rng.integers(0, K, self.table_rows)]
        self.base = base + rng.normal(0.0, 6.0, size=base.shape)
        # Request points and rows to append are drawn up front; an op
        # takes the next unused slice.  One cycle of both clients scores
        # 2113 points and appends 960 rows; the warm-up and a traced
        # run's untraced reference cycle draw from the same pools.
        cycles = self.cycles + 2
        self.pools = {
            "point": rng.uniform(0.0, 100.0, size=(cycles * 2113, D)),
            "insert": rng.uniform(0.0, 100.0, size=(cycles * 960, D)),
        }

    def setup(self) -> None:
        db = self.db = Database(amps=16)
        db.create_table("x", dataset_schema(D))
        columns = {"i": np.arange(1, self.table_rows + 1)}
        for a in range(D):
            columns[f"x{a + 1}"] = self.base[:, a]
        self.timed_load(
            "bulk", self.table_rows, lambda: db.load_columns("x", columns)
        )
        self.server = db.serve()
        model = KMeansModel.fit_matrix(self.base, K, seed=1)
        self.server.registry.register(MODEL, model)
        self.registered = self.server.registry.get(MODEL)
        self.centroids = model.centroids
        self.dims = [f"x{a + 1}" for a in range(D)]
        self.next_row = {"point": 0, "insert": 0}
        self.lock = threading.Lock()

    def warm_up(self) -> None:
        phase = self.run_clients([["point", "block"], ["insert", "table"]])
        failed = [s for s in phase.samples if not s.ok]
        if failed:
            raise CheckFailed(f"warm-up {failed[0].op}: {failed[0].error}")

    # ------------------------------------------------------------ the loop
    def take(self, pool: str, rows: int) -> "tuple[int, np.ndarray]":
        with self.lock:
            start = self.next_row[pool]
            self.next_row[pool] = start + rows
        block = self.pools[pool][start:start + rows]
        if len(block) != rows:
            raise RuntimeError(f"the {pool} pool is exhausted")
        return start, block

    def nearest(self, X: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        distances = ((X[:, None, :] - self.centroids[None]) ** 2).sum(axis=2)
        return distances, distances.min(axis=1)

    def check_scores(self, values, X: np.ndarray) -> None:
        """The served answer is bit-identical to the registered model's
        own ``score_batch``, and every subscript is a nearest centroid
        by the numpy reference (to the last bits: a point between two
        centroids may go either way)."""
        if len(values) != len(X):
            raise CheckFailed(f"{len(values)} scores for {len(X)} points")
        model = self.registered
        expect_equal(
            "served scores", values,
            model.finalize_scores(model.score_batch(np.asarray(X, dtype=float))),
        )
        distances, best = self.nearest(X)
        chosen = distances[np.arange(len(X)), np.asarray(values, dtype=int) - 1]
        if np.any(chosen > best * (1 + 1e-9)):
            raise CheckFailed("score differs from the nearest centroid")

    def client(self, index, kinds, recorder, out, first_op_id) -> None:
        session = self.server.session()
        pending = []
        try:
            for offset, kind in enumerate(kinds):
                op_id = first_op_id + offset
                rows = {"point": 1, "block": BLOCK_ROWS,
                        "insert": INSERT_ROWS, "table": 0}[kind]
                start, X = self.take(
                    "insert" if kind == "insert" else "point", rows)
                if kind == "insert":
                    first = self.table_rows + 1 + start
                    X = [(first + j, *row) for j, row in enumerate(X.tolist())]
                error = ""
                answer = None
                t0 = time.perf_counter()
                try:
                    if recorder is not None:
                        with recorder.span(f"op:serve_{kind}", op_id=op_id):
                            answer = self.one_op(kind, session, X)
                            if kind in ("point", "block"):
                                flush = answer.metrics.total_seconds
                                recorder.add(
                                    "queue_wait",
                                    max(0.0, answer.latency_seconds - flush))
                                recorder.add("flush", flush)
                    else:
                        answer = self.one_op(kind, session, X)
                except Exception as exc:  # refused, timed out or raised
                    error = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
                if kind == "table" and not error:
                    # Which rows the snapshot held, for the check; read
                    # after the clock stopped.
                    scored, fresh = answer
                    ids = fresh.snapshot("x").numeric_matrix(["i"])[:, 0]
                    fresh.close()
                    answer, X, rows = scored.values, ids.astype(int), len(ids)
                pending.append((kind, seconds, rows, op_id, error, answer, X))
        finally:
            session.close()
        out[index] = pending

    def one_op(self, kind, session, X):
        if kind == "point":
            return session.score(MODEL, X[0])
        if kind == "block":
            return session.score(MODEL, X)
        if kind == "insert":
            return self.server.insert_rows("x", X)
        fresh = self.server.session()
        return fresh.score_table(MODEL, "x", self.dims), fresh

    def run_clients(self, plans, recorder=None, first_op_id=0) -> Cycle:
        """Run one thread per plan.  Answers are checked after the
        threads finished, so the clients never wait on the benchmark's
        own arithmetic."""
        out: "list[list]" = [[] for _ in plans]
        first_ids = np.cumsum([first_op_id] + [len(p) for p in plans])
        threads = [
            threading.Thread(
                target=self.client,
                args=(index, kinds, recorder, out, int(first_ids[index])),
                name=f"client-{index}",
            )
            for index, kinds in enumerate(plans)
        ]
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        samples = []
        for pending in out:
            for kind, seconds, rows, op_id, error, answer, X in pending:
                if not error:
                    try:
                        self.check_answer(kind, answer, X)
                    except CheckFailed as exc:
                        error = str(exc)
                samples.append(Sample(
                    f"serve_{kind}", seconds, 0.0, rows, not error, op_id, error
                ))
        return Cycle(samples, wall, cpu)

    def check_answer(self, kind, answer, X) -> None:
        if kind in ("point", "block"):
            self.check_scores(answer.values, X)
        elif kind == "insert":
            if answer != INSERT_ROWS:
                raise CheckFailed(f"insert acknowledged {answer} rows")
        else:
            # X holds the ids of the rows the fresh session pinned: the
            # loaded table plus whole appended batches.
            ids = X
            appended = len(ids) - self.table_rows
            if appended < 0 or appended % INSERT_ROWS:
                raise CheckFailed(f"snapshot pinned {len(ids)} rows")
            rows = np.vstack([self.base, self.pools["insert"]])[ids - 1]
            self.check_scores(answer, rows)

    def timed(self, cycles, recorder=None, trace=None) -> TimedPhase:
        rngs = [
            np.random.default_rng([self.seed, 1, index])
            for index in range(CLIENTS)
        ]
        before = self.server.metrics.snapshot()
        done: "list[Cycle]" = []
        op_id = 0
        # The clients start each cycle together, so that every cycle has
        # a wall and a CPU time of its own.
        for _ in range(cycles):
            plans = [plan_cycle(index, rng) for index, rng in enumerate(rngs)]
            done.append(self.run_clients(plans, recorder, op_id))
            op_id += sum(len(kinds) for kinds in plans)
        phase = TimedPhase(done)
        self.serving_delta = {
            key: value - before[key]
            for key, value in self.server.metrics.snapshot().items()
            if key in ("batches_flushed", "requests_coalesced",
                       "flush_fallbacks", "requests_rejected")
        }
        self.queue_depth_peak = self.server.metrics.snapshot()["queue_depth_peak"]
        return phase

    # ------------------------------------------------------------- layers
    def layer_metrics(self, phase, trace) -> "dict[str, float]":
        spans = trace.recorder.spans
        waits = [s.seconds for s in spans if s.name == "queue_wait"]
        flushes = [s.seconds for s in spans if s.name == "flush"]
        tables = [s.seconds for s in phase.samples if s.op == "serve_table"]
        delta = self.serving_delta
        return {
            "serving.batcher.queue_wait_p50_ms": 1e3 * float(np.median(waits)),
            "serving.batcher.flush_p50_ms": 1e3 * float(np.median(flushes)),
            "serving.batcher.coalesce_factor":
                delta["requests_coalesced"] / delta["batches_flushed"],
            "serving.batcher.batches_flushed": float(delta["batches_flushed"]),
            "serving.batcher.flush_fallbacks": float(delta["flush_fallbacks"]),
            "serving.batcher.queue_depth_peak": float(self.queue_depth_peak),
            "serving.batcher.requests_rejected":
                float(delta["requests_rejected"]),
            "serving.snapshot.score_table_ms": 1e3 * float(np.median(tables)),
            "storage.insert_many_rows_per_s": INSERT_ROWS * sum(
                s.op == "serve_insert" for s in phase.samples
            ) / sum(s.seconds for s in phase.samples if s.op == "serve_insert"),
        }
