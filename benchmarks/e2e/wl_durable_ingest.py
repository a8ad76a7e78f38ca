"""``durable_ingest``: the write path of a crash-safe database.

``open_durable(dir, fsync_mode="batch")`` with its defaults takes a
stream of 500-row ``insert_rows`` batches: WAL encode, append and the
batched fsync.  A checkpoint every 200 batches rewrites the whole
database, so its cost grows with the table; a summary read over the
growing table every 100 batches catches an append-side change that taxes
scans (or the reverse); UPDATEs of a side table log a truncate plus a
re-insert in one record.  After the timed phase a ``SimulatedCrash`` at
``wal.append`` discards every unsynced byte; ``recover_s`` and the
durability check run from flushed bytes only.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.core.nlq_udf import nlq_call_sql, register_nlq_udfs
from repro.core.packing import unpack_summary
from repro.dbms import open_durable
from repro.dbms.faults import FaultPlan, FaultSpec
from repro.errors import SimulatedCrash

import datagen
from harness import (
    CheckFailed,
    Cycle,
    OpType,
    SelfCheckFailed,
    TimedPhase,
    expect_close,
    run_schedule,
)
from workload import Workload

BATCH_ROWS = 500
#: batches in one cycle; a checkpoint follows the first half
CYCLE_BATCHES = 200
READ_EVERY = 100
UPDATE_EVERY = 10
PRELOAD_ROWS = 20_000
#: twice the issue's 2,000: an UPDATE (14 ms) stays clear of the slowest
#: inserts (5-7 ms with the batched fsync), and p95 inside its cluster
SIDE_ROWS = 4_000
AMPS = 8
COLUMNS = ["a", "b", "c"]


def directory_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class DurableIngest(Workload):
    name = "durable_ingest"
    cycle_seconds = 2.5
    setup_repeats = 11

    def generate(self) -> None:
        self.batch_rows = self.rows(BATCH_ROWS)
        self.cycle_batches = 20 if self.smoke else CYCLE_BATCHES
        self.preload_rows = self.rows(PRELOAD_ROWS)
        # The timed batches, the warm-up's and the one the crash eats.
        self.stream = datagen.event_stream(
            self.rng, self.cycles * self.cycle_batches + 2, self.batch_rows
        )
        self.preload = self.rng.normal(50.0, 20.0, size=(self.preload_rows, 3))
        # Running sums over the stream give every read an O(1) reference.
        values = self.stream.values
        products = values[:, :, None] * values[:, None, :]
        self.prefix_L = np.cumsum(values, axis=0)
        self.prefix_Q = np.cumsum(products.reshape(len(values), 9), axis=0)
        self.homes = 0

    # -------------------------------------------------------------- set-up
    def setup(self) -> None:
        self.homes += 1
        self.home = self.scratch / f"durable-{self.homes}"
        db = self.db = open_durable(self.home, fsync_mode="batch", amps=AMPS)
        register_nlq_udfs(db)
        db.execute(
            "CREATE TABLE ev (id INTEGER PRIMARY KEY, a FLOAT, b FLOAT, "
            "c FLOAT, tag VARCHAR)"
        )
        db.execute("CREATE TABLE side (k INTEGER PRIMARY KEY, v FLOAT)")
        side = [(k, float(k)) for k in range(SIDE_ROWS)]
        self.timed_load("insert", SIDE_ROWS, lambda: db.insert_rows("side", side))
        # Preloaded rows take negative ids; the stream counts from 0.
        preload = {
            "id": -np.arange(1, self.preload_rows + 1),
            "a": self.preload[:, 0],
            "b": self.preload[:, 1],
            "c": self.preload[:, 2],
            "tag": ["seed"] * self.preload_rows,
        }
        self.timed_load(
            "bulk", self.preload_rows, lambda: db.load_columns("ev", preload)
        )
        self.batches_done = 0
        self.updates_done = 0
        #: batches acknowledged when the fsync counter last moved
        self.acked_durable = 0
        self.last_fsyncs = db.durability.fsyncs
        #: (seconds, rows in the database, bytes written) per checkpoint
        self.checkpoints: "list[tuple[float, int, int]]" = []
        self.next_op_id = 0
        self.op_insert = OpType(
            "durable_insert", 0, self.batch_rows,
            lambda k: db.insert_rows("ev", self.next_batch), self.check_insert)
        self.op_update = OpType(
            "durable_update", 0, SIDE_ROWS,
            lambda k: db.execute(
                f"UPDATE side SET v = v + 1 WHERE k < {SIDE_ROWS // 2}"),
            lambda answer, k: None)
        self.op_read = OpType(
            "durable_read", 0, 0,
            lambda k: db.execute(nlq_call_sql("ev", COLUMNS)), self.check_read)
        self.op_checkpoint = OpType(
            "durable_checkpoint", 0, 0, lambda k: db.checkpoint(),
            lambda answer, k: None)

    def warm_up(self) -> None:
        samples = self.run_ops(
            [self.op_insert, self.op_update, self.op_read, self.op_checkpoint]
        )
        failed = [s for s in samples if not s.ok]
        if failed:
            raise SelfCheckFailed(
                f"warm-up op {failed[0].op} failed: {failed[0].error}"
            )

    def reset(self) -> None:
        """A fresh directory in the state the timed phase starts from."""
        self.close()
        self.measure_setup(1)

    # -------------------------------------------------------------- checks
    def stream_rows(self) -> int:
        return self.batches_done * self.batch_rows

    def check_insert(self, inserted, k: int) -> None:
        if inserted != self.batch_rows:
            raise CheckFailed(f"insert acknowledged {inserted} rows")

    def check_read(self, result, k: int) -> None:
        stats = unpack_summary(result.scalar())
        linear = self.preload.sum(axis=0)
        quadratic = self.preload.T @ self.preload
        rows = self.stream_rows()
        if rows:
            linear += self.prefix_L[rows - 1]
            quadratic += self.prefix_Q[rows - 1].reshape(3, 3)
        expect_close("n", stats.n, self.preload_rows + rows, 0.0)
        expect_close("L", stats.L, linear, 1e-9)
        expect_close("Q", stats.Q, quadratic, 1e-9)

    # ------------------------------------------------------------ the loop
    def cycle(self) -> "list[OpType]":
        ops = []
        for batch in range(1, self.cycle_batches + 1):
            ops.append(self.op_insert)
            if batch % UPDATE_EVERY == 0:
                ops.append(self.op_update)
            if batch % READ_EVERY == 0:
                ops.append(self.op_read)
            # Mid-cycle, so the run ends with a WAL suffix to replay.
            if batch == self.cycle_batches // 2:
                ops.append(self.op_checkpoint)
        return ops

    def run_ops(self, schedule, recorder=None, trace=None):
        """One op at a time through :func:`harness.run_schedule`, with
        the stream's bookkeeping between ops: an insert's rows are built
        before its clock starts, and after every op the fsync counter
        tells which acknowledged batches have reached the disk."""
        samples = []
        for op in schedule:
            if op is self.op_insert:
                self.next_batch = self.stream.batch(self.batches_done)
            elif op is self.op_read:
                op.rows = self.preload_rows + self.stream_rows()
            (sample,) = run_schedule(
                [op], self.counters, recorder, trace,
                first_op_id=self.next_op_id,
            )
            self.next_op_id += 1
            samples.append(sample)
            if not sample.ok:
                continue
            if op is self.op_insert:
                self.batches_done += 1
            elif op is self.op_update:
                self.updates_done += 1
            elif op is self.op_checkpoint:
                committed = (
                    self.preload_rows + SIDE_ROWS + self.stream_rows()
                )
                newest = max(self.home.glob("checkpoint-*"))
                self.checkpoints.append(
                    (sample.seconds, committed, directory_bytes(newest))
                )
            fsyncs = self.db.durability.fsyncs
            if fsyncs != self.last_fsyncs or op is self.op_checkpoint:
                self.last_fsyncs = fsyncs
                self.acked_durable = self.batches_done
        return samples

    def timed(self, cycles, recorder=None, trace=None) -> TimedPhase:
        self.checkpoints.clear()
        before = self.db.durability.to_dict()
        updates_before = self.updates_done
        rows_before = self.stream_rows()
        phase = TimedPhase([
            Cycle(self.run_ops(self.cycle(), recorder, trace))
            for _ in range(cycles)
        ])
        after = self.db.durability.to_dict()
        self.wal_delta = {key: after[key] - before[key] for key in after}
        self.rows_logged = (
            self.stream_rows() - rows_before
            + SIDE_ROWS * (self.updates_done - updates_before)
        )
        return phase

    # ------------------------------------------------------------ recovery
    def after_timed(self, recorder) -> "dict[str, float]":
        """Crash at the next WAL append, reopen, check what survived."""
        db = self.db
        committed = self.preload_rows + SIDE_ROWS + self.stream_rows()
        disk = directory_bytes(self.home)
        db.faults = FaultPlan(
            [FaultSpec(site="wal.append", kind="error",
                       error=SimulatedCrash(), times=1)],
            seed=0,
        )
        try:
            db.insert_rows("ev", self.stream.batch(self.batches_done))
        except SimulatedCrash:
            pass
        else:
            raise SelfCheckFailed("the armed crash did not fire")
        db.close()
        span = nullcontext() if recorder is None else recorder.span("open_durable")
        t0 = time.perf_counter()
        with span:
            self.db = open_durable(self.home, amps=AMPS)
        recover_s = time.perf_counter() - t0
        self.replayed = self.db.durability.recovery_replayed_records
        self.check_recovered()
        return {"recover_s": recover_s, "disk_bytes_per_row": disk / committed}

    def check_recovered(self) -> None:
        """The recovered table is an exact prefix of the generated
        stream and holds at least every batch acknowledged before the
        last observed fsync; the side table is some prefix of the
        UPDATEs."""
        table = self.db.table("ev")
        numbers = table.numeric_matrix(["id", *COLUMNS])
        all_ids = numbers[:, 0].astype(int)
        streamed = all_ids >= 0
        ids = all_ids[streamed]
        if (~streamed).sum() != self.preload_rows:
            raise SelfCheckFailed("recovery lost preloaded rows")
        batches, partial = divmod(len(ids), self.batch_rows)
        if partial or not self.acked_durable <= batches <= self.batches_done:
            raise SelfCheckFailed(
                f"recovered {len(ids)} streamed rows; batches acknowledged "
                f"before the last fsync: {self.acked_durable}, "
                f"sent: {self.batches_done}"
            )
        if not np.array_equal(np.sort(ids), np.arange(len(ids))):
            raise SelfCheckFailed("recovered ids are not a prefix")
        if not np.array_equal(numbers[streamed, 1:], self.stream.values[ids]):
            raise SelfCheckFailed("recovered values differ from the stream")
        tags = self.stream.tags
        for row_id, tag in zip(all_ids.tolist(), table.column_values("tag")):
            if tag != (tags[row_id] if row_id >= 0 else "seed"):
                raise SelfCheckFailed("recovered tags differ from the stream")
        side = self.db.table("side").numeric_matrix(["k", "v"])
        bumps = side[:, 1] - side[:, 0]
        lower = bumps[side[:, 0] < SIDE_ROWS // 2]
        upper = bumps[side[:, 0] >= SIDE_ROWS // 2]
        if (
            len(side) != SIDE_ROWS
            or np.any(upper != 0)
            or np.any(lower != lower[0])
            or not 0 <= lower[0] <= self.updates_done
        ):
            raise SelfCheckFailed("side table is not a prefix of the UPDATEs")

    # ------------------------------------------------------------- layers
    def layer_metrics(self, phase, trace) -> "dict[str, float]":
        seconds, rows, size = (sum(column) for column in zip(*self.checkpoints))
        inserts = [s.seconds for s in phase.samples if s.op == "durable_insert"]
        return {
            "wal.records": float(self.wal_delta["wal_records"]),
            "wal.fsyncs": float(self.wal_delta["fsyncs"]),
            "wal.bytes_per_row": self.wal_delta["wal_bytes"] / self.rows_logged,
            "wal.recovery_replayed_records": float(self.replayed),
            "persistence.checkpoint_ms_per_mrow": 1e3 * seconds / (rows / 1e6),
            "persistence.checkpoint_bytes_per_row": size / rows,
            "storage.insert_many_rows_per_s":
                self.batch_rows * len(inserts) / sum(inserts),
        }
