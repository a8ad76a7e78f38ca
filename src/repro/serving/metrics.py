"""Serving-side observability: queue depth, coalescing, tail latency.

:class:`~repro.dbms.metrics.QueryMetrics` describes one statement;
serving needs the orthogonal *fleet* view — how deep the micro-batch
queue runs, how many requests each flush coalesces, and what the p99
request latency is under concurrent clients.  One
:class:`ServingMetrics` instance lives on each
:class:`~repro.serving.server.ServingServer` and is written from client
threads and the flusher thread alike, so every update takes the lock.

Latencies are kept in a bounded ring (the most recent
:data:`LATENCY_WINDOW` completions): percentiles describe current
behaviour, not the session's entire history, and memory stays constant
under heavy traffic.
"""

from __future__ import annotations

import math
import threading
from collections import deque

#: completed-request latencies retained for percentile queries
LATENCY_WINDOW = 8192


class ServingMetrics:
    """Thread-safe counters for one serving server.

    Every counter is cumulative over the server's lifetime unless noted.
    ``queue_depth`` is instantaneous (requests currently waiting) and
    ``queue_depth_peak`` the high-water mark; ``coalesce_factor`` is the
    average number of requests each dispatched batch carried — the
    number micro-batching exists to push above 1.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: requests admitted to the micro-batch queue
        self.requests_enqueued = 0
        #: requests answered with a result
        self.requests_completed = 0
        #: requests answered with an error (isolation kept it per-request)
        self.requests_failed = 0
        #: requests rejected at admission (queue full / server closed)
        self.requests_rejected = 0
        #: coalesced batches dispatched to the batched scoring kernels
        self.batches_flushed = 0
        #: sum of batch sizes over all flushes (≥ batches_flushed)
        self.requests_coalesced = 0
        #: batches that degraded to per-request scoring (a flush fault or
        #: a poisoned request; siblings still got isolated answers)
        self.flush_fallbacks = 0
        #: requests currently waiting in the queue
        self.queue_depth = 0
        #: deepest the queue has ever been
        self.queue_depth_peak = 0
        #: sessions currently open / opened in total / rejected at the pool cap
        self.sessions_active = 0
        self.sessions_opened = 0
        self.sessions_rejected = 0
        #: snapshot reads served (score_table / summary / matrix reads)
        self.snapshot_reads = 0
        self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------- updates
    def record_enqueue(self, depth: int) -> None:
        with self._lock:
            self.requests_enqueued += 1
            self.queue_depth = depth
            if depth > self.queue_depth_peak:
                self.queue_depth_peak = depth

    def record_dequeue(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth

    def record_rejected(self) -> None:
        with self._lock:
            self.requests_rejected += 1

    def record_flush(self, batch_size: int, degraded: bool = False) -> None:
        with self._lock:
            self.batches_flushed += 1
            self.requests_coalesced += batch_size
            if degraded:
                self.flush_fallbacks += 1

    def record_completion(self, latency_seconds: float, failed: bool) -> None:
        with self._lock:
            if failed:
                self.requests_failed += 1
            else:
                self.requests_completed += 1
            self._latencies.append(latency_seconds)

    def record_session(self, opened: bool) -> None:
        with self._lock:
            if opened:
                self.sessions_opened += 1
                self.sessions_active += 1
            else:
                self.sessions_active = max(0, self.sessions_active - 1)

    def record_session_rejected(self) -> None:
        with self._lock:
            self.sessions_rejected += 1

    def record_snapshot_read(self) -> None:
        with self._lock:
            self.snapshot_reads += 1

    # ------------------------------------------------------------- queries
    @property
    def coalesce_factor(self) -> float:
        """Mean requests per dispatched batch (0.0 before any flush)."""
        with self._lock:
            if not self.batches_flushed:
                return 0.0
            return self.requests_coalesced / self.batches_flushed

    def latency_percentile(self, q: float) -> float:
        """The *q*-th latency percentile over the retained window.

        Nearest-rank on the sorted window; 0.0 when nothing completed
        yet.  ``q`` is in [0, 100].
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            window = sorted(self._latencies)
        if not window:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(window)))
        return window[rank - 1]

    @property
    def p99_latency_seconds(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def p50_latency_seconds(self) -> float:
        return self.latency_percentile(50.0)

    def snapshot(self) -> dict[str, float | int]:
        """A consistent point-in-time dict of every counter (JSON-safe)."""
        with self._lock:
            window = sorted(self._latencies)
            state: dict[str, float | int] = {
                "requests_enqueued": self.requests_enqueued,
                "requests_completed": self.requests_completed,
                "requests_failed": self.requests_failed,
                "requests_rejected": self.requests_rejected,
                "batches_flushed": self.batches_flushed,
                "requests_coalesced": self.requests_coalesced,
                "flush_fallbacks": self.flush_fallbacks,
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
                "sessions_active": self.sessions_active,
                "sessions_opened": self.sessions_opened,
                "sessions_rejected": self.sessions_rejected,
                "snapshot_reads": self.snapshot_reads,
            }
        state["coalesce_factor"] = (
            state["requests_coalesced"] / state["batches_flushed"]
            if state["batches_flushed"]
            else 0.0
        )
        for name, q in (("p50", 50.0), ("p99", 99.0)):
            if window:
                rank = max(1, math.ceil(q / 100.0 * len(window)))
                state[f"{name}_latency_seconds"] = window[rank - 1]
            else:
                state[f"{name}_latency_seconds"] = 0.0
        return state

    def __repr__(self) -> str:
        s = self.snapshot()
        return (
            f"ServingMetrics(enqueued={s['requests_enqueued']}, "
            f"completed={s['requests_completed']}, "
            f"failed={s['requests_failed']}, "
            f"batches={s['batches_flushed']}, "
            f"coalesce={s['coalesce_factor']:.2f}, "
            f"depth_peak={s['queue_depth_peak']}, "
            f"p99={s['p99_latency_seconds'] * 1e3:.3f}ms)"
        )
