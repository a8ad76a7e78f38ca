"""Seeded input generation (numpy only — nothing here calls ``repro``).

The same seed gives the same inputs.  The program under test sees only
the arrays and rows made here, never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Mixture:
    """The paper's data set: k Gaussians with means in [0, 100] and
    sigma around 10, plus 15% uniform noise; ``y`` is a noisy linear
    target with a known random beta."""

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def d(self) -> int:
        return int(self.X.shape[1])

    def columns(self, with_y: bool = True) -> "dict[str, np.ndarray]":
        """Column arrays in the ``X(i, x1..xd[, y])`` layout."""
        columns = {"i": self.ids}
        for a in range(self.d):
            columns[f"x{a + 1}"] = self.X[:, a]
        if with_y:
            columns["y"] = self.y
        return columns


def mixture(rng: np.random.Generator, n: int, d: int, k: int = 16) -> Mixture:
    means = rng.uniform(0.0, 100.0, size=(k, d))
    sigmas = 10.0 * rng.uniform(0.8, 1.2, size=(k, d))
    labels = rng.integers(0, k, size=n)
    X = means[labels] + sigmas[labels] * rng.normal(size=(n, d))
    noise = rng.random(n) < 0.15
    X[noise] = rng.uniform(-10.0, 110.0, size=(int(noise.sum()), d))
    beta = rng.normal(0.0, 1.0, size=d)
    y = float(rng.normal(0.0, 10.0)) + X @ beta + rng.normal(0.0, 5.0, n)
    return Mixture(X, y, np.arange(1, n + 1))


@dataclass
class Star:
    """A sales fact table with two dimension arms, as python rows, plus
    the joined feature matrix the benchmark's reference is solved on."""

    stores: "list[tuple]"     # (sid, sx, sy)
    products: "list[tuple]"   # (pid, px)
    sales: "list[tuple]"      # (oid, sid, pid, amount, qty)
    joined: np.ndarray        # columns: qty, sx, sy, px
    amount: np.ndarray


def star(rng: np.random.Generator, n_fact: int, n_dim: int) -> Star:
    store_xy = rng.uniform(0.0, 50.0, size=(n_dim, 2))
    product_x = rng.uniform(0.0, 20.0, size=n_dim)
    sid = rng.integers(1, n_dim + 1, size=n_fact)
    pid = rng.integers(1, n_dim + 1, size=n_fact)
    qty = rng.integers(1, 10, size=n_fact).astype(float)
    joined = np.column_stack(
        [qty, store_xy[sid - 1, 0], store_xy[sid - 1, 1], product_x[pid - 1]]
    )
    amount = (
        5.0
        + joined @ np.array([3.0, 0.5, -0.25, 1.5])
        + rng.normal(0.0, 2.0, n_fact)
    )
    return Star(
        stores=[
            (s + 1, float(store_xy[s, 0]), float(store_xy[s, 1]))
            for s in range(n_dim)
        ],
        products=[(p + 1, float(product_x[p])) for p in range(n_dim)],
        sales=[
            (o + 1, int(sid[o]), int(pid[o]), float(amount[o]), float(qty[o]))
            for o in range(n_fact)
        ],
        joined=joined,
        amount=amount,
    )


@dataclass
class EventStream:
    """Insert batches for the durable table ``ev(id, a, b, c, tag)``."""

    values: np.ndarray          # (rows, 3) floats a, b, c
    tags: "list[str]"
    batch_rows: int

    def batch(self, index: int) -> "list[tuple]":
        lo = index * self.batch_rows
        hi = lo + self.batch_rows
        block = self.values[lo:hi].tolist()
        return [
            (lo + j, a, b, c, self.tags[lo + j])
            for j, (a, b, c) in enumerate(block)
        ]


def event_stream(
    rng: np.random.Generator, batches: int, batch_rows: int
) -> EventStream:
    rows = batches * batch_rows
    values = rng.normal(50.0, 20.0, size=(rows, 3))
    tag_ids = rng.integers(0, 97, size=rows)
    return EventStream(values, [f"t{t}" for t in tag_ids], batch_rows)
