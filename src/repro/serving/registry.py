"""A versioned, catalog-resident model registry (MADlib-style).

MADlib (arXiv:1208.4165) keeps fitted models *in the database*: model
parameters live in ordinary tables, so they survive with the data, ship
with backups, and are queryable like everything else.  This module
adopts that pattern for the five scoreable model families of the paper:

* every :meth:`ModelRegistry.register` persists the model's parameter
  matrices into catalog tables through the Section 3.5 layouts
  (:func:`~repro.core.models.base.store_matrix` /
  :func:`~repro.core.models.base.store_vector`), under names derived
  from the model name and an auto-incremented version;
* one metadata table — ``model_registry(model_id, name, version, kind,
  promoted, registered_at)`` — records every version ever registered;
* ``get(name)`` binds to the **promoted** version, ``get(name,
  version=n)`` to an explicit one; either way the returned
  :class:`RegisteredModel` carries its version stamp, so a scoring
  result can always say exactly which parameters produced it;
* ``promote`` flips which version ``get(name)`` resolves to — the
  register → validate → promote lifecycle — via plain SQL UPDATEs on
  the metadata table.

Each model class names its kind (``registry_kind``), the arrays it
persists (``scoring_parts``) and how it scores (``scoring_spec``), so
nothing here switches on the kind.  Scoring goes through the same
batched kernels as the vectorized SELECT path: the loaded handle's
:class:`~repro.core.scoring.udfs.ScoringSpec` builds one dense argument
block and makes one ``compute_batch`` call per UDF, bit-identical to the
per-row ``compute`` reference the isolation fallback uses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.models.base import load_matrix, load_vector, store_matrix, store_vector
from repro.core.models.em_mixture import GaussianMixtureModel
from repro.core.models.kmeans import KMeansModel
from repro.core.models.lda import LdaModel
from repro.core.models.naive_bayes import NaiveBayesModel
from repro.core.models.regression import LinearRegressionModel
from repro.core.scoring.udfs import ScoringSpec
from repro.dbms.schema import Column, TableSchema, validate_identifier
from repro.dbms.types import SqlType
from repro.errors import RegistryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dbms.database import Database

#: the metadata catalog table every registry operation reads and writes
REGISTRY_TABLE = "model_registry"

#: the registrable model classes by the ``kind`` the metadata table records
_KINDS = {
    cls.registry_kind: cls
    for cls in (
        LinearRegressionModel,
        KMeansModel,
        GaussianMixtureModel,
        NaiveBayesModel,
        LdaModel,
    )
}


@dataclass(frozen=True)
class ModelVersion:
    """One row of the metadata table, as the list/get APIs report it."""

    model_id: int
    name: str
    version: int
    kind: str
    promoted: bool
    registered_at: int

    @property
    def tables(self) -> "tuple[str, ...]":
        """The catalog tables holding this version's parameters."""
        return tuple(
            component_table(self.name, self.version, part)
            for part in _KINDS[self.kind].registry_parts
        )


@dataclass
class RegisteredModel:
    """A version-stamped, immutable scoring handle.

    ``spec`` is the model kind's :class:`ScoringSpec`, built once from
    the parameter arrays loaded back from the catalog tables; scoring,
    batched or per row, delegates to it.
    """

    name: str
    version: int
    kind: str
    promoted: bool
    spec: ScoringSpec = field(repr=False)

    @property
    def key(self) -> "tuple[str, int]":
        return (self.name, self.version)

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def output_column(self) -> str:
        return self.spec.output_column

    @property
    def integer_result(self) -> bool:
        return self.spec.integer_result

    # -------------------------------------------------------------- scoring
    def validate_points(self, points: "np.ndarray | Sequence[Any]") -> np.ndarray:
        """Coerce *points* to an ``(m, d)`` float block (NULL → NaN)."""
        X = np.asarray(points, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise RegistryError(
                f"model {self.name!r} v{self.version} scores d={self.d} "
                f"points, got shape {tuple(np.shape(points))}"
            )
        return X

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        """One ``compute_batch`` per UDF over the block; NaN is NULL."""
        return self.spec.score_batch(X)

    def score_rows(self, X: np.ndarray) -> "list[Any]":
        """The per-row reference the micro-batcher isolates requests with."""
        return self.spec.score_rows(X)

    def finalize_scores(self, raw: np.ndarray) -> "list[Any]":
        """:meth:`score_batch` output → python values (labels, None)."""
        return self.spec.finalize(raw)


def component_table(name: str, version: int, part: str) -> str:
    """The catalog-table name holding one component of one version."""
    return f"mdl_{name}_v{version}_{part}"


def _registry_schema() -> TableSchema:
    return TableSchema(
        (
            Column("model_id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.VARCHAR, nullable=False),
            Column("version", SqlType.INTEGER, nullable=False),
            Column("kind", SqlType.VARCHAR, nullable=False),
            Column("promoted", SqlType.INTEGER, nullable=False),
            Column("registered_at", SqlType.INTEGER, nullable=False),
        ),
        primary_key="model_id",
    )


class ModelRegistry:
    """Versioned model persistence over one database's catalog.

    Thread-safety: every operation serializes on one lock (metadata
    reads included — the metadata table is ordinary storage, and a
    reader racing a writer could otherwise see a half-appended row).
    Loaded :class:`RegisteredModel` handles are immutable and cached, so
    the hot serving path — scoring against an already-bound model —
    never touches the lock.
    """

    def __init__(
        self, db: "Database", lock: "threading.RLock | None" = None
    ) -> None:
        self._db = db
        self._lock = lock if lock is not None else threading.RLock()
        self._loaded: dict[tuple[str, int], RegisteredModel] = {}
        # A DROP of the metadata table (or a component table) makes the
        # loaded-handle cache stale; evict by model name prefix.
        db.catalog.add_drop_listener(self._on_drop)

    # ----------------------------------------------------------- lifecycle
    def register(self, name: str, model: object) -> ModelVersion:
        """Persist *model* under *name* as the next version.

        Accepts the five fitted model classes (k-means, GMM, linear
        regression, naive Bayes, LDA).  The first version of a name is
        promoted automatically so ``get(name)`` works immediately; later
        versions start unpromoted and go live via :meth:`promote`.
        """
        validate_identifier(name, "model name")
        name = name.lower()
        kind = getattr(model, "registry_kind", None)
        if kind not in _KINDS:
            raise RegistryError(
                f"cannot register a {type(model).__name__}; supported "
                f"models: {', '.join(c.__name__ for c in _KINDS.values())}"
            )
        with self._lock:
            self._ensure_metadata_table()
            rows = self._metadata_rows()
            versions = [r.version for r in rows if r.name == name]
            version = max(versions, default=0) + 1
            next_id = max((r.model_id for r in rows), default=0) + 1
            self._store_components(name, version, model.scoring_parts())
            promoted = not versions
            self._db.insert_rows(
                REGISTRY_TABLE,
                [(next_id, name, version, kind, int(promoted), next_id)],
            )
            return ModelVersion(
                model_id=next_id,
                name=name,
                version=version,
                kind=kind,
                promoted=promoted,
                registered_at=next_id,
            )

    def get(self, name: str, version: "int | None" = None) -> RegisteredModel:
        """Bind to a model version (explicit, or the promoted one).

        The returned handle is immutable and version-stamped: scoring
        through it keeps using the same parameters even if another
        client registers or promotes newer versions concurrently.
        """
        name = name.lower()
        with self._lock:
            rows = [r for r in self._metadata_rows() if r.name == name]
            if not rows:
                raise RegistryError(f"no model registered under {name!r}")
            if version is None:
                promoted = [r for r in rows if r.promoted]
                if not promoted:
                    raise RegistryError(
                        f"model {name!r} has no promoted version; pass "
                        f"version= explicitly or promote one"
                    )
                row = promoted[0]
            else:
                matches = [r for r in rows if r.version == version]
                if not matches:
                    known = sorted(r.version for r in rows)
                    raise RegistryError(
                        f"model {name!r} has no version {version} "
                        f"(registered: {known})"
                    )
                row = matches[0]
            cached = self._loaded.get((name, row.version))
            if cached is not None:
                # The promoted flag may have flipped since the load.
                cached.promoted = row.promoted
                return cached
            model = self._load(row)
            self._loaded[(name, row.version)] = model
            return model

    def promote(self, name: str, version: int) -> ModelVersion:
        """Make *version* the one ``get(name)`` resolves to."""
        name = name.lower()
        with self._lock:
            rows = [r for r in self._metadata_rows() if r.name == name]
            if not any(r.version == version for r in rows):
                known = sorted(r.version for r in rows)
                raise RegistryError(
                    f"cannot promote {name!r} v{version}: registered "
                    f"versions are {known}"
                )
            self._db.execute(
                f"UPDATE {REGISTRY_TABLE} SET promoted = 0 "
                f"WHERE name = '{name}'"
            )
            self._db.execute(
                f"UPDATE {REGISTRY_TABLE} SET promoted = 1 "
                f"WHERE name = '{name}' AND version = {int(version)}"
            )
            (row,) = [
                r for r in self._metadata_rows()
                if r.name == name and r.version == version
            ]
            return row

    def list(self, name: "str | None" = None) -> "list[ModelVersion]":
        """Every registered version, newest first (optionally one name)."""
        with self._lock:
            rows = self._metadata_rows()
        if name is not None:
            rows = [r for r in rows if r.name == name.lower()]
        return sorted(rows, key=lambda r: (r.name, -r.version))

    # ----------------------------------------------------------- internals
    def _ensure_metadata_table(self) -> None:
        if not self._db.catalog.has_table(REGISTRY_TABLE):
            self._db.create_table(REGISTRY_TABLE, _registry_schema())

    def _metadata_rows(self) -> "list[ModelVersion]":
        if not self._db.catalog.has_table(REGISTRY_TABLE):
            return []
        return [
            ModelVersion(
                model_id=int(row[0]),
                name=str(row[1]),
                version=int(row[2]),
                kind=str(row[3]),
                promoted=bool(row[4]),
                registered_at=int(row[5]),
            )
            for row in self._db.table(REGISTRY_TABLE).rows()
        ]

    def _store_components(
        self, name: str, version: int, components: "dict[str, Any]"
    ) -> None:
        for part, values in components.items():
            table = component_table(name, version, part)
            values = np.asarray(values, dtype=float)
            if values.ndim == 2:
                store_matrix(self._db, table, values)
            else:
                store_vector(self._db, table, values)

    def _load(self, row: ModelVersion) -> RegisteredModel:
        params: dict[str, np.ndarray] = {}
        for part, table in zip(_KINDS[row.kind].registry_parts, row.tables):
            if not self._db.catalog.has_table(table):
                raise RegistryError(
                    f"model {row.name!r} v{row.version} is missing its "
                    f"parameter table {table!r} (dropped?)"
                )
            # store_matrix keys its (j, x1..xd) layout by j; a vector
            # table is one row of x1..xk.
            matrix = self._db.table(table).schema.primary_key == "j"
            params[part] = (load_matrix if matrix else load_vector)(
                self._db, table
            )
        return RegisteredModel(
            name=row.name,
            version=row.version,
            kind=row.kind,
            promoted=row.promoted,
            spec=_KINDS[row.kind].scoring_spec(params),
        )

    def _on_drop(self, table_name: str) -> None:
        if table_name == REGISTRY_TABLE or table_name.startswith("mdl_"):
            self._loaded.clear()
