"""The system catalog: tables, views, and registered UDFs.

Name resolution is case-insensitive (like unquoted SQL identifiers).
Views store their defining SELECT AST; the planner expands them inline
as derived tables, which is how the paper's "X exists as a view"
scenario (Section 3.6) is executed.
"""

from __future__ import annotations

from typing import Callable

from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.functions import AGGREGATE_BUILTINS, SCALAR_BUILTINS
from repro.dbms.schema import TableSchema, validate_identifier
from repro.dbms.sql import ast
from repro.dbms.storage import Table
from repro.dbms.udf import AggregateUdf, ScalarUdf
from repro.errors import CatalogError, UdfRegistrationError


class Catalog:
    def __init__(self, default_partitions: int = 20) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ast.Select] = {}
        self._scalar_udfs: dict[str, ScalarUdf] = {}
        self._aggregate_udfs: dict[str, AggregateUdf] = {}
        self.default_partitions = default_partitions
        #: fault-injection plan handed to every table this catalog
        #: creates (storage-level ``insert.flush`` site); installed by
        #: ``Database(faults=...)``
        self.faults: FaultPlan | NullFaults = NULL_FAULTS
        #: callbacks fired with the lowercased table name after a DROP;
        #: caches keyed by table name (the model registry's loaded
        #: handles) subscribe here so a DROP — or DROP/CREATE of the same name — can't leave
        #: permanently dead entries behind
        self._drop_listeners: list[Callable[[str], object]] = []
        #: mutation listeners invoked as ``listener(op, name, payload)``
        #: after every committed DDL (create/drop table, create/drop
        #: view) *and* — because every table this catalog creates shares
        #: this very list — every committed data change.  One
        #: subscription here is the durability layer's single tap on the
        #: whole database (see :mod:`repro.dbms.wal`).
        self.mutation_listeners: list[Callable[[str, str, dict], object]] = []

    def install_faults(self, faults: "FaultPlan | NullFaults") -> None:
        """Point this catalog — and every existing table — at *faults*."""
        self.faults = faults
        for table in self._tables.values():
            table.faults = faults

    def add_mutation_listener(
        self, listener: Callable[[str, str, dict], object]
    ) -> None:
        """Invoke *listener(op, name, payload)* after every committed
        mutation — DDL through this catalog and DML on any of its
        tables (the tables share this listener list)."""
        self.mutation_listeners.append(listener)

    def _notify(self, op: str, name: str, payload: dict) -> None:
        for listener in self.mutation_listeners:
            listener(op, name, payload)

    # ------------------------------------------------------------------ tables
    def create_table(
        self,
        name: str,
        schema: TableSchema,
        partitions: int | None = None,
        row_scale: float = 1.0,
        if_not_exists: bool = False,
    ) -> Table:
        validate_identifier(name, "table name")
        key = name.lower()
        if key in self._tables or key in self._views:
            if if_not_exists and key in self._tables:
                return self._tables[key]
            raise CatalogError(f"table or view {name!r} already exists")
        table = Table(
            name,
            schema,
            partitions=partitions or self.default_partitions,
            row_scale=row_scale,
        )
        table.faults = self.faults
        table.mutation_listeners = self.mutation_listeners
        self._tables[key] = table
        if self.mutation_listeners:
            self._notify(
                "create_table",
                table.name,
                {
                    "columns": [
                        [c.name, c.sql_type.value, c.nullable]
                        for c in schema.columns
                    ],
                    "primary_key": schema.primary_key,
                    "partitions": table.partition_count,
                    "row_scale": table.row_scale,
                },
            )
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[key]
        for listener in self._drop_listeners:
            listener(key)
        if self.mutation_listeners:
            self._notify("drop_table", key, {})

    def add_drop_listener(self, listener: Callable[[str], object]) -> None:
        """Invoke *listener(lowercased_name)* after every table drop."""
        self._drop_listeners.append(listener)

    def table_names(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    # ------------------------------------------------------------------ views
    def create_view(
        self, name: str, select: ast.Select, or_replace: bool = False
    ) -> None:
        validate_identifier(name, "view name")
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"a table named {name!r} already exists")
        if key in self._views and not or_replace:
            raise CatalogError(f"view {name!r} already exists")
        self._views[key] = select
        if self.mutation_listeners:
            self._notify(
                "create_view",
                name,
                {"sql": ast.render(select), "or_replace": or_replace},
            )

    def view(self, name: str) -> ast.Select:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown view {name!r}") from None

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._views:
            if if_exists:
                return
            raise CatalogError(f"unknown view {name!r}")
        del self._views[key]
        if self.mutation_listeners:
            self._notify("drop_view", key, {})

    def view_names(self) -> list[str]:
        return sorted(self._views)

    # ------------------------------------------------------------------- UDFs
    def register_scalar_udf(self, udf: ScalarUdf) -> None:
        key = udf.name
        if key in SCALAR_BUILTINS or key in AGGREGATE_BUILTINS:
            raise UdfRegistrationError(
                f"cannot shadow builtin function {key!r}"
            )
        if key in self._scalar_udfs or key in self._aggregate_udfs:
            raise UdfRegistrationError(f"UDF {key!r} already registered")
        self._scalar_udfs[key] = udf

    def register_aggregate_udf(self, udf: AggregateUdf) -> None:
        key = udf.name
        if key in SCALAR_BUILTINS or key in AGGREGATE_BUILTINS:
            raise UdfRegistrationError(
                f"cannot shadow builtin function {key!r}"
            )
        if key in self._scalar_udfs or key in self._aggregate_udfs:
            raise UdfRegistrationError(f"UDF {key!r} already registered")
        self._aggregate_udfs[key] = udf

    def scalar_udf(self, name: str) -> ScalarUdf | None:
        return self._scalar_udfs.get(name.lower())

    def aggregate_udf(self, name: str) -> AggregateUdf | None:
        return self._aggregate_udfs.get(name.lower())

    def is_aggregate(self, name: str) -> bool:
        key = name.lower()
        return key in AGGREGATE_BUILTINS or key in self._aggregate_udfs

    def is_scalar_function(self, name: str) -> bool:
        key = name.lower()
        return key in SCALAR_BUILTINS or key in self._scalar_udfs
