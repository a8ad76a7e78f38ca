"""EXPLAIN plan trees: operators, optimizer decisions, cost estimates.

This is the introspection surface ``EXPLAIN [ANALYZE]`` exposes.  A
:class:`Plan` is built *analytically*: the statement is run through the
:class:`~repro.dbms.sql.optimizer.QueryOptimizer`, the optimized AST is
shaped into a tree of :class:`PlanNode` operators (scan, join, filter,
aggregate, project, sort, limit), and each operator is annotated with

* the optimizer decisions that produced it (eliminated joins, pushed
  predicates, group-by pushdown, partition fan-out), and
* its per-operator estimate in *simulated seconds*: the operator's
  :class:`~repro.dbms.cost.Work` record, filled by the same helpers the
  executor calls but from catalog row counts, priced by
  :func:`~repro.dbms.cost.simulate`.  Where the catalog knows the
  cardinalities (no WHERE, no GROUP BY) the plan's total is the
  simulated seconds ``execute()`` charges.

For ``EXPLAIN ANALYZE`` the executor runs the optimized statement under
a :class:`~repro.dbms.trace.Tracer` and calls :meth:`Plan.attach_trace`,
which pairs each operator with its measured :class:`~repro.dbms.trace.
Span` — per-operator wall clock, row counts, and the per-partition task
spans underneath the aggregate.  Estimated simulated seconds and actual
wall clock answer different questions (see ``docs/cost_model.md``) and
are deliberately shown side by side.

Plan shape is part of the public API: tests and benchmarks assert
things like "the nLQ model build is exactly one scan" via
:attr:`Plan.scans` instead of inferring it from timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.dbms.catalog import Catalog
from repro.dbms.cost import CostParameters, Work, record_aggregate, simulate
from repro.dbms.metrics import QueryMetrics
from repro.dbms.sql import ast
from repro.dbms.sql.factorize import plan_factorize
from repro.dbms.sql.optimizer import OptimizationReport, QueryOptimizer
from repro.dbms.sql.planner import select_aggregates
from repro.dbms.sql.vectorized import plan_vectorized_select
from repro.dbms.trace import Span


@dataclass
class PlanNode:
    """One operator of an EXPLAIN plan tree."""

    operator: str
    detail: str = ""
    #: analytical cost-model estimate for this operator alone
    estimated_seconds: float = 0.0
    #: estimated input/output cardinality where the catalog knows it
    estimated_rows: float | None = None
    #: optimizer decisions and structural annotations
    notes: list[str] = field(default_factory=list)
    children: list["PlanNode"] = field(default_factory=list)
    #: measured span, attached by EXPLAIN ANALYZE (None otherwise)
    span: Span | None = None

    def walk(self) -> Iterator["PlanNode"]:
        """This node and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, operator: str) -> list["PlanNode"]:
        return [node for node in self.walk() if node.operator == operator]

    @property
    def actual_seconds(self) -> float | None:
        """Measured wall clock (EXPLAIN ANALYZE only)."""
        return self.span.seconds if self.span is not None else None

    def render(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        line = f"{pad}{self.operator}: {self.detail}" if self.detail \
            else f"{pad}{self.operator}"
        if self.estimated_seconds:
            line += f"  [est {self.estimated_seconds:.3f}s]"
        if self.span is not None:
            lanes_read = self.span.attributes.get("lanes_read")
            lanes = f", lanes_read={lanes_read}" if lanes_read else ""
            line += f"  (actual {self.span.seconds * 1e3:.3f} ms{lanes})"
        lines = [line]
        for note in self.notes:
            lines.append(f"{pad}  note: {note}")
        if self.span is not None:
            # Executed-route annotations (ANALYZE only): which strategy
            # actually ran, and — on vectorized→row degradation — why.
            strategy = self.span.attributes.get("strategy")
            if strategy:
                lines.append(f"{pad}  strategy: {strategy}")
            reason = self.span.attributes.get("fallback_reason")
            if reason:
                lines.append(f"{pad}  fallback_reason: {reason}")
        if self.span is not None and self.span.children:
            for child_span in self.span.children:
                lines.extend(child_span.render(indent + 1))
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


@dataclass
class Plan:
    """A complete EXPLAIN result: operator tree + decisions (+ trace)."""

    statement: ast.Select
    root: PlanNode
    report: OptimizationReport
    analyze: bool = False
    #: filled by :meth:`attach_trace` after an ANALYZE execution
    trace: Span | None = None
    metrics: QueryMetrics | None = None

    @property
    def optimized(self) -> ast.Select:
        """The statement EXPLAIN described and ANALYZE executed."""
        return self.report.optimized

    def nodes(self) -> list[PlanNode]:
        return list(self.root.walk())

    def find(self, operator: str) -> list[PlanNode]:
        return self.root.find(operator)

    @property
    def scans(self) -> list[PlanNode]:
        """Every base-table scan in the plan (the paper's unit of cost:
        'one scan' is the claim EXPLAIN lets tests assert)."""
        return self.root.find("scan")

    @property
    def estimated_seconds(self) -> float:
        return sum(node.estimated_seconds for node in self.root.walk())

    # -------------------------------------------------------------- analyze
    def attach_trace(self, trace: Span, metrics: QueryMetrics) -> None:
        """Pair measured spans with plan operators after execution.

        Operators and spans are matched by name in preorder — both trees
        are produced from the same optimized statement, so the k-th
        ``aggregate`` span belongs to the k-th ``aggregate`` node (and
        likewise for scan/project/sort).  Join spans are emitted
        innermost-first by the left-deep evaluator while plan preorder
        lists them outermost-first, so that pairing is reversed.
        Per-partition spans nested under ``task`` spans stay with their
        aggregate; filters have no span of their own (predicate
        evaluation happens inside the scan or accumulation that absorbs
        it).
        """
        self.trace = trace
        self.metrics = metrics
        join_operators = ("join", "cross join", "left outer join")
        join_nodes = [
            node for node in self.root.walk()
            if node.operator in join_operators
        ]
        join_spans = _operator_spans(trace, "join")
        for node, span in zip(join_nodes, reversed(join_spans)):
            node.span = span
        for operator in ("scan", "aggregate", "sort"):
            nodes = self.root.find(operator)
            spans = _operator_spans(trace, operator)
            for node, span in zip(nodes, spans):
                node.span = span
        project_spans = _operator_spans(trace, "project")
        if not project_spans:
            # Aggregate queries fuse projection into finalization (one
            # pass packs states and builds output rows), so the project
            # operator's measured time is the finalize span.
            project_spans = _operator_spans(trace, "finalize")
        for node, span in zip(self.root.find("project"), project_spans):
            node.span = span
        if metrics.blocks_spilled:
            self.root.notes.append(
                f"spilled {metrics.blocks_spilled} cache blocks "
                f"({metrics.bytes_spilled} bytes) to disk under the "
                "block-cache byte budget"
            )

    # --------------------------------------------------------------- render
    def render(self) -> list[str]:
        header = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        lines = [header]
        lines.extend(self.root.render(1))
        lines.append(
            f"estimated simulated seconds: {self.estimated_seconds:.3f}"
        )
        if self.metrics is not None:
            lines.append(
                "actual wall-clock seconds: "
                f"{self.metrics.total_seconds:.6f} "
                f"(workers={self.metrics.workers}, "
                f"rows={self.metrics.rows_processed}, "
                f"partitions={self.metrics.partitions_processed})"
            )
            lines.append(
                f"statement cache hits: {self.metrics.statement_cache_hits}, "
                f"null scans: {self.metrics.null_scans}"
            )
        return lines

    def text(self) -> str:
        return "\n".join(self.render())


def _operator_spans(trace: Span, name: str) -> list[Span]:
    """Spans named *name* in preorder, excluding anything nested under a
    per-partition ``task`` span (those belong to the aggregate node that
    fanned them out, not to a plan operator of their own) and spans
    marked ``failed`` (a vectorized attempt that degraded to the row
    path — its replacement span is the one that pairs with the plan
    operator; the failed span stays visible in the raw trace)."""
    found: list[Span] = []

    def visit(span: Span) -> None:
        if span.name == "task":
            return
        if span.name == name and not span.attributes.get("failed"):
            found.append(span)
        for child in span.children:
            visit(child)

    visit(trace)
    return found


# ------------------------------------------------------------------ builder
def build_plan(
    catalog: Catalog,
    select: ast.Select,
    params: CostParameters,
    analyze: bool = False,
    vectorized_select: bool = True,
    factorized_joins: bool = True,
) -> Plan:
    """Build the plan tree EXPLAIN renders (and ANALYZE executes).

    *vectorized_select* and *factorized_joins* mirror the executor's
    toggles so the plan's strategy notes and join shape report what
    execution would really do.
    """
    report = QueryOptimizer(catalog).optimize(select)
    builder = _PlanBuilder(catalog, params, vectorized_select, factorized_joins)
    root = builder.select_node(report.optimized, report)
    return Plan(statement=select, root=root, report=report, analyze=analyze)


class _PlanBuilder:
    def __init__(
        self,
        catalog: Catalog,
        params: CostParameters,
        vectorized_select: bool = True,
        factorized_joins: bool = True,
    ) -> None:
        self._catalog = catalog
        self._params = params
        self._vectorized_select = vectorized_select
        self._factorized_joins = factorized_joins

    def _node(self, operator, detail, work: Work, rows, *children, notes=None):
        """An operator estimated at :func:`simulate` of its *work*."""
        seconds = simulate(work, self._params)
        return PlanNode(operator, detail, seconds, rows, notes or [], [*children])

    # ------------------------------------------------------------- operators
    def select_node(
        self,
        select: ast.Select,
        report: OptimizationReport | None = None,
        top: bool = True,
    ) -> PlanNode:
        """The plan of *select*; *top* is a statement of its own, which
        pays the statement overhead (a derived table or view does not)."""
        factorize_decision = None
        if select.joins and self._factorized_joins:
            factorize_decision = plan_factorize(self._catalog, select, report)
        if factorize_decision is not None and factorize_decision.factorized:
            current, rows, partitions = self._factorized_join_node(
                factorize_decision
            )
        else:
            current, rows, _ = self._input_tree(select)
            base = self._single_base_table(select)
            partitions = base.partition_count if base is not None else 1

        aggregates = select_aggregates(select, self._catalog.is_aggregate)
        aggregated = bool(aggregates or select.group_by)
        if select.where is not None:
            # Scalar UDFs in a WHERE are priced on the projection path
            # only, as the executor does.
            work = Work()
            scalar_udf = None if aggregated else self._catalog.scalar_udf
            work.evaluate(rows, [select.where], scalar_udf)
            current = self._node(
                "filter", ast.render(select.where), work, rows, current
            )
        if aggregated:
            current = self._aggregate_node(
                select, aggregates, rows, partitions, current
            )
            rows = 1.0  # the catalog knows no group count

        # Parse the select list, then build the result relation: from the
        # group states after an aggregate, else per input row and spooled.
        width = len(select.items)
        work = Work()
        if top:
            work.statement(width)
        if aggregated:
            work.result(rows, width)
        else:
            expressions = [item.expression for item in select.items]
            work.evaluate(rows, expressions, self._catalog.scalar_udf)
            work.spool(rows, width)
        current = self._node("project", f"{width} columns", work, rows, current)
        if not aggregated:
            self._annotate_projection_strategy(select, current)

        if select.order_by:
            keys = ", ".join(
                ast.render(expr) + ("" if ascending else " DESC")
                for expr, ascending in select.order_by
            )
            work = Work()
            work.sort(rows)
            current = self._node("sort", keys, work, rows, current)
        if select.limit is not None:
            current = PlanNode(
                "limit", str(select.limit), estimated_rows=float(select.limit),
                children=[current],
            )

        if report is not None:
            current.notes.extend(
                f"join eliminated: {binding} (unused, cardinality-safe)"
                for binding in report.eliminated_joins
            )
            if report.pushed_group_by:
                current.notes.append(
                    "group-by pushed below the join (pre-aggregated fact)"
                )
            current.notes.extend(
                f"predicate pushed into subquery: {predicate}"
                for predicate in report.pushed_predicates
            )
        if (
            factorize_decision is not None
            and not factorize_decision.factorized
            and aggregated
        ):
            current.notes.append(
                f"factorized-join refused: {factorize_decision.reason}"
            )
        return current

    def _factorized_join_node(self, decision) -> tuple[PlanNode, float, int]:
        """The factorized replacement for a star-join input tree: (node,
        fact rows, partials merged).  One scan per base table, partials
        combined through the FK->PK keys; the operator adds no work of
        its own.  The note carries the avoided-rows accounting: a
        nested-loop join reads |fact| + Sum_i |fact| x |dim_i| input
        rows, the factorized path reads Sum |base tables|."""
        children: list[PlanNode] = []
        fact = self._catalog.table(decision.fact_table)
        fact_rows = fact.nominal_rows
        scanned = 0.0
        nested_loop_reads = 0.0
        partitions = fact.partition_count
        for dim in decision.dims:
            node, dim_rows, _ = self._source_node(
                ast.TableName(dim.table, alias=dim.binding)
            )
            node.notes.append(
                f"dimension arm: {dim.binding}.{dim.dim_key} = "
                f"{decision.fact_binding}.{dim.fact_key} (key -> partial map)"
            )
            children.append(node)
            scanned += dim_rows
            nested_loop_reads += fact_rows * (1 + dim_rows)
            partitions += self._catalog.table(dim.table).partition_count
        fact_node, _, _ = self._source_node(
            ast.TableName(decision.fact_table, alias=decision.fact_binding)
        )
        children.append(fact_node)
        scanned += fact_rows
        avoided = max(0.0, nested_loop_reads - scanned)
        node = PlanNode(
            "factorized-join",
            f"{decision.fact_table} star over {len(decision.dims)} "
            f"dimension(s), shape {decision.shape}",
            estimated_rows=fact_rows,
            notes=[
                f"factorized-join: scans {scanned:.0f} base-table rows "
                f"instead of ~{nested_loop_reads:.0f} nested-loop input "
                f"reads ({avoided:.0f} rows avoided)"
            ],
            children=children,
        )
        return node, fact_rows, partitions

    def _input_tree(self, select: ast.Select) -> tuple[PlanNode, float, int]:
        """The FROM clause as a left-deep tree: (node, est rows, width).

        Nested-loop joins spool their output; without statistics we
        estimate it at the larger input (the PK-join and one-row
        model-table shapes the workload actually uses)."""
        if not select.from_sources:
            return PlanNode("values", "1 row", estimated_rows=1.0), 1.0, 0
        joins = [("cross join", "", source) for source in select.from_sources]
        for join in select.joins:
            if join.condition is None:
                joins.append(("cross join", "", join.source))
            else:
                operator = "left outer join" if join.outer else "join"
                detail = f"on {ast.render(join.condition)}"
                joins.append((operator, detail, join.source))
        current, rows, width = self._source_node(joins[0][2])
        for operator, detail, source in joins[1:]:
            right, right_rows, right_width = self._source_node(source)
            rows, width = max(rows, right_rows), width + right_width
            work = Work()
            work.spool(rows, width)
            current = self._node(operator, detail, work, rows, current, right)
        return current, rows, width

    def _source_node(
        self, source: ast.FromSource
    ) -> tuple[PlanNode, float, int]:
        """One FROM source: (node, est rows, width)."""
        if isinstance(source, ast.DerivedTable):
            child = self.select_node(source.select, top=False)
            rows = child.estimated_rows or 1.0
            width = len(source.select.items)
            work = Work()
            work.spool(rows, width)
            work.scan(rows, width)
            detail = f"{source.alias} (spooled and re-scanned)"
            return self._node("subquery", detail, work, rows, child), rows, width
        if self._catalog.has_view(source.name):
            view = self._catalog.view(source.name)
            child = self.select_node(view, top=False)
            rows = child.estimated_rows or 1.0
            detail = f"{source.name} (expanded inline)"
            node = self._node("view", detail, Work(), rows, child)
            return node, rows, len(view.items)
        table = self._catalog.table(source.name)
        rows = table.nominal_rows
        work = Work()
        work.scan(rows, table.width)
        node = self._node(
            "scan",
            f"table {table.name} ({rows:.0f} rows x {table.width} cols, "
            f"{table.partition_count} partitions)",
            work,
            rows,
        )
        config = getattr(self._catalog, "cache_config", None)
        if config is not None and config.max_bytes is not None:
            node.notes.append(
                f"block cache budget {config.max_bytes} bytes "
                f"({config.max_entries} entries): LRU eviction spills "
                "cold blocks to disk"
            )
        return node, rows, table.width

    def _aggregate_node(
        self,
        select: ast.Select,
        aggregates,
        rows: float,
        partitions: int,
        child: PlanNode,
    ) -> PlanNode:
        names = ", ".join(a.call.name for a in aggregates)
        keys = ", ".join(ast.render(g) for g in select.group_by) or "()"
        notes: list[str] = []
        base = self._single_base_table(select)
        if base is not None:
            notes.append(
                f"fan-out: {base.non_empty_partition_count} partition tasks "
                f"over {base.partition_count} partitions of {base.name}"
            )
            notes.append("single-scan aggregation (no spool between scans)")
        udfs = []
        for aggregate in aggregates:
            udf = self._catalog.aggregate_udf(aggregate.call.name)
            if udf is None:
                continue
            udfs.append((udf, len(aggregate.call.args)))
            notes.append(
                f"aggregate UDF {udf.name}: "
                f"{udf.state_value_count()} state values/partition, "
                f"merged across {partitions} partials"
            )
            if getattr(udf, "fused_iteration", False):
                notes.append(
                    f"fused clustering iteration ({udf.name}): assignment "
                    "+ (N, L, Q) accumulation in one scan"
                )
        work = Work()
        record_aggregate(
            work, select, rows, udfs, partitions, 1, self._catalog.scalar_udf
        )
        detail = f"[{names}] group by {keys}"
        return self._node("aggregate", detail, work, rows, child, notes=notes)

    def _annotate_projection_strategy(
        self, select: ast.Select, project_node: PlanNode
    ) -> None:
        """Note whether the projection runs block-wise or row-wise.

        Runs the same :func:`plan_vectorized_select` analysis the
        executor runs, so the EXPLAIN note and actual execution can
        never disagree.  Only single-base-table shapes get a note at
        all — joins and derived tables are self-evidently row-wise.
        """
        if self._single_base_table(select) is None:
            return
        if not self._vectorized_select:
            project_node.notes.append(
                "strategy: row-scan (vectorized SELECT disabled)"
            )
            return
        decision = plan_vectorized_select(self._catalog, select)
        if decision.plan is not None:
            table = decision.plan.table
            detail = (
                f"{table.non_empty_partition_count} partition tasks over "
                f"{table.partition_count} partitions of {table.name}"
            )
            if decision.plan.batch_udf_names:
                detail += "; batched UDFs: " + ", ".join(
                    decision.plan.batch_udf_names
                )
            project_node.notes.append(f"strategy: vectorized-scan ({detail})")
        else:
            project_node.notes.append(
                f"strategy: row-scan ({decision.reason})"
            )

    def _single_base_table(self, select: ast.Select):
        """The single stored table a one-source, no-join SELECT scans —
        the shape whose aggregation is partition-parallel."""
        if select.joins or len(select.from_sources) != 1:
            return None
        source = select.from_sources[0]
        if not isinstance(source, ast.TableName):
            return None
        if not self._catalog.has_table(source.name):
            return None
        return self._catalog.table(source.name)
