"""Guarded batch rewrites over plan trees: scan consolidation.

Every technique in the paper consumes the same sufficient statistics
(n, L, Q), so a warehouse session that builds N models over one table
naturally issues N aggregate statements over the same scan target — and
pays N scans.  This module is the rewrite layer that removes the
structural redundancy: a small framework of **guarded rules** that
inspect a batch of statements, prove a rewrite changes no statement's
result, and annotate the resulting :class:`~repro.dbms.sql.plan.Plan`
with the decisions EXPLAIN renders.

Two rules ship today:

* :class:`ScanConsolidationRule` — N single-table aggregate statements
  over the same stored table share ONE partition-parallel scan feeding
  N accumulator states per task (the executor's ``execute_batch``).
  Identical statements additionally collapse to one accumulation
  (duplicate elimination) — three model builds over the same columns
  are the *same* summary statement.
* :class:`PredicatePushbackRule` — decides where statement-local WHERE
  predicates run: pushed into the shared scan when every statement
  filters identically, hoisted to per-statement late filters (applied
  row-by-row inside the shared scan, never across statements) when they
  differ.  Either way each statement sees exactly the rows its serial
  execution would.

A rule that cannot prove safety refuses, recording why; a refused batch
falls back to serial execution with every statement untouched.  The
bench harness adds the outer "gates before treatment" check
(:func:`repro.bench.harness.plan_shape_gate`): a rewrite that would
regress plan shape is rejected before it is ever trusted with a
benchmark number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.dbms.catalog import Catalog
from repro.dbms.cost import CostParameters
from repro.dbms.sql import ast
from repro.dbms.sql.optimizer import QueryOptimizer
from repro.dbms.sql.plan import Plan, PlanNode, _PlanBuilder
from repro.dbms.sql.planner import find_aggregates


@dataclass
class BatchDecision:
    """What the rewrite pass decided for one batch of statements.

    ``distinct`` holds input indices of the first occurrence of each
    textually distinct statement; ``assignment`` maps every input index
    to its position in ``distinct`` (so duplicate statements share one
    accumulation and one result relation).
    """

    consolidated: bool
    #: the shared stored table (consolidated batches only)
    table: str | None = None
    #: why consolidation was refused (``None`` when consolidated)
    reason: str | None = None
    #: optimizer-decision annotations, rendered by EXPLAIN
    notes: list[str] = field(default_factory=list)
    #: input indices of the distinct statements, first-appearance order
    distinct: list[int] = field(default_factory=list)
    #: input index -> position in ``distinct``
    assignment: list[int] = field(default_factory=list)


@dataclass
class BatchContext:
    """Mutable state the rewrite rules inspect and annotate."""

    catalog: Catalog
    selects: list[ast.Select]
    decision: BatchDecision


class RewriteRule:
    """One guarded rewrite: applies only when provably semantics-free."""

    name = "rewrite"

    def apply(self, context: BatchContext) -> None:  # pragma: no cover
        raise NotImplementedError


class ScanConsolidationRule(RewriteRule):
    """Prove N statements share one scan; dedupe identical statements.

    Guards (all-or-nothing — one ineligible statement refuses the whole
    batch, because a partially consolidated batch would report a plan
    shape no statement actually ran):

    * every statement is a SELECT over exactly one stored base table
      (no joins, views, or derived tables),
    * every statement aggregates (aggregate calls or GROUP BY — the
      executor's aggregate path, whose per-partition partial states are
      what the shared scan feeds),
    * all statements name the same table.

    GROUP BY, HAVING, ORDER BY, LIMIT, DISTINCT aggregates and
    statement-local WHERE clauses are all allowed: they run per
    statement, after (or during) the shared scan, exactly as their
    serial execution would.
    """

    name = "scan-consolidation"

    def apply(self, context: BatchContext) -> None:
        decision = context.decision
        selects = context.selects
        if len(selects) < 2:
            decision.reason = "batch of one statement (nothing to share)"
            return
        tables: list[str] = []
        for index, select in enumerate(selects):
            blocker = self._blocker(context.catalog, select, index)
            if blocker is not None:
                decision.reason = blocker
                return
            tables.append(select.from_sources[0].name.lower())
        if len(set(tables)) != 1:
            decision.reason = (
                f"statements scan different tables: {sorted(set(tables))}"
            )
            return

        decision.consolidated = True
        decision.table = tables[0]
        seen: dict[str, int] = {}
        for index, select in enumerate(selects):
            key = ast.render(select)
            position = seen.get(key)
            if position is None:
                position = len(decision.distinct)
                seen[key] = position
                decision.distinct.append(index)
            decision.assignment.append(position)
        duplicates = len(selects) - len(decision.distinct)
        note = (
            f"scan consolidation: {len(selects)} statements share one "
            f"scan of {decision.table} "
            f"({len(decision.distinct)} accumulator passes per partition task)"
        )
        decision.notes.append(note)
        if duplicates:
            decision.notes.append(
                f"duplicate elimination: {duplicates} repeated "
                f"statement{'s' if duplicates > 1 else ''} fold into the "
                "first occurrence's accumulation"
            )

    @staticmethod
    def _blocker(
        catalog: Catalog, select: ast.Select, index: int
    ) -> str | None:
        """Why statement *index* cannot join a shared scan (or None)."""
        if not isinstance(select, ast.Select):
            return f"statement {index + 1} is not a SELECT"
        if select.joins or len(select.from_sources) != 1:
            return (
                f"statement {index + 1} reads more than one source "
                "(joins have their own scan structure)"
            )
        source = select.from_sources[0]
        if not isinstance(source, ast.TableName):
            return (
                f"statement {index + 1} reads a derived table "
                "(spooled, not a shareable base scan)"
            )
        if catalog.has_view(source.name):
            return (
                f"statement {index + 1} reads view {source.name!r} "
                "(expanded per statement, not a shareable base scan)"
            )
        if not catalog.has_table(source.name):
            return f"statement {index + 1} reads unknown table {source.name!r}"
        expressions = [item.expression for item in select.items]
        if select.having is not None:
            expressions.append(select.having)
        calls = find_aggregates(expressions, catalog.is_aggregate)
        if not calls and not select.group_by:
            return (
                f"statement {index + 1} is not an aggregate "
                "(projections stream rows out; only accumulator states "
                "can share a scan)"
            )
        return None


class PredicatePushbackRule(RewriteRule):
    """Decide where statement-local predicates run inside a shared scan.

    When every statement carries the identical WHERE, the predicate is
    effectively pushed into the shared scan (evaluated once per row per
    statement, but structurally one filter).  When they differ, each
    statement's predicate is hoisted to a late filter evaluated against
    the shared scan's rows for that statement only.  Both forms keep
    every statement's visible row set identical to serial execution —
    the rule only annotates which shape the plan has.
    """

    name = "predicate-pushback"

    def apply(self, context: BatchContext) -> None:
        decision = context.decision
        if not decision.consolidated:
            return
        wheres = [
            None
            if context.selects[index].where is None
            else ast.render(context.selects[index].where)
            for index in decision.distinct
        ]
        filtered = [text for text in wheres if text is not None]
        if not filtered:
            return
        if len(set(filtered)) == 1 and len(filtered) == len(wheres):
            decision.notes.append(
                f"predicate pushed to the shared scan: {filtered[0]} "
                "(identical across all statements)"
            )
        else:
            decision.notes.append(
                f"late filters: {len(filtered)} statement-local "
                "predicate(s) evaluated inside the shared scan "
                "(no pushdown across statements)"
            )


#: the rewrite pipeline, applied in order
BATCH_RULES: "tuple[RewriteRule, ...]" = (
    ScanConsolidationRule(),
    PredicatePushbackRule(),
)


def plan_batch(
    catalog: Catalog, selects: Sequence[ast.Select]
) -> BatchDecision:
    """Run the guarded rewrite rules over *selects*.

    Returns the :class:`BatchDecision` the executor (and
    ``EXPLAIN``-style introspection) consumes.  A refusal is not an
    error: the decision simply records ``consolidated=False`` plus the
    first guard that failed, and the caller executes serially.
    """
    decision = BatchDecision(consolidated=False)
    context = BatchContext(catalog, list(selects), decision)
    for rule in BATCH_RULES:
        rule.apply(context)
    if decision.consolidated:
        # The rewrite layer's own internal gate, mirroring the bench
        # harness's "gates before treatment": consolidation must strictly
        # reduce scan count, never grow it.  One shared scan versus one
        # scan per statement always passes for len >= 2; the check is
        # kept explicit so a future rule that could regress shape fails
        # loudly here instead of shipping a worse plan.
        scans_before = len(selects)
        scans_after = 1
        if scans_after > scans_before:  # pragma: no cover - defensive
            decision.consolidated = False
            decision.reason = (
                f"plan-shape gate: rewrite would grow scans "
                f"{scans_before} -> {scans_after}"
            )
            decision.notes.clear()
        else:
            decision.notes.append(
                f"plan-shape gate: scans {scans_before} -> {scans_after} (pass)"
            )
    return decision


def build_batch_plan(
    catalog: Catalog,
    selects: Sequence[ast.Select],
    params: CostParameters,
    decision: BatchDecision,
    vectorized_select: bool = True,
) -> Plan:
    """The EXPLAIN plan for a statement batch.

    A consolidated batch renders one ``scan`` node — the first distinct
    statement keeps its scan; every later distinct statement's scan is
    rewritten to a ``shared-scan`` marker that estimates zero seconds
    and notes which scan serves it — so ``len(plan.scans) == 1`` is the
    structural claim tests assert.  A refused batch keeps all N scans
    and carries the refusal note.  Building the plan is analytical only
    and charges no simulated time.
    """
    if not selects:
        raise ValueError("empty statement batch")
    builder = _PlanBuilder(catalog, params, vectorized_select)
    optimizer = QueryOptimizer(catalog)
    report = optimizer.optimize(selects[0])
    root = PlanNode("batch", f"{len(selects)} statements")
    root.notes.extend(decision.notes)
    if decision.reason is not None:
        root.notes.append(f"scan consolidation refused: {decision.reason}")
    if decision.consolidated:
        for position, input_index in enumerate(decision.distinct):
            child_report = optimizer.optimize(selects[input_index])
            node = builder.select_node(child_report.optimized, child_report)
            if position > 0:
                for scan in node.find("scan"):
                    scan.operator = "shared-scan"
                    scan.notes.append(
                        "served by the consolidated scan of statement 1"
                    )
                    scan.estimated_seconds = 0.0
            inputs = [
                index + 1
                for index, assigned in enumerate(decision.assignment)
                if assigned == position
            ]
            if len(inputs) > 1:
                node.notes.append(
                    f"shared by input statements {inputs} "
                    "(duplicate elimination)"
                )
            root.children.append(node)
    else:
        for select in selects:
            child_report = optimizer.optimize(select)
            root.children.append(
                builder.select_node(child_report.optimized, child_report)
            )
    return Plan(statement=selects[0], root=root, report=report)
