"""Index-aware statement planning for the RDB engine.

The planner turns ``ast.Select``/``ast.Update``/``ast.Delete`` into
compiled, index-aware access paths so per-operation cost scales with the
*request* rather than the database — the feasibility property the paper's
Section 5/6 measurements rest on:

* **Access-path selection** — equality conjuncts in WHERE are matched
  against the table's primary-key/unique hash indexes (point lookup) and
  single-column secondary indexes (index probe); range conjuncts (``<``,
  ``<=``, ``>``, ``>=``, ``BETWEEN``) and prefix ``LIKE`` match ordered
  indexes (range/prefix scan); only when nothing applies does the plan
  fall back to a full scan.  Competing paths are ranked by estimated
  cardinality from table statistics (row counts and per-column distinct
  counts, both O(1) reads off incrementally maintained index structures).
* **Index-ordered scans** — ``ORDER BY`` on an ordered-indexed column of
  the first pipeline table walks the index in key order instead of
  sorting, and ``LIMIT`` then stops after the first rows.
* **Join reordering** — all-INNER joins are replanned from a shared
  predicate pool: the most selective access path starts the pipeline and
  remaining tables join greedily by estimated cardinality (the SPARQL
  translator's star-shaped joins are the main beneficiary).  LEFT/CROSS
  joins keep their written order, which their semantics require.
* **Predicate pushdown** — WHERE is split into conjuncts and each runs at
  the earliest pipeline stage where all referenced bindings are bound:
  base-table filters during the scan, single-table filters of an INNER
  join inside the hash-join build side, join-spanning filters right after
  their join.  Filters on the right side of a LEFT JOIN run only after
  null extension, preserving SQL semantics.
* **Compiled expressions** — every expression is compiled once per
  statement into a closure over a tuple-based scope
  (:func:`repro.rdb.expressions.compile_expression`); per-row work is
  tuple indexing, not tree walking.
* **Streaming joins** — hash-join build sides consume the storage scan
  iterator directly (no per-row dict copies); probes extend scope tuples
  instead of rebuilding dicts.

Plans are cached per statement AST (frozen dataclasses hash) in an LRU;
DDL invalidates the cache through :meth:`Planner.invalidate`.  Statistics
are read at plan time, so a cached plan keeps its shape until the next
DDL — stale statistics can cost performance, never correctness.

Setting :attr:`Planner.force_scan` disables every index path, join
reordering, and hash joins: base tables are always scanned and joins run
as naive nested loops.  The differential-testing harness uses this as the
semantic oracle every planner-chosen plan is compared against (toggle it
before any plan is cached, or call :meth:`Planner.invalidate` after).
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..context import RequestContext, current_context
from ..errors import DatabaseError
from ..observability.metrics import EXECUTOR_ROWS, ROWS_SCANNED
from ..sql import ast
from ..sql.render import render_expression
from .catalog import Schema
from .expressions import (
    AGGREGATE_FUNCTIONS,
    Compiled,
    Rows,
    ScopeLayout,
    combine_binary,
    combine_unary,
    compile_expression,
)
from .storage import UNBOUNDED, TableData
from .types import DateType, StringType

__all__ = [
    "Planner",
    "CompiledSelect",
    "CompiledMutation",
    "StaleSnapshotError",
]

Row = Dict[str, Any]

_PLAN_CACHE_SIZE = 256

# Resolved once: counting a statement's rows is one sharded add.
_ROWS_SELECT = EXECUTOR_ROWS.labels("select")


class StaleSnapshotError(DatabaseError):
    """Raised when a plan is requested for a snapshot whose planner
    generation no longer matches the live schema — a DDL statement ran in
    between.  Callers retry on a fresh snapshot (the query has not read
    anything yet, so restarting is always safe)."""


# ---------------------------------------------------------------------------
# WHERE decomposition helpers
# ---------------------------------------------------------------------------

def _split_conjuncts(expr: Optional[ast.Expression]) -> List[ast.Expression]:
    """Flatten a tree of ANDs into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _referenced_slots(expr: ast.Expression, layout: ScopeLayout) -> Set[int]:
    """All scope slots an expression reads (resolving names eagerly)."""
    slots: Set[int] = set()

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.ColumnRef):
            slots.add(layout.resolve(node)[0])
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return slots


class _Conjunct:
    """One WHERE/ON conjunct with its compiled form and slot footprint."""

    __slots__ = ("expr", "fn", "slots", "stage")

    def __init__(self, expr: ast.Expression, layout: ScopeLayout) -> None:
        self.expr = expr
        self.slots = frozenset(_referenced_slots(expr, layout))
        self.fn = compile_expression(expr, layout)
        self.stage = max(self.slots) if self.slots else 0


def _column_eq_const(
    expr: ast.Expression, slot: int, layout: ScopeLayout
) -> Optional[Tuple[str, ast.Expression]]:
    """Match ``<slot's column> = <expression over no bindings>``."""
    if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
        return None
    sides = [expr.left, expr.right]
    for i, side in enumerate(sides):
        other = sides[1 - i]
        if not isinstance(side, ast.ColumnRef):
            continue
        if layout.resolve(side) != (slot, side.name):
            continue
        if not _referenced_slots(other, layout):
            return side.name, other
    return None


_FLIPPED_COMPARISON = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _RangeMatch:
    """One conjunct recognized as a range or prefix bound on a column.

    ``lo``/``hi`` are bound expressions over no bindings (or None);
    ``prefix`` is the literal prefix of a ``LIKE 'abc%'`` conjunct.
    """

    __slots__ = ("column", "lo", "lo_inclusive", "hi", "hi_inclusive", "prefix")

    def __init__(
        self,
        column: str,
        lo: Optional[ast.Expression] = None,
        lo_inclusive: bool = True,
        hi: Optional[ast.Expression] = None,
        hi_inclusive: bool = True,
        prefix: Optional[str] = None,
    ) -> None:
        self.column = column
        self.lo = lo
        self.lo_inclusive = lo_inclusive
        self.hi = hi
        self.hi_inclusive = hi_inclusive
        self.prefix = prefix


def _match_range_conjunct(
    expr: ast.Expression, slot: int, layout: ScopeLayout
) -> Optional[_RangeMatch]:
    """Match a conjunct shaped like ``<slot's column> (<|<=|>|>=) const``,
    ``column BETWEEN const AND const``, or ``column LIKE 'prefix%'``."""
    if isinstance(expr, ast.BinaryOp) and expr.op in _FLIPPED_COMPARISON:
        sides = [expr.left, expr.right]
        for i, side in enumerate(sides):
            other = sides[1 - i]
            if not isinstance(side, ast.ColumnRef):
                continue
            if layout.resolve(side) != (slot, side.name):
                continue
            if _referenced_slots(other, layout):
                continue
            op = expr.op if i == 0 else _FLIPPED_COMPARISON[expr.op]
            if op == "<":
                return _RangeMatch(side.name, hi=other, hi_inclusive=False)
            if op == "<=":
                return _RangeMatch(side.name, hi=other, hi_inclusive=True)
            if op == ">":
                return _RangeMatch(side.name, lo=other, lo_inclusive=False)
            return _RangeMatch(side.name, lo=other, lo_inclusive=True)
    if isinstance(expr, ast.Between) and not expr.negated:
        operand = expr.operand
        if (
            isinstance(operand, ast.ColumnRef)
            and layout.resolve(operand) == (slot, operand.name)
            and not _referenced_slots(expr.low, layout)
            and not _referenced_slots(expr.high, layout)
        ):
            return _RangeMatch(operand.name, lo=expr.low, hi=expr.high)
    if isinstance(expr, ast.Like) and not expr.negated:
        operand = expr.operand
        pattern = expr.pattern
        if (
            isinstance(operand, ast.ColumnRef)
            and isinstance(pattern, ast.Literal)
            and isinstance(pattern.value, str)
            and layout.resolve(operand) == (slot, operand.name)
        ):
            text = pattern.value
            if (
                len(text) > 1
                and text.endswith("%")
                and "%" not in text[:-1]
                and "_" not in text
            ):
                return _RangeMatch(operand.name, prefix=text[:-1])
    return None


def _filtered(
    scopes: Iterator[Rows],
    predicates: Sequence[Compiled],
    parameters: Sequence[Any],
) -> Iterator[Rows]:
    for scope in scopes:
        for fn in predicates:
            if fn(scope, parameters) is not True:
                break
        else:
            yield scope


# ---------------------------------------------------------------------------
# base-table access paths
# ---------------------------------------------------------------------------

class _BaseAccess:
    """How the first (or only) table of a statement is read.

    ``kind`` is ``'point'`` (unique-index lookup), ``'probe'``
    (secondary-index equality), ``'range'`` / ``'prefix'`` (ordered-index
    walk), ``'ordered'`` (full ordered-index scan for ORDER BY), or
    ``'scan'``.  Residual predicates are the stage-0 conjuncts not
    consumed by the chosen index.
    """

    def __init__(
        self,
        table_name: str,
        kind: str,
        *,
        index_columns: Tuple[str, ...] = (),
        index_label: str = "",
        key_fns: Sequence[Compiled] = (),
        probe_column: str = "",
        probe_fn: Optional[Compiled] = None,
        range_column: str = "",
        lo_fn: Optional[Compiled] = None,
        hi_fn: Optional[Compiled] = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        prefix: str = "",
        descending: bool = False,
        residual: Sequence[_Conjunct] = (),
    ) -> None:
        self.table_name = table_name
        self.kind = kind
        self.index_columns = index_columns
        self.index_label = index_label
        self.key_fns = tuple(key_fns)
        self.probe_column = probe_column
        self.probe_fn = probe_fn
        self.range_column = range_column
        self.lo_fn = lo_fn
        self.hi_fn = hi_fn
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive
        self.prefix = prefix
        self.descending = descending
        self.residual = tuple(c.fn for c in residual)

    def rowid_scopes(
        self, data: Dict[str, TableData], parameters: Sequence[Any]
    ) -> Iterator[Tuple[int, Rows]]:
        """Yield (rowid, scope tuple) pairs for matching rows."""
        table_data = data[self.table_name]
        if self.kind == "point":
            key = tuple(fn((), parameters) for fn in self.key_fns)
            if any(v is None for v in key):
                return  # `col = NULL` never matches
            rowid = table_data.find_by_unique(self.index_columns, key)
            if rowid is None:
                return
            pairs: Iterable[Tuple[int, Row]] = ((rowid, table_data.rows[rowid]),)
        elif self.kind == "probe":
            assert self.probe_fn is not None
            value = self.probe_fn((), parameters)
            if value is None:
                return
            pairs = table_data.rows_for_value(self.probe_column, value)
        elif self.kind == "range":
            index = table_data.ordered_indexes[self.range_column]
            lo = self.lo_fn((), parameters) if self.lo_fn is not None else UNBOUNDED
            hi = self.hi_fn((), parameters) if self.hi_fn is not None else UNBOUNDED
            rows = table_data.rows
            pairs = (
                (rowid, rows[rowid])
                for rowid in index.range_rowids(
                    lo, hi, self.lo_inclusive, self.hi_inclusive, self.descending
                )
            )
        elif self.kind == "prefix":
            index = table_data.ordered_indexes[self.range_column]
            rows = table_data.rows
            pairs = (
                (rowid, rows[rowid])
                for rowid in index.prefix_rowids(self.prefix)
            )
        elif self.kind == "ordered":
            index = table_data.ordered_indexes[self.range_column]
            rows = table_data.rows
            pairs = (
                (rowid, rows[rowid])
                for rowid in index.ordered_rowids(self.descending)
            )
        else:
            pairs = table_data.scan()
        residual = self.residual
        scanned = 0
        try:
            for rowid, row in pairs:
                scanned += 1
                scope = (row,)
                for fn in residual:
                    if fn(scope, parameters) is not True:
                        break
                else:
                    yield rowid, scope
        finally:
            # One sharded-counter add per statement, not per row: the
            # local integer is the only per-row cost.
            if scanned:
                ROWS_SCANNED.inc(scanned)

    def describe(self) -> str:
        suffix = f" + {len(self.residual)} filter(s)" if self.residual else ""
        if self.kind == "point":
            return (
                f"{self.table_name}: point lookup via {self.index_label} "
                f"({', '.join(self.index_columns)})" + suffix
            )
        if self.kind == "probe":
            return f"{self.table_name}: index probe on {self.probe_column}" + suffix
        if self.kind == "range":
            lo = "(" if self.lo_fn is None else ("[" if self.lo_inclusive else "(")
            hi = ")" if self.hi_fn is None else ("]" if self.hi_inclusive else ")")
            direction = " desc" if self.descending else ""
            return (
                f"{self.table_name}: range scan{direction} on "
                f"{self.range_column} {lo}lo..hi{hi} via ordered index" + suffix
            )
        if self.kind == "prefix":
            return (
                f"{self.table_name}: prefix scan on {self.range_column} "
                f"(LIKE {self.prefix!r}...) via ordered index" + suffix
            )
        if self.kind == "ordered":
            direction = "desc" if self.descending else "asc"
            return (
                f"{self.table_name}: index-ordered scan on "
                f"{self.range_column} {direction}" + suffix
            )
        return f"{self.table_name}: full scan" + suffix


class _RangeSpec:
    """Range bounds on one column accumulated from several conjuncts."""

    __slots__ = ("column", "lo", "lo_inclusive", "hi", "hi_inclusive", "consumed")

    def __init__(self, column: str) -> None:
        self.column = column
        self.lo: Optional[ast.Expression] = None
        self.lo_inclusive = True
        self.hi: Optional[ast.Expression] = None
        self.hi_inclusive = True
        self.consumed: List[_Conjunct] = []

    def absorb(self, match: _RangeMatch, conjunct: _Conjunct) -> None:
        """Take this conjunct's bounds unless a side is already set (a
        second bound on the same side stays a residual filter)."""
        if match.lo is not None and self.lo is not None:
            return
        if match.hi is not None and self.hi is not None:
            return
        if match.lo is None and match.hi is None:
            return
        if match.lo is not None:
            self.lo, self.lo_inclusive = match.lo, match.lo_inclusive
        if match.hi is not None:
            self.hi, self.hi_inclusive = match.hi, match.hi_inclusive
        self.consumed.append(conjunct)


def _prefix_capable(table, column: str) -> bool:
    """LIKE-prefix index scans are sound only when every stored value is
    a string (LIKE matches ``str(value)``, which diverges for numbers)."""
    return isinstance(table.column(column).sql_type, (StringType, DateType))


def _choose_base_access(
    schema: Schema,
    data: Dict[str, TableData],
    table_name: str,
    slot: int,
    layout: ScopeLayout,
    conjuncts: List[_Conjunct],
) -> _BaseAccess:
    """Pick the access path with the lowest estimated cardinality.

    Unique-index point lookups always win.  Otherwise equality probes,
    range scans, and prefix scans compete on estimated rows produced —
    ``rows / distinct`` for probes (statistics are O(1) reads off the
    index structures), ``rows / 3-4`` for ranges — with the full scan as
    the fallback.
    """
    candidates: Dict[str, Tuple[ast.Expression, _Conjunct]] = {}
    for conjunct in conjuncts:
        match = _column_eq_const(conjunct.expr, slot, layout)
        if match is not None and match[0] not in candidates:
            candidates[match[0]] = (match[1], conjunct)

    table = schema.table(table_name)
    if candidates:
        unique_sets: List[Tuple[str, Tuple[str, ...]]] = []
        if table.primary_key:
            unique_sets.append(("primary key", tuple(table.primary_key)))
        unique_sets.extend(("unique index", tuple(u)) for u in table.uniques)
        for label, columns in unique_sets:
            if columns and all(c in candidates for c in columns):
                consumed = {id(candidates[c][1]) for c in columns}
                return _BaseAccess(
                    table_name,
                    "point",
                    index_columns=columns,
                    index_label=label,
                    key_fns=[
                        compile_expression(candidates[c][0], layout)
                        for c in columns
                    ],
                    residual=[c for c in conjuncts if id(c) not in consumed],
                )

    table_data = data.get(table_name)
    if table_data is None:
        return _BaseAccess(table_name, "scan", residual=conjuncts)
    rows = table_data.row_count()

    #: (estimated rows, priority, builder) — lowest estimate wins; the
    #: priority breaks ties in favour of probes (never worse than ranges).
    best: Optional[Tuple[int, int, Callable[[], _BaseAccess]]] = None

    def consider(estimate: int, priority: int, builder) -> None:
        nonlocal best
        if best is None or (estimate, priority) < best[:2]:
            best = (estimate, priority, builder)

    for column, (value_expr, eq_conjunct) in candidates.items():
        if column in table_data.secondary_indexes:
            distinct = table_data.distinct_count(column) or 1
            consider(
                max(1, rows // max(1, distinct)),
                0,
                lambda column=column, value_expr=value_expr, eq_conjunct=eq_conjunct: _BaseAccess(
                    table_name,
                    "probe",
                    probe_column=column,
                    probe_fn=compile_expression(value_expr, layout),
                    residual=[c for c in conjuncts if c is not eq_conjunct],
                ),
            )

    specs: Dict[str, _RangeSpec] = {}
    prefixes: Dict[str, Tuple[str, _Conjunct]] = {}
    for conjunct in conjuncts:
        match = _match_range_conjunct(conjunct.expr, slot, layout)
        if match is None or match.column not in table_data.ordered_indexes:
            continue
        if match.prefix is not None:
            if match.column not in prefixes and _prefix_capable(table, match.column):
                prefixes[match.column] = (match.prefix, conjunct)
        else:
            specs.setdefault(match.column, _RangeSpec(match.column)).absorb(
                match, conjunct
            )

    for spec in specs.values():
        if not spec.consumed:
            continue
        bounded_both = spec.lo is not None and spec.hi is not None
        estimate = max(1, rows // (4 if bounded_both else 3))
        consider(
            estimate,
            1,
            lambda spec=spec: _BaseAccess(
                table_name,
                "range",
                range_column=spec.column,
                lo_fn=(
                    compile_expression(spec.lo, layout)
                    if spec.lo is not None
                    else None
                ),
                hi_fn=(
                    compile_expression(spec.hi, layout)
                    if spec.hi is not None
                    else None
                ),
                lo_inclusive=spec.lo_inclusive,
                hi_inclusive=spec.hi_inclusive,
                residual=[c for c in conjuncts if c not in spec.consumed],
            ),
        )

    for column, (prefix, like_conjunct) in prefixes.items():
        consider(
            max(1, rows // 4),
            2,
            lambda column=column, prefix=prefix, like_conjunct=like_conjunct: _BaseAccess(
                table_name,
                "prefix",
                range_column=column,
                prefix=prefix,
                residual=[c for c in conjuncts if c is not like_conjunct],
            ),
        )

    if best is not None:
        return best[2]()
    return _BaseAccess(table_name, "scan", residual=conjuncts)


# ---------------------------------------------------------------------------
# join steps
# ---------------------------------------------------------------------------

class _JoinStep:
    """One join in the pipeline: hash, nested-loop, or cross product.

    ``post`` predicates are WHERE conjuncts whose latest referenced slot
    is this step's; they run on every emitted scope (after LEFT-join null
    extension, so pushdown never changes semantics).

    ``build_left`` flips the hash-join build side: instead of always
    hashing this step's (right) table, the *incoming scopes* are hashed
    and the right table streams as the probe side — chosen when
    statistics say the pipeline so far is the smaller input.  INNER-only
    (LEFT joins need left-major emission for null extension), and the
    emitted order becomes right-major, which SQL does not promise anyway.
    """

    def __init__(
        self,
        slot: int,
        table_name: str,
        binding: str,
        kind: str,
        null_row: Row,
        *,
        strategy: str,  # 'hash' | 'loop' | 'cross'
        left_key_fns: Sequence[Compiled] = (),
        right_columns: Sequence[str] = (),
        on_residual: Sequence[Compiled] = (),
        condition_fn: Optional[Compiled] = None,
        build_filters: Sequence[Compiled] = (),
        post: Sequence[Compiled] = (),
        build_left: bool = False,
    ) -> None:
        self.slot = slot
        self.table_name = table_name
        self.binding = binding
        self.kind = kind
        self.null_row = null_row
        self.strategy = strategy
        self.left_key_fns = tuple(left_key_fns)
        self.right_columns = tuple(right_columns)
        self.on_residual = tuple(on_residual)
        self.condition_fn = condition_fn
        self.build_filters = tuple(build_filters)
        self.post = tuple(post)
        self.build_left = build_left

    def apply(
        self,
        scopes: Iterator[Rows],
        data: Dict[str, TableData],
        parameters: Sequence[Any],
    ) -> Iterator[Rows]:
        table_data = data[self.table_name]
        if self.strategy == "hash":
            if self.build_left:
                produced = self._hash_join_build_left(
                    scopes, table_data, parameters
                )
            else:
                produced = self._hash_join(scopes, table_data, parameters)
        elif self.strategy == "cross":
            right_rows = [
                row
                for _, row in table_data.scan()
                if self._passes_build_filters(row, parameters)
            ]
            produced = (
                scope + (row,) for scope in scopes for row in right_rows
            )
        else:
            produced = self._nested_loop(scopes, table_data, parameters)
        if self.post:
            return _filtered(produced, self.post, parameters)
        return produced

    def _passes_build_filters(
        self, row: Row, parameters: Sequence[Any]
    ) -> bool:
        """Single-table pushed-down predicates, checked on a build-side row.

        The filters only reference this step's slot; earlier slots are
        padded so the compiled closures index correctly.
        """
        if not self.build_filters:
            return True
        padded = (self.null_row,) * self.slot + (row,)
        for fn in self.build_filters:
            if fn(padded, parameters) is not True:
                return False
        return True

    def _hash_join(
        self,
        scopes: Iterator[Rows],
        table_data: TableData,
        parameters: Sequence[Any],
    ) -> Iterator[Rows]:
        build: Dict[Tuple[Any, ...], List[Row]] = {}
        columns = self.right_columns
        for _, row in table_data.scan():
            if not self._passes_build_filters(row, parameters):
                continue
            key = tuple(row.get(c) for c in columns)
            if None not in key:
                build.setdefault(key, []).append(row)

        left_key_fns = self.left_key_fns
        residual = self.on_residual
        left_join = self.kind == "LEFT"
        for scope in scopes:
            key = tuple(fn(scope, parameters) for fn in left_key_fns)
            matches = build.get(key) if None not in key else None
            emitted = False
            if matches:
                for row in matches:
                    candidate = scope + (row,)
                    if residual:
                        ok = True
                        for fn in residual:
                            if fn(candidate, parameters) is not True:
                                ok = False
                                break
                        if not ok:
                            continue
                    emitted = True
                    yield candidate
            if left_join and not emitted:
                yield scope + (self.null_row,)

    def _hash_join_build_left(
        self,
        scopes: Iterator[Rows],
        table_data: TableData,
        parameters: Sequence[Any],
    ) -> Iterator[Rows]:
        """INNER hash join hashing the (smaller) pipeline input and
        streaming this step's table as the probe side."""
        build: Dict[Tuple[Any, ...], List[Rows]] = {}
        left_key_fns = self.left_key_fns
        for scope in scopes:
            key = tuple(fn(scope, parameters) for fn in left_key_fns)
            if None not in key:
                build.setdefault(key, []).append(scope)
        if not build:
            return
        columns = self.right_columns
        residual = self.on_residual
        for _, row in table_data.scan():
            if not self._passes_build_filters(row, parameters):
                continue
            key = tuple(row.get(c) for c in columns)
            if None in key:
                continue
            matches = build.get(key)
            if not matches:
                continue
            for scope in matches:
                candidate = scope + (row,)
                if residual:
                    ok = True
                    for fn in residual:
                        if fn(candidate, parameters) is not True:
                            ok = False
                            break
                    if not ok:
                        continue
                yield candidate

    def _nested_loop(
        self,
        scopes: Iterator[Rows],
        table_data: TableData,
        parameters: Sequence[Any],
    ) -> Iterator[Rows]:
        right_rows = [row for _, row in table_data.scan()]
        condition = self.condition_fn
        left_join = self.kind == "LEFT"
        for scope in scopes:
            matched = False
            for row in right_rows:
                candidate = scope + (row,)
                if condition is None or condition(candidate, parameters) is True:
                    matched = True
                    yield candidate
            if left_join and not matched:
                yield scope + (self.null_row,)

    def describe(self) -> str:
        name = (
            self.binding
            if self.binding == self.table_name
            else f"{self.table_name} AS {self.binding}"
        )
        if self.strategy == "hash":
            side = "left" if self.build_left else "right"
            detail = f"hash join on ({', '.join(self.right_columns)}), build: {side}"
            if self.build_filters:
                detail += f", {len(self.build_filters)} filter(s) pushed into build"
        elif self.strategy == "cross":
            detail = "cross product"
            if self.build_filters:
                detail += f", {len(self.build_filters)} filter(s) pushed down"
        else:
            detail = "nested-loop join"
        if self.post:
            detail += f" + {len(self.post)} post filter(s)"
        if self.strategy == "cross":
            return f"{name}: {detail}"
        return f"{name}: {self.kind.lower()} {detail}"


# ---------------------------------------------------------------------------
# ORDER BY machinery
# ---------------------------------------------------------------------------

class _Desc:
    """Inverts comparison so one sort pass handles mixed ASC/DESC keys."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.key == self.key


def _null_safe_key(value: Any) -> Tuple[int, int, Any]:
    """NULLs sort before everything; mixed types sort by type class.

    CONTRACT: on non-NULL values this must order exactly like
    :func:`repro.rdb.storage._ordered_key` — the index-ordered access
    path replaces this sort with an ordered-index walk.  Change both
    together (a unit test asserts the orders agree).
    """
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 0, value)
    return (1, 1, str(value))


class _OrderKey:
    """One ORDER BY item compiled to a per-row key extractor."""

    __slots__ = ("alias_position", "fn", "descending")

    def __init__(
        self,
        alias_position: Optional[int],
        fn: Optional[Compiled],
        descending: bool,
    ) -> None:
        self.alias_position = alias_position
        self.fn = fn
        self.descending = descending

    def key(
        self, row: Tuple[Any, ...], scope: Rows, parameters: Sequence[Any]
    ) -> Any:
        if self.alias_position is not None:
            value = row[self.alias_position]
        else:
            assert self.fn is not None
            value = self.fn(scope, parameters)
        base = _null_safe_key(value)
        return _Desc(base) if self.descending else base


# ---------------------------------------------------------------------------
# compiled statements
# ---------------------------------------------------------------------------

def _hashable(value: Any) -> Any:
    return value if not isinstance(value, dict) else tuple(sorted(value.items()))


def _default_column_name(expr: ast.Expression) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    return render_expression(expr)


def _contains_aggregate(expr: ast.Expression) -> bool:
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, (ast.IsNull, ast.Like, ast.Between, ast.InList)):
        return _contains_aggregate(expr.operand)
    return False


#: An aggregate-aware item evaluator: (group member scopes, parameters) -> value.
_GroupFn = Callable[[List[Rows], Sequence[Any]], Any]


def _compile_aggregate_call(
    call: ast.FunctionCall, layout: ScopeLayout
) -> _GroupFn:
    if call.name == "COUNT" and (
        not call.args or isinstance(call.args[0], ast.Star)
    ):
        return lambda members, parameters: len(members)
    if len(call.args) != 1:
        raise DatabaseError(f"{call.name} takes exactly one argument")
    arg_fn = compile_expression(call.args[0], layout)
    name = call.name
    distinct = call.distinct

    def aggregate(members: List[Rows], parameters: Sequence[Any]) -> Any:
        values = [
            v
            for v in (arg_fn(scope, parameters) for scope in members)
            if v is not None
        ]
        if distinct:
            values = list(dict.fromkeys(values))
        if name == "COUNT":
            return len(values)
        if not values:
            return None
        if name == "SUM":
            return sum(values)
        if name == "AVG":
            return sum(values) / len(values)
        if name == "MIN":
            return min(values)
        return max(values)

    return aggregate


def _compile_aggregate_expr(
    expr: ast.Expression, layout: ScopeLayout
) -> _GroupFn:
    """Compile an expression that may mix aggregates and group keys."""
    if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
        return _compile_aggregate_call(expr, layout)
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        left = _compile_aggregate_expr(expr.left, layout)
        right = _compile_aggregate_expr(expr.right, layout)
        return lambda members, parameters: combine_binary(
            op, left(members, parameters), right(members, parameters)
        )
    if isinstance(expr, ast.UnaryOp):
        op = expr.op
        operand = _compile_aggregate_expr(expr.operand, layout)
        return lambda members, parameters: combine_unary(
            op, operand(members, parameters)
        )
    # Non-aggregate expression: evaluate on the first member (must be a
    # group key for deterministic results, as in classic SQL).
    plain = compile_expression(expr, layout)

    def first_member(members: List[Rows], parameters: Sequence[Any]) -> Any:
        if not members:
            return None
        return plain(members[0], parameters)

    return first_member


class CompiledSelect:
    """A fully planned and compiled SELECT: access path, joins, pushed-down
    predicates, projection, grouping, and ordering — built once, executed
    per call with fresh parameters."""

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        stmt: ast.Select,
        force_scan: bool = False,
    ) -> None:
        self.stmt = stmt
        self.force_scan = force_scan
        self._bindings: List[Tuple[str, str]] = []  # (binding, table) as written
        refs: List[ast.TableRef] = []
        if stmt.table is not None:
            refs.append(stmt.table)
        refs.extend(join.table for join in stmt.joins)
        for ref in refs:
            schema.table(ref.name)  # raises CatalogError for unknown tables
            self._bindings.append((ref.binding(), ref.name))

        #: Pipeline placement: permutation of ``_bindings`` after join
        #: reordering; identical to it when reordering does not apply.
        self._placement: List[Tuple[str, str]] = self._bindings
        self.base: Optional[_BaseAccess] = None
        self.constant_predicates: Tuple[Compiled, ...] = ()
        self.steps: List[_JoinStep] = []

        reorderable = (
            not force_scan
            and stmt.table is not None
            and stmt.joins
            and all(
                j.kind == "INNER" and j.condition is not None for j in stmt.joins
            )
        )
        if reorderable:
            self._plan_reordered(schema, data, stmt)
        else:
            self._plan_in_written_order(schema, data, stmt)

        self._grouped = bool(stmt.group_by) or self._has_aggregate(stmt)
        items = self._expand_items(schema, stmt)
        self.columns: List[str] = [name for _, name in items]
        self._index_ordered = False
        if self._grouped:
            self.group_fns = [
                compile_expression(e, self.layout) for e in stmt.group_by
            ]
            self.item_fns_grouped: List[_GroupFn] = [
                _compile_aggregate_expr(expr, self.layout) for expr, _ in items
            ]
            self.having_fn: Optional[_GroupFn] = (
                _compile_aggregate_expr(stmt.having, self.layout)
                if stmt.having is not None
                else None
            )
        else:
            self.item_fns: List[Compiled] = [
                compile_expression(expr, self.layout) for expr, _ in items
            ]
            self.order_keys: List[_OrderKey] = []
            alias_positions = {name: i for i, name in enumerate(self.columns)}
            for item in stmt.order_by:
                expr = item.expression
                if (
                    isinstance(expr, ast.ColumnRef)
                    and expr.table is None
                    and expr.name in alias_positions
                ):
                    self.order_keys.append(
                        _OrderKey(alias_positions[expr.name], None, item.descending)
                    )
                else:
                    self.order_keys.append(
                        _OrderKey(
                            None,
                            compile_expression(expr, self.layout),
                            item.descending,
                        )
                    )
            if not force_scan:
                self._upgrade_to_index_order(data, stmt, items, alias_positions)

    def _plan_in_written_order(
        self, schema: Schema, data: Dict[str, TableData], stmt: ast.Select
    ) -> None:
        """The non-reordered pipeline: FROM-clause order, per-join ON
        handling (required for LEFT/CROSS semantics; also the forced-scan
        oracle shape)."""
        self.layout = ScopeLayout(
            (binding, schema.table(table).column_names())
            for binding, table in self._bindings
        )
        conjuncts = [_Conjunct(e, self.layout) for e in _split_conjuncts(stmt.where)]
        by_stage: Dict[int, List[_Conjunct]] = {}
        for conjunct in conjuncts:
            by_stage.setdefault(conjunct.stage, []).append(conjunct)

        if stmt.table is not None:
            if self.force_scan:
                self.base = _BaseAccess(
                    stmt.table.name, "scan", residual=by_stage.get(0, [])
                )
            else:
                self.base = _choose_base_access(
                    schema, data, stmt.table.name, 0, self.layout,
                    by_stage.get(0, []),
                )
        else:
            # SELECT without FROM: stage-0 conjuncts are constants.
            self.constant_predicates = tuple(
                c.fn for c in by_stage.get(0, [])
            )

        for slot, join in enumerate(stmt.joins, start=1):
            self.steps.append(
                self._plan_join(schema, slot, join, by_stage.get(slot, []))
            )

    def _plan_reordered(
        self, schema: Schema, data: Dict[str, TableData], stmt: ast.Select
    ) -> None:
        """All-INNER pipelines: pool WHERE and ON conjuncts, start from the
        most selective access path, and join the rest greedily by estimated
        cardinality (equi-connected tables first)."""
        original = self._bindings
        written_layout = ScopeLayout(
            (binding, schema.table(table).column_names())
            for binding, table in original
        )
        pool: List[ast.Expression] = _split_conjuncts(stmt.where)
        for slot, join in enumerate(stmt.joins, start=1):
            for expr in _split_conjuncts(join.condition):
                late = {
                    s
                    for s in _referenced_slots(expr, written_layout)
                    if s > slot
                }
                if late:
                    names = ", ".join(
                        repr(original[s][0]) for s in sorted(late)
                    )
                    raise DatabaseError(
                        f"join condition for {original[slot][0]!r} references "
                        f"later binding(s) {names}"
                    )
                pool.append(expr)

        footprints = [
            frozenset(_referenced_slots(e, written_layout)) for e in pool
        ]
        estimates = [
            _estimate_table_access(
                schema,
                data,
                table,
                binding,
                [e for e, fp in zip(pool, footprints) if fp == frozenset({i})],
            )
            for i, (binding, table) in enumerate(original)
        ]

        order = [min(range(len(original)), key=lambda i: (estimates[i], i))]
        placed = set(order)
        remaining = [i for i in range(len(original)) if i not in placed]
        while remaining:
            connected = [
                i
                for i in remaining
                if any(
                    i in fp and len(fp) > 1 and fp - {i} <= placed
                    for fp in footprints
                )
            ]
            pick = min(connected or remaining, key=lambda i: (estimates[i], i))
            order.append(pick)
            placed.add(pick)
            remaining.remove(pick)

        self._placement = [original[i] for i in order]
        self.layout = ScopeLayout(
            (binding, schema.table(table).column_names())
            for binding, table in self._placement
        )
        conjuncts = [_Conjunct(e, self.layout) for e in pool]
        by_stage: Dict[int, List[_Conjunct]] = {}
        for conjunct in conjuncts:
            by_stage.setdefault(conjunct.stage, []).append(conjunct)

        self.base = _choose_base_access(
            schema, data, self._placement[0][1], 0, self.layout,
            by_stage.get(0, []),
        )
        # Running cardinality estimate of the pipeline so far: an FK-shaped
        # equi join matches ~one parent row per input row, so a hash join
        # keeps the estimate; a cross product multiplies it.  The estimate
        # picks each hash join's build side (smaller input gets hashed).
        running = estimates[order[0]]
        for slot in range(1, len(self._placement)):
            right_estimate = estimates[order[slot]]
            step = self._plan_pool_join(
                schema, slot, by_stage.get(slot, []),
                left_estimate=running,
                right_estimate=right_estimate,
            )
            self.steps.append(step)
            if step.strategy == "cross":
                running = max(1, running) * max(1, right_estimate)
            else:
                running = max(running, 1)

    def _plan_pool_join(
        self,
        schema: Schema,
        slot: int,
        conjuncts: List[_Conjunct],
        left_estimate: int = 0,
        right_estimate: int = 0,
    ) -> _JoinStep:
        """One INNER join planned from pooled conjuncts: equi conjuncts
        against earlier slots become hash keys, single-table conjuncts
        filter the build side, the rest run post-join.  The hash build
        side is the input the statistics estimate as smaller."""
        binding, table_name = self._placement[slot]
        null_row = {name: None for name in schema.table(table_name).column_names()}
        left_key_fns: List[Compiled] = []
        right_columns: List[str] = []
        build_filters: List[Compiled] = []
        post: List[Compiled] = []
        for conjunct in conjuncts:
            if conjunct.slots == frozenset({slot}):
                build_filters.append(conjunct.fn)
                continue
            match = _column_eq_const_or_prior(conjunct.expr, slot, self.layout)
            if match is not None:
                column, other = match
                right_columns.append(column)
                left_key_fns.append(compile_expression(other, self.layout))
            else:
                post.append(conjunct.fn)
        if right_columns:
            return _JoinStep(
                slot, table_name, binding, "INNER", null_row,
                strategy="hash",
                left_key_fns=left_key_fns,
                right_columns=right_columns,
                build_filters=build_filters,
                post=post,
                build_left=left_estimate < right_estimate,
            )
        # No equi connection to earlier tables: filtered cross product
        # (post conjuncts make it an inner nested-loop join).
        return _JoinStep(
            slot, table_name, binding, "INNER", null_row,
            strategy="cross",
            build_filters=build_filters,
            post=post,
        )

    def _upgrade_to_index_order(
        self,
        data: Dict[str, TableData],
        stmt: ast.Select,
        items: List[Tuple[ast.Expression, str]],
        alias_positions: Dict[str, int],
    ) -> None:
        """Replace scan+sort with an index-ordered walk when ORDER BY is a
        single key on an ordered-indexed column of the first pipeline
        table (join steps preserve their input order, ties included, so
        the emitted sequence equals what the stable sort would produce)."""
        if len(stmt.order_by) != 1 or self.base is None:
            return
        if self.base.kind not in ("scan", "range"):
            return
        if any(step.build_left for step in self.steps):
            # A left-build hash join emits right-major order, so the
            # index order would not survive the pipeline.
            return
        item = stmt.order_by[0]
        expr = item.expression
        # ORDER BY resolves output aliases first (same rule as _OrderKey);
        # follow the indirection to the underlying expression.
        if (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and expr.name in alias_positions
        ):
            expr = items[alias_positions[expr.name]][0]
        if not isinstance(expr, ast.ColumnRef):
            return
        slot, column = self.layout.resolve(expr)
        if slot != 0:
            return
        table_data = data.get(self.base.table_name)
        if table_data is None or column not in table_data.ordered_indexes:
            return
        if self.base.kind == "range":
            if self.base.range_column != column:
                return
            self.base.descending = item.descending
        else:
            ordered = _BaseAccess(
                self.base.table_name,
                "ordered",
                range_column=column,
                descending=item.descending,
            )
            # keep the compiled residual predicates of the replaced scan
            ordered.residual = self.base.residual
            self.base = ordered
        self._index_ordered = True

    # -- planning helpers ----------------------------------------------

    def _plan_join(
        self,
        schema: Schema,
        slot: int,
        join: ast.Join,
        where_conjuncts: List[_Conjunct],
    ) -> _JoinStep:
        binding, table_name = self._bindings[slot]
        null_row = {name: None for name in schema.table(table_name).column_names()}

        post: List[Compiled] = []
        build_filters: List[Compiled] = []
        if join.kind == "LEFT":
            # Predicates on a LEFT join's right side must see the
            # null-extended row, so nothing is pushed into the build.
            post = [c.fn for c in where_conjuncts]
        else:
            for conjunct in where_conjuncts:
                if conjunct.slots == frozenset({slot}):
                    build_filters.append(conjunct.fn)
                else:
                    post.append(conjunct.fn)

        if join.kind == "CROSS" or join.condition is None:
            if self.force_scan:
                # Oracle shape: raw product, every predicate post-join.
                return _JoinStep(
                    slot, table_name, binding, "CROSS", null_row,
                    strategy="cross",
                    post=list(post) + list(build_filters),
                )
            return _JoinStep(
                slot, table_name, binding, "CROSS", null_row,
                strategy="cross",
                build_filters=build_filters,  # filter right rows pre-product
                post=post,
            )

        on_conjuncts = [
            _Conjunct(e, self.layout) for e in _split_conjuncts(join.condition)
        ]
        for conjunct in on_conjuncts:
            late = {s for s in conjunct.slots if s > slot}
            if late:
                names = ", ".join(
                    repr(self._bindings[s][0]) for s in sorted(late)
                )
                raise DatabaseError(
                    f"join condition for {binding!r} references "
                    f"later binding(s) {names}"
                )

        if self.force_scan:
            # Oracle shape: nested loop over the full ON condition, WHERE
            # conjuncts post-join (after LEFT null extension).
            return _JoinStep(
                slot, table_name, binding, join.kind, null_row,
                strategy="loop",
                condition_fn=compile_expression(join.condition, self.layout),
                post=list(post) + list(build_filters),
            )

        left_key_fns: List[Compiled] = []
        right_columns: List[str] = []
        on_residual: List[Compiled] = []
        for conjunct in on_conjuncts:
            match = _column_eq_const_or_prior(conjunct.expr, slot, self.layout)
            if match is not None:
                column, other = match
                right_columns.append(column)
                left_key_fns.append(compile_expression(other, self.layout))
            else:
                on_residual.append(conjunct.fn)

        if right_columns:
            return _JoinStep(
                slot, table_name, binding, join.kind, null_row,
                strategy="hash",
                left_key_fns=left_key_fns,
                right_columns=right_columns,
                on_residual=on_residual,
                build_filters=build_filters if join.kind == "INNER" else (),
                post=post,
            )
        # No equi keys: nested loop on the whole (compiled) condition.
        post = post + build_filters  # nothing to push without a build side
        return _JoinStep(
            slot, table_name, binding, join.kind, null_row,
            strategy="loop",
            condition_fn=compile_expression(join.condition, self.layout),
            post=post,
        )

    def _has_aggregate(self, stmt: ast.Select) -> bool:
        exprs: List[ast.Expression] = [i.expression for i in stmt.items]
        if stmt.having is not None:
            exprs.append(stmt.having)
        return any(_contains_aggregate(e) for e in exprs)

    def _expand_items(
        self, schema: Schema, stmt: ast.Select
    ) -> List[Tuple[ast.Expression, str]]:
        """Resolve SELECT items (including ``*``) to (expr, column-name)."""
        expanded: List[Tuple[ast.Expression, str]] = []
        for item in stmt.items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                if self._grouped:
                    raise DatabaseError("'*' cannot be mixed with aggregation")
                matched = False
                for binding, table_name in self._bindings:
                    if expr.table is not None and binding != expr.table:
                        continue
                    matched = True
                    for column in schema.table(table_name).column_names():
                        expanded.append(
                            (ast.ColumnRef(column, table=binding), column)
                        )
                if expr.table is not None and not matched:
                    raise DatabaseError(
                        f"unknown table binding {expr.table!r} in select list"
                    )
                continue
            name = item.alias or _default_column_name(expr)
            expanded.append((expr, name))
        return expanded

    # -- execution ------------------------------------------------------

    def scopes(
        self,
        data: Dict[str, TableData],
        parameters: Sequence[Any],
        context: RequestContext,
    ) -> Iterator[Rows]:
        # EXPLAIN ANALYZE: armed, every operator's output is wrapped with
        # a timing/row-counting iterator.  Plans are cached and shared
        # across threads, so the probe is never stored on the plan.
        probe = context.probe
        if self.base is None:
            produced: Iterator[Rows] = iter([()])
            if self.constant_predicates:
                produced = _filtered(produced, self.constant_predicates, parameters)
            if probe is not None:
                produced = probe.timed(
                    produced,
                    probe.operator(self, "no FROM clause: single empty scope"),
                )
        else:
            produced = (
                scope for _, scope in self.base.rowid_scopes(data, parameters)
            )
            if probe is not None:
                produced = probe.timed(
                    produced, probe.operator(self.base, self.base.describe())
                )
        # Cooperative cancellation on the base scan: filters/joins pull
        # through this wrapper, so even a pipeline that emits no rows
        # checks the request deadline every few hundred scanned rows.
        # No-op (iterator returned unchanged) without an active deadline.
        produced = context.cooperative(produced, "executor:scan")
        for step in self.steps:
            produced = step.apply(produced, data, parameters)
            if probe is not None:
                produced = probe.timed(
                    produced, probe.operator(step, step.describe())
                )
        return produced

    def execute(
        self, data: Dict[str, TableData], parameters: Sequence[Any]
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        """Run the plan: the one place every SELECT passes, on the
        snapshot read path and inside a transaction alike, so its rows
        are counted here.  The request context is read once."""
        context = current_context()
        probe = context.probe
        if probe is not None:
            start = time.perf_counter()
        rows = self._execute(self.scopes(data, parameters, context), parameters)
        if probe is not None:
            probe.elapsed_s += time.perf_counter() - start
            probe.rows += len(rows)
            probe.note_plan(self, self.describe())
        if rows:
            _ROWS_SELECT.inc(len(rows))
        return self.columns, rows

    def _execute(
        self, scopes: Iterator[Rows], parameters: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        stmt = self.stmt
        if self._grouped:
            rows = self._execute_grouped(scopes, parameters)
        else:
            rows = self._execute_plain(scopes, parameters)

        if stmt.distinct:
            seen: Set[Tuple[Any, ...]] = set()
            unique_rows = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows

        if stmt.offset is not None:
            rows = rows[stmt.offset:]
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        return rows

    def _execute_plain(
        self, scopes: Iterator[Rows], parameters: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        stmt = self.stmt
        item_fns = self.item_fns
        if not stmt.order_by:
            return [
                tuple(fn(scope, parameters) for fn in item_fns)
                for scope in scopes
            ]

        if self._index_ordered:
            # Rows already emerge in ORDER BY order from the ordered
            # index; LIMIT stops the pipeline after the first rows
            # (DISTINCT must see everything, so no early stop there).
            if stmt.limit is not None and not stmt.distinct:
                scopes = islice(scopes, (stmt.offset or 0) + stmt.limit)
            return [
                tuple(fn(scope, parameters) for fn in item_fns)
                for scope in scopes
            ]

        # Precompute every sort key exactly once per row.
        order_keys = self.order_keys
        decorated: List[Tuple[Tuple[Any, ...], Tuple[Any, ...]]] = []
        for scope in scopes:
            row = tuple(fn(scope, parameters) for fn in item_fns)
            key = tuple(k.key(row, scope, parameters) for k in order_keys)
            decorated.append((key, row))

        if stmt.limit is not None and not stmt.distinct:
            # Top-k: no need to sort rows that LIMIT/OFFSET will drop.
            top = stmt.limit + (stmt.offset or 0)
            indexes = range(len(decorated))
            chosen = heapq.nsmallest(
                top, indexes, key=lambda i: decorated[i][0]
            )
            return [decorated[i][1] for i in chosen]
        indexes = sorted(
            range(len(decorated)), key=lambda i: decorated[i][0]
        )
        return [decorated[i][1] for i in indexes]

    def _execute_grouped(
        self, scopes: Iterator[Rows], parameters: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        stmt = self.stmt
        groups: Dict[Tuple[Any, ...], List[Rows]] = {}
        if self.group_fns:
            for scope in scopes:
                key = tuple(
                    _hashable(fn(scope, parameters)) for fn in self.group_fns
                )
                groups.setdefault(key, []).append(scope)
        else:
            groups[()] = list(scopes)

        rows: List[Tuple[Any, ...]] = []
        for members in groups.values():
            if self.having_fn is not None and self.having_fn(
                members, parameters
            ) is not True:
                continue
            rows.append(
                tuple(fn(members, parameters) for fn in self.item_fns_grouped)
            )
        if stmt.order_by:
            # For grouped queries, order by output columns only.
            positions = {name: i for i, name in enumerate(self.columns)}
            spec: List[Tuple[int, bool]] = []
            for item in stmt.order_by:
                expr = item.expression
                if isinstance(expr, ast.ColumnRef) and expr.name in positions:
                    spec.append((positions[expr.name], item.descending))
            if spec:
                def group_key(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
                    return tuple(
                        _Desc(_null_safe_key(row[pos]))
                        if descending
                        else _null_safe_key(row[pos])
                        for pos, descending in spec
                    )

                rows.sort(key=group_key)
        return rows

    def describe(self) -> List[str]:
        lines: List[str] = []
        if self._placement != self._bindings:
            lines.append(
                "join order: "
                + " -> ".join(binding for binding, _ in self._placement)
                + " (stats-driven reorder)"
            )
        if self.base is None:
            lines.append("no FROM clause: single empty scope")
        else:
            lines.append(self.base.describe())
        lines.extend(step.describe() for step in self.steps)
        if self._grouped:
            lines.append(f"group + aggregate -> {len(self.columns)} column(s)")
        else:
            lines.append(f"project {len(self.columns)} column(s)")
            if self._index_ordered:
                if self.stmt.limit is not None and not self.stmt.distinct:
                    lines.append(
                        "order by via ordered index (no sort), "
                        f"stop after {self.stmt.limit + (self.stmt.offset or 0)}"
                    )
                else:
                    lines.append("order by via ordered index (no sort)")
            elif self.stmt.order_by:
                if self.stmt.limit is not None and not self.stmt.distinct:
                    lines.append(
                        f"order by {len(self.stmt.order_by)} key(s), "
                        f"top-{self.stmt.limit + (self.stmt.offset or 0)} via heap"
                    )
                else:
                    lines.append(f"order by {len(self.stmt.order_by)} key(s)")
        return lines


def _column_eq_const_or_prior(
    expr: ast.Expression, slot: int, layout: ScopeLayout
) -> Optional[Tuple[str, ast.Expression]]:
    """Match ``<slot's column> = <expression over earlier slots only>``
    (the hash-join key shape)."""
    if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
        return None
    sides = [expr.left, expr.right]
    for i, side in enumerate(sides):
        other = sides[1 - i]
        if not isinstance(side, ast.ColumnRef):
            continue
        if layout.resolve(side) != (slot, side.name):
            continue
        if all(s < slot for s in _referenced_slots(other, layout)):
            return side.name, other
    return None


def _estimate_table_access(
    schema: Schema,
    data: Dict[str, TableData],
    table_name: str,
    binding: str,
    exprs: List[ast.Expression],
) -> int:
    """Estimated rows a table contributes given its single-table
    predicates — the costing signal join reordering ranks tables by.

    Mirrors :func:`_choose_base_access` at the AST level (no compilation):
    covered unique index -> 1, equality on an indexed column ->
    rows/distinct, range/prefix on an ordered-indexed column -> rows/3.
    """
    table = schema.table(table_name)
    table_data = data.get(table_name)
    rows = table_data.row_count() if table_data is not None else 0
    if table_data is None or not exprs:
        return rows
    layout = ScopeLayout([(binding, table.column_names())])
    eq_columns: Set[str] = set()
    range_columns: Set[str] = set()
    for expr in exprs:
        match = _column_eq_const(expr, 0, layout)
        if match is not None:
            eq_columns.add(match[0])
            continue
        range_match = _match_range_conjunct(expr, 0, layout)
        if range_match is not None:
            range_columns.add(range_match.column)

    unique_sets: List[Tuple[str, ...]] = []
    if table.primary_key:
        unique_sets.append(tuple(table.primary_key))
    unique_sets.extend(tuple(u) for u in table.uniques)
    if any(
        columns and all(c in eq_columns for c in columns)
        for columns in unique_sets
    ):
        return 1

    best = rows
    for column in eq_columns:
        if column in table_data.secondary_indexes:
            distinct = table_data.distinct_count(column) or 1
            best = min(best, max(1, rows // max(1, distinct)))
    for column in range_columns:
        if column in table_data.ordered_indexes:
            best = min(best, max(1, rows // 3))
    return best


class CompiledMutation:
    """Compiled row selection for UPDATE/DELETE: index-aware WHERE over a
    single table, plus (for UPDATE) compiled assignment expressions."""

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        table_name: str,
        where: Optional[ast.Expression],
        assignments: Tuple[ast.Assignment, ...] = (),
        force_scan: bool = False,
    ) -> None:
        schema.table(table_name)  # raises CatalogError for unknown tables
        self.table_name = table_name
        self.layout = ScopeLayout(
            [(table_name, schema.table(table_name).column_names())]
        )
        conjuncts = [_Conjunct(e, self.layout) for e in _split_conjuncts(where)]
        if force_scan:
            self.base = _BaseAccess(table_name, "scan", residual=conjuncts)
        else:
            self.base = _choose_base_access(
                schema, data, table_name, 0, self.layout, conjuncts
            )
        self.assignment_fns: List[Tuple[str, Compiled]] = [
            (a.column, compile_expression(a.value, self.layout))
            for a in assignments
        ]

    def matching_rowids(
        self,
        data: Dict[str, TableData],
        parameters: Sequence[Any],
        context: RequestContext,
    ) -> List[int]:
        """Materialized list: callers mutate the table while applying."""
        pairs = context.cooperative(
            self.base.rowid_scopes(data, parameters), "executor:scan"
        )
        probe = context.probe
        if probe is not None:
            pairs = probe.timed(
                pairs, probe.operator(self.base, self.base.describe())
            )
            probe.note_plan(self, self.describe())
        return [rowid for rowid, _ in pairs]

    def describe(self) -> List[str]:
        return [self.base.describe()]


# ---------------------------------------------------------------------------
# the planner facade
# ---------------------------------------------------------------------------

class Planner:
    """Plans statements against a schema + storage, with an LRU plan cache.

    Statement ASTs are frozen dataclasses, so (generation, AST) pairs
    serve directly as cache keys; the engine invalidates the cache on DDL,
    which also bumps :attr:`generation`.  Keying plans by generation is
    what lets MVCC readers share the cache safely: a plan is only ever
    built while the live schema matches the generation of the table map
    it will execute against (snapshot or working store), and DDL holds
    :attr:`lock` across its catalog mutation so a plan can never observe a
    half-applied schema change.

    Cache *hits* are lock-free: plans are immutable once built, and the
    individual ``OrderedDict`` operations are atomic under the GIL (a
    racing eviction or double build is benign).
    """

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        force_scan: bool = False,
    ) -> None:
        self.schema = schema
        self.data = data
        #: When True every plan is the naive shape: full scans and nested
        #: loops, no index paths, no reordering.  The differential harness
        #: oracle.  Toggle before any plan is cached (or invalidate()).
        self.force_scan = force_scan
        #: Serializes plan building with DDL (the engine wraps catalog
        #: mutations in this lock before bumping the generation).
        self.lock = threading.RLock()
        #: Bumped by :meth:`invalidate`; identifies one schema epoch.
        self.generation = 0
        self._cache: "OrderedDict[Tuple[int, ast.Statement], Any]" = OrderedDict()
        #: Planning/caching statistics (exposed for tests and diagnostics).
        self.stats = {"hits": 0, "misses": 0, "invalidations": 0}

    def invalidate(self) -> None:
        """Drop all cached plans and open a new generation (after DDL)."""
        with self.lock:
            self.generation += 1
            self._cache.clear()
            self.stats["invalidations"] += 1

    def _cached(
        self, generation: int, stmt: ast.Statement, build: Callable[[], Any]
    ) -> Any:
        key = (generation, stmt)
        try:
            plan = self._cache[key]
        except (KeyError, TypeError):
            # TypeError: unhashable literal buried in the AST — plan uncached.
            self.stats["misses"] += 1
            with self.lock:
                if generation != self.generation:
                    raise StaleSnapshotError(
                        "schema changed since the snapshot was taken"
                    )
                plan = build()
                try:
                    self._cache[key] = plan
                    if len(self._cache) > _PLAN_CACHE_SIZE:
                        self._cache.popitem(last=False)
                except TypeError:
                    pass
            return plan
        self.stats["hits"] += 1
        try:
            self._cache.move_to_end(key)
        except KeyError:
            pass  # concurrently invalidated/evicted; recency is best-effort
        return plan

    def _plan_current(self, stmt: ast.Statement, build: Callable[[], Any]) -> Any:
        """Build/fetch a plan for the *working* store, retrying across a
        racing DDL (only possible for unlocked callers like explain())."""
        while True:
            try:
                return self._cached(self.generation, stmt, build)
            except StaleSnapshotError:
                continue

    def plan_select(self, stmt: ast.Select) -> CompiledSelect:
        return self._plan_current(
            stmt,
            lambda: CompiledSelect(
                self.schema, self.data, stmt, force_scan=self.force_scan
            ),
        )

    def plan_select_at(self, stmt: ast.Select, snapshot) -> CompiledSelect:
        """The plan a snapshot reader executes: costed against the
        snapshot's tables and cached under the snapshot's generation.
        In the steady state (no DDL since publication) this is the same
        cache entry the working store uses, so readers share the
        amortization.  Raises :class:`StaleSnapshotError` when a DDL has
        run since the snapshot was published and no plan is cached."""
        return self._cached(
            snapshot.generation,
            stmt,
            lambda: CompiledSelect(
                self.schema, snapshot.tables, stmt, force_scan=self.force_scan
            ),
        )

    def plan_update(self, stmt: ast.Update) -> CompiledMutation:
        return self._plan_current(
            stmt,
            lambda: CompiledMutation(
                self.schema, self.data, stmt.table, stmt.where, stmt.assignments,
                force_scan=self.force_scan,
            ),
        )

    def plan_delete(self, stmt: ast.Delete) -> CompiledMutation:
        return self._plan_current(
            stmt,
            lambda: CompiledMutation(
                self.schema, self.data, stmt.table, stmt.where,
                force_scan=self.force_scan,
            ),
        )
