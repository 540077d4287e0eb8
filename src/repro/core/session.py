"""Sessions and prepared operations: the amortizing public API.

The facade path (``OntoAccess.update(sparql)``) re-parses and re-translates
the full SPARQL string on every call, so per-request cost is dominated by
the front of the pipeline.  A :class:`Session` — obtained from
:meth:`OntoAccess.session() <repro.core.mediator.OntoAccess.session>` or
built directly over any :class:`~repro.core.backend.Backend` — amortizes
that cost across repeated operations:

* :meth:`Session.prepare` parses once and returns a
  :class:`PreparedUpdate` / :class:`PreparedQuery` whose ``execute()`` can
  run many times.  On the relational backend the translated SQL is cached
  against the database's state version and *replayed* while the state is
  unchanged, and translated query patterns are cached per schema version —
  both on top of the engine's per-statement plan cache.
* Prepared templates may contain SPARQL variables as placeholders;
  ``execute(bindings={"name": ...})`` substitutes concrete terms at
  execute time (the prepared-statement idiom).
* :meth:`Session.execute_all` runs a multi-operation batch inside **one**
  database transaction — all-or-nothing, whereas the facade commits each
  operation separately per the paper's one-transaction-per-operation rule.
* The session owns transaction scope (:meth:`begin` / :meth:`commit` /
  :meth:`rollback` / :meth:`transaction`).  **Write** entry points
  serialize on the backend's write-tier lock so a threaded HTTP endpoint
  can share one session without interleaving transactions; **read** entry
  points (:meth:`query`, :meth:`query_outcome`, prepared queries) do not
  take it — they run against the backend's committed snapshot, so N
  reader threads proceed concurrently with each other and with at most
  one writer.  The prepared caches are guarded by a separate lock held
  only for dictionary access, never during execution.

Semantics never drift from the unprepared path: translation replay is
keyed on the backend's state version, so *any* state change — including
the replayed statements themselves affecting rows — forces a fresh
translation.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..context import RequestContext
from ..errors import SPARQLParseError, TranslationError
from ..observability.metrics import SESSION_OPS
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..rdf.terms import Literal, Term, Triple, Variable
from ..sparql.algebra import Solution, substitute
from ..sparql.algebra_ast import (
    Arithmetic,
    BoolOp,
    Comparison,
    Filter,
    FunctionExpr,
    GroupPattern,
    Not,
    Optional_,
    TermExpr,
    TriplePattern,
)
from ..sparql.algebra_ast import Union as PatternUnion
from ..sparql.query_ast import ConstructQuery, Query
from ..sparql.query_parser import parse_query
from ..sparql.update_ast import (
    DeleteData,
    InsertData,
    Modify,
    UpdateOperation,
    UpdateRequest,
)
from ..sparql.update_parser import parse_update
from .backend import Backend, UpdateResult
from .query import QueryOutcome

__all__ = ["PreparedQuery", "PreparedUpdate", "Session"]

Bindings = Dict[str, Any]

_QUERY_KEYWORD = re.compile(r"\b(SELECT|ASK|CONSTRUCT|DESCRIBE)\b", re.I)
_UPDATE_KEYWORD = re.compile(r"\b(INSERT|DELETE|MODIFY|CLEAR)\b", re.I)
#: IRIs and string literals may contain keyword-shaped substrings
#: (``<http://example.org/delete/>``); mask them before sniffing, then
#: mask ``#`` comments (after IRIs, whose fragments also use ``#``).
_OPAQUE_TOKEN = re.compile(r"<[^>]*>|\"[^\"]*\"|'[^']*'")
_COMMENT = re.compile(r"#[^\n]*")

_PREPARED_CACHE_SIZE = 128

# Label children resolved once: the hot paths pay a sharded add, not a
# dict lookup under the registry lock.
_OPS_QUERY = SESSION_OPS.labels("query")
_OPS_UPDATE = SESSION_OPS.labels("update")
_OPS_BATCH = SESSION_OPS.labels("batch")
_BINDING_CACHE_SIZE = 64


def _looks_like_query(text: str) -> bool:
    text = _COMMENT.sub(" ", _OPAQUE_TOKEN.sub(" ", text))
    query = _QUERY_KEYWORD.search(text)
    if query is None:
        return False
    update = _UPDATE_KEYWORD.search(text)
    return update is None or query.start() < update.start()


def _as_term(value: Any) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, (str, bool, int, float)):
        return Literal(value)
    raise TranslationError(
        f"cannot bind a {type(value).__name__} as an RDF term",
        code=TranslationError.UNSUPPORTED,
    )


def _solution(bindings: Optional[Bindings]) -> Solution:
    if not bindings:
        return {}
    resolved: Solution = {}
    for name, value in bindings.items():
        variable = name if isinstance(name, Variable) else Variable(str(name).lstrip("?"))
        resolved[variable] = _as_term(value)
    return resolved


def _bindings_key(solution: Solution) -> Tuple:
    return tuple(sorted((v.name, t.n3()) for v, t in solution.items()))


# ---------------------------------------------------------------------------
# placeholder substitution over patterns and templates
# ---------------------------------------------------------------------------

def _substitute_triples(
    triples: Tuple[Triple, ...], solution: Solution, require_concrete: bool
) -> Tuple[Triple, ...]:
    result = []
    for triple in triples:
        candidate = substitute(triple, solution) if solution else triple
        if require_concrete and not candidate.is_concrete():
            unbound = ", ".join(f"?{v.name}" for v in candidate.variables())
            raise TranslationError(
                f"unbound placeholder(s) {unbound} in prepared data block; "
                "pass bindings={...} at execute time",
                code=TranslationError.UNSUPPORTED,
            )
        result.append(candidate)
    return tuple(result)


def _substitute_expr(expr, solution: Solution):
    if isinstance(expr, TermExpr):
        term = expr.term
        if isinstance(term, Variable) and term in solution:
            return TermExpr(solution[term])
        return expr
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            _substitute_expr(expr.left, solution),
            _substitute_expr(expr.right, solution),
        )
    if isinstance(expr, BoolOp):
        return BoolOp(
            expr.op,
            _substitute_expr(expr.left, solution),
            _substitute_expr(expr.right, solution),
        )
    if isinstance(expr, Not):
        return Not(_substitute_expr(expr.operand, solution))
    if isinstance(expr, Arithmetic):
        return Arithmetic(
            expr.op,
            _substitute_expr(expr.left, solution),
            _substitute_expr(expr.right, solution),
        )
    if isinstance(expr, FunctionExpr):
        return FunctionExpr(
            expr.name,
            tuple(_substitute_expr(a, solution) for a in expr.args),
        )
    return expr


def _substitute_pattern(pattern: GroupPattern, solution: Solution) -> GroupPattern:
    if not solution:
        return pattern
    elements = []
    for element in pattern.elements:
        if isinstance(element, TriplePattern):
            elements.append(TriplePattern(substitute(element.triple, solution)))
        elif isinstance(element, Filter):
            elements.append(Filter(_substitute_expr(element.expression, solution)))
        elif isinstance(element, Optional_):
            elements.append(
                Optional_(_substitute_pattern(element.pattern, solution))
            )
        elif isinstance(element, PatternUnion):
            elements.append(
                PatternUnion(
                    tuple(
                        _substitute_pattern(branch, solution)
                        for branch in element.branches
                    )
                )
            )
        elif isinstance(element, GroupPattern):
            elements.append(_substitute_pattern(element, solution))
        else:
            elements.append(element)
    return GroupPattern(elements=tuple(elements))


def _resolve_operation(
    operation: UpdateOperation, solution: Solution
) -> UpdateOperation:
    """One operation with placeholders replaced by bound terms."""
    if isinstance(operation, InsertData):
        return InsertData(
            triples=_substitute_triples(operation.triples, solution, True)
        )
    if isinstance(operation, DeleteData):
        return DeleteData(
            triples=_substitute_triples(operation.triples, solution, True)
        )
    if isinstance(operation, Modify):
        if not solution:
            return operation
        return Modify(
            delete_template=_substitute_triples(
                operation.delete_template, solution, False
            ),
            insert_template=_substitute_triples(
                operation.insert_template, solution, False
            ),
            where=_substitute_pattern(operation.where, solution),
        )
    return operation


# ---------------------------------------------------------------------------
# prepared operations
# ---------------------------------------------------------------------------

class PreparedUpdate:
    """A parsed SPARQL/Update request, executable many times.

    Parsing happened at :meth:`Session.prepare` time; per distinct binding
    set the backend keeps a prepared handle whose translation is replayed
    while the backend state is unchanged (see
    :class:`repro.core.backend._PreparedRdbOp`).
    """

    def __init__(
        self,
        session: "Session",
        request: UpdateRequest,
        text: Optional[str] = None,
    ) -> None:
        self.session = session
        self.request = request
        self.text = text
        #: bindings-key -> one prepared handle per operation (LRU)
        self._per_binding: "OrderedDict[Tuple, List]" = OrderedDict()

    def execute(self, bindings: Optional[Bindings] = None) -> UpdateResult:
        """Execute the request; placeholders are substituted from
        ``bindings`` (variable name → RDF term or plain Python value)."""
        session = self.session
        with session._lock:
            prepared = self._prepared_for(_solution(bindings))
            return session._run_runners(
                [handle.execute for handle in prepared], atomic=False
            )

    def _prepared_for(self, solution: Solution) -> List:
        key = _bindings_key(solution)
        prepared = self._per_binding.get(key)
        if prepared is None:
            backend = self.session.backend
            prepared = [
                backend.prepare_operation(_resolve_operation(op, solution))
                for op in self.request.operations
            ]
            self._per_binding[key] = prepared
            if len(self._per_binding) > _BINDING_CACHE_SIZE:
                self._per_binding.popitem(last=False)
        else:
            self._per_binding.move_to_end(key)
        return prepared


class PreparedQuery:
    """A parsed SPARQL query, executable many times.

    On the relational backend the SPARQL→SQL pattern translation is cached
    per schema version (translation never reads row data), so repeated
    executions skip straight to the planner's compiled SELECT.
    """

    def __init__(
        self,
        session: "Session",
        query: Query,
        text: Optional[str] = None,
    ) -> None:
        self.session = session
        self.query = query
        self.text = text
        self._per_binding: "OrderedDict[Tuple, Any]" = OrderedDict()

    def execute(self, bindings: Optional[Bindings] = None):
        """Run the query; returns SelectResult / bool / Graph."""
        return self.outcome(bindings).result

    def outcome(self, bindings: Optional[Bindings] = None) -> QueryOutcome:
        # Lock-free read path: plan lookup briefly takes the cache lock,
        # execution runs against the backend's committed snapshot.
        return self._plan_for(_solution(bindings)).outcome()

    def _plan_for(self, solution: Solution):
        key = _bindings_key(solution)
        cache_lock = self.session._cache_lock
        with cache_lock:
            plan = self._per_binding.get(key)
            if plan is not None:
                self._per_binding.move_to_end(key)
                return plan
        # Build outside the lock (translation may be expensive); a racing
        # thread building the same plan is benign — last insert wins.
        query = self._resolved_query(solution)
        plan = self.session.backend.prepare_query(query)
        with cache_lock:
            self._per_binding[key] = plan
            if len(self._per_binding) > _BINDING_CACHE_SIZE:
                self._per_binding.popitem(last=False)
        return plan

    def _resolved_query(self, solution: Solution) -> Query:
        if not solution:
            return self.query
        query = replace(
            self.query, where=_substitute_pattern(self.query.where, solution)
        )
        if isinstance(query, ConstructQuery):
            query = replace(
                query,
                template=_substitute_triples(query.template, solution, False),
            )
        return query


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

class Session:
    """Owns transaction scope and a prepared-operation cache over a backend.

    Thread-safe with two lock tiers, both owned by the backend and shared
    by **all** sessions over it (transaction state lives in the backend,
    so two sessions on one database must never interleave — e.g. the
    facade's internal session and the HTTP endpoint's session used from
    different threads):

    * the reentrant **write-tier** lock serializes updates, batches, and
      transaction scope;
    * the **cache lock** guards the prepared-operation dictionaries and
      is held only for lookups/insertions, never across execution.

    Queries take neither lock during execution: they run against the
    backend's committed snapshot, concurrent with each other and with at
    most one writer.
    """

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        # The backend owns the locks (created in Backend.__init__), so all
        # sessions over one backend serialize on the same instances.
        self._lock = backend._session_lock
        self._cache_lock = backend._cache_lock
        self._prepared: "OrderedDict[Tuple, Union[PreparedUpdate, PreparedQuery]]" = (
            OrderedDict()
        )

    # -- preparing ------------------------------------------------------

    def prepare(
        self, sparql: str, prefixes: Optional[PrefixMap] = None
    ) -> Union[PreparedUpdate, PreparedQuery]:
        """Parse once; returns a :class:`PreparedQuery` for SELECT / ASK /
        CONSTRUCT text and a :class:`PreparedUpdate` otherwise.  Prepared
        objects are cached by text, so repeated ``prepare`` of the same
        string is a dictionary hit.

        The keyword sniff only picks which parser to try first; a parse
        failure falls through to the other parser, so keyword-shaped
        prefix labels (``PREFIX insert: <…>``) cannot misroute a request.
        """
        if _looks_like_query(sparql):
            try:
                return self.prepare_query(sparql, prefixes=prefixes)
            except SPARQLParseError:
                return self.prepare_update(sparql, prefixes=prefixes)
        try:
            return self.prepare_update(sparql, prefixes=prefixes)
        except SPARQLParseError:
            return self.prepare_query(sparql, prefixes=prefixes)

    def prepare_update(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
        allow_placeholders: bool = True,
    ) -> PreparedUpdate:
        """Parse an update once for repeated execution.

        ``allow_placeholders=False`` re-enables the submission's
        concreteness rule for data blocks — the HTTP endpoint uses it,
        since the wire protocol has no way to pass bindings.
        """
        if isinstance(request, UpdateRequest):
            return PreparedUpdate(self, request)
        kind = "update" if allow_placeholders else "update-concrete"
        cached = self._cached_prepared(kind, request, prefixes)
        if cached is not None:
            return cached
        prepared = PreparedUpdate(
            self,
            parse_update(
                request,
                prefixes=prefixes,
                allow_placeholders=allow_placeholders,
            ),
            text=request,
        )
        return self._remember(kind, request, prefixes, prepared)

    def prepare_query(
        self,
        query: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
    ) -> PreparedQuery:
        if not isinstance(query, str):
            return PreparedQuery(self, query)
        cached = self._cached_prepared("query", query, prefixes)
        if cached is not None:
            return cached
        prepared = PreparedQuery(
            self, parse_query(query, prefixes=prefixes), text=query
        )
        return self._remember("query", query, prefixes, prepared)

    def _cached_prepared(self, kind: str, text: str, prefixes):
        if prefixes is not None:
            return None
        with self._cache_lock:
            entry = self._prepared.get((kind, text))
            if entry is not None:
                self._prepared.move_to_end((kind, text))
            return entry

    def _remember(self, kind: str, text: str, prefixes, prepared):
        """Insert under the cache lock; on a racing insert of the same
        text, keep and return the first one (so all threads share one
        prepared object and its caches)."""
        if prefixes is not None:
            return prepared
        with self._cache_lock:
            existing = self._prepared.get((kind, text))
            if existing is not None:
                return existing
            self._prepared[(kind, text)] = prepared
            if len(self._prepared) > _PREPARED_CACHE_SIZE:
                self._prepared.popitem(last=False)
            return prepared

    # -- write path -----------------------------------------------------

    def execute(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> UpdateResult:
        """Execute a SPARQL/Update request.

        This is the one-shot path: request strings are parsed and
        translated per call (the legacy facade behaviour); use
        :meth:`prepare` to amortize parse + translation over repeated
        executions.  Outside an explicit transaction each operation runs
        in its own database transaction (the paper's atomicity rule);
        inside one, all operations join the open transaction.
        """
        _OPS_UPDATE.inc()
        with self._lock:
            if isinstance(request, str):
                request = parse_update(request, prefixes=prefixes)
            runners = [
                (lambda op=op: self.backend.execute_operation(op))
                for op in request.operations
            ]
            return self._run_runners(runners, atomic=False)

    def execute_all(
        self,
        requests: Iterable[Union[str, UpdateRequest]],
        prefixes: Optional[PrefixMap] = None,
    ) -> UpdateResult:
        """Execute a batch of requests inside **one** transaction.

        Either every operation of every request commits, or — on the
        first error — everything rolls back and the error propagates.
        """
        _OPS_BATCH.inc()
        with self._lock:
            operations: List[UpdateOperation] = []
            for request in requests:
                if isinstance(request, str):
                    request = parse_update(request, prefixes=prefixes)
                operations.extend(request.operations)
            runners = [
                (lambda op=op: self.backend.execute_operation(op))
                for op in operations
            ]
            return self._run_runners(runners, atomic=True)

    # -- read path ------------------------------------------------------

    def query(
        self,
        q: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
        timeout: Optional[float] = None,
    ):
        """Run a SPARQL query; returns SelectResult / bool / Graph.

        ``timeout`` (seconds) bounds evaluation: the executor's
        cooperative cancellation checks raise :class:`~repro.errors.
        QueryTimeout` once it passes.  An enclosing deadline (e.g. the
        endpoint's per-request budget) is never loosened — the tighter
        of the two wins.
        """
        return self.query_outcome(q, prefixes=prefixes, timeout=timeout).result

    def query_outcome(
        self,
        q: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
        timeout: Optional[float] = None,
    ) -> QueryOutcome:
        # Read tier: no session lock.  The backend evaluates against the
        # committed snapshot current at the query's start (the thread
        # owning an open transaction sees its own writes instead).
        _OPS_QUERY.inc()
        with RequestContext(deadline=timeout):
            if isinstance(q, str):
                return self.prepare_query(q, prefixes=prefixes).outcome()
            return self.backend.query_outcome(q, prefixes=prefixes)

    def dump(self) -> Graph:
        """Materialize the backend's state as RDF.

        Read tier: both backends route their dump through the committed
        snapshot (or the working store for the transaction's own thread),
        so no lock is needed and a long-running transaction elsewhere
        never stalls a dump.
        """
        return self.backend.dump()

    # -- transactions ---------------------------------------------------

    def begin(self) -> None:
        """Open a transaction, holding the write-tier lock until
        :meth:`commit`/:meth:`rollback`.

        Transaction scope is thread-owned: exactly like the engine's
        writer lock, the thread that called ``begin`` must finish the
        transaction.  Another thread's write simply waits here (it can
        never sneak into — or deadlock against — an open transaction),
        and reads are unaffected (they use the committed snapshot).
        """
        self._lock.acquire()
        try:
            self.backend.begin()
        except BaseException:
            self._lock.release()
            raise
        self.backend._begin_holds += 1

    def _release_begin_hold(self) -> None:
        """Drop the lock acquisition made by :meth:`begin`, if any —
        also on the error paths (e.g. committing after a failed
        operation already rolled the transaction back).

        MUST be called while holding the lock: a begin-hold is itself a
        lock acquisition, so inside the lock a nonzero count can only be
        this thread's own reentrant hold — checking it anywhere else
        would race another thread's ``begin``.  The count lives on the
        backend, so a transaction begun through one session can be
        finished through another session over the same backend.
        """
        backend = self.backend
        if backend._begin_holds:
            backend._begin_holds -= 1
            self._lock.release()

    def commit(self) -> None:
        with self._lock:
            try:
                self.backend.commit()
            finally:
                self._release_begin_hold()

    def rollback(self) -> None:
        with self._lock:
            try:
                self.backend.rollback()
            finally:
                self._release_begin_hold()

    def in_transaction(self) -> bool:
        return self.backend.in_transaction()

    def health(self) -> Dict[str, Any]:
        """Backend health (ISSUE 6): durability state incl. WAL refusing
        mode and last-checkpoint age.  Read tier — no lock, so a health
        probe can never be starved by a long write."""
        return self.backend.health()

    def checkpoint(self) -> Optional[str]:
        """Force a durability checkpoint on the backend's store.

        Serializes on the write-tier lock — the snapshot cut must not
        interleave with an update or land inside an open transaction.
        Returns the checkpoint path, or None for in-memory backends.
        """
        with self._lock:
            return self.backend.checkpoint()

    @contextmanager
    def transaction(self):
        """Explicit scope: operations inside join one transaction."""
        with self._lock:
            self.backend.begin()
            try:
                yield self
            except Exception:
                if self.backend.in_transaction():
                    self.backend.rollback()
                raise
            else:
                self.backend.commit()

    # -- execution core -------------------------------------------------

    def _run_runners(self, runners: Sequence, atomic: bool) -> UpdateResult:
        """Run operation thunks with session-managed transaction scope.

        ``atomic=True`` wraps the whole batch in one transaction;
        otherwise each operation gets its own.  Inside an explicit
        transaction (``session.begin()``/``transaction()``) operations
        join it, and any error rolls the whole transaction back so no
        transaction is ever left open.
        """
        result = UpdateResult()
        backend = self.backend
        if backend.in_transaction():
            try:
                for run in runners:
                    result.operations.append(run())
            except Exception as exc:
                self._fail(exc)
            return result
        if atomic:
            backend.begin()
            try:
                for run in runners:
                    result.operations.append(run())
                backend.commit()
            except Exception as exc:
                self._fail(exc)
            return result
        for run in runners:
            backend.begin()
            try:
                result.operations.append(run())
                backend.commit()
            except Exception as exc:
                self._fail(exc)
        return result

    def _fail(self, exc: Exception) -> None:
        """Roll back any open transaction, then raise the wrapped error."""
        if self.backend.in_transaction():
            self.backend.rollback()
        wrapped = self.backend.wrap_error(exc)
        if wrapped is exc:
            raise exc
        raise wrapped from exc
