"""Shared exception hierarchy for the OntoAccess reproduction.

Every layer of the system raises exceptions derived from :class:`ReproError`
so applications can catch a single base class.  The mediation layer
(`repro.core`) additionally attaches machine-readable detail used by the RDF
feedback protocol (paper Section 6/8): each :class:`TranslationError` carries
a ``code`` identifying the failure class and a ``details`` mapping with the
offending subject/property/table so the error can be serialized to RDF.
"""

from __future__ import annotations

from typing import Any, Mapping


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# RDF layer
# ---------------------------------------------------------------------------

class RDFError(ReproError):
    """Base class for RDF term/graph errors."""


class TurtleParseError(RDFError):
    """Raised when a Turtle/N-Triples document cannot be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending input character.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# SQL / relational layer
# ---------------------------------------------------------------------------

class SQLError(ReproError):
    """Base class for SQL front-end and relational engine errors."""


class SQLParseError(SQLError):
    """Raised when a SQL statement cannot be parsed."""

    def __init__(self, message: str, position: int = 0) -> None:
        self.position = position
        super().__init__(message)


class DatabaseError(SQLError):
    """Base class for execution-time database errors."""


class CatalogError(DatabaseError):
    """Unknown table/column, duplicate definition, or invalid DDL."""


class TypeMismatchError(DatabaseError):
    """A value cannot be coerced to the declared column type."""


class IntegrityError(DatabaseError):
    """A constraint (PK, FK, NOT NULL, UNIQUE) was violated.

    ``constraint`` names the violated constraint kind (``"primary key"``,
    ``"foreign key"``, ``"not null"``, ``"unique"``) and ``table`` /
    ``column`` locate it, enabling rich feedback at the mediation layer.
    """

    def __init__(
        self,
        message: str,
        constraint: str = "",
        table: str = "",
        column: str = "",
    ) -> None:
        self.constraint = constraint
        self.table = table
        self.column = column
        super().__init__(message)


class TransactionError(DatabaseError):
    """Invalid transaction state (e.g. commit without begin)."""


class DurabilityError(DatabaseError):
    """Write-ahead log / checkpoint failure: unknown sync mode, a value
    the WAL cannot serialize, or corruption that recovery must not paper
    over (a torn record anywhere but the final segment's tail)."""


class ReadOnlyDatabaseError(DatabaseError):
    """A write was attempted against a database that is not the primary:
    either a replica still in ``apply_replicated`` mode, or a deposed
    primary that was fenced by a higher replication epoch.  The endpoint
    maps it to HTTP 403 with error code ``"read-only"`` — the write
    provably did not execute, so clients may safely re-route it."""


# ---------------------------------------------------------------------------
# Serving / resilience layer (ISSUE 6)
# ---------------------------------------------------------------------------

class QueryTimeout(ReproError):
    """Cooperative cancellation: an operation exceeded its deadline.

    Raised from the cheap cancellation checks in executor scan and DML
    loops (see :mod:`repro.context`), so a runaway query
    returns a typed error instead of burning a thread forever.  The
    endpoint maps it to HTTP 408 with a ``Retry-After`` header.
    """

    def __init__(self, message: str, timeout_seconds: float | None = None) -> None:
        self.timeout_seconds = timeout_seconds
        super().__init__(message)


class EndpointTransportError(ReproError):
    """A client-side transport failure (connection refused/reset, DNS,
    socket timeout) wrapped with the request context so callers never see
    raw ``socket.timeout`` / ``URLError`` leaking out of the client.

    ``attempts`` counts how many tries were made before giving up (>1
    when the retry policy re-sent an idempotent request).  ``request_id``
    is the ``X-Request-Id`` the client sent (constant across retries of
    one logical request), so a client-side failure is joinable against
    the server's access-log and slow-query entries.
    """

    def __init__(
        self,
        message: str,
        method: str = "",
        url: str = "",
        attempts: int = 1,
        cause: BaseException | None = None,
        request_id: str | None = None,
    ) -> None:
        self.method = method
        self.url = url
        self.attempts = attempts
        self.cause = cause
        self.request_id = request_id
        super().__init__(message)


class FaultError(ReproError):
    """Default error raised by an armed :class:`repro.faults.FaultInjector`
    rule that does not specify its own exception instance."""


class ReplicationError(ReproError):
    """WAL-shipping replication failure: a torn or CRC-failing frame on
    the wire, an unknown message kind, an unsatisfiable handshake, or a
    semi-sync commit that no replica acknowledged in time.

    Usually connection-scoped: the replica supervisor treats it like a
    dropped connection — disconnect, back off, reconnect, and resume
    from its applied position (or re-bootstrap from a checkpoint when
    the primary can no longer serve that position).  The exception is
    fencing (:class:`StaleEpochError`): a shipper deposed by a higher
    epoch stays fenced until its node rejoins as a replica."""


class StaleEpochError(ReplicationError):
    """An epoch-fencing violation: a message arrived stamped with an
    epoch below the receiver's, or a shipper discovered a replica living
    in a later epoch than its own.  The stale side must stop writing and
    rejoin the new primary as a replica; its frames are never applied."""


# ---------------------------------------------------------------------------
# SPARQL layer
# ---------------------------------------------------------------------------

class SPARQLError(ReproError):
    """Base class for SPARQL parsing and evaluation errors."""


class SPARQLParseError(SPARQLError):
    """Raised when a SPARQL query or update request cannot be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SPARQLEvalError(SPARQLError):
    """Raised when a parsed query cannot be evaluated."""


# ---------------------------------------------------------------------------
# R3M mapping layer
# ---------------------------------------------------------------------------

class MappingError(ReproError):
    """Base class for R3M mapping definition errors."""


class MappingParseError(MappingError):
    """The RDF document does not encode a well-formed R3M mapping."""


class MappingValidationError(MappingError):
    """The mapping is inconsistent with the database schema."""


# ---------------------------------------------------------------------------
# OntoAccess mediation layer
# ---------------------------------------------------------------------------

class TranslationError(ReproError):
    """A SPARQL/Update request could not be translated to SQL DML.

    This is the error surfaced to clients by the feedback protocol.  The
    ``code`` is a stable, machine-readable identifier (for example
    ``"unknown-subject"`` or ``"missing-required-property"``) and ``details``
    carries contextual values (subject URI, property URI, table, attribute)
    that :mod:`repro.core.feedback` turns into RDF.
    """

    #: Stable identifiers for the failure classes the checker can detect.
    UNKNOWN_SUBJECT = "unknown-subject"
    UNKNOWN_PROPERTY = "unknown-property"
    UNKNOWN_CLASS = "unknown-class"
    MISSING_REQUIRED = "missing-required-property"
    NOT_NULL_DELETE = "delete-violates-not-null"
    TYPE_MISMATCH = "literal-type-mismatch"
    MULTI_VALUE = "multiple-values-for-attribute"
    ENTITY_EXISTS = "entity-already-complete"
    ENTITY_MISSING = "entity-not-found"
    TRIPLE_MISSING = "triple-not-found"
    FK_TARGET_MISSING = "foreign-key-target-missing"
    CLASS_MISMATCH = "class-does-not-match-table"
    UNSUPPORTED = "unsupported-request"
    CONSTRAINT_VIOLATION = "constraint-violation"

    def __init__(
        self,
        message: str,
        code: str = "unsupported-request",
        details: Mapping[str, Any] | None = None,
    ) -> None:
        self.code = code
        self.details = dict(details or {})
        super().__init__(message)


class UnsupportedPatternError(TranslationError):
    """A SPARQL WHERE pattern falls outside the translatable fragment."""

    def __init__(self, message: str, details: Mapping[str, Any] | None = None) -> None:
        super().__init__(message, code=TranslationError.UNSUPPORTED, details=details)
