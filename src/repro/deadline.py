"""Request deadlines (ISSUE 6): a monotonic expiry and its typed check.

A :class:`Deadline` is carried by the request's
:class:`~repro.context.RequestContext` rather than threaded through
every call signature: the endpoint sets one per admitted request,
``Session.query(timeout=)`` enters a tighter one, and the executor's
cooperative guard (:meth:`~repro.context.RequestContext.cooperative`)
checks it every few hundred rows.  Once it passes, :meth:`Deadline.check`
raises a typed :class:`~repro.errors.QueryTimeout` that unwinds through
the normal exception paths — DML rolls back via the existing statement
savepoint / autocommit machinery, reads simply stop pulling rows.
"""

from __future__ import annotations

import time

from .errors import QueryTimeout

__all__ = ["Deadline"]


class Deadline:
    """A monotonic-clock expiry shared by one request's worth of work."""

    __slots__ = ("expires_at", "budget")

    def __init__(self, seconds: float) -> None:
        if not (seconds > 0.0):
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        self.budget = float(seconds)
        self.expires_at = time.monotonic() + self.budget

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`QueryTimeout` when the deadline has passed."""
        if time.monotonic() >= self.expires_at:
            raise QueryTimeout(
                f"operation exceeded its {self.budget:.3f}s deadline",
                timeout_seconds=self.budget,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Deadline budget={self.budget:.3f}s remaining={self.remaining():.3f}s>"
