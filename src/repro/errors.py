"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A component was constructed or invoked with invalid parameters."""


class CapacityError(ReproError):
    """An operation exceeded a hard capacity limit (memory, ring, ...)."""


class MembershipError(ReproError):
    """A membership named an unknown or duplicate node, or a lookup found
    an empty ring."""


class MigrationError(ReproError):
    """A data-migration step could not be completed."""


class MigrationAbortedError(MigrationError):
    """A migration hit its deadline and the warm-up was abandoned.

    Raised only when the Master is configured with ``on_deadline="raise"``;
    the default behaviour degrades to cold scaling instead, because the
    scaling action itself must still complete.
    """


class InvariantViolation(ReproError):
    """A runtime invariant check found corrupted state.

    Raised by the :mod:`repro.check.invariants` validators (and by the
    Master's ``strict_mode`` hooks).  Carries structured context so a
    failing check can be diagnosed without re-running:

    ``invariant``
        Which validator fired (``"lru"``, ``"slabs"``, ``"ring"``,
        ``"fusecache"``).
    ``subject``
        The checked object (node name, ring description, ...).
    ``diff``
        A mapping of field -> ``{"expected": ..., "actual": ...}`` for
        every mismatching quantity.
    """

    def __init__(
        self,
        invariant: str,
        subject: str,
        message: str,
        diff: dict | None = None,
    ) -> None:
        self.invariant = invariant
        self.subject = subject
        self.diff = dict(diff or {})
        detail = f"[{invariant}] {subject}: {message}"
        if self.diff:
            parts = ", ".join(
                f"{field}: expected {entry['expected']!r}, "
                f"got {entry['actual']!r}"
                for field, entry in self.diff.items()
            )
            detail = f"{detail} ({parts})"
        super().__init__(detail)


class TransportError(ReproError):
    """A live network operation failed for good.

    Raised by :mod:`repro.net` clients once a request has exhausted its
    retry budget (connection refused/reset, stalled server past the
    configured timeout, connection closed mid-response).  The Master
    treats a :class:`TransportError` during phase 3 of a live migration
    exactly like an exhausted simulated flow: the pair is recorded as a
    failed flow and the migration degrades rather than crashing.
    """


class WireProtocolError(ReproError):
    """A live node answered a request with a protocol error line.

    Unlike :class:`TransportError` this is deterministic -- retrying the
    same bytes would fail the same way -- so clients raise immediately
    instead of burning their retry budget.
    """


class BlockingCallError(ReproError):
    """A blocking call was trapped on an event-loop thread.

    Raised by the :class:`~repro.check.loopcheck.LoopSanitizer` blocking
    trap when sanitized code calls ``time.sleep`` (or another trapped
    blocking primitive) on a thread that is running an asyncio event
    loop.  Such a call would stall every connection sharing the loop;
    the trap turns the latent stall into an immediate, attributable
    failure.
    """


class FaultError(ReproError):
    """An injected fault made an operation fail (node crash, flow loss)."""


class FlowTimeoutError(FaultError):
    """A network flow exceeded its configured timeout."""
