"""Per-backend circuit breakers for the proxy tier.

A :class:`CircuitBreaker` guards one backend connection pool with the
classic three-state machine:

- **closed** -- traffic flows; consecutive transport failures are
  counted, and crossing ``failure_threshold`` trips the breaker open.
- **open** -- every request is rejected locally (fail-fast, no socket
  touched) until ``open_duration_s`` has elapsed, at which point the
  next request is admitted as a probe and the breaker moves to
  half-open.
- **half-open** -- at most one probe request is in flight at a time;
  ``close_after`` consecutive probe successes close the breaker, any
  probe failure re-opens it (and restarts the open timer).

The breaker never raises by itself: callers ask :meth:`allow` before a
request and report the outcome with :meth:`record_success` /
:meth:`record_failure`.  The proxy router degrades a request its breaker
rejects to a miss/no-op without touching a socket, and reports exactly
one outcome for every request it admits.

State is observable through :mod:`repro.obs`: a per-backend
``proxy_breaker_state`` gauge (0=closed, 1=open, 2=half-open) and a
``proxy_breaker_transitions_total{backend,to}`` counter, which is what
the chaos tests assert on.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ConfigurationError
from repro.obs import NULL_TELEMETRY, Telemetry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}
"""Gauge encoding of breaker states."""


class CircuitBreaker:
    """Closed/open/half-open failure gate for one backend.

    Parameters
    ----------
    backend:
        Backend node name, used for metric labels.
    failure_threshold:
        Consecutive failures (while closed) that trip the breaker.
    open_duration_s:
        How long the breaker stays open before admitting a probe.
    close_after:
        Consecutive half-open probe successes required to close.
    clock:
        Zero-argument time source; defaults to :func:`time.monotonic`.
        Tests inject a manual clock to step through the state machine
        deterministically.
    """

    def __init__(
        self,
        backend: str,
        failure_threshold: int = 3,
        open_duration_s: float = 1.0,
        close_after: int = 1,
        clock: Callable[[], float] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if open_duration_s <= 0:
            raise ConfigurationError("open_duration_s must be positive")
        if close_after < 1:
            raise ConfigurationError("close_after must be >= 1")
        self.backend = backend
        self.failure_threshold = failure_threshold
        self.open_duration_s = open_duration_s
        self.close_after = close_after
        self._clock = clock or time.monotonic
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._probe_successes = 0
        metrics = (telemetry or NULL_TELEMETRY).metrics
        self._m_state = metrics.gauge(
            "proxy_breaker_state",
            "Breaker state per backend (0=closed, 1=open, 2=half-open)",
            backend=backend,
        )
        self._m_transitions = {
            state: metrics.counter(
                "proxy_breaker_transitions_total",
                "Breaker state transitions",
                backend=backend,
                to=state,
            )
            for state in (CLOSED, OPEN, HALF_OPEN)
        }
        self._m_rejected = metrics.counter(
            "proxy_breaker_rejections_total",
            "Requests rejected locally by an open breaker",
            backend=backend,
        )
        self._m_state.set(STATE_CODES[CLOSED])

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, *after* applying any due open -> half-open move."""
        self._maybe_half_open()
        return self._state

    def _transition(self, state: str) -> None:
        self._state = state
        self._m_state.set(STATE_CODES[state])
        self._m_transitions[state].inc()

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.open_duration_s
        ):
            self._probe_in_flight = False
            self._probe_successes = 0
            self._transition(HALF_OPEN)

    def allow(self) -> bool:
        """Whether one request may proceed right now.

        In half-open state this *claims* the single probe slot, so the
        caller must follow up with :meth:`record_success` or
        :meth:`record_failure` to release it.
        """
        self._maybe_half_open()
        if self._state == CLOSED:
            return True
        if self._state == HALF_OPEN and not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        self._m_rejected.inc()
        return False

    def record_success(self) -> None:
        """Report that an admitted request completed cleanly."""
        if self._state == HALF_OPEN:
            self._probe_in_flight = False
            self._probe_successes += 1
            if self._probe_successes >= self.close_after:
                self._failures = 0
                self._transition(CLOSED)
        else:
            self._failures = 0

    def record_failure(self) -> None:
        """Report that an admitted request failed at the transport layer."""
        if self._state == HALF_OPEN:
            self._probe_in_flight = False
            self._open()
        elif self._state == CLOSED:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._open()

    def _open(self) -> None:
        self._opened_at = self._clock()
        self._failures = 0
        self._transition(OPEN)

    def reset(self) -> None:
        """Force the breaker closed (membership change / tests)."""
        self._failures = 0
        self._probe_in_flight = False
        self._probe_successes = 0
        if self._state != CLOSED:
            self._transition(CLOSED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.backend!r}, state={self._state!r})"
