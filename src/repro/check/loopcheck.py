"""Runtime event-loop sanitizer for the live tier.

The static REP1xx rules (:mod:`repro.check.rules`) catch blocking
patterns the AST can see; this module catches the ones it can't --
third-party calls, dynamic dispatch, callbacks that are merely *slow* --
by instrumenting the loop itself.  A :class:`LoopSanitizer` is opt-in
and attaches to an event loop three ways at once:

1. **asyncio debug mode** plus a tightened ``slow_callback_duration``,
   so the loop itself reports callbacks that hog it;
2. a **log capture** on the ``asyncio`` logger that turns those slow
   callback reports (and "Task was destroyed but it is pending!"
   messages) into structured findings instead of easily-missed stderr
   lines;
3. a **blocking-call trap**: ``time.sleep``, ``socket.create_connection``
   and ``socket.getaddrinfo`` are patched process-wide while any
   sanitizer is installed, and a call landing on a registered loop
   thread raises :class:`~repro.errors.BlockingCallError` (localhost
   speed hides blocked loops; the trap makes them fail loudly).

The patch is refcounted and thread-registered: other threads (pytest's
main thread, executor threads asyncio uses for ``getaddrinfo``) fall
straight through to the real functions, so a sanitizer can be active
while ordinary synchronous code sleeps freely.

Wiring: :class:`~repro.net.runtime.EventLoopThread` accepts a
``sanitizer=`` and installs it on its loop; the live/proxy harnesses and
``repro serve``/``repro proxy``/``repro live-migrate`` expose it as
``sanitize=True`` / ``--sanitize``.  After the run,
:meth:`LoopSanitizer.report` summarizes findings, and
:meth:`LoopSanitizer.check` raises if any were recorded.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import BlockingCallError, InvariantViolation

DEFAULT_SLOW_CALLBACK_S = 0.25
"""Default loop-hog threshold; generous enough for CI noise."""


@dataclass
class SanitizerFinding:
    """One runtime hazard observed by a :class:`LoopSanitizer`."""

    kind: str  # "blocking-call" | "slow-callback" | "pending-task-destroyed"
    message: str
    thread: str

    def render(self) -> str:
        return f"[{self.kind}] ({self.thread}) {self.message}"


# ---------------------------------------------------------------------------
# Process-wide blocking-call trap (refcounted)
# ---------------------------------------------------------------------------

_TRAP_LOCK = threading.Lock()
#: Thread ident -> sanitizer for every installed sanitizer.
_LOOP_THREADS: dict[int, "LoopSanitizer"] = {}
_ORIGINALS: dict[str, Callable[..., Any]] = {}


def _trap(module: Any, attr: str, label: str) -> None:
    original = getattr(module, attr)
    _ORIGINALS[label] = original

    def guarded(*args: Any, **kwargs: Any) -> Any:
        sanitizer = _LOOP_THREADS.get(threading.get_ident())
        if sanitizer is not None:
            sanitizer._record_blocking(label)
        return original(*args, **kwargs)

    guarded.__name__ = getattr(original, "__name__", attr)
    setattr(module, attr, guarded)


def _install_traps() -> None:
    if _ORIGINALS:
        return
    _trap(time, "sleep", "time.sleep")
    _trap(socket, "create_connection", "socket.create_connection")
    _trap(socket, "getaddrinfo", "socket.getaddrinfo")


def _uninstall_traps() -> None:
    if not _ORIGINALS:
        return
    time.sleep = _ORIGINALS["time.sleep"]  # type: ignore[assignment]
    socket.create_connection = (  # type: ignore[assignment]
        _ORIGINALS["socket.create_connection"]
    )
    socket.getaddrinfo = (  # type: ignore[assignment]
        _ORIGINALS["socket.getaddrinfo"]
    )
    _ORIGINALS.clear()


class _AsyncioLogCapture(logging.Handler):
    """Turns asyncio debug-mode warnings into sanitizer findings."""

    def __init__(self, sanitizer: "LoopSanitizer") -> None:
        super().__init__(level=logging.WARNING)
        self._sanitizer = sanitizer

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "Executing" in message and "took" in message:
            kind = "slow-callback"
        elif "Task was destroyed but it is pending" in message:
            kind = "pending-task-destroyed"
        else:
            return
        self._sanitizer._add_finding(kind, message)


class LoopSanitizer:
    """Opt-in runtime instrumentation for one or more event loops.

    Parameters
    ----------
    slow_callback_s:
        Threshold for the loop's own slow-callback report; anything
        hogging the loop longer becomes a ``slow-callback`` finding.
    raise_on_block:
        Make a trapped blocking call raise
        :class:`~repro.errors.BlockingCallError` at the call site
        (default).  With ``False`` the call is recorded as a finding and
        allowed through -- audit mode.
    """

    def __init__(
        self,
        slow_callback_s: float = DEFAULT_SLOW_CALLBACK_S,
        raise_on_block: bool = True,
    ) -> None:
        self.slow_callback_s = slow_callback_s
        self.raise_on_block = raise_on_block
        self.findings: list[SanitizerFinding] = []
        self._lock = threading.Lock()
        self._installed_threads: set[int] = set()
        self._capture: _AsyncioLogCapture | None = None

    # ------------------------------------------------------------------
    # Install / uninstall (called on the loop's own thread)
    # ------------------------------------------------------------------

    def install(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach to ``loop``; must run on the loop's thread."""
        loop.set_debug(True)
        loop.slow_callback_duration = self.slow_callback_s
        ident = threading.get_ident()
        with _TRAP_LOCK:
            self._installed_threads.add(ident)
            _LOOP_THREADS[ident] = self
            _install_traps()
            if self._capture is None:
                self._capture = _AsyncioLogCapture(self)
                logging.getLogger("asyncio").addHandler(self._capture)

    def uninstall(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Detach from the calling thread's loop; must run on it."""
        ident = threading.get_ident()
        with _TRAP_LOCK:
            self._installed_threads.discard(ident)
            _LOOP_THREADS.pop(ident, None)
            if not _LOOP_THREADS:
                _uninstall_traps()
            if not self._installed_threads and self._capture is not None:
                logging.getLogger("asyncio").removeHandler(self._capture)
                self._capture = None

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------

    def _add_finding(self, kind: str, message: str) -> None:
        finding = SanitizerFinding(
            kind=kind,
            message=message,
            thread=threading.current_thread().name,
        )
        with self._lock:
            self.findings.append(finding)

    def _record_blocking(self, label: str) -> None:
        message = (
            f"blocking `{label}` called on event-loop thread "
            f"{threading.current_thread().name!r}"
        )
        self._add_finding("blocking-call", message)
        if self.raise_on_block:
            raise BlockingCallError(message)

    def report(self) -> dict[str, Any]:
        """A JSON-able summary of everything observed."""
        with self._lock:
            findings = list(self.findings)
        by_kind: dict[str, int] = {}
        for finding in findings:
            by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
        return {
            "findings": [finding.render() for finding in findings],
            "by_kind": by_kind,
            "clean": not findings,
        }

    def check(self, subject: str = "event loop") -> None:
        """Raise :class:`InvariantViolation` if any finding was recorded."""
        report = self.report()
        if report["clean"]:
            return
        raise InvariantViolation(
            "loop-sanitizer",
            subject,
            "runtime loop hazards observed: "
            + "; ".join(report["findings"][:5]),
            diff={
                kind: {"expected": 0, "actual": count}
                for kind, count in report["by_kind"].items()
            },
        )


def create_sanitizer(
    enabled: bool,
    slow_callback_s: float = DEFAULT_SLOW_CALLBACK_S,
) -> LoopSanitizer | None:
    """``LoopSanitizer`` when ``enabled``, else ``None`` (harness helper)."""
    if not enabled:
        return None
    return LoopSanitizer(slow_callback_s=slow_callback_s)
