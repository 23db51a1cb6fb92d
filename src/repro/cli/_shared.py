"""Helpers shared by the live-tier subcommand groups."""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator


@contextlib.contextmanager
def shutdown_signals() -> "Iterator[Callable[[float | None], str]]":
    """Install SIGINT/SIGTERM handlers; yield a blocking wait function.

    The handlers must be live *before* the serving banner is printed —
    a supervisor that reacts to the banner may fire its TERM within
    microseconds, and the default disposition would kill the process
    mid-connection.  The yielded callable blocks until a signal arrives
    or the given duration elapses, returning the signal name or ``""``.
    The previous handlers are restored on exit.
    """
    import signal
    import threading

    stop = threading.Event()
    received = {"name": ""}

    def handler(signum: int, frame: object) -> None:
        received["name"] = signal.Signals(signum).name
        stop.set()

    def wait(duration: float | None) -> str:
        stop.wait(timeout=duration)
        return received["name"]

    previous = {
        sig: signal.signal(sig, handler)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield wait
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def sample_fraction(text: str) -> float:
    """``--trace-sample`` values: a float in [0, 1]."""
    import argparse

    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def parse_endpoint(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {spec!r}")
    return host, int(port)


def parse_targets(specs: list[str]) -> dict[str, tuple[str, int]]:
    """``--target [NAME=]HOST:PORT`` specs as an endpoint map.

    An unnamed spec is called ``target-NN`` after its position.  A
    repeated name would silently drop a node, so it exits instead.
    """
    endpoints: dict[str, tuple[str, int]] = {}
    for index, spec in enumerate(specs):
        name, eq, rest = spec.partition("=")
        if not eq:
            name, rest = f"target-{index:02d}", spec
        if not name:
            raise SystemExit(f"expected [NAME=]HOST:PORT, got {spec!r}")
        if name in endpoints:
            raise SystemExit(f"duplicate --target name {name!r}")
        endpoints[name] = parse_endpoint(rest)
    return endpoints
