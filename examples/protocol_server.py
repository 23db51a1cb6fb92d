#!/usr/bin/env python3
"""Serving the Memcached text protocol over a real TCP socket.

Boots one simulated Memcached node behind an asyncio server
(:mod:`repro.net`) on a local port, then talks to it with the pooled,
pipelining :class:`~repro.net.client.NodeClient` -- the same stack the
``repro serve`` / ``repro live-migrate`` commands and the live socket
migration use.  Raw exchanges are shown with ``NodeClient.execute`` so
the wire bytes stay visible, then the typed API pipelines a small batch
and peeks at the ElMem migration commands.

Run with:  python examples/protocol_server.py
(``--smoke`` runs the same exchange with tight timeouts so CI and
`make examples` can never hang on it.)
"""

import sys

from repro.net.client import NodeClient
from repro.net.server import LiveClusterHarness
from repro.net.runtime import EventLoopThread

SMOKE = "--smoke" in sys.argv
TIMEOUT_S = 5.0 if SMOKE else 30.0


def main() -> None:
    with LiveClusterHarness(["tcp-node"], 16 << 20) as harness:
        host, port = harness.endpoints["tcp-node"]
        print(f"memcached-model listening on {host}:{port}")
        with EventLoopThread(name="example-client") as loop:
            client = NodeClient(
                "tcp-node", host, port, timeout_s=TIMEOUT_S
            )

            def raw(command: str, payload: bytes | None = None) -> bytes:
                return loop.call(
                    client.execute(command, payload), timeout=TIMEOUT_S
                )

            print(">> set greeting 0 0 13 / 'Hello, world!'")
            print("<<", raw("set greeting 0 0 13", b"Hello, world!"))
            print(">> get greeting")
            print("<<", raw("get greeting"))
            print(">> incr is rejected on text")
            print("<<", raw("incr greeting 1"))
            print(">> set counter 0 0 2 / '41'")
            print("<<", raw("set counter 0 0 2", b"41"))
            print(">> incr counter 1")
            print("<<", raw("incr counter 1"))

            print(">> pipelined set_many of 8 keys (one write, one read)")
            stored = loop.call(
                client.set_many(
                    (f"bulk-{i}", i, b"x" * 32) for i in range(8)
                ),
                timeout=TIMEOUT_S,
            )
            print(f"<< STORED x{stored}")

            print(">> ts_dump 0 (migration metadata, decoded excerpt)")
            rows = loop.call(client.ts_dump(0), timeout=TIMEOUT_S)
            print(f"<< TS {len(rows)} rows, one packed block")
            for key, last_access, size in rows[:3]:
                print(f"<<   {key} last_access={last_access} size={size}")

            print(">> stats (excerpt)")
            stats = raw("stats").decode()
            for line in stats.splitlines()[:6]:
                print("<<", line)
            loop.call(client.close(), timeout=TIMEOUT_S)
    print("done.")


if __name__ == "__main__":
    main()
