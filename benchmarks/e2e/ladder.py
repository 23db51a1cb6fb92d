"""The two ladders: layers the driver cannot see into, measured from outside.

**Request ladder.**  The head of the workload's tape is turned into a
fixed *script* of steps (the gets of a request, then the fill sets its
misses cause) and that one script is replayed sequentially at each rung:

0. ``memcached.node``     -- ``MemcachedNode.get_many/set_many`` in process
1. ``memcached.protocol`` -- ``TextProtocolServer.feed`` on pre-encoded bytes
2. ``net.server``         -- a blocking raw socket to the child's ``NodeServer``
3. ``net.client``         -- ``NodeClient`` over asyncio
4. ``proxy``              -- ``NodeClient`` -> ``ProxyServer`` (proxy topology)

A rung's cost is its time minus the rung beneath, so the self times add
up to the top rung by construction.  The same requests through
``LoadGenerator.run`` give the generator's own CPU cost per op.

**Migration ladder.**  Each primitive of the scale-in is timed on the
item set the in-process twin migrates: ``dump_metadata``, ``fuse_cache``
on the dumped lists, ``export_items``, and ``batch_import`` in ``merge``
and ``prepend`` mode onto a node at the run's occupancy; then
``ts_dump``/``mig_export``/``batch_import`` over the wire against the
live nodes the run left behind.
"""

from __future__ import annotations

import asyncio
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from benchmarks.e2e.driver import PROXY, Endpoints
from benchmarks.e2e.spec import KEYS_PER_REQUEST, WorkloadSpec
from statistics import median
from benchmarks.e2e.tape import Request, Tape
from repro.core.fusecache import fuse_cache_detailed
from repro.core.master import Master
from repro.hashing.ketama import ConsistentHashRing
from repro.loadgen.driver import LoadGenerator
from repro.loadgen.schedule import ScheduledOp, build_schedule
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.node import MemcachedNode
from repro.memcached.protocol import TextProtocolServer
from repro.net.client import NodeClient

Part = tuple[str, list[str]]  # (owner, keys)
Step = tuple[bool, list[Part]]  # (is_set, parts awaited together)

LOADGEN_OPS_PER_S = 8000.0
"""Offered rate of the LoadGenerator replay: ops due evenly in time, the
way ``build_schedule`` spreads them, well inside what the tier serves."""


# ---------------------------------------------------------------------------
# In-process replica of the tier (rungs 0-1, and the reference twins)
# ---------------------------------------------------------------------------


def seeded_cluster(
    spec: WorkloadSpec, tape: Tape, members: list[str]
) -> MemcachedCluster:
    """An in-process tier seeded exactly like the live one.

    Seeding happens on a virtual timeline just before t = 0, one tick
    per key, so ``last_access`` orders keys the way the live seeding did.
    """
    cluster = MemcachedCluster(members, spec.memory_per_node)
    payloads = tape.payloads
    count = len(tape.seed_order)
    for position, key in enumerate(tape.seed_order):
        payload = payloads[key]
        cluster.set(key, (0, payload), len(payload), (position - count) * 1e-6)
    return cluster


def replay(
    cluster: MemcachedCluster,
    tape: Tape,
    rate: float,
    start: int,
    stop: int,
) -> list[tuple[int, int]]:
    """Serve requests ``[start, stop)`` in process, with cache-aside fill.

    Request ``i`` happens at virtual time ``i / rate``; returns each
    request's ``(hits, gets)``.
    """
    payloads = tape.payloads
    outcome: list[tuple[int, int]] = []
    for index in range(start, stop):
        is_write, keys = tape.requests[index]
        now = index / rate
        if is_write:
            to_set = keys
            outcome.append((0, 0))
        else:
            values = cluster.get_many(keys, now)
            to_set = [key for key, value in zip(keys, values) if value is None]
            outcome.append((len(keys) - len(to_set), len(keys)))
        if to_set:
            cluster.set_many(
                [(key, (0, payloads[key]), len(payloads[key])) for key in to_set],
                now,
            )
    return outcome


# ---------------------------------------------------------------------------
# Request ladder
# ---------------------------------------------------------------------------


def build_script(
    spec: WorkloadSpec, tape: Tape, members: list[str], requests: int
) -> list[Step]:
    """The fixed op sequence every rung replays.

    Derived once by serving the requests in process: a read contributes
    its gets and, when keys missed, a second step with the fill sets.
    """
    cluster = seeded_cluster(spec, tape, members)
    ring = cluster.ring
    payloads = tape.payloads
    script: list[Step] = []
    for index in range(requests):
        is_write, keys = tape.requests[index]
        if is_write:
            to_set = keys
        else:
            script.append((False, list(ring.nodes_for_keys(keys).items())))
            values = cluster.get_many(keys, float(index))
            to_set = [key for key, value in zip(keys, values) if value is None]
        if to_set:
            script.append((True, list(ring.nodes_for_keys(to_set).items())))
            cluster.set_many(
                [(key, (0, payloads[key]), len(payloads[key])) for key in to_set],
                float(index),
            )
    return script


@dataclass
class Rung:
    """One rung's wall time, split by the kind of step."""

    name: str
    get_s: float = 0.0
    set_s: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.get_s + self.set_s

    def charge(self, is_set: bool, seconds: float) -> None:
        if is_set:
            self.set_s += seconds
        else:
            self.get_s += seconds


def _encode(is_set: bool, keys: list[str], payloads: dict[str, bytes]) -> bytes:
    """The bytes ``NodeClient`` would put on the wire for one part."""
    if not is_set:
        return b"get " + " ".join(keys).encode("ascii") + b"\r\n"
    return b"".join(
        f"set {key} 0 0 {len(payloads[key])}\r\n".encode("ascii")
        + payloads[key]
        + b"\r\n"
        for key in keys
    )


def _in_process_rungs(
    spec: WorkloadSpec, tape: Tape, members: list[str], script: list[Step]
) -> tuple[Rung, Rung]:
    clock = time.perf_counter
    payloads = tape.payloads

    node_rung = Rung("memcached.node")
    nodes = seeded_cluster(spec, tape, members).nodes
    for tick, (is_set, parts) in enumerate(script):
        now = float(tick)
        if is_set:
            prepared = [
                (
                    nodes[owner],
                    [(key, (0, payloads[key]), len(payloads[key])) for key in keys],
                )
                for owner, keys in parts
            ]
            start = clock()
            for node, entries in prepared:
                node.set_many(entries, now)
            node_rung.set_s += clock() - start
        else:
            start = clock()
            for owner, keys in parts:
                nodes[owner].get_many(keys, now)
            node_rung.get_s += clock() - start

    protocol_rung = Rung("memcached.protocol")
    virtual_now = [0.0]
    servers = {
        name: TextProtocolServer(node, lambda: virtual_now[0])
        for name, node in seeded_cluster(spec, tape, members).nodes.items()
    }
    for tick, (is_set, parts) in enumerate(script):
        virtual_now[0] = float(tick)
        wires = [
            (servers[owner], _encode(is_set, keys, payloads))
            for owner, keys in parts
        ]
        start = clock()
        for server, wire in wires:
            server.feed(wire)
        protocol_rung.charge(is_set, clock() - start)
    return node_rung, protocol_rung


def _read_reply(sock: socket.socket, is_set: bool, keys: int) -> int:
    """Block until one part's reply is complete; returns its length."""
    chunks: list[bytes] = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("node closed the ladder connection")
        chunks.append(chunk)
        reply = b"".join(chunks) if len(chunks) > 1 else chunk
        if is_set:
            if reply.count(b"\r\n") >= keys:
                return len(reply)
        elif reply.endswith(b"END\r\n"):
            return len(reply)


def _socket_rung(
    endpoints: Endpoints, tape: Tape, script: list[Step]
) -> Rung:
    clock = time.perf_counter
    rung = Rung("net.server")
    socks = {
        name: socket.create_connection(endpoint) for name, endpoint in endpoints.items()
    }
    wire_bytes = 0
    try:
        for sock in socks.values():
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for is_set, parts in script:
            wires = [
                (socks[owner], _encode(is_set, keys, tape.payloads), len(keys))
                for owner, keys in parts
            ]
            start = clock()
            for sock, wire, _ in wires:
                sock.sendall(wire)
            for sock, wire, keys in wires:
                wire_bytes += len(wire) + _read_reply(sock, is_set, keys)
            rung.charge(is_set, clock() - start)
    finally:
        for sock in socks.values():
            sock.close()
    rung.extra["wire_bytes"] = float(wire_bytes)
    return rung


async def _client_rung(
    name: str,
    clients: dict[str, NodeClient],
    tape: Tape,
    script: list[Step],
    through: str | None = None,
) -> Rung:
    """Replay through ``NodeClient``; ``through`` merges every step's
    parts onto that one client (the proxy routes for itself)."""
    clock = time.perf_counter
    payloads = tape.payloads
    rung = Rung(name)
    get_part_s: list[float] = []

    async def get_part(client: NodeClient, keys: list[str]) -> None:
        start = clock()
        await client.get_many(keys)
        get_part_s.append(clock() - start)

    for is_set, parts in script:
        if through is not None:
            parts = [(through, [key for _, keys in parts for key in keys])]
        start = clock()
        if is_set:
            await asyncio.gather(
                *(
                    clients[owner].set_many(
                        [(key, 0, payloads[key]) for key in keys]
                    )
                    for owner, keys in parts
                )
            )
        else:
            await asyncio.gather(
                *(get_part(clients[owner], keys) for owner, keys in parts)
            )
        rung.charge(is_set, clock() - start)
    rung.extra["get_many_p50_s"] = median(get_part_s) if get_part_s else 0.0
    return rung


async def _loadgen_cost(
    spec: WorkloadSpec,
    endpoints: Endpoints,
    requests: list[Request],
    seed: int,
) -> dict[str, float]:
    """Generator cost: CPU the driver burns replaying the same requests
    through ``LoadGenerator.run``, and the time to plan as many ops.

    The generator's own p50s are reported beside it.  They are read from
    its coarse histograms and feed no other metric; they are here because
    ops due late in a tick are sent with the tick, i.e. early, and their
    response time is counted from the later due time -- so the generator's
    ``response`` p50 can read *below* its ``service`` p50.
    """
    schedule = [
        ScheduledOp(
            index=index * KEYS_PER_REQUEST + slot,
            send_at_s=round(
                (index * KEYS_PER_REQUEST + slot) / LOADGEN_OPS_PER_S, 9
            ),
            op="set" if is_write else "get",
            key=key,
            value_bytes=spec.value_bytes if is_write else 0,
        )
        for index, (is_write, keys) in enumerate(requests)
        for slot, key in enumerate(keys)
    ]
    generator = LoadGenerator(endpoints, schedule, pool_size=2, timeout_s=60.0)
    cpu_before = time.process_time()
    await generator.run()
    cpu = time.process_time() - cpu_before
    if generator.ops_ok != len(schedule):
        raise RuntimeError(
            f"LoadGenerator completed {generator.ops_ok} of {len(schedule)} ops"
        )
    start = time.perf_counter()
    planned = build_schedule(
        LOADGEN_OPS_PER_S,
        len(schedule) / LOADGEN_OPS_PER_S,
        seed=seed,
        num_keys=spec.num_keys,
        set_fraction=spec.write_fraction,
        value_bytes=spec.value_bytes,
        zipf_alpha=spec.zipf_alpha,
    )
    build_s = time.perf_counter() - start
    del planned
    return {
        "loadgen.replay_us_per_op": cpu / len(schedule) * 1e6,
        "loadgen.build_schedule_s": build_s,
        "loadgen.response_p50_ms": (generator.response_hist.quantile(0.5) or 0.0)
        * 1e3,
        "loadgen.service_p50_ms": (generator.service_hist.quantile(0.5) or 0.0)
        * 1e3,
    }


async def request_ladder(
    spec: WorkloadSpec,
    tape: Tape,
    seed: int,
    endpoints: Endpoints,
    proxy: tuple[str, int] | None,
    requests: int,
) -> tuple[dict[str, float], list[Rung]]:
    """Climb every rung on the first ``requests`` requests of the tape.

    ``endpoints`` are the nodes currently on the ring.  Returns the
    per-layer metrics and the rungs themselves (for the printed table).
    """
    members = sorted(endpoints)
    script = build_script(spec, tape, members, requests)
    gets = sum(len(k) for is_set, parts in script if not is_set for _, k in parts)
    sets = sum(len(k) for is_set, parts in script if is_set for _, k in parts)

    node_rung, protocol_rung = _in_process_rungs(spec, tape, members, script)
    socket_rung = _socket_rung(endpoints, tape, script)
    clients = {
        name: NodeClient(name, *endpoint, pool_size=2, timeout_s=60.0)
        for name, endpoint in endpoints.items()
    }
    if proxy is not None:
        clients[PROXY] = NodeClient(PROXY, *proxy, pool_size=2, timeout_s=60.0)
    try:
        client_rung = await _client_rung("net.client", clients, tape, script)
        rungs = [node_rung, protocol_rung, socket_rung, client_rung]
        if proxy is not None:
            rungs.append(
                await _client_rung("proxy", clients, tape, script, through=PROXY)
            )
    finally:
        for client in clients.values():
            await client.close()

    def per(seconds: float, count: int) -> float:
        return seconds / count * 1e6 if count else 0.0

    metrics = {
        "memcached.node.get_us_per_op": per(node_rung.get_s, gets),
        "memcached.node.set_us_per_op": per(node_rung.set_s, sets),
        "memcached.protocol.get_self_us_per_op": per(
            protocol_rung.get_s - node_rung.get_s, gets
        ),
        "memcached.protocol.set_self_us_per_op": per(
            protocol_rung.set_s - node_rung.set_s, sets
        ),
        "net.server.self_us_per_req": per(
            socket_rung.total_s - protocol_rung.total_s, requests
        ),
        "net.client.self_us_per_req": per(
            client_rung.total_s - socket_rung.total_s, requests
        ),
        "net.client.get_many_rung_p50_us": client_rung.extra["get_many_p50_s"] * 1e6,
        "wire.bytes_per_op": socket_rung.extra["wire_bytes"] / (gets + sets),
    }
    if proxy is not None:
        metrics["proxy.self_us_per_req"] = per(
            rungs[-1].total_s - client_rung.total_s, requests
        )
    metrics.update(
        await _loadgen_cost(spec, endpoints, tape.requests[:requests], seed)
    )
    return metrics, rungs


# ---------------------------------------------------------------------------
# Reference twins and the migration ladder (scale_in_warm)
# ---------------------------------------------------------------------------


@dataclass
class TwinResult:
    """What the in-process replays of the scale-in run found."""

    cold_post_hit_rate: float
    twin_post_hit_rate: float
    comparisons: int
    items_imported: int
    transfers: dict[tuple[str, str], list[str]]


def _post_hit_rate(outcome: list[tuple[int, int]]) -> float:
    gets = sum(g for _, g in outcome)
    return sum(h for h, _ in outcome) / gets if gets else 0.0


def reference_twins(
    spec: WorkloadSpec,
    tape: Tape,
    rate: float,
    members: list[str],
    retiring: str,
    trigger: int,
    switch: int,
    post_stop: int,
) -> TwinResult:
    """Replay the run in process twice: cold switch, and the Master twin.

    Both serve requests ``[0, switch)`` on the full ring, switch to the
    ring without ``retiring``, and report the hit rate of requests
    ``[switch, post_stop)``.  The twin plans at ``trigger`` and executes
    at ``switch`` like the live controller; the cold run just drops the
    node, which is what scaling without ElMem does.  ``rate`` is the
    offered request rate, which places request ``i`` at time ``i / rate``.
    """
    retained = [name for name in members if name != retiring]

    cold = seeded_cluster(spec, tape, members)
    replay(cold, tape, rate, 0, switch)
    cold.set_membership(retained)
    cold.destroy(retiring)
    cold_rate = _post_hit_rate(replay(cold, tape, rate, switch, post_stop))

    twin = seeded_cluster(spec, tape, members)
    replay(twin, tape, rate, 0, trigger)
    master = Master(twin)
    plan = master.plan_scale_in([retiring], now=trigger / rate)
    transfers = {pair: list(keys) for pair, keys in plan.transfers.items()}
    replay(twin, tape, rate, trigger, switch)
    report = master.execute(plan, now=switch / rate)
    twin_rate = _post_hit_rate(replay(twin, tape, rate, switch, post_stop))
    return TwinResult(
        cold_post_hit_rate=cold_rate,
        twin_post_hit_rate=twin_rate,
        comparisons=plan.fusecache_comparisons,
        items_imported=report.items_imported,
        transfers=transfers,
    )


def _timed(work: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = work()
    return time.perf_counter() - start, value


def migration_ladder_in_process(
    spec: WorkloadSpec,
    tape: Tape,
    rate: float,
    members: list[str],
    retiring: str,
    switch: int,
    transfers: dict[tuple[str, str], list[str]],
) -> dict[str, float]:
    """Time each migration primitive in process, at the run's occupancy."""
    us = 1e6

    def at_switch() -> MemcachedCluster:
        cluster = seeded_cluster(spec, tape, members)
        replay(cluster, tape, rate, 0, switch)
        return cluster

    cluster = at_switch()
    source = cluster.nodes[retiring]
    dump_s, dumped = _timed(source.dump_metadata)
    dumped_items = sum(len(rows) for rows in dumped.values())

    # FuseCache on the lists the plan fused: per retained node and slab
    # class, the retiring node's entries bound for it plus its own.
    ring = ConsistentHashRing([name for name in members if name != retiring])
    fuse_inputs: list[tuple[list[list[float]], int]] = []
    master = Master(cluster)
    for dst in ring.members:
        dst_agent = master.agent(dst)
        for class_id, rows in dumped.items():
            incoming = sorted(
                (ts for key, ts in rows if ring.node_for_key(key) == dst),
                reverse=True,
            )
            if incoming:
                fuse_inputs.append(
                    (
                        [incoming, dst_agent.sorted_timestamps(class_id)],
                        dst_agent.slab_capacity_items(class_id),
                    )
                )
    select_s, _ = _timed(
        lambda: [fuse_cache_detailed(lists, n) for lists, n in fuse_inputs]
    )

    metrics = {
        "memcached.node.ts_dump_us_per_item": dump_s / max(1, dumped_items) * us,
        "core.fusecache.select_ms": select_s * 1e3,
    }
    moved = sum(len(keys) for keys in transfers.values())
    export_s = 0.0
    exported: dict[tuple[str, str], list[Any]] = {}
    for pair, keys in transfers.items():
        seconds, exported[pair] = _timed(lambda: source.export_items(keys))
        export_s += seconds
    metrics["memcached.node.export_us_per_item"] = export_s / max(1, moved) * us
    for mode in ("merge", "prepend"):
        target = cluster if mode == "merge" else at_switch()
        import_s = 0.0
        for (_, dst), records in exported.items():
            node: MemcachedNode = target.nodes[dst]
            import_s += _timed(lambda: node.batch_import(records, mode=mode))[0]
        metrics[f"memcached.node.import_{mode}_us_per_item"] = (
            import_s / max(1, moved) * us
        )
    return metrics


async def migration_ladder_wire(
    endpoints: Endpoints, items: int
) -> dict[str, float]:
    """The same primitives over the wire, on the nodes the run left.

    ``items`` records are dumped and exported from one retained node and
    merge-imported into the other, which is full, like the live import.
    """
    (src_name, src_ep), (dst_name, dst_ep) = sorted(endpoints.items())[:2]
    src = NodeClient(src_name, *src_ep, timeout_s=60.0)
    dst = NodeClient(dst_name, *dst_ep, timeout_s=60.0)
    clock = time.perf_counter
    us = 1e6
    try:
        slabs = await src.stats_slabs()
        classes = sorted(
            int(name.partition(":")[0])
            for name, value in slabs.items()
            if name.endswith(":used_chunks") and value > 0
        )
        start = clock()
        rows = [row for class_id in classes for row in await src.ts_dump(class_id)]
        dump_s = clock() - start
        keys = [key for key, _, _ in rows[:items]]
        start = clock()
        records = await src.mig_export(keys)
        export_s = clock() - start
        start = clock()
        imported = await dst.batch_import(records, mode="merge")
        import_s = clock() - start
    finally:
        await src.close()
        await dst.close()
    return {
        "net.cluster.ts_dump_us_per_item": dump_s / max(1, len(rows)) * us,
        "net.cluster.export_us_per_item": export_s / max(1, len(records)) * us,
        "net.cluster.import_us_per_item": import_s / max(1, imported) * us,
    }
