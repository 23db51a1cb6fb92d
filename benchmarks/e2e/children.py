"""Child processes hosting the system under test, and their supervisor.

One child per run hosts the whole tier the workload needs:

- ``live``  -- a :class:`~repro.net.server.LiveClusterHarness`;
- ``proxy`` -- a :class:`~repro.proxy.server.ProxyHarness`;
- ``procs`` -- a :class:`~repro.net.procs.ProcessClusterHarness` (one
  grandchild per node) plus the *controller*: the unmodified
  ``Master(LiveCluster(endpoints))`` that retires a node when the driver
  says so.  Hosting both here keeps the driver single-threaded.

The entry point is a module-level function (``spawn`` pickles it by
reference and re-imports the main module, which is why the scripts in
this package guard ``__main__``).  Child and driver talk over one duplex
pipe; the protocol is a handful of tuples, listed in :func:`child_main`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import time
from typing import Any

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 60.0
"""Wire timeout for benchmark clients: a node stalled by a long
``batch_import`` must show as latency, not as a retry storm."""

_TICKS = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# /proc readers (driver side and controller side)
# ---------------------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has used; 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB; 0.0 once gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


def _raise_exit(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def child_main(
    kind: str,
    params: dict[str, Any],
    conn: multiprocessing.connection.Connection,
    cpus: list[int] | None,
) -> None:
    """Host one tier until told to stop.

    Messages, driver -> child: ``("scale_in",)``, ``("drained",)``,
    ``("stop",)``.  Child -> driver: ``("ready", info)``,
    ``("switched", members)``, ``("scaled", result)``,
    ``("stopped", exit_codes)``, ``("error", text)``.
    """
    if cpus:
        os.sched_setaffinity(0, cpus)
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        if kind == "live":
            _host_live(params, conn)
        elif kind == "proxy":
            _host_proxy(params, conn)
        elif kind == "procs":
            _host_procs(params, conn)
        else:
            raise ValueError(f"unknown child kind {kind!r}")
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # boundary: report, then die non-zero
        import traceback

        try:
            conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
        except OSError:
            pass
        sys.exit(1)
    finally:
        conn.close()


def _node_names(count: int) -> list[str]:
    return [f"node-{index}" for index in range(count)]


def _host_threaded(harness: Any, info: Any, conn: Any) -> None:
    """Host a harness that runs its tier on threads of this process."""
    harness.start()
    try:
        conn.send(("ready", {**info(), "pids": [os.getpid()]}))
        while conn.recv()[0] != "stop":
            pass
    finally:
        harness.stop()
    conn.send(("stopped", {}))


def _host_live(params: dict[str, Any], conn: Any) -> None:
    from repro.net.server import LiveClusterHarness

    harness = LiveClusterHarness(
        _node_names(params["nodes"]), params["memory_per_node"]
    )
    _host_threaded(harness, lambda: {"endpoints": harness.endpoints}, conn)


def _host_proxy(params: dict[str, Any], conn: Any) -> None:
    from repro.proxy.server import ProxyHarness

    harness = ProxyHarness(
        _node_names(params["nodes"]), params["memory_per_node"]
    )
    _host_threaded(
        harness,
        lambda: {
            "endpoints": harness.backends.endpoints,
            "proxy": harness.proxy_endpoint,
        },
        conn,
    )


def _host_procs(params: dict[str, Any], conn: Any) -> None:
    from repro.core.master import Master
    from repro.net.cluster import LiveCluster
    from repro.net.procs import ProcessClusterHarness

    harness = ProcessClusterHarness(
        _node_names(params["nodes"]), params["memory_per_node"]
    )
    harness.start()
    live = None
    try:
        live = LiveCluster(harness.endpoints, timeout_s=CLIENT_TIMEOUT_S)
        master = Master(live)
        master.subscribe_membership(
            lambda members: conn.send(("switched", members))
        )
        conn.send(
            (
                "ready",
                {
                    "endpoints": harness.endpoints,
                    "pids": [os.getpid(), *harness.pids.values()],
                    "node_pids": harness.pids,
                },
            )
        )
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "scale_in":
                conn.send(("scaled", _scale_in(harness, master, conn)))
    finally:
        if live is not None:
            live.close()
        harness.stop()
    conn.send(("stopped", dict(harness.exit_codes)))


def _scale_in(harness: Any, master: Any, conn: Any) -> dict[str, Any]:
    """The paper's scale-in, timed call by call.

    The membership listener has already told the driver about the switch
    by the time ``execute`` returns; the retired process is stopped only
    after the driver reports that every request routed on the old ring
    has drained, so no request ever fails on a vanished node.
    """
    clock = time.perf_counter
    spans: list[tuple[str, float, float]] = []

    start = clock()
    retiring = master.choose_retiring(1)
    spans.append(("core.master.choose_retiring", start, clock()))

    mark = clock()
    plan = master.plan_scale_in(retiring)
    spans.append(("core.master.plan", mark, clock()))

    mark = clock()
    report = master.execute(plan)
    spans.append(("core.master.execute", mark, clock()))

    mark = clock()
    message = conn.recv()
    if message[0] != "drained":  # e.g. "stop": the driver gave up on the run
        raise RuntimeError(f"expected 'drained', got {message!r}")
    spans.append(("driver.drain", mark, clock()))

    retired_pid = harness.pids[retiring[0]]
    retired_cpu = cpu_seconds(retired_pid)
    retired_rss = peak_rss_mb(retired_pid)
    mark = clock()
    harness.stop_node(retiring[0])
    end = clock()
    spans.append(("net.procs.stop_node", mark, end))

    return {
        "spans": spans,
        "start": start,
        "end": end,
        "retired": retiring,
        "retired_pid": retired_pid,
        "retired_cpu_s": retired_cpu,
        "retired_rss_mb": retired_rss,
        "retired_alive": harness.is_alive(retiring[0]),
        "outcome": report.outcome,
        "items_exported": report.items_exported,
        "items_imported": report.items_imported,
        "membership_after": report.membership_after,
        "fusecache_comparisons": plan.fusecache_comparisons,
        "planned_items": sum(len(keys) for keys in plan.transfers.values()),
    }


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------


class ChildError(RuntimeError):
    """The child failed to boot, died, or reported an error."""


class Child:
    """Driver-side handle: boot, talk to, and reap one hosting child."""

    def __init__(
        self, kind: str, params: dict[str, Any], cpus: list[int] | None
    ) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=child_main,
            args=(kind, params, child_conn, cpus),
            name=f"e2e-{kind}",
        )
        started = time.perf_counter()
        self.process.start()
        child_conn.close()
        self.info: dict[str, Any] = {}
        self.exit_codes: dict[str, int | None] = {}
        try:
            self.info = self.expect("ready", BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    @property
    def pids(self) -> list[int]:
        """Every process of the tier: the child and its node processes."""
        return list(self.info.get("pids", [self.process.pid]))

    def expect(self, kind: str, timeout_s: float) -> Any:
        """Next message, which must be ``kind``; its payload."""
        if not self.conn.poll(timeout_s):
            raise ChildError(f"child sent no {kind!r} within {timeout_s:.0f}s")
        try:
            message = self.conn.recv()
        except EOFError as exc:
            raise ChildError(f"child died before sending {kind!r}") from exc
        if message[0] != kind:
            raise ChildError(f"expected {kind!r}, got {message!r}")
        return message[1]

    def stop(self) -> None:
        """Graceful stop, escalating; never leaves a process behind."""
        process = self.process
        if process.is_alive():
            try:
                self.conn.send(("stop",))
                self.exit_codes.update(self.expect("stopped", STOP_TIMEOUT_S))
            except (OSError, ChildError):
                process.terminate()
        process.join(timeout=STOP_TIMEOUT_S)
        if process.is_alive():
            process.kill()
            process.join(timeout=STOP_TIMEOUT_S)
        self.exit_codes["child"] = process.exitcode
        # Node processes are the child's to reap; if it died hard they
        # are orphans now, and nothing may outlive the run.
        for pid in self.pids:
            if pid != process.pid and pid_alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.conn.close()

    def leftovers(self) -> list[int]:
        """Pids of the tier that still exist (must be empty after stop)."""
        deadline = time.monotonic() + 5.0
        alive = [pid for pid in self.pids if pid_alive(pid)]
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if pid_alive(pid)]
        return alive


def reap_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait until it is gone.

    The first ``spawn`` starts one helper process for the whole process
    tree.  It ends by itself once every holder of its pipe has exited,
    which is a moment *after* this interpreter has -- long enough to be
    found as a process the run left behind.  So the driver closes its end
    and waits, after every child has been reaped, on every path out.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    pid = getattr(tracker, "_pid", None)
    if pid is None:  # never started, or started by a parent interpreter
        return
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    tracker._pid = None
    deadline = time.monotonic() + STOP_TIMEOUT_S
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.005)
    except ChildProcessError:
        pass
