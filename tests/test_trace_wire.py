"""Cross-process trace propagation over the ``trace`` wire frame.

The tentpole observability claim: a sampled request entering the proxy
carries one trace id across OS processes -- proxy span, client RPC
span, and backend server span stitch into a single tree even though the
backend runs in a separate interpreter reached only over TCP.

The test boots ``repro serve`` as a real subprocess (exporting its
spans via ``--obs-jsonl``), fronts it with an in-process
:class:`~repro.proxy.server.ProxyServer` sampling at 100%, drives one
set/get through a real socket client, then merges both processes' JSONL
exports and asserts the stitched result.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.net.client import NodeClient
from repro.net.runtime import EventLoopThread
from repro.obs import create_telemetry
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.trace import build_trees
from repro.proxy.router import ProxyRouter
from repro.proxy.server import ProxyServer

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spawn_backend(jsonl_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--nodes",
            "1",
            "--memory-mb",
            "1",
            "--obs-jsonl",
            jsonl_path,
            "--trace-sample",
            "1.0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=REPO_ROOT,
        text=True,
    )


def _read_endpoint(
    process: subprocess.Popen, timeout_s: float = 30.0
) -> tuple[str, tuple[str, int]]:
    """Parse the serve banner's ``  <name>  <host>:<port>`` line."""
    assert process.stdout is not None
    endpoint: tuple[str, tuple[str, int]] | None = None
    deadline = time.monotonic() + timeout_s
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        parts = line.split()
        if len(parts) == 2 and ":" in parts[1] and line.startswith("  "):
            host, _, port = parts[1].rpartition(":")
            endpoint = (parts[0], (host, int(port)))
        if "serving" in line:
            if endpoint is None:
                break
            return endpoint
    pytest.fail(f"no backend endpoint in serve banner: {lines!r}")


@pytest.mark.slow
def test_one_trace_id_spans_two_processes(tmp_path):
    backend_jsonl = str(tmp_path / "backend_spans.jsonl")
    proxy_jsonl = str(tmp_path / "proxy_spans.jsonl")
    backend = _spawn_backend(backend_jsonl)
    loop = EventLoopThread(name="trace-wire-proxy")
    telemetry = create_telemetry(
        "test-proxy", trace_sample=1.0, trace_seed=1
    )
    server = None
    client = None
    try:
        name, endpoint = _read_endpoint(backend)
        router = ProxyRouter({name: endpoint}, telemetry=telemetry)
        server = ProxyServer(router, telemetry=telemetry)
        loop.start()
        loop.call(server.start(), timeout=10.0)
        host, port = server.endpoint
        client = NodeClient("front", host, port, timeout_s=5.0)
        assert loop.call(client.set("wire:key", b"payload"), timeout=10.0)
        assert (
            loop.call(client.get("wire:key"), timeout=10.0) is not None
        )
    finally:
        if client is not None:
            loop.call(client.close(), timeout=5.0)
        if server is not None:
            loop.call(server.stop(), timeout=10.0)
        loop.stop()
        backend.send_signal(signal.SIGTERM)
        try:
            tail = backend.communicate(timeout=30.0)[0]
        except subprocess.TimeoutExpired:
            backend.kill()
            backend.communicate()
            pytest.fail("backend did not exit after SIGTERM")
    assert backend.returncode == 0, tail
    write_jsonl(proxy_jsonl, telemetry.tracer, telemetry.metrics)

    traces: dict[str, list] = {}
    for span in read_jsonl(backend_jsonl, proxy_jsonl).spans:
        traces.setdefault(span.trace_id, []).append(span)
    assert traces, "no traces recovered from the JSONL exports"
    get_traces = [
        spans
        for spans in traces.values()
        if {"test-proxy", "serve"} <= {s.process for s in spans}
        and any(s.name == "proxy.get" for s in spans)
    ]
    assert get_traces, (
        "no trace crossed both processes with a proxy.get span: "
        f"{[sorted({(s.process, s.name) for s in t}) for t in traces.values()]}"
    )
    spans = get_traces[0]
    # One trace id covers the proxy hop, the client RPC, and the remote
    # backend's execution -- the cross-process stitch -- and the merged
    # spans form one tree rooted at the proxy.
    (root,) = build_trees(spans)
    assert root.name == "proxy.get" and root.process == "test-proxy"
    names = {span.name for span in root.walk()}
    assert {"proxy.get", "client.rpc", "server.get"} <= names
    assert len(list(root.walk())) == len(spans)
    # Parent links hold across the process boundary: the backend span's
    # parent is the proxy-side client RPC span.
    server_get = next(s for s in spans if s.name == "server.get")
    assert server_get.process == "serve"
    rpc_ids = {s.span_id for s in spans if s.name == "client.rpc"}
    assert server_get.parent_id in rpc_ids
