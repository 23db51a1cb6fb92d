"""The ``repro top`` terminal dashboard for a live proxy fleet.

Polls the proxy's ``stats obs`` Prometheus page (which, under
:class:`~repro.proxy.server.ProxyHarness`, also carries the in-process
backends' samples) plus each backend's plain ``stats`` counters, and
renders a memcached-``top``-style panel:

- fleet ops/s and hit rate with sparkline history,
- per-backend round-trip p50/p95/p99 from the proxy's client histograms,
- breaker states, replica counts, degradation counters.

Rendering is a pure function of two consecutive samples, so tests drive
it with canned scrapes; the CLI loop just polls and reprints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.asciiplot import sparkline
from repro.errors import TransportError
from repro.obs.scrape import (
    Sample,
    histogram_quantile,
    parse_prometheus,
    scrape_stats,
    scrape_text,
)
from repro.proxy.breaker import STATE_CODES

_STATE_NAMES = {code: name for name, code in STATE_CODES.items()}

HISTORY = 60
"""Sparkline window length (polls retained)."""

__all__ = ["FleetSample", "TopDashboard", "scrape_stats"]


def _counter_total(samples: Iterable[Sample], name: str, **match: str) -> float:
    total = 0.0
    for sample in samples:
        if sample.name != name:
            continue
        labels = sample.labels_dict
        if any(labels.get(k) != v for k, v in match.items()):
            continue
        total += sample.value
    return total


@dataclass
class FleetSample:
    """One poll of the fleet: proxy prom samples + stats snapshots."""

    at_s: float
    prom: list[Sample] = field(default_factory=list)
    proxy_stats: dict[str, int] = field(default_factory=dict)
    node_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)


class TopDashboard:
    """Poll/render loop state for ``repro top``.

    Parameters
    ----------
    proxy:
        The proxy's ``(host, port)``; its ``stats obs`` page is the
        primary metrics source.
    nodes:
        Optional ``{name: (host, port)}`` of backends to scrape plain
        ``stats`` from directly (per-node hit rates).  ``repro serve``
        prints these endpoints on boot.
    """

    def __init__(
        self,
        proxy: tuple[str, int],
        nodes: Mapping[str, tuple[str, int]] | None = None,
        timeout_s: float = 5.0,
    ) -> None:
        self.proxy = proxy
        self.nodes = dict(nodes or {})
        self.timeout_s = timeout_s
        self.ops_history: list[float] = []
        self.p99_history: list[float] = []
        self._previous: FleetSample | None = None

    # -- polling -------------------------------------------------------

    def sample(self, at_s: float | None = None) -> FleetSample:
        """Scrape the fleet once and fold the result into history."""
        result = FleetSample(
            at_s=time.monotonic() if at_s is None else at_s
        )
        host, port = self.proxy
        try:
            result.prom = parse_prometheus(
                scrape_text(host, port, self.timeout_s)
            )
        except TransportError as exc:
            result.errors["proxy obs"] = str(exc)
        try:
            result.proxy_stats = scrape_stats(host, port, self.timeout_s)
        except TransportError as exc:
            result.errors["proxy stats"] = str(exc)
        for name, (node_host, node_port) in self.nodes.items():
            try:
                result.node_stats[name] = scrape_stats(
                    node_host, node_port, self.timeout_s
                )
            except TransportError as exc:
                result.errors[f"node {name}"] = str(exc)
        self.ingest(result)
        return result

    def ingest(self, current: FleetSample) -> None:
        """Fold one poll (live or canned) into sparkline history."""
        previous = self._previous
        self._previous = current
        if previous is not None:
            elapsed = max(1e-9, current.at_s - previous.at_s)
            delta = _counter_total(
                current.prom, "proxy_requests_total"
            ) - _counter_total(previous.prom, "proxy_requests_total")
            self.ops_history.append(max(0.0, delta / elapsed))
        p99 = histogram_quantile(current.prom, "proxy_route_seconds", 0.99)
        if p99 is not None:
            self.p99_history.append(p99 * 1000.0)
        del self.ops_history[:-HISTORY]
        del self.p99_history[:-HISTORY]

    # -- rendering -----------------------------------------------------

    def _backend_names(self, current: FleetSample) -> list[str]:
        names = set(self.nodes)
        for sample in current.prom:
            labels = sample.labels_dict
            for key in ("node", "backend"):
                value = labels.get(key)
                if value:
                    names.add(value)
        names.discard("proxy")
        return sorted(names)

    def render(self, current: FleetSample, width: int = 78) -> str:
        """Render one poll as a full dashboard frame."""
        lines: list[str] = []
        ops = self.ops_history[-1] if self.ops_history else 0.0
        stats = current.proxy_stats
        gets = stats.get("proxy_gets", 0)
        degraded = stats.get("degraded_gets", 0)
        lines.append(
            f"repro top · proxy {self.proxy[0]}:{self.proxy[1]} · "
            f"{ops:8.1f} ops/s · backends "
            f"{stats.get('active_backends', 0)} · hot keys "
            f"{stats.get('hot_keys', 0)}"
        )
        if self.ops_history:
            lines.append(
                " ops/s " + sparkline(self.ops_history, width=width - 8)
            )
        if self.p99_history:
            lines.append(
                " p99ms " + sparkline(self.p99_history, width=width - 8)
            )
        route_p99 = histogram_quantile(
            current.prom, "proxy_route_seconds", 0.99
        )
        lines.append(
            f" route p99 {_fmt_ms(route_p99)} · gets {gets} · "
            f"degraded {degraded} · fanout {stats.get('fanout_reads', 0)} · "
            f"coalesced {stats.get('coalesce_followers', 0)}"
        )
        lines.append("")
        lines.append(
            f" {'backend':<10} {'state':<9} {'rt p50':>9} {'rt p95':>9} "
            f"{'rt p99':>9} {'reqs':>8} {'hit%':>6} {'items':>8}"
        )
        for name in self._backend_names(current):
            state_code = stats.get(f"breaker_state_{name}")
            if state_code is None:
                state_code = int(
                    _counter_total(
                        current.prom, "proxy_breaker_state", backend=name
                    )
                )
            state = _STATE_NAMES.get(state_code, "?")
            p50 = histogram_quantile(
                current.prom, "net_client_roundtrip_seconds", 0.50, node=name
            )
            p95 = histogram_quantile(
                current.prom, "net_client_roundtrip_seconds", 0.95, node=name
            )
            p99 = histogram_quantile(
                current.prom, "net_client_roundtrip_seconds", 0.99, node=name
            )
            requests = int(
                _counter_total(
                    current.prom, "net_client_requests_total", node=name
                )
            )
            node_stats = current.node_stats.get(name, {})
            hits = node_stats.get("get_hits", 0)
            misses = node_stats.get("get_misses", 0)
            looked = hits + misses
            hit_pct = f"{100.0 * hits / looked:5.1f}" if looked else "    -"
            items = node_stats.get("curr_items", 0)
            lines.append(
                f" {name:<10} {state:<9} {_fmt_ms(p50):>9} "
                f"{_fmt_ms(p95):>9} {_fmt_ms(p99):>9} {requests:>8} "
                f"{hit_pct:>6} {items:>8}"
            )
        for source, error in sorted(current.errors.items()):
            lines.append(f" ! {source}: {error}")
        return "\n".join(lines)


def _fmt_ms(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000.0:.2f}ms"
