"""Fleet metrics scraping over the ``stats obs`` wire command.

Every live process (node server or proxy) renders its metrics registry
as Prometheus text behind ``stats obs``; the payload rides in standard
``VALUE`` framing so ordinary memcached clients can fetch it.  This
module provides the other side:

- :func:`scrape_text` / :func:`scrape_stats` -- one blocking scrape of
  one endpoint (a throwaway :class:`~repro.net.client.NodeClient`);
- :func:`parse_prometheus` -- text exposition back into samples;
- :class:`MetricsScraper` -- polls a fleet and aggregates same-named
  samples across processes (counters/buckets sum, gauges keep the last
  value per endpoint).

The scraper is synchronous on purpose: it is the read side used by the
``repro top`` dashboard and by CI smoke jobs, which live outside the
cluster's event loops.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import TransportError, WireProtocolError
from repro.obs.metrics import bucket_quantile

__all__ = [
    "MetricsScraper",
    "Sample",
    "histogram_quantile",
    "parse_prometheus",
    "scrape_stats",
    "scrape_text",
]


def _scrape(host: str, port: int, timeout_s: float, method: str) -> Any:
    """One blocking ``NodeClient.<method>()`` on a throwaway client."""
    # repro.net imports repro.obs for telemetry; import it late.
    from repro.net.client import NodeClient

    async def once() -> Any:
        client = NodeClient(
            f"{host}:{port}", host, port, pool_size=1, timeout_s=timeout_s
        )
        try:
            return await getattr(client, method)()
        finally:
            await client.close()

    try:
        return asyncio.run(once())
    except (WireProtocolError, ValueError) as exc:
        raise TransportError(
            f"scrape of {host}:{port} got an unexpected reply: {exc!r}"
        ) from exc


def scrape_text(host: str, port: int, timeout_s: float = 5.0) -> str:
    """Fetch one endpoint's ``stats obs`` Prometheus page.

    Raises :class:`~repro.errors.TransportError` when the endpoint is
    unreachable or answers with something other than a value block.
    """
    return _scrape(host, port, timeout_s, "stats_obs")


def scrape_stats(host: str, port: int, timeout_s: float = 5.0) -> dict[str, int]:
    """One blocking ``stats`` scrape -> integer counters.

    Used for per-backend hit rates (``get_hits``/``get_misses``) and for
    the proxy's own ``stats`` snapshot (breaker states, hot keys).
    """
    return _scrape(host, port, timeout_s, "stats")


@dataclass(frozen=True)
class Sample:
    """One parsed Prometheus sample line."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    @property
    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


def _parse_labels(raw: str) -> tuple[tuple[str, str], ...]:
    """Parse ``a="b",c="d"`` honouring ``\\\\``/``\\"``/``\\n`` escapes."""
    labels: list[tuple[str, str]] = []
    i = 0
    while i < len(raw):
        eq = raw.index("=", i)
        name = raw[i:eq].strip().lstrip(",").strip()
        if raw[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {raw!r}")
        value_chars: list[str] = []
        j = eq + 2
        while j < len(raw):
            ch = raw[j]
            if ch == "\\" and j + 1 < len(raw):
                escaped = raw[j + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escaped, escaped)
                )
                j += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            j += 1
        labels.append((name, "".join(value_chars)))
        i = j + 1
    return tuple(sorted(labels))


def parse_prometheus(text: str) -> list[Sample]:
    """Parse text exposition format back into :class:`Sample` rows.

    ``# HELP`` / ``# TYPE`` comments are skipped; histogram ``_bucket``/
    ``_sum``/``_count`` series come back as ordinary samples under their
    suffixed names.
    """
    samples: list[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            labels_raw, _, value_raw = rest.rpartition("}")
            labels = _parse_labels(labels_raw)
        else:
            name, _, value_raw = line.partition(" ")
            labels = ()
        value_raw = value_raw.strip()
        if value_raw == "+Inf":
            value = float("inf")
        elif value_raw == "-Inf":
            value = float("-inf")
        else:
            value = float(value_raw)
        samples.append(Sample(name=name.strip(), labels=labels, value=value))
    return samples


def histogram_quantile(
    samples: Iterable[Sample], name: str, q: float, **match: str
) -> float | None:
    """Quantile estimate from ``<name>_bucket`` samples.

    ``match`` narrows by label equality (e.g. ``node="n0"``); buckets
    sharing the remaining labels are summed first, mirroring a
    ``histogram_quantile(sum by (le) (...))`` PromQL query.
    """
    buckets: dict[float, float] = {}
    for sample in samples:
        if sample.name != f"{name}_bucket":
            continue
        labels = sample.labels_dict
        if any(labels.get(k) != v for k, v in match.items()):
            continue
        le_raw = labels.get("le")
        if le_raw is None:
            continue
        le = float("inf") if le_raw == "+Inf" else float(le_raw)
        buckets[le] = buckets.get(le, 0.0) + sample.value
    if not buckets:
        return None
    ordered = sorted(buckets)
    bounds = tuple(b for b in ordered if b != float("inf"))
    if not bounds:
        return None
    # Cumulative bucket values back to per-bucket counts.
    cumulative = [buckets[le] for le in ordered]
    counts: list[int] = []
    previous = 0.0
    for value in cumulative:
        counts.append(int(round(max(0.0, value - previous))))
        previous = value
    if len(counts) == len(bounds):
        counts.append(0)
    total = sum(counts)
    return bucket_quantile(bounds, counts, total, q)


@dataclass
class MetricsScraper:
    """Polls a fleet of ``stats obs`` endpoints and aggregates samples.

    Parameters
    ----------
    endpoints:
        ``{label: (host, port)}`` of every process to scrape.  Labels
        are free-form (node names, "proxy", ...).
    timeout_s:
        Per-endpoint socket budget; unreachable endpoints are recorded
        in :attr:`errors` instead of raising.
    """

    endpoints: Mapping[str, tuple[str, int]]
    timeout_s: float = 5.0
    errors: dict[str, str] = field(default_factory=dict)

    def scrape(self) -> dict[str, list[Sample]]:
        """One poll of every endpoint -> ``{label: samples}``.

        Endpoints that fail to answer are skipped and noted in
        :attr:`errors` (cleared at the start of each poll).
        """
        self.errors = {}
        results: dict[str, list[Sample]] = {}
        for label, (host, port) in self.endpoints.items():
            try:
                results[label] = parse_prometheus(
                    scrape_text(host, port, self.timeout_s)
                )
            except TransportError as exc:
                self.errors[label] = str(exc)
        return results

    def aggregate(
        self, scraped: Mapping[str, list[Sample]] | None = None
    ) -> list[Sample]:
        """Sum same ``(name, labels)`` samples across endpoints.

        Summing is correct for counters and histogram buckets, which is
        what fleet dashboards read; per-endpoint gauges stay
        distinguishable through their own labels (every sample our
        components register carries a ``node``/``backend`` label).
        """
        if scraped is None:
            scraped = self.scrape()
        merged: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        for samples in scraped.values():
            for sample in samples:
                key = (sample.name, sample.labels)
                merged[key] = merged.get(key, 0.0) + sample.value
        return [
            Sample(name=name, labels=labels, value=value)
            for (name, labels), value in sorted(merged.items())
        ]
