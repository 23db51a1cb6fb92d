"""mcrouter-style proxy tier: coalescing, replication, circuit breakers.

The net tier (:mod:`repro.net`) gives every client a direct connection
to every node; this package adds the intermediary production fleets put
in front of Memcached.  Clients speak the ordinary text protocol to one
:class:`ProxyServer`; behind it a :class:`ProxyRouter` routes each key
over the same ketama ring the cluster facades use, while three
robustness mechanisms keep the client-visible stream clean during
elasticity events:

- :class:`GetCoalescer` collapses concurrent same-key fetches into one
  backend round trip (thundering-herd suppression);
- :class:`HotKeyDetector` + :class:`ReplicaRegistry` promote the
  hottest keys onto extra backends, with first-hit-wins read fan-out
  and write-through invalidation;
- :class:`CircuitBreaker` per backend fails dead nodes fast, degrading
  gets to misses and sets to no-ops instead of surfacing transport
  errors.

The router subscribes to the Master's post-switch membership
(:meth:`repro.core.master.Master.subscribe_membership`), so scale-in and
scale-out happen behind a stable client endpoint -- the deployment story
ElMem assumes (Section II: ECE-Memcached sits behind a proxy/router
tier).  :func:`run_proxy_chaos` replays the kill-a-backend-mid-traffic
scenario end to end.
"""
