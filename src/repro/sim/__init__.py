"""Discrete-time multi-tier application simulator (paper Section V-A).

Replays a demand trace against the full stack -- load balancer semantics,
web-tier multi-gets, the Memcached cluster, and the capacity-limited
database -- in one-second ticks, recording per-second hit rate and
95th-percentile response time exactly as the paper's figures plot them.
"""
