"""Hit-rate-curve machinery (Section III-B of the paper).

The AutoScaler sizes the Memcached tier by asking: *how much memory is
needed to reach hit rate p_min over the recent request trace?*  That
question is answered with **stack distances**: the stack distance of a
request is the number of distinct keys touched since the previous request
to the same key, so an LRU cache of capacity ``C`` hits exactly the
requests with stack distance ``< C``.  One pass therefore yields the hit
rate for *every* cache size simultaneously.

Two implementations are provided:

- :mod:`repro.cache_analysis.stack_distance` -- exact distances via a
  Fenwick tree, ``O(M log M)`` for an ``M``-request trace;
- :mod:`repro.cache_analysis.mimir` -- the bucketed approximation of the
  MIMIR system the paper says ElMem uses, ``O(M)`` with bounded error.
"""
