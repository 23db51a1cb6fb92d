"""Correctness tooling: custom lint rules + runtime invariant checking.

The reproduction rests on invariants the paper assumes silently -- MRU
lists are truly recency-ordered (FuseCache's pruning is only correct on
sorted lists), slab accounting never leaks pages, the ketama ring remaps
~1/(k+1) keys on a membership change, and experiments are bit-reproducible
from a seed.  This package *checks* them, from two sides:

- :mod:`repro.check.lint` + :mod:`repro.check.rules` -- an AST-based lint
  framework and its one rule catalogue, run by ``repro check [paths]``:
  the REP0xx simulation rules (no wall-clock in simulated code, no
  unseeded RNG, no private cache-state mutation from outside
  ``repro.memcached``, ...) and the REP1xx concurrency rules for the
  asyncio/threading live tier;
- :mod:`repro.check.invariants` -- runtime validators over live data
  structures (LRU list integrity, slab accounting, ring mapping) that
  raise :class:`~repro.errors.InvariantViolation` with a structured diff;
- :mod:`repro.check.strict` -- the ``strict_mode`` hook the
  :class:`~repro.core.master.Master` calls after each migration phase;
- :mod:`repro.check.loopcheck` -- the opt-in runtime loop sanitizer
  behind ``--sanitize`` (asyncio debug mode + blocking-call trap).
"""
