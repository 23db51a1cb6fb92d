"""ElMem's core contribution (Sections III and IV of the paper).

- :mod:`repro.core.fusecache` -- the FuseCache top-n selection across k
  MRU-sorted lists, plus the sort-merge and heap k-way-merge baselines.
- :mod:`repro.core.autoscaler` -- Q1: when and how much to scale (Eq. 1 +
  stack-distance memory sizing).
- :mod:`repro.core.scoring` -- Q2: which node(s) to retire (median-hotness
  scores weighted by slab page fractions).
- :mod:`repro.core.agent` / :mod:`repro.core.master` -- the decentralised
  migration protocol (metadata transfer, hotness comparison, data
  migration).
- :mod:`repro.core.policies` -- migration policies compared in the paper:
  ElMem, Naive, CacheScale, and the no-migration baseline.
"""
