"""Analysis utilities for the paper's evaluation.

- :mod:`repro.analysis.degradation` -- peak RT, restoration time, and the
  post-scaling degradation reduction that is the paper's headline number.
- :mod:`repro.analysis.cost` -- the Section II-B cost/energy model
  (Memcached nodes are ~66 % costlier and ~47 % more power-hungry than
  web-tier nodes).
- :mod:`repro.analysis.elasticity` -- the Section II-C estimate that a
  perfectly elastic tier saves 30-70 % of cache nodes.
"""
