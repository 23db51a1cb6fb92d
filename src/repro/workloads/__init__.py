"""Workload models (Section V-A of the paper).

- key popularity: Zipf-like skew, as in the Facebook workloads;
- value sizes: Generalized Pareto with the paper's Facebook-ETC
  parameters (scale 214.476, shape 0.348148), values 1 B - 1 MB,
  keys fixed at 11 bytes;
- demand traces: synthetic per-second rate series shaped like the five
  normalised traces of Fig. 5 (Facebook SYS/ETC, SAP, NLANR, Microsoft);
- request generation: Poisson arrivals whose mean follows the trace, each
  web request touching a fixed number of KV pairs via multi-get.
"""
