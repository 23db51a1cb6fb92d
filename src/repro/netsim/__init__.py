"""Network transfer model for migration timing.

ElMem's migration moves metadata and KV data between nodes over the
cluster network (tarball piped over ssh in the paper).  The model charges
per-flow bandwidth and per-connection setup cost, and lets concurrent
flows through one NIC share its bandwidth -- enough fidelity to reproduce
the ~2 minute migration overhead breakdown of Section V-B2.
"""
