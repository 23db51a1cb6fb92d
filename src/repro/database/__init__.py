"""The persistent storage tier (ardb/RocksDB in the paper's testbed).

The database is the application's bottleneck: it serves Memcached misses
at a capacity of ``r_DB`` requests/second, beyond which latency "rises
abruptly" (Section V-A).  Post-scaling degradation is precisely a burst of
misses pushing the database past this knee, so the reproduction models the
tier as a backing key-value store plus an M/M/1-with-backlog latency
model.
"""
