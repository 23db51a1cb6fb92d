"""Client-side key-to-node mapping.

Memcached servers are unaware of key ownership; the client library hashes
each key to pick the node (Section II-A of the paper).  Consistent hashing
keeps the remapped key fraction near ``1/(k+1)`` when membership changes,
which is what makes the paper's scale-out migration cheap (Section III-D4).
"""
