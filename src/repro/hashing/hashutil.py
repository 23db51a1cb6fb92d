"""Stable, seed-free hash primitives.

Python's builtin :func:`hash` is randomised per process, which would make
simulations non-reproducible, so all key placement goes through MD5-derived
integers instead.  Nothing here is memoised: the one routing cache is the
placements' bounded lookup cache (:class:`repro.hashing.ketama.Placement`).
"""

import hashlib


def hash64(data: str | bytes) -> int:
    """Return a stable unsigned 64-bit hash of ``data``.

    The value is the first 8 bytes of the MD5 digest, interpreted big-endian.
    This matches the spirit of libmemcached's ketama behaviour and is stable
    across processes and platforms.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    digest = hashlib.md5(data).digest()
    return int.from_bytes(digest[:8], "big")


def hash32(data: str | bytes) -> int:
    """Return a stable unsigned 32-bit hash of ``data``: ``hash64 >> 32``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(hashlib.md5(data).digest()[:4], "big")


def points_for_vnode(label: str, count: int) -> list[int]:
    """Return ``count`` stable 32-bit ring points for a virtual-node label.

    Each MD5 digest yields four 4-byte points, mirroring the classic ketama
    construction where one hash call feeds four ring positions.
    """
    points: list[int] = []
    rounds = (count + 3) // 4
    for i in range(rounds):
        digest = hashlib.md5(f"{label}-{i}".encode("utf-8")).digest()
        for j in range(4):
            if len(points) == count:
                break
            points.append(int.from_bytes(digest[4 * j : 4 * j + 4], "big"))
    return points
