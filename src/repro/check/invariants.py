"""Runtime validators for the cache's load-bearing data structures.

Each ``check_*`` function walks live state through the *public* node /
ring surface and raises :class:`~repro.errors.InvariantViolation` (with a
structured expected/actual diff) on the first inconsistency.  They are
deliberately O(items)-cheap so the Master's ``strict_mode`` can afford to
run them after every migration phase:

- :func:`check_lru` -- doubly-linked MRU list integrity per slab class:
  forward and backward walks agree, lengths match the class and the hash
  table, and (optionally) recency timestamps are monotone, the property
  FuseCache's binary searches rely on;
- :func:`check_slabs` -- page/chunk accounting sums to the allocator
  totals and every item fits the chunk of the class it lives in;
- :func:`check_ring` -- ring structure is sound and every key maps to a
  live member;
- :func:`check_ring_remap` -- a membership change remaps ~1/(k+1) of the
  keys, and only in the direction consistent hashing promises.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import CapacityError, InvariantViolation
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.items import Item
from repro.memcached.node import MemcachedNode


def _diff(field: str, expected: object, actual: object) -> dict:
    return {field: {"expected": expected, "actual": actual}}


# ----------------------------------------------------------------------
# MRU list integrity
# ----------------------------------------------------------------------


def _walk_forward(
    node_name: str, class_id: int, head: Item | None
) -> list[Item]:
    """Collect items head -> tail, verifying back-pointers en route."""
    items: list[Item] = []
    seen: set[int] = set()
    previous: Item | None = None
    current = head
    while current is not None:
        if id(current) in seen:
            raise InvariantViolation(
                "lru",
                f"{node_name}/class {class_id}",
                f"cycle in the MRU list at key {current.key!r}",
            )
        seen.add(id(current))
        if current.prev is not previous:
            raise InvariantViolation(
                "lru",
                f"{node_name}/class {class_id}",
                f"broken prev pointer at key {current.key!r}",
                diff=_diff(
                    "prev_key",
                    previous.key if previous is not None else None,
                    current.prev.key if current.prev is not None else None,
                ),
            )
        items.append(current)
        previous = current
        current = current.next
    return items


def check_lru(
    node: MemcachedNode, require_sorted_timestamps: bool = True
) -> int:
    """Validate every slab class's MRU list on ``node``.

    Checks, per class: the forward walk's back-pointers are consistent,
    the walk ends at the recorded tail, its length matches the list's
    size counter, every linked item belongs to this class and is the
    object the hash table resolves, and -- when
    ``require_sorted_timestamps`` -- ``last_access`` is non-increasing
    head to tail (true under ``merge``-mode imports; ``prepend`` mode
    deliberately gives it up, as the paper's implementation does).

    Returns the total number of items walked.  Raises
    :class:`InvariantViolation` on the first inconsistency.
    """
    total = 0
    for slab_class in node.slabs.classes:
        mru = slab_class.mru
        subject = f"{node.name}/class {slab_class.class_id}"
        items = _walk_forward(node.name, slab_class.class_id, mru.head)
        if (items and items[-1] is not mru.tail) or (
            not items and mru.tail is not None
        ):
            raise InvariantViolation(
                "lru",
                subject,
                "tail pointer does not match the last walked item",
                diff=_diff(
                    "tail_key",
                    items[-1].key if items else None,
                    mru.tail.key if mru.tail is not None else None,
                ),
            )
        if len(items) != len(mru):
            raise InvariantViolation(
                "lru",
                subject,
                "size counter disagrees with the forward walk",
                diff=_diff("length", len(mru), len(items)),
            )
        for item in items:
            if item.slab_class_id != slab_class.class_id:
                raise InvariantViolation(
                    "lru",
                    subject,
                    f"item {item.key!r} is linked into the wrong class",
                    diff=_diff(
                        "slab_class_id",
                        slab_class.class_id,
                        item.slab_class_id,
                    ),
                )
            if node.peek(item.key) is not item:
                raise InvariantViolation(
                    "lru",
                    subject,
                    f"hash table does not resolve linked item "
                    f"{item.key!r}",
                )
        if require_sorted_timestamps:
            for hotter, colder in zip(items, items[1:]):
                if colder.last_access > hotter.last_access:
                    raise InvariantViolation(
                        "lru",
                        subject,
                        "recency timestamps are not monotone "
                        f"(key {colder.key!r} is newer than its MRU "
                        "predecessor)",
                        diff=_diff(
                            "last_access_order",
                            f"<= {hotter.last_access}",
                            colder.last_access,
                        ),
                    )
        total += len(items)
    if total != node.curr_items:
        raise InvariantViolation(
            "lru",
            node.name,
            "hash table count disagrees with the linked items",
            diff=_diff("item_count", node.curr_items, total),
        )
    return total


# ----------------------------------------------------------------------
# Slab accounting
# ----------------------------------------------------------------------


def check_slabs(node: MemcachedNode) -> int:
    """Validate page/chunk accounting for ``node``'s slab allocator.

    Checks that per-class page counts sum to the allocator's assigned
    total (no leaked pages), the assigned total fits the memory budget,
    each class's used chunks match its item count and capacity, and no
    item is larger than the chunk of the class holding it.

    Returns the number of items accounted for.
    """
    slabs = node.slabs
    summed_pages = sum(c.pages for c in slabs.classes)
    if summed_pages != slabs.assigned_pages:
        raise InvariantViolation(
            "slabs",
            node.name,
            "per-class pages do not sum to the assigned total",
            diff=_diff("assigned_pages", slabs.assigned_pages, summed_pages),
        )
    if slabs.assigned_pages > slabs.total_pages:
        raise InvariantViolation(
            "slabs",
            node.name,
            "more pages assigned than the memory budget holds",
            diff=_diff("total_pages", slabs.total_pages, slabs.assigned_pages),
        )
    total_items = 0
    for slab_class in slabs.classes:
        subject = f"{node.name}/class {slab_class.class_id}"
        if slab_class.used_chunks != len(slab_class.mru):
            raise InvariantViolation(
                "slabs",
                subject,
                "used-chunk counter disagrees with the item list",
                diff=_diff(
                    "used_chunks",
                    len(slab_class.mru),
                    slab_class.used_chunks,
                ),
            )
        if slab_class.used_chunks > slab_class.total_chunks:
            raise InvariantViolation(
                "slabs",
                subject,
                "more chunks used than the class's pages provide",
                diff=_diff(
                    "total_chunks",
                    slab_class.total_chunks,
                    slab_class.used_chunks,
                ),
            )
        for item in slab_class.mru:
            if item.total_size > slab_class.chunk_size:
                raise InvariantViolation(
                    "slabs",
                    subject,
                    f"item {item.key!r} exceeds its class's chunk size",
                    diff=_diff(
                        "chunk_size",
                        f">= {item.total_size}",
                        slab_class.chunk_size,
                    ),
                )
            try:
                proper = slabs.class_for_size(item.total_size)
            except CapacityError:
                raise InvariantViolation(
                    "slabs",
                    subject,
                    f"item {item.key!r} is larger than the largest chunk",
                ) from None
            if proper.class_id != slab_class.class_id:
                raise InvariantViolation(
                    "slabs",
                    subject,
                    f"item {item.key!r} lives in the wrong size class",
                    diff=_diff(
                        "class_id", proper.class_id, slab_class.class_id
                    ),
                )
        total_items += len(slab_class.mru)
    return total_items


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


def check_ring(
    ring: ConsistentHashRing,
    nodes: Iterable[str] | Mapping[str, object] | None = None,
    samples: int = 256,
    cache_audit_limit: int = 2048,
) -> None:
    """Validate ``ring`` structure and that keys map to live members.

    Checks the point list is sorted with owners drawn from the current
    membership, every member contributes at least one virtual point, and
    ``samples`` deterministic probe keys all resolve to members.  When
    ``nodes`` is given (e.g. ``cluster.nodes``), the membership must be a
    subset of it -- a ring pointing at a destroyed node is the
    misrouting bug this check exists for.  Up to ``cache_audit_limit``
    entries of the ring's lookup cache are additionally audited against
    the cold path (a stale entry would misroute every request for its key).
    """
    members = ring.members
    if not members:
        raise InvariantViolation("ring", "ring", "ring has no members")
    if nodes is not None:
        live = set(nodes)
        dead = sorted(members - live)
        if dead:
            raise InvariantViolation(
                "ring",
                "ring",
                "membership references nodes that no longer exist",
                diff=_diff("dead_members", [], dead),
            )
    previous_point = -1
    counts: dict[str, int] = {}
    for point, owner in ring.iter_points():
        if point < previous_point:
            raise InvariantViolation(
                "ring",
                "ring",
                "virtual points are not sorted ascending",
                diff=_diff("point_order", f">= {previous_point}", point),
            )
        previous_point = point
        if owner not in members:
            raise InvariantViolation(
                "ring",
                "ring",
                f"virtual point owned by non-member {owner!r}",
            )
        counts[owner] = counts.get(owner, 0) + 1
    missing = sorted(name for name in members if not counts.get(name))
    if missing:
        raise InvariantViolation(
            "ring",
            "ring",
            "members contribute no virtual points",
            diff=_diff("pointless_members", [], missing),
        )
    for index in range(samples):
        owner = ring.node_for_key(f"__ring_probe_{index}__")
        if owner not in members:
            raise InvariantViolation(
                "ring",
                "ring",
                f"probe key routed to non-member {owner!r}",
            )
    # The lookup cache must agree with the cold path: a stale entry
    # silently misroutes every request for that key, which is exactly the
    # bug class a lookup cache must never admit.
    info = ring.cache_info()
    if info["max_size"] and info["size"] > info["max_size"]:
        raise InvariantViolation(
            "ring",
            "ring",
            "lookup cache exceeds its configured capacity",
            diff=_diff("cache_size", f"<= {info['max_size']}", info["size"]),
        )
    audited = 0
    for key, cached_owner in ring.cached_routes().items():
        if audited >= cache_audit_limit:
            break
        audited += 1
        fresh = ring.uncached_lookup(key)
        if cached_owner != fresh:
            raise InvariantViolation(
                "ring",
                "ring",
                f"lookup cache is stale for key {key!r}",
                diff=_diff("owner", fresh, cached_owner),
            )
        if cached_owner not in members:
            raise InvariantViolation(
                "ring",
                "ring",
                f"lookup cache routes {key!r} to non-member "
                f"{cached_owner!r}",
            )


def check_ring_remap(
    members: Iterable[str],
    add: str | None = None,
    remove: str | None = None,
    samples: int = 4000,
    tolerance: float = 0.5,
) -> float:
    """Verify the consistent-hashing remap contract for one change.

    Builds a ring over ``members``, applies exactly one of ``add`` /
    ``remove``, and measures the fraction of ``samples`` probe keys whose
    owner changed.  Asserts the fraction is within ``tolerance``
    (relative) of the ideal ``1/(k+1)`` (add) or ``1/k`` (remove), and
    that keys moved only in the allowed direction: on removal, only keys
    the removed node owned are remapped; on addition, moved keys land
    only on the new node (Section III-D4's property).

    Returns the measured remap fraction.
    """
    names = sorted(set(members))
    if (add is None) == (remove is None):
        raise InvariantViolation(
            "ring",
            "remap",
            "exactly one of add/remove must be given",
        )
    before = ConsistentHashRing(names)
    if add is not None:
        after = ConsistentHashRing([*names, add])
        expected = 1.0 / (len(names) + 1)
        change = f"+{add}"
    else:
        if remove not in before.members:
            raise InvariantViolation(
                "ring", "remap", f"{remove!r} is not a member"
            )
        after = ConsistentHashRing([name for name in names if name != remove])
        expected = 1.0 / len(names)
        change = f"-{remove}"
    moved = 0
    for index in range(samples):
        key = f"__remap_probe_{index}__"
        owner_before = before.node_for_key(key)
        owner_after = after.node_for_key(key)
        if owner_before == owner_after:
            continue
        moved += 1
        if remove is not None and owner_before != remove:
            raise InvariantViolation(
                "ring",
                f"remap {change}",
                f"key owned by surviving node {owner_before!r} was "
                "remapped",
                diff=_diff("owner", owner_before, owner_after),
            )
        if add is not None and owner_after != add:
            raise InvariantViolation(
                "ring",
                f"remap {change}",
                "moved key landed on an existing node instead of the "
                "new one",
                diff=_diff("owner", add, owner_after),
            )
    fraction = moved / samples
    if abs(fraction - expected) > tolerance * expected:
        raise InvariantViolation(
            "ring",
            f"remap {change}",
            "remap fraction outside tolerance of the consistent-hashing "
            "ideal",
            diff=_diff(
                "fraction",
                f"{expected:.4f} +/- {tolerance * expected:.4f}",
                round(fraction, 4),
            ),
        )
    return fraction
