"""Which node(s) to retire (Q2, Section III-C).

Retiring the node whose *hot* data is smallest minimises the bytes moved
before scale-in.  Finding that node exactly would require comparing every
item across nodes, so ElMem compares only each slab's **median** MRU
timestamp: picking the node with the coldest median guarantees at most
half its items are hotter than the other node's median (the
median-of-medians bound), versus a worst case of *all* items for a random
pick.  Per-slab scores are combined as a weighted sum, weighting slab
``b`` by the fraction of the node's memory pages assigned to it
(``w_b``), and the Master retires the ``x`` nodes with the smallest
weighted sums.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.interfaces import CacheNode
from repro.errors import ConfigurationError

COLD_TIMESTAMP = float("-inf")
"""Score used for a slab class that holds no items on a node."""


def node_score(node: CacheNode) -> float:
    """Weighted median-hotness score of one node.

    Uses the raw median MRU timestamp per slab class (the paper's
    ``s_{b,i}``); empty classes contribute nothing.  Lower scores mean
    colder data -- cheaper to retire.
    """
    fractions = node.page_fractions()
    if not fractions:
        return COLD_TIMESTAMP
    score = 0.0
    weight_seen = 0.0
    for class_id, weight in fractions.items():
        median = node.median_timestamp(class_id)
        if median is None:
            continue
        score += weight * median
        weight_seen += weight
    if weight_seen == 0.0:
        return COLD_TIMESTAMP
    return score


def score_nodes(nodes: Sequence[CacheNode]) -> dict[str, float]:
    """Score every node; lower = colder = better to retire."""
    return {node.name: node_score(node) for node in nodes}


def choose_nodes_to_retire(
    nodes: Sequence[CacheNode], count: int
) -> list[str]:
    """The ``count`` distinct nodes with the smallest weighted sums.

    Ties break on node name for determinism.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if count > len(nodes):
        raise ConfigurationError(
            f"cannot retire {count} of {len(nodes)} nodes"
        )
    return [name for name, _ in rank_nodes_by_score(nodes)[:count]]


def rank_nodes_by_score(nodes: Sequence[CacheNode]) -> list[tuple[str, float]]:
    """All nodes sorted coldest-first -- the x-axis of the paper's Fig. 7.

    Ties break on node name for determinism.
    """
    scores = score_nodes(nodes)
    return sorted(scores.items(), key=lambda pair: (pair[1], pair[0]))
