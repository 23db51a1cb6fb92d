"""Tests for median-hotness node scoring (Q2)."""

import pytest

from repro.core.scoring import (
    COLD_TIMESTAMP,
    choose_nodes_to_retire,
    node_score,
    rank_nodes_by_score,
    score_nodes,
)
from repro.errors import ConfigurationError
from repro.memcached.node import MemcachedNode
from repro.memcached.slab import PAGE_SIZE

from tests.conftest import fill_node


def make_node(name: str, start_time: float, count: int = 50) -> MemcachedNode:
    node = MemcachedNode(name, 4 * PAGE_SIZE)
    fill_node(node, count, start_time=start_time, prefix=f"{name}-")
    return node


class TestNodeScore:
    def test_empty_node_is_coldest(self):
        node = MemcachedNode("empty", PAGE_SIZE)
        assert node_score(node) == COLD_TIMESTAMP

    def test_hotter_node_scores_higher(self):
        cold = make_node("cold", start_time=0.0)
        hot = make_node("hot", start_time=1000.0)
        assert node_score(hot) > node_score(cold)

    def test_score_weighted_by_page_fractions(self):
        """A node whose dominant slab is cold scores colder than one whose
        dominant slab is hot, even with one hot outlier slab."""
        mixed = MemcachedNode("mixed", 8 * PAGE_SIZE)
        # Dominant class: many cold small items (several pages).
        for i in range(3000):
            mixed.set(f"small-{i}", 1, 300, float(i))
        # Outlier: one recent large item (one page, tiny weight).
        mixed.set("big", 1, 500_000, 1_000_000.0)

        hot = MemcachedNode("hot", 8 * PAGE_SIZE)
        for i in range(3000):
            hot.set(f"small-{i}", 1, 300, 500_000.0 + i)
        assert node_score(mixed) < node_score(hot)


class TestChooseNodes:
    def test_chooses_coldest(self):
        nodes = [
            make_node("a", 3000.0),
            make_node("b", 0.0),
            make_node("c", 6000.0),
        ]
        assert choose_nodes_to_retire(nodes, 1) == ["b"]
        assert choose_nodes_to_retire(nodes, 2) == ["b", "a"]

    def test_zero_count(self):
        nodes = [make_node("a", 0.0)]
        assert choose_nodes_to_retire(nodes, 0) == []

    def test_count_validation(self):
        nodes = [make_node("a", 0.0)]
        with pytest.raises(ConfigurationError):
            choose_nodes_to_retire(nodes, 2)
        with pytest.raises(ConfigurationError):
            choose_nodes_to_retire(nodes, -1)

    def test_deterministic_tie_break(self):
        nodes = [
            MemcachedNode("b", PAGE_SIZE),
            MemcachedNode("a", PAGE_SIZE),
        ]
        assert choose_nodes_to_retire(nodes, 1) == ["a"]

    def test_score_nodes_returns_all(self):
        nodes = [make_node("a", 0.0), make_node("b", 10.0)]
        scores = score_nodes(nodes)
        assert set(scores) == {"a", "b"}

    def test_rank_order_is_coldest_first(self):
        nodes = [
            make_node("a", 5000.0),
            make_node("b", 0.0),
            make_node("c", 9000.0),
        ]
        ranked = rank_nodes_by_score(nodes)
        assert [name for name, _ in ranked] == ["b", "a", "c"]
        scores = [score for _, score in ranked]
        assert scores == sorted(scores)
