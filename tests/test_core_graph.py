"""Unit tests for the bipartite infection graph."""

import pytest

from repro.core import InfectionGraph, Label


def small_graph():
    graph = InfectionGraph()
    graph.add_host("h1", Label.SEED, 0)
    graph.add_domain("cc.ru", Label.CC_DETECTED, 1, score=1.0)
    graph.add_domain("pay.ru", Label.SIMILARITY, 2, score=0.8)
    graph.add_host("h2", Label.CONTACT, 1)
    graph.add_edge("h1", "cc.ru")
    graph.add_edge("h2", "cc.ru")
    graph.add_edge("h1", "pay.ru")
    return graph


class TestInfectionGraph:
    def test_duplicate_add_returns_false(self):
        graph = small_graph()
        assert not graph.add_host("h1", Label.CONTACT, 5)
        assert graph.hosts["h1"].label is Label.SEED  # first record wins

    def test_edge_requires_existing_nodes(self):
        graph = small_graph()
        with pytest.raises(KeyError):
            graph.add_edge("ghost", "cc.ru")
        with pytest.raises(KeyError):
            graph.add_edge("h1", "ghost.ru")

    def test_to_networkx_bipartite(self):
        nx_graph = small_graph().to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 3
        assert nx_graph.nodes["h1"]["bipartite"] == 0
        assert nx_graph.nodes["cc.ru"]["bipartite"] == 1
        assert nx_graph.nodes["pay.ru"]["score"] == 0.8

    def test_networkx_connected_community(self):
        import networkx as nx

        assert nx.is_connected(small_graph().to_networkx())

    def test_ascii_render_mentions_everything(self):
        text = small_graph().ascii_render()
        for name in ("h1", "h2", "cc.ru", "pay.ru"):
            assert name in text
        assert "edges: 3" in text

    def test_edge_set_deduplicates(self):
        graph = small_graph()
        graph.add_edge("h1", "cc.ru")
        assert len(graph.edges) == 3
