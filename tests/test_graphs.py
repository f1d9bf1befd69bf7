import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecontrast import graphs
from linecontrast.graphs import (
    EmptyEdgeSet,
    InvariantViolation,
    MolecularGraph,
    graph_from_record,
    graph_to_record,
    make_graph,
    permute_nodes,
    to_line_graph,
)
from linecontrast.pipeline import load_corpus, save_corpus, transform_corpus
from linecontrast.synth import random_molecular_graph

from conftest import (bruteforce_line_edges, degrees, line_edge_count, path3, single_edge,
                      star, triangle)


class TestMolecularGraphInvariants:
    def test_valid_graph_builds(self):
        g = triangle()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert degrees(g) == [2, 2, 2]

    def test_endpoint_out_of_range(self):
        with pytest.raises(InvariantViolation, match="outside"):
            make_graph([[0, 0], [0, 0]], [(0, 2)], [[0, 0]])

    def test_self_loop_rejected(self):
        with pytest.raises(InvariantViolation, match="self-loop"):
            make_graph([[0, 0], [0, 0]], [(1, 1)], [[0, 0]])

    def test_reversed_edge_rejected(self):
        with pytest.raises(InvariantViolation, match="u < v"):
            make_graph([[0, 0], [0, 0]], [(1, 0)], [[0, 0]])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvariantViolation, match="duplicate"):
            make_graph([[0, 0], [0, 0]], [(0, 1), (0, 1)], [[0, 0], [0, 0]])

    def test_feature_count_mismatch(self):
        with pytest.raises(InvariantViolation, match="feature"):
            make_graph([[0, 0], [0, 0]], [(0, 1)], [])

    def test_negative_feature_rejected(self):
        with pytest.raises(InvariantViolation, match="negative"):
            make_graph([[0, -1], [0, 0]], [(0, 1)], [[0, 0]])


class TestToLineGraph:
    def test_triangle_maps_to_triangle(self):
        view = to_line_graph(triangle())
        assert view.graph.num_nodes == 3
        assert view.graph.edges == ((0, 1), (0, 2), (1, 2))

    def test_star3_maps_to_triangle_through_the_hub(self):
        view = to_line_graph(star(3))
        assert view.graph.num_nodes == 3
        assert view.graph.num_edges == 3 * 2 // 2
        assert view.graph.edges == ((0, 1), (0, 2), (1, 2))
        assert view.edge_origin == (0, 0, 0)

    def test_path3(self):
        view = to_line_graph(path3())
        assert view.graph.num_nodes == 2
        assert view.graph.edges == ((0, 1),)
        assert view.edge_origin == (1,)

    def test_attribute_transfer(self):
        g = path3()
        view = to_line_graph(g)
        # line-node i carries source edge i's features
        assert view.graph.node_features == g.edge_features
        # the line-edge through shared node 1 carries node 1's features
        assert view.graph.edge_features == (g.node_features[1],)

    def test_single_edge_gives_isolated_line_node(self):
        view = to_line_graph(single_edge())
        assert view.graph.num_nodes == 1
        assert view.graph.num_edges == 0
        assert view.node_origin == (0,)

    def test_empty_edge_set_rejected(self):
        g = make_graph([[0, 0], [1, 0]], [], [])
        with pytest.raises(EmptyEdgeSet):
            to_line_graph(g)

    def test_node_origin_is_source_edge_order(self):
        g = random_molecular_graph(7, (8, 12), 4)
        view = to_line_graph(g)
        assert view.node_origin == tuple(range(g.num_edges))

    def test_line_edges_grouped_by_shared_node_ascending(self):
        g = star(4)
        view = to_line_graph(g)
        # every pair shares the hub; pairs are lexicographic
        expected = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert list(view.graph.edges) == expected

    def test_transformation_is_pure(self):
        g = triangle()
        before = (g.node_features, g.edges, g.edge_features)
        v1 = to_line_graph(g)
        v2 = to_line_graph(g)
        assert (g.node_features, g.edges, g.edge_features) == before
        assert v1 == v2


class TestLineEdgeCount:
    def test_star4(self):
        assert line_edge_count(star(4)) == 6

    def test_path_graphs(self):
        for n_edges in (1, 2, 5, 9):
            nodes = [[0, 0]] * (n_edges + 1)
            edges = [(i, i + 1) for i in range(n_edges)]
            g = make_graph(nodes, edges, [[0, 0]] * n_edges)
            assert line_edge_count(g) == max(0, n_edges - 1)

    def test_matches_bruteforce_on_random_graphs(self):
        for seed in range(200):
            g = random_molecular_graph(seed, (2, 20), 5)
            assert line_edge_count(g) == len(bruteforce_line_edges(g))

    def test_matches_transform_output(self):
        for seed in range(50):
            g = random_molecular_graph(seed, (3, 15), 4)
            assert line_edge_count(g) == to_line_graph(g).graph.num_edges


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_line_graph_invariants_hold_on_random_graphs(seed):
    g = random_molecular_graph(seed, (2, 18), 4)
    view = to_line_graph(g)
    lg = view.graph
    assert lg.num_nodes == g.num_edges
    assert lg.num_edges == line_edge_count(g)
    # attribute transfer both ways
    for i, origin in enumerate(view.node_origin):
        assert lg.node_features[i] == g.edge_features[origin]
    for k, origin in enumerate(view.edge_origin):
        assert lg.edge_features[k] == g.node_features[origin]
    # every line-edge joins two source edges sharing exactly the origin node
    for (a, b), origin in zip(lg.edges, view.edge_origin):
        ea, eb = g.edges[view.node_origin[a]], g.edges[view.node_origin[b]]
        assert set(ea) & set(eb) == {origin}


class TestPermuteNodes:
    def test_relabels_features_and_edges(self):
        g = path3()
        perm = [2, 0, 1]
        p = permute_nodes(g, perm)
        assert p.node_features[2] == g.node_features[0]
        assert p.node_features[0] == g.node_features[1]
        assert set(p.edges) == {(0, 2), (0, 1)}
        assert p.edge_features == g.edge_features

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_nodes(path3(), [0, 0, 1])


class TestRecords:
    def test_round_trip(self):
        g = triangle()
        assert graph_from_record(graph_to_record(g)) == g

    def test_missing_keys_rejected(self):
        with pytest.raises(InvariantViolation):
            graph_from_record({"nodes": [[0, 0]]})

    def test_short_edge_row_rejected(self):
        with pytest.raises(InvariantViolation):
            graph_from_record({"nodes": [[0, 0], [0, 0]], "edges": [[0, 1]]})


class TestIntegerEntries:
    def test_numpy_integers_accepted(self):
        i = np.int64
        g = make_graph([[i(0), i(1)], [i(2), i(0)]], [(np.int32(0), i(1))], [[i(1), i(0)]])
        assert g == make_graph([[0, 1], [2, 0]], [(0, 1)], [[1, 0]])
        assert all(type(x) is int for row in g.node_features + g.edges for x in row)

    @pytest.mark.parametrize("bad", [np.float64(1.0), 1.0, True, np.True_, None, "1"],
                             ids=["np.float64", "float", "bool", "np.bool_", "None", "str"])
    def test_non_integer_endpoint_rejected(self, bad):
        with pytest.raises(InvariantViolation, match="edge 0: entry .* is not an integer"):
            make_graph([[0, 0], [0, 0]], [(0, bad)], [[0, 0]])


def _pairs(g: MolecularGraph):
    return g.node_features + g.edges + g.edge_features


class TestSharedPairs:
    @pytest.fixture
    def corpus_path(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([random_molecular_graph(seed, (6, 24), 4) for seed in range(40)], path)
        return path

    def test_equal_pairs_of_a_corpus_and_its_views_are_one_object(self, corpus_path,
                                                                  monkeypatch):
        monkeypatch.setattr(graphs, "_shared_pairs", {})  # room whatever ran before
        by_value = {}
        for g, view in transform_corpus(load_corpus(corpus_path)):
            for pair in _pairs(g) + _pairs(view.graph):
                assert by_value.setdefault(pair, pair) is pair
        assert len(by_value) < 1000  # far fewer values than the pairs held

    def test_past_the_bound_pairs_are_fresh_and_graphs_unchanged(self, corpus_path,
                                                                 monkeypatch):
        monkeypatch.setattr(graphs, "_shared_pairs", {})
        monkeypatch.setattr(graphs, "SHARED_PAIRS_MAX", 0)
        unshared = transform_corpus(load_corpus(corpus_path))
        assert graphs._shared_pairs == {}
        monkeypatch.setattr(graphs, "SHARED_PAIRS_MAX", 5)
        bounded = transform_corpus(load_corpus(corpus_path))
        assert bounded == unshared
        assert [graph_to_record(g) for g, _ in bounded] == [
            graph_to_record(g) for g, _ in unshared]
        table = graphs._shared_pairs
        assert len(table) == 5 and all(key is value for key, value in table.items())
        # a pair past the bound is stored fresh: two graphs hold two objects
        first_edges = [g.edges[0] for g, _ in bounded if g.edges[0] == (0, 1)]
        assert (0, 1) not in table and first_edges[0] is not first_edges[1]

    def test_corpus_and_views_fit_the_memory_budget(self, tmp_path, monkeypatch):
        n = 1000
        path = tmp_path / "corpus.jsonl"
        save_corpus([random_molecular_graph(seed) for seed in range(n)], path)
        monkeypatch.setattr(graphs, "_shared_pairs", {})  # the table's growth counts
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = transform_corpus(load_corpus(path))
            per_graph = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert len(held) == n
        # a tuple per pair costs about 6.3 KB per graph here, shared pairs about 1.7 KB
        assert per_graph < 3500, per_graph
