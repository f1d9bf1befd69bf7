import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecontrast import graphs, pipeline
from linecontrast.graphs import (
    EmptyEdgeSet,
    InvariantViolation,
    MolecularGraph,
    edge_order,
    graph_from_record,
    graph_to_record,
    line_graphs,
    make_graph,
    permute_nodes,
    to_line_graph,
)
from linecontrast.pipeline import TRANSFORM_CHUNK, load_corpus, save_corpus, transform_corpus
from linecontrast.synth import random_molecular_graph

from conftest import (bruteforce_line_edges, degrees, line_edge_count, path3,
                      reference_line_graph, single_edge, star, triangle)


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


@st.composite
def corpus_graphs(draw):
    """A graph with at least one edge, edges in drawn order: a random simple
    graph, a single edge, or a hub of degree 8 to 11 with extra edges;
    each may carry isolated nodes."""
    kind = draw(st.sampled_from(["random", "single edge", "hub"]))
    if kind == "single edge":
        n, edges = 2, [(0, 1)]
    else:
        n = draw(st.integers(2, 9)) if kind == "random" else draw(st.integers(9, 12))
        candidates = list(combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=14,
                              unique=True))
        if kind == "hub":
            hub = draw(st.integers(0, n - 1))
            spokes = [tuple(sorted((hub, v))) for v in range(n) if v != hub][:draw(
                st.integers(8, n - 1))]
            edges = draw(st.permutations(list(dict.fromkeys(edges + spokes))))
    n += draw(st.integers(0, 3))            # isolated nodes
    small = st.tuples(st.integers(0, 3), st.integers(0, 2))
    return make_graph(draw(st.lists(small, min_size=n, max_size=n)), edges,
                      draw(st.lists(small, min_size=len(edges), max_size=len(edges))))


class TestTransformCorpusAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(corpus=st.lists(corpus_graphs(), max_size=12), chunk=st.integers(1, 5))
    def test_matches_the_per_graph_oracle_across_chunk_boundaries(self, corpus, chunk):
        with mock.patch.object(pipeline, "TRANSFORM_CHUNK", chunk):
            pairs = transform_corpus(corpus)
        assert [g for g, _ in pairs] == corpus
        for g, view in pairs:
            assert view == reference_line_graph(g)
            lg = view.graph
            assert make_graph(lg.node_features, lg.edges, lg.edge_features) == lg
            assert {(a, b, o) for (a, b), o in zip(lg.edges, view.edge_origin)} == (
                bruteforce_line_edges(g))

    @settings(max_examples=30, deadline=None)
    @given(corpus=st.lists(corpus_graphs(), max_size=10), data=st.data(),
           chunk=st.integers(1, 4))
    def test_an_edgeless_graph_anywhere_raises(self, corpus, data, chunk):
        edgeless = make_graph([[0, 0]] * data.draw(st.integers(0, 3)), [], [])
        corpus.insert(data.draw(st.integers(0, len(corpus))), edgeless)
        with mock.patch.object(pipeline, "TRANSFORM_CHUNK", chunk):
            with pytest.raises(EmptyEdgeSet):
                transform_corpus(corpus)

    def test_matches_the_oracle_at_the_real_chunk_size(self):
        corpus = [random_molecular_graph(seed, (2, 20), 5)
                  for seed in range(2 * TRANSFORM_CHUNK + 7)]
        assert [v for _, v in transform_corpus(corpus)] == [
            reference_line_graph(g) for g in corpus]

    def test_views_share_one_node_origin_per_edge_count(self):
        views = line_graphs([triangle(), star(3), path3()])
        assert views[0].node_origin is views[1].node_origin is edge_order(3)
        assert views[2].node_origin is edge_order(2)
        assert edge_order(graphs.EDGE_ORDER_MAX + 1) == tuple(range(graphs.EDGE_ORDER_MAX + 1))


def _forged(node_count, edges):
    """A MolecularGraph whose edges skip the constructor's checks."""
    g = make_graph([[0, 0]] * node_count, [(0, 1)], [[0, 0]])
    object.__setattr__(g, "edges", tuple(edges))
    object.__setattr__(g, "edge_features", ((0, 0),) * len(edges))
    return g


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 3)], "graph 1: edge 1: endpoint (1, 3) outside 0..2"),
    ([(0, 1), (-1, 2)], "graph 1: edge 1: endpoint (-1, 2) outside 0..2"),
    ([(0, 1), (1, 1)], "graph 1: line graph edge 1: duplicate edge (0, 1)"),
    ([(0, 1), (1, 2), (0, 1)], "graph 1: line graph edge 2: duplicate edge (0, 2)"),
], ids=["endpoint past the nodes", "negative endpoint", "self-loop", "duplicate edge"])
def test_line_graphs_refuse_a_source_that_breaks_the_invariants(edges, message):
    with pytest.raises(InvariantViolation) as err:
        line_graphs([triangle(), _forged(3, edges)])
    assert str(err.value) == message


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
        monkeypatch.setattr(pipeline, "LOAD_CHUNK", 1)  # one line per chunk
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
        # a pair past the bound is stored fresh once per chunk: two graphs
        # loaded in two chunks hold two objects
        first, *later = [[e for e in g.edges if e not in table] for g, _ in bounded]
        a, b = next((e, f) for e in first for edges in later for f in edges if f == e)
        assert a is not b

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
