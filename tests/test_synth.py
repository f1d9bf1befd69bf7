import numpy as np
import pytest

from linecontrast.synth import (
    make_hard_negative_pair,
    one_hot_node_feature_sum,
    random_molecular_graph,
)
from linecontrast.wl import wl_hash

from conftest import degrees


def _is_connected(g):
    adj = [[] for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.num_nodes


class TestRandomMolecularGraph:
    def test_same_seed_same_graph(self):
        assert random_molecular_graph(0) == random_molecular_graph(0)

    def test_distinct_seeds_usually_differ(self):
        assert random_molecular_graph(1) != random_molecular_graph(2)

    def test_outputs_are_valid_connected_and_capped(self):
        for seed in range(300):
            g = random_molecular_graph(seed, (2, 25), 4)
            assert 2 <= g.num_nodes <= 25
            assert max(degrees(g)) <= 4
            assert _is_connected(g)

    def test_degree_cap_holds_over_many_samples(self):
        worst = 0
        for seed in range(10_000):
            g = random_molecular_graph(seed, (4, 12), 4)
            worst = max(worst, max(degrees(g)))
        assert worst <= 4

    def test_features_respect_vocab(self):
        vocab = (3, 2, 2, 2)
        for seed in range(100):
            g = random_molecular_graph(seed, (2, 10), 3, vocab=vocab)
            assert all(a < 3 and c < 2 for a, c in g.node_features)
            assert all(bt < 2 and bd < 2 for bt, bd in g.edge_features)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            random_molecular_graph(0, (1, 5), 3)
        with pytest.raises(ValueError):
            random_molecular_graph(0, (2, 5), 0)
        with pytest.raises(ValueError):
            random_molecular_graph(0, (3, 3), 1)


class TestHardNegativePairs:
    @pytest.mark.parametrize("mode", ["same-structure", "different-structure"])
    def test_one_hot_sums_match_exactly(self, mode):
        for seed in range(50):
            g1, g2 = make_hard_negative_pair(seed, mode)
            assert np.array_equal(one_hot_node_feature_sum(g1),
                                  one_hot_node_feature_sum(g2))

    @pytest.mark.parametrize("mode", ["same-structure", "different-structure"])
    def test_pairs_are_not_isomorphic_as_attributed_graphs(self, mode):
        for seed in range(50):
            g1, g2 = make_hard_negative_pair(seed, mode)
            assert wl_hash(g1) != wl_hash(g2)

    def test_same_structure_shares_topology(self):
        g1, g2 = make_hard_negative_pair(3, "same-structure")
        assert g1.edges == g2.edges
        assert sorted(g1.node_features) == sorted(g2.node_features)
        assert g1.node_features != g2.node_features

    def test_different_structure_changes_topology(self):
        g1, g2 = make_hard_negative_pair(3, "different-structure")
        assert g1.num_nodes == g2.num_nodes
        assert g1.edges != g2.edges
        assert sorted(g1.node_features) == sorted(g2.node_features)

    def test_deterministic(self):
        assert make_hard_negative_pair(9, "same-structure") == \
            make_hard_negative_pair(9, "same-structure")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_hard_negative_pair(0, "both")
