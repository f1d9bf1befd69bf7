"""Synthetic graph generators for the desk-scale corpus and for adversarial
test pairs whose pooled raw features coincide."""

from __future__ import annotations

import numpy as np

from .encoder import EncoderConfig
from .graphs import MolecularGraph, make_graph

# (atomic, chirality, bond type, bond direction) of the default encoder
DEFAULT_VOCAB = EncoderConfig().vocab


def random_molecular_graph(
    rng_seed: int,
    node_range: tuple[int, int] = (6, 24),
    degree_cap: int = 4,
    vocab: tuple[int, int, int, int] = DEFAULT_VOCAB,
) -> MolecularGraph:
    """Connected random graph with bounded degree and uniform features.

    Deterministic per seed. Node count is uniform over node_range
    (inclusive). A random spanning tree guarantees connectivity; extra
    edges are added while respecting the degree cap.
    """
    lo, hi = node_range
    if lo < 2:
        raise ValueError("node_range minimum must be at least 2")
    if degree_cap < 1:
        raise ValueError("degree_cap must be at least 1")
    rng = np.random.default_rng(rng_seed)
    n = int(rng.integers(lo, hi + 1))
    if degree_cap < 2 and n > 2:
        raise ValueError("degree_cap < 2 cannot yield a connected graph on > 2 nodes")

    deg = np.zeros(n, dtype=np.int64)
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        # nonempty: the tree on 0..v-1 has degree sum 2(v - 1) < 2v, so
        # some node is below a cap of 2 or more
        candidates = np.flatnonzero(deg[:v] < degree_cap)
        u = int(candidates[rng.integers(0, candidates.size)])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1

    extra_target = int(rng.integers(0, max(1, n // 2) + 1))
    for _ in range(4 * extra_target):
        if len(edges) - (n - 1) >= extra_target:
            break
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in edges or deg[u] >= degree_cap or deg[v] >= degree_cap:
            continue
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1

    edge_list = sorted(edges)
    atomic, chirality, bond_type, bond_dir = vocab
    node_feats = np.column_stack(
        [rng.integers(0, atomic, size=n), rng.integers(0, chirality, size=n)]
    )
    edge_feats = np.column_stack(
        [
            rng.integers(0, bond_type, size=len(edge_list)),
            rng.integers(0, bond_dir, size=len(edge_list)),
        ]
    )
    return make_graph(node_feats.tolist(), edge_list, edge_feats.tolist())


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return sorted(edges)


def make_hard_negative_pair(
    topology_seed: int,
    mode: str,
    vocab: tuple[int, int, int, int] = DEFAULT_VOCAB,
) -> tuple[MolecularGraph, MolecularGraph]:
    """Two non-isomorphic attributed graphs with identical summed raw
    one-hot node features.

    mode "same-structure": one cycle, same node-feature multiset assigned
    in a blocked vs an alternating pattern.
    mode "different-structure": a star versus a cycle on the same node
    multiset (one special node, the rest uniform).
    """
    rng = np.random.default_rng(topology_seed)
    atomic = vocab[0]
    a = int(rng.integers(0, atomic))
    b = int(rng.integers(0, atomic - 1))
    if b >= a:
        b += 1  # guarantees a != b

    if mode == "same-structure":
        k = int(rng.integers(2, 7))  # cycle size 2k, 4..12 nodes
        n = 2 * k
        edges = _cycle_edges(n)
        edge_feats = [(0, 0)] * len(edges)
        blocked = [(a, 0)] * k + [(b, 0)] * k
        alternating = [(a, 0) if i % 2 == 0 else (b, 0) for i in range(n)]
        g1 = make_graph(blocked, edges, edge_feats)
        g2 = make_graph(alternating, edges, edge_feats)
        return g1, g2

    if mode == "different-structure":
        n = int(rng.integers(5, 13))
        feats = [(b, 0)] + [(a, 0)] * (n - 1)
        star_edges = sorted((0, i) for i in range(1, n))
        star = make_graph(feats, star_edges, [(0, 0)] * len(star_edges))
        cyc_edges = _cycle_edges(n)
        cycle = make_graph(feats, cyc_edges, [(0, 0)] * len(cyc_edges))
        return star, cycle

    raise ValueError(f"unknown mode {mode!r}")


def one_hot_node_feature_sum(g: MolecularGraph, vocab: tuple[int, int, int, int] = DEFAULT_VOCAB) -> np.ndarray:
    """Sum-pooled one-hot node features, concatenated over the two fields."""
    atomic, chirality = vocab[0], vocab[1]
    out = np.zeros(atomic + chirality, dtype=np.int64)
    for a, c in g.node_features:
        out[a] += 1
        out[atomic + c] += 1
    return out
