import numpy as np
import pytest

from linecontrast.graphs import MolecularGraph, make_graph


def triangle() -> MolecularGraph:
    return make_graph(
        [[0, 0], [1, 0], [2, 1]],
        [(0, 1), (0, 2), (1, 2)],
        [[0, 0], [1, 0], [2, 1]],
    )


def star(leaves: int) -> MolecularGraph:
    """Hub node 0 with `leaves` spokes."""
    n = leaves + 1
    edges = [(0, i) for i in range(1, n)]
    return make_graph(
        [[i % 3, i % 2] for i in range(n)],
        edges,
        [[i % 2, 0] for i in range(leaves)],
    )


def path3() -> MolecularGraph:
    return make_graph(
        [[0, 0], [1, 1], [2, 0]],
        [(0, 1), (1, 2)],
        [[0, 1], [1, 0]],
    )


def single_edge() -> MolecularGraph:
    return make_graph([[3, 1], [5, 0]], [(0, 1)], [[2, 1]])


def bruteforce_line_edges(g: MolecularGraph) -> set[tuple[int, int, int]]:
    """Independent O(|E|^2) oracle: every pair of edges sharing a node,
    as (i, j, shared node) with i < j."""
    out = set()
    for i in range(g.num_edges):
        si = set(g.edges[i])
        for j in range(i + 1, g.num_edges):
            shared = si & set(g.edges[j])
            if shared:
                out.add((i, j, shared.pop()))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# corpus records with a non-integer entry or row, each with the message
# that names it; load_corpus prefixes the line number
NON_INTEGER_RECORDS = {
    "node row 5": ('{"nodes":[[0,0],5],"edges":[[0,1,0,0]]}', "node 1: expected a pair, got 5"),
    "null entry": ('{"nodes":[[0,null],[0,0]],"edges":[[0,1,0,0]]}',
                   "node 0: entry None is not an integer"),
    "string entry": ('{"nodes":[[0,0],["3",0]],"edges":[[0,1,0,0]]}',
                     "node 1: entry '3' is not an integer"),
    "endpoint 1.5": ('{"nodes":[[0,0],[0,0]],"edges":[[0,1.5,0,0]]}',
                     "edge 0: entry 1.5 is not an integer"),
    "boolean bond": ('{"nodes":[[0,0],[0,0]],"edges":[[0,1,true,0]]}',
                     "edge feature 0: entry True is not an integer"),
    "float direction": ('{"nodes":[[0,0],[0,0]],"edges":[[0,1,0,1.0]]}',
                        "edge feature 0: entry 1.0 is not an integer"),
}
