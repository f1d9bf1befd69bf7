import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from linecontrast.checkpoint import MAGIC
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


def degrees(g: MolecularGraph) -> list[int]:
    deg = [0] * g.num_nodes
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def line_edge_count(g: MolecularGraph) -> int:
    """Number of line-graph edges: sum over nodes of deg*(deg-1)/2."""
    return sum(d * (d - 1) // 2 for d in degrees(g))


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


def corrupted(analytic_grads):
    """`analytic_grads` (gradcheck's) with 1e-2 added to the gradient of
    each case's first array: a wrong gradient rule the gate must fail."""
    def corrupt(build, arrays):
        grads = analytic_grads(build, arrays)
        first = next(iter(grads))
        grads[first] = grads[first] + 1e-2
        return grads
    return corrupt


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# corpus records with an entry that is not an integer, a feature beyond
# int64, or a row that is not a pair, each with the message that names it;
# load_corpus prefixes the line number
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
    "atom 2**63": ('{"nodes":[[0,0],[9223372036854775808,0]],"edges":[[0,1,0,0]]}',
                   "node 1: category index 9223372036854775808 is outside the int64 range"),
    "direction 2**64": ('{"nodes":[[0,0],[0,0]],"edges":[[0,1,0,18446744073709551616]]}',
                        "edge feature 0: category index 18446744073709551616 is outside "
                        "the int64 range"),
    # long values are cut to reprlib's short form, so the line stays short
    "entry of 100000 characters": ('{"nodes":[[0,0],["' + "a" * 100_000 + '",0]],'
                                   '"edges":[[0,1,0,0]]}',
                                   "node 1: entry 'aaaaaaaaaaaa...aaaaaaaaaaaaa' is not an integer"),
    "atom of 4000 digits": ('{"nodes":[[0,0],[' + "1" * 4000 + ',0]],"edges":[[0,1,0,0]]}',
                            "node 1: category index 111111111111111111...1111111111111111111 "
                            "is outside the int64 range"),
}


def read_checkpoint_tables(path) -> tuple[dict, dict[str, np.ndarray]]:
    """A checkpoint's JSON header and its arrays by table name."""
    raw = Path(path).read_bytes()
    (size,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + size])
    data = np.frombuffer(raw, dtype="<f8", offset=12 + size)
    arrays, start = {}, 0
    for name, shape in header["params"]:
        arrays[name] = data[start:start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    return header, arrays


def write_checkpoint_tables(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """The checkpoint container as a generic writer: `header` with the table
    of `arrays` in sorted name order, then each array's data in that order;
    so it can write tables that the program never writes."""
    names = sorted(arrays)
    header = {**header, "params": [[name, list(arrays[name].shape)] for name in names]}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                           + b"".join(arrays[name].astype("<f8").tobytes() for name in names))
