"""Attributed molecular-style graphs and the line-graph transformation.

Graphs are undirected and simple; every edge is stored once as ``(u, v)``
with ``u < v``. Node and edge features are pairs of non-negative category
indices (vocabulary bounds are a property of the encoder configuration and
are enforced at embedding time, not here).

The line graph of ``g`` has one node per edge of ``g``, and two line-nodes
are adjacent exactly when the corresponding edges share an endpoint.
``LineGraphView`` keeps the provenance maps back to the source graph so
attributes can be transferred and the two views kept row-aligned.
``line_graphs`` builds the views of many graphs in one numpy pass: one
stable sort of all edge endpoints gives every node's incident edges in
ascending order, and one pair template per node degree gives the line
edges; ``to_line_graph`` is its one-graph case. ``graphs_from_rows`` builds
many graphs from the integer arrays of their records the same way, with
one check of the invariants on the arrays.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class InvariantViolation(ValueError):
    """A graph record violates the structural invariants."""


class EmptyEdgeSet(ValueError):
    """The operation needs a graph with at least one edge."""


FeaturePair = tuple[int, int]

# Graphs hold their features, edges and line edges as 2-tuples whose values
# repeat across a corpus (a 5000-graph synthetic corpus and its line graphs
# hold about 400k of them but only 608 distinct values). Each distinct pair is
# kept once here and every graph refers to that one tuple. At most
# SHARED_PAIRS_MAX pairs are kept, about 0.7 MB at worst (4096 pairs of
# distinct ints above 256); pairs past the bound are stored fresh in each graph,
# or once per call where many graphs are built at once (`_interned_pairs`: per
# line_graphs call and per chunk that load_corpus parses in bulk), and bulk
# calls admit pairs in order of value. Only values are promised, not
# identity: loaders in two threads may overshoot the bound by a pair each, or
# keep two tuples of one value.
SHARED_PAIRS_MAX = 4096
_shared_pairs: dict[tuple[int, int], tuple[int, int]] = {}


def _admit(pair: tuple[int, int]) -> tuple[int, int]:
    """`pair`, kept as the shared one while the table is below its bound."""
    if len(_shared_pairs) < SHARED_PAIRS_MAX:
        _shared_pairs[pair] = pair
    return pair


def _int_pairs(rows: Iterable[Sequence[int]], what: str) -> list[tuple[int, int]]:
    """The rows as pairs of ints, each the shared tuple of its value while
    the table has room; a row that is already a tuple of two ints is kept,
    not copied. Only integers pass, numpy integers included: a bool, float,
    string or null entry raises, as does a row that is not a pair. Errors
    name the row by `what` and its index."""
    shared = _shared_pairs.get
    out = []
    for i, row in enumerate(rows):
        try:
            a, b = row
        except (TypeError, ValueError):
            got = f"{len(row)} entries" if hasattr(row, "__len__") else reprlib.repr(row)
            raise InvariantViolation(f"{what} {i}: expected a pair, got {got}") from None
        if type(a) is not int or type(b) is not int:
            for x in (a, b):
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise InvariantViolation(f"{what} {i}: entry {reprlib.repr(x)} "
                                             "is not an integer")
            row = (int(a), int(b))
        elif type(row) is not tuple:
            row = (a, b)
        out.append(shared(row) or _admit(row))
    return out


def _interned_pairs(first: np.ndarray, second: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (first[i], second[i]) of two non-negative int64 arrays, in
    order. Each distinct pair is looked up once in the shared table, or
    admitted in order of value while it has room, so equal pairs are one
    tuple within a call and pairs past the bound are stored fresh once per
    call."""
    if not first.size:
        return []
    shared = _shared_pairs.get
    width = int(second.max()) + 1
    if (int(first.max()) + 1) * width > 2 ** 63:  # a key would overflow int64
        return [shared(p) or _admit(p) for p in zip(first.tolist(), second.tolist())]
    keys, which = np.unique(first * width + second, return_inverse=True)
    distinct = [shared(p) or _admit(p)
                for p in zip((keys // width).tolist(), (keys % width).tolist())]
    return np.fromiter(distinct, dtype=object, count=len(distinct))[which].tolist()


def _as_pairs(rows: Iterable[Sequence[int]], what: str) -> tuple[FeaturePair, ...]:
    pairs = _int_pairs(rows, what)
    for i, (a, b) in enumerate(pairs):
        if a < 0 or b < 0:
            raise InvariantViolation(f"{what} {i}: negative category index "
                                     f"{reprlib.repr((a, b))}")
        if a >= 2 ** 63 or b >= 2 ** 63:  # batches hold features as int64
            raise InvariantViolation(f"{what} {i}: category index {reprlib.repr(max(a, b))} "
                                     "is outside the int64 range")
    return tuple(pairs)


@dataclass(frozen=True, slots=True)
class MolecularGraph:
    """Undirected attributed graph with 2-field categorical features.

    node_features[i] is (atomic-number index, chirality index) for node i;
    edge_features[k] is (bond-type index, bond-direction index) for edge k.
    """

    node_features: tuple[FeaturePair, ...]
    edges: tuple[tuple[int, int], ...]
    edge_features: tuple[FeaturePair, ...]

    def __post_init__(self):
        n = len(self.node_features)
        if len(self.edge_features) != len(self.edges):
            raise InvariantViolation(
                f"{len(self.edges)} edges but {len(self.edge_features)} edge feature rows"
            )
        seen = set()
        for k, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"edge {k}: endpoint ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise InvariantViolation(f"edge {k}: self-loop at node {u}")
            if u > v:
                raise InvariantViolation(f"edge {k}: endpoints ({u}, {v}) not stored as u < v")
            if (u, v) in seen:
                raise InvariantViolation(f"edge {k}: duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def num_nodes(self) -> int:
        return len(self.node_features)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def make_graph(node_features, edges, edge_features) -> MolecularGraph:
    """Build a validated MolecularGraph from plain sequences."""
    return MolecularGraph(
        node_features=_as_pairs(node_features, "node"),
        edges=tuple(_int_pairs(edges, "edge")),
        edge_features=_as_pairs(edge_features, "edge feature"),
    )


@dataclass(frozen=True, slots=True)
class LineGraphView:
    """A line graph plus provenance back to its source graph.

    node_origin[i] is the source edge index for line-node i (the identity
    under the canonical construction, kept explicit for validation).
    edge_origin[k] is the source node shared by the two edges that line-edge
    k connects.
    """

    graph: MolecularGraph
    node_origin: tuple[int, ...]
    edge_origin: tuple[int, ...]


# Views of graphs of up to EDGE_ORDER_MAX edges share one node_origin tuple
# per edge count (at most 257 tuples of small ints, about 0.3 MB), so
# Batch.build can check a view's line-node order by identity.
EDGE_ORDER_MAX = 256
_edge_orders: dict[int, tuple[int, ...]] = {}


def edge_order(m: int) -> tuple[int, ...]:
    """tuple(range(m)), the node_origin of a canonical line view of a graph
    with m edges; one shared tuple per m up to EDGE_ORDER_MAX."""
    order = _edge_orders.get(m)
    if order is None:
        order = tuple(range(m))
        if m <= EDGE_ORDER_MAX:
            _edge_orders[m] = order
    return order


def _checked_graph(node_features, edges, edge_features) -> MolecularGraph:
    """A MolecularGraph whose invariants the caller has already checked."""
    g = object.__new__(MolecularGraph)
    object.__setattr__(g, "node_features", node_features)
    object.__setattr__(g, "edges", edges)
    object.__setattr__(g, "edge_features", edge_features)
    return g


def _recheck(i: int, what: str, node_features, edges) -> None:
    """Build graph `i` of a line_graphs call through MolecularGraph's own
    checks, so that a violation found in bulk raises with its usual message."""
    edges = tuple(edges)
    try:
        MolecularGraph(node_features, edges, ((0, 0),) * len(edges))
    except InvariantViolation as err:
        raise InvariantViolation(f"graph {i}: {what}{err}") from None


def line_graphs(graphs: Sequence[MolecularGraph]) -> list[LineGraphView]:
    """The line graph of each graph, in order, with attributes transferred.

    Line-nodes appear in source-edge order and carry the source edge
    features. Line-edges are grouped by shared source node in ascending
    node order, pairs in lexicographic order of their line-node indices,
    and carry the shared node's features. EmptyEdgeSet if a graph has no
    edges.

    One numpy pass serves all the graphs: a stable sort of every edge
    endpoint by global node id lists each node's incident edges in
    ascending order, and the line edges of all nodes of degree D come from
    one (D choose 2) template. The invariants MolecularGraph checks edge by
    edge (source endpoints in range, so every line edge stays in its
    graph; k1 < k2; no duplicate line edge) are checked once on these
    arrays, and the line graphs are built without that per-edge loop; a
    graph that fails them goes through MolecularGraph's checks, so the
    InvariantViolation names its edge as usual. Each distinct line-edge
    pair is looked up once in the shared table, and each line edge's
    features are its source node's feature tuple itself. Temporaries grow
    with the number of graphs, so callers pass bounded chunks. Runs in
    O(|V| + sum deg^2) plus three sorts.
    """
    if not graphs:
        return []
    edge_counts = np.array([len(g.edges) for g in graphs], dtype=np.int64)
    if not edge_counts.all():
        raise EmptyEdgeSet("line graph of an edgeless graph is empty")
    node_counts = np.array([len(g.node_features) for g in graphs], dtype=np.int64)
    node_off = np.concatenate(([0], np.cumsum(node_counts)))
    edge_off = np.concatenate(([0], np.cumsum(edge_counts)))
    n_nodes, n_edges = int(node_off[-1]), int(edge_off[-1])
    # endpoints as u0, v0, u1, v1, ...: slot p holds an endpoint of edge p // 2
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
                       dtype=np.int64, count=2 * n_edges)
    end_graph = np.repeat(np.arange(len(graphs)), 2 * edge_counts)
    outside = ends.view(np.uint64) >= node_counts[end_graph].view(np.uint64)
    if outside.any():
        i = int(end_graph[np.argmax(outside)])
        _recheck(i, "", graphs[i].node_features, graphs[i].edges)
    ends += node_off[end_graph]

    incident = np.argsort(ends, kind="stable") >> 1
    degree = np.bincount(ends, minlength=n_nodes)
    first = np.cumsum(degree) - degree          # each node's first slot in incident
    per_node = degree * (degree - 1) // 2
    line_start = np.cumsum(per_node) - per_node
    k1 = np.empty(int(per_node.sum()), dtype=np.int64)
    k2 = np.empty_like(k1)
    for d in np.unique(degree[degree > 1]).tolist():
        nodes = np.flatnonzero(degree == d)
        a, b = np.triu_indices(d, 1)            # combinations(range(d), 2), in order
        slots = (line_start[nodes, None] + np.arange(a.size)).ravel()
        k1[slots] = incident[first[nodes, None] + a].ravel()
        k2[slots] = incident[first[nodes, None] + b].ravel()
    origin = np.repeat(np.arange(n_nodes), per_node)
    line_off = np.concatenate(([0], np.cumsum(per_node)))[node_off]
    line_graph = np.repeat(np.arange(len(graphs)), np.diff(line_off))

    # a self-loop lists its edge twice at its node, and two copies of one
    # edge meet at both of its endpoints
    key = k1 * n_edges + k2
    ordered = np.sort(key)
    bad = (k1 >= k2) | np.isin(key, ordered[1:][ordered[1:] == ordered[:-1]])
    k1 -= edge_off[line_graph]
    k2 -= edge_off[line_graph]
    if bad.any():
        i = int(line_graph[np.argmax(bad)])
        rows = slice(line_off[i], line_off[i + 1])
        _recheck(i, "line graph ", graphs[i].edge_features,
                 zip(k1[rows].tolist(), k2[rows].tolist()))

    line_edges = _interned_pairs(k1, k2)
    node_features = np.fromiter(chain.from_iterable(g.node_features for g in graphs),
                                dtype=object, count=n_nodes)
    features = node_features[origin].tolist()
    origins = (origin - node_off[line_graph]).tolist()

    bounds = line_off.tolist()
    views = []
    for i, g in enumerate(graphs):
        lo, hi = bounds[i], bounds[i + 1]
        lg = _checked_graph(g.edge_features, tuple(line_edges[lo:hi]), tuple(features[lo:hi]))
        views.append(LineGraphView(lg, edge_order(len(g.edges)), tuple(origins[lo:hi])))
    return views


def to_line_graph(g: MolecularGraph) -> LineGraphView:
    """The line graph of one graph: `line_graphs`'s one-graph case, with
    the same order, attributes and EmptyEdgeSet."""
    return line_graphs([g])[0]


def permute_nodes(g: MolecularGraph, perm: Sequence[int]) -> MolecularGraph:
    """Relabel nodes: node i becomes perm[i]. Edge order is preserved,
    endpoints are re-canonicalized to u < v."""
    if sorted(perm) != list(range(g.num_nodes)):
        raise ValueError("perm must be a permutation of the node indices")
    node_features: list[FeaturePair] = [(0, 0)] * g.num_nodes
    for i, feat in enumerate(g.node_features):
        node_features[perm[i]] = feat
    edges = []
    for u, v in g.edges:
        a, b = perm[u], perm[v]
        edges.append((a, b) if a < b else (b, a))
    return MolecularGraph(tuple(node_features), tuple(edges), g.edge_features)


# --- JSONL corpus records ---------------------------------------------------
# One graph per line: {"nodes": [[a, c], ...], "edges": [[u, v, bt, bd], ...]}

def graph_to_record(g: MolecularGraph) -> dict:
    return {
        "nodes": [list(f) for f in g.node_features],
        "edges": [[u, v, bt, bd] for (u, v), (bt, bd) in zip(g.edges, g.edge_features)],
    }


def graph_from_record(obj: dict) -> MolecularGraph:
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise InvariantViolation("record must be an object with 'nodes' and 'edges'")
    nodes = obj["nodes"]
    raw_edges = obj["edges"]
    if not isinstance(nodes, list) or not isinstance(raw_edges, list):
        raise InvariantViolation("'nodes' and 'edges' must be arrays")
    edges = []
    feats = []
    for k, row in enumerate(raw_edges):
        if not isinstance(row, list) or len(row) != 4:
            raise InvariantViolation(f"edge {k}: expected [u, v, bt, bd]")
        edges.append((row[0], row[1]))
        feats.append((row[2], row[3]))
    return make_graph(nodes, edges, feats)


def graphs_from_rows(nodes: np.ndarray, node_counts: np.ndarray, edges: np.ndarray,
                     edge_counts: np.ndarray) -> list[MolecularGraph] | None:
    """The graphs of many records at once: graph i has the next
    node_counts[i] rows of `nodes` (n x 2: atom, chirality) and the next
    edge_counts[i] rows of `edges` (m x 4: u, v, bond type, bond direction),
    as in `graph_from_record`. Entries are int64, so below 2**63.

    MolecularGraph's invariants are checked once on the arrays (no negative
    entry, endpoints in range, u < v, no duplicate edge), and the graphs
    are built without its per-edge loop, every pair interned as
    `line_graphs` does. None if any graph breaks them: the caller builds
    the records through `graph_from_record` to name the first offence.
    """
    n_nodes = len(nodes)
    node_off = np.concatenate(([0], np.cumsum(node_counts)))
    edge_off = np.concatenate(([0], np.cumsum(edge_counts)))
    u, v = edges[:, 0], edges[:, 1]
    if (nodes.min(initial=0) < 0 or edges.min(initial=0) < 0 or (u >= v).any()
            or (v >= np.repeat(node_counts, edge_counts)).any()):
        return None
    base = np.repeat(node_off[:-1], edge_counts)  # so edges of two graphs never share a key
    keys = np.sort((u + base) * n_nodes + v + base)
    if (keys[1:] == keys[:-1]).any():
        return None
    pairs = _interned_pairs(np.concatenate((nodes[:, 0], edges[:, 0], edges[:, 2])),
                            np.concatenate((nodes[:, 1], edges[:, 1], edges[:, 3])))
    node_features, ends, edge_features = (pairs[:n_nodes], pairs[n_nodes:n_nodes + len(edges)],
                                          pairs[n_nodes + len(edges):])
    nb, eb = node_off.tolist(), edge_off.tolist()
    return [_checked_graph(tuple(node_features[nb[i]:nb[i + 1]]), tuple(ends[eb[i]:eb[i + 1]]),
                           tuple(edge_features[eb[i]:eb[i + 1]]))
            for i in range(len(node_counts))]


def line_graph_to_record(view: LineGraphView) -> dict:
    rec = graph_to_record(view.graph)
    rec["node_origin"] = list(view.node_origin)
    rec["edge_origin"] = list(view.edge_origin)
    return rec
