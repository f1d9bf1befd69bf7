"""Attributed molecular-style graphs and the line-graph transformation.

Graphs are undirected and simple; every edge is stored once as ``(u, v)``
with ``u < v``. Node and edge features are pairs of non-negative category
indices (vocabulary bounds are a property of the encoder configuration and
are enforced at embedding time, not here).

The line graph of ``g`` has one node per edge of ``g``, and two line-nodes
are adjacent exactly when the corresponding edges share an endpoint.
``LineGraphView`` keeps the provenance maps back to the source graph so
attributes can be transferred and the two views kept row-aligned.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import combinations
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
# distinct ints above 256); pairs past the bound are stored fresh in each graph.
# Only values are promised, not identity: loaders in two threads may overshoot
# the bound by a pair each, or keep two tuples of one value.
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def to_line_graph(g: MolecularGraph) -> LineGraphView:
    """Transform a graph into its line graph, transferring attributes.

    Line-nodes appear in source-edge order and carry the source edge
    features. Line-edges are grouped by shared source node in ascending
    node order, pairs in lexicographic order of their line-node indices,
    and carry the shared node's features. Runs in O(|V| + sum deg^2).
    """
    m = g.num_edges
    if m == 0:
        raise EmptyEdgeSet("line graph of an edgeless graph is empty")
    incident: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for k, (u, v) in enumerate(g.edges):
        incident[u].append(k)
        incident[v].append(k)
    shared = _shared_pairs.get
    line_edges: list[tuple[int, int]] = []
    origins: list[int] = []
    features: list[FeaturePair] = []
    for v, inc in enumerate(incident):
        if len(inc) < 2:
            continue
        # inc is ascending because edges are scanned in index order, so
        # combinations yields the pairs in lexicographic order
        line_edges.extend([shared(p) or _admit(p) for p in combinations(inc, 2)])
        count = len(inc) * (len(inc) - 1) // 2
        origins.extend([v] * count)
        features.extend([g.node_features[v]] * count)
    lg = MolecularGraph(
        node_features=g.edge_features,
        edges=tuple(line_edges),
        edge_features=tuple(features),
    )
    return LineGraphView(
        graph=lg,
        node_origin=tuple(range(m)),
        edge_origin=tuple(origins),
    )


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


def line_graph_to_record(view: LineGraphView) -> dict:
    rec = graph_to_record(view.graph)
    rec["node_origin"] = list(view.node_origin)
    rec["edge_origin"] = list(view.edge_origin)
    return rec
