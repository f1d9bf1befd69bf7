"""Dual message-passing encoder over a graph and its line graph.

Both helices run the same edge-attributed GIN update in lockstep, and
every layer c picks its edge attributes by one rule, own_edge_tables.
When c > 0 and fusion is on, each helix reads the other helix's input
states to layer c - 1: the graph side reads the line-node vector of each
edge (line node k is source edge k), the line side reads, for each line
edge, the vector of the source node its two edges share. Otherwise each
helix looks up raw attributes in its own layer-c edge tables, as the GIN
of Hu et al. (ICLR 2020) does at every layer; only those layers hold
edge tables. The vocabularies are checked once per batch.

Both helices run on the V x E incidence matrix B of the source graph,
built once per batch; the line graph's own arcs are never built. Two
adjoint primitives carry rows across it: incident_sum (B x, each edge row
added into both endpoints) and endpoint_sum (B^T y = y[u] + y[v]). The
graph helix's neighbour sum is B(B^T h + a) - D h, where a holds the edge
attributes and D the node degrees: each edge carries both endpoints' sum
plus its attribute to both endpoints, and D h takes each node's own share
back out. The line graph's adjacency is B^T B - 2I, so line node
e = (u, v) neighbours the other edges at u and at v, and the line edge to
each carries the shared node's vector x. Its neighbour sum is
B^T t - 2 h_e with t = B h + (deg - 1) x.

Training reads both helices' final states (encode_batch). Embedding
returns only the graph helix's pooled output (embed_batch), and that
reads the line helix only through fusion: graph layer c reads the line
helix's input to layer c - 1, the output of line layer c - 2. So with
fusion on, embedding runs line layers 0..depth - 3 and no head but the
readout; with fusion off, it runs no line layer at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import sqrt

import numpy as np

from .autodiff import (
    FlatLayout,
    Incidence,
    Tensor,
    add,
    concat_cols,
    constant,
    endpoint_sum,
    gather_rows,
    gin_mlp,
    incident_sum,
    matmul,
    mul,
    relu,
    scale,
    scatter_add_rows,
)
from .losses import LossConfig


class VocabOutOfRange(ValueError):
    pass


class ViewMismatch(ValueError):
    pass


class EmptyGraph(ValueError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder hyper-parameters; tau / alpha / beta ride along for the losses.

    Defaults are desk scale. The reference scale uses hidden_dim=300 and
    batch 256; see pipeline.full_train_config().
    """

    depth: int = 5
    hidden_dim: int = 32
    atomic_vocab: int = 12
    chirality_vocab: int = 4
    bond_type_vocab: int = 5
    bond_direction_vocab: int = 3
    edge_fusion: bool = True
    tau: float = 0.1
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name, minimum in (("depth", 1), ("hidden_dim", 2), ("atomic_vocab", 1),
                              ("chirality_vocab", 1), ("bond_type_vocab", 1),
                              ("bond_direction_vocab", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < minimum:  # a bool is an int to isinstance
                raise ValueError(f"{name} must be an int of at least {minimum}, got {value!r}")
        if type(self.edge_fusion) is not bool:
            raise ValueError(f"edge_fusion must be a bool, got {self.edge_fusion!r}")
        LossConfig(tau=self.tau, alpha=self.alpha, beta=self.beta)  # the losses' own checks

    @property
    def vocab(self) -> tuple[int, int, int, int]:
        return (self.atomic_vocab, self.chirality_vocab,
                self.bond_type_vocab, self.bond_direction_vocab)


def own_edge_tables(cfg: EncoderConfig, c: int) -> bool:
    """Whether layer c of each helix looks up its own edge tables: layer 0
    always, the later layers only with fusion off."""
    return c == 0 or not cfg.edge_fusion


def param_specs(cfg: EncoderConfig) -> list[tuple[str, tuple[int, int], float]]:
    """(name, shape, init bound) for every parameter, in a fixed order.

    Embedding tables and self-loop vectors use the bound sqrt(1/d); affine
    maps use sqrt(1/fan_in) for both weight and bias.
    """
    d = cfg.hidden_dim
    h = 2 * d
    emb = sqrt(1.0 / d)
    specs: list[tuple[str, tuple[int, int], float]] = []

    def affine(prefix: str, nin: int, nout: int) -> None:
        bound = sqrt(1.0 / nin)
        specs.append((f"{prefix}.w", (nin, nout), bound))
        specs.append((f"{prefix}.b", (1, nout), bound))

    def helix(name: str, node_vocabs: tuple[tuple[str, int], ...],
              edge_vocabs: tuple[tuple[str, int], ...]) -> None:
        for field_name, size in node_vocabs:
            specs.append((f"{name}.embed.{field_name}", (size, d), emb))
        for c in range(cfg.depth):
            if own_edge_tables(cfg, c):
                for field_name, size in edge_vocabs:
                    specs.append((f"{name}.layer{c}.edge.{field_name}", (size, d), emb))
            specs.append((f"{name}.layer{c}.self_loop", (1, d), emb))
            affine(f"{name}.layer{c}.mlp1", d, h)
            affine(f"{name}.layer{c}.mlp2", h, d)

    node_fields = (("atomic", cfg.atomic_vocab), ("chirality", cfg.chirality_vocab))
    edge_fields = (("bond_type", cfg.bond_type_vocab), ("bond_direction", cfg.bond_direction_vocab))
    helix("graph", node_fields, edge_fields)
    # line helix: node and edge vocabularies swap roles
    helix("line", edge_fields, node_fields)
    specs.append(("proj.w1", (d, d), emb))
    specs.append(("proj.w2", (d, d), emb))
    affine("edge_rep", 2 * d, d)
    return specs


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, int]]:
    return {name: shape for name, shape, _ in param_specs(cfg)}


@dataclass
class DualHelixParams:
    """All named parameter arrays for both helices plus the shared heads.

    Construction copies the arrays into `flat`, one float64 buffer in
    sorted name order (a checkpoint's data order), and `arrays` holds
    reshaped views into it; so an in-place update of `flat`, as Adam's, is
    an update of every array.
    """

    config: EncoderConfig
    seed: int
    arrays: dict[str, np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layout = FlatLayout({name: arr.shape for name, arr in self.arrays.items()})
        self.flat = layout.pack(self.arrays)
        self.arrays = layout.views(self.flat)

    @classmethod
    def initialize(cls, config: EncoderConfig, seed: int) -> "DualHelixParams":
        """Draw every array of the fusion-off model from one seeded stream,
        in param_specs order, and keep those that `config` holds; so an
        array's values do not depend on which edge tables fusion drops."""
        rng = np.random.default_rng(seed)
        held = param_shapes(config)
        arrays = {}
        for name, shape, bound in param_specs(replace(config, edge_fusion=False)):
            arr = rng.uniform(-bound, bound, size=shape)
            if name in held:
                arrays[name] = arr
        return cls(config=config, seed=seed, arrays=arrays)

    def watched(self, tape) -> dict[str, Tensor]:
        return {name: tape.watch(arr) for name, arr in self.arrays.items()}

    def as_constants(self) -> dict[str, Tensor]:
        return {name: constant(arr) for name, arr in self.arrays.items()}


def _check_vocab(feats: np.ndarray, sizes: tuple[int, int], what: str) -> None:
    if feats.size == 0:
        return
    for col, size in enumerate(sizes):
        top = int(feats[:, col].max())
        if top >= size:
            raise VocabOutOfRange(f"{what} field {col}: index {top} >= vocabulary size {size}")


def embed_pair(feats: np.ndarray, table_a: Tensor, table_b: Tensor) -> Tensor:
    """Sum of the two per-field table lookups for (n, 2) category indices."""
    return add(gather_rows(table_a, feats[:, 0]), gather_rows(table_b, feats[:, 1]))


def gin_layer(h: Tensor, neighbours: Tensor, params: dict[str, Tensor], layer: str) -> Tensor:
    """One update of `layer` (a parameter prefix such as "graph.layer0"):
    relu(MLP(h_v + neighbours_v + self-loop vector)), where neighbours_v
    sums, over the neighbours w of v, h_w plus the attribute of the edge
    joining them, and the MLP is relu(x W1 + b1) W2 + b2. One gin_mlp
    call, so one tape node per layer and helix."""
    return gin_mlp(h, neighbours, params[f"{layer}.self_loop"],
                   params[f"{layer}.mlp1.w"], params[f"{layer}.mlp1.b"],
                   params[f"{layer}.mlp2.w"], params[f"{layer}.mlp2.b"])


@dataclass
class BatchEncoding:
    """Final-layer states and derived representations for one batch."""

    node_embeddings: Tensor        # sum(V) x d, graph helix
    line_node_embeddings: Tensor   # sum(E) x d, line helix
    graph_repr: Tensor             # N x d mean-pooled, graph view
    z_graph: Tensor                # N x d projected, graph view
    z_line: Tensor                 # N x d projected, line view
    edge_pair: Tensor              # sum(E) x d two-endpoint edge representations


def readout(h: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-graph arithmetic mean of node rows, offsets delimiting graphs."""
    counts = np.diff(offsets)
    if (counts <= 0).any():
        raise EmptyGraph(f"graph {int(np.flatnonzero(counts <= 0)[0])} has no nodes")
    graph_ids = np.repeat(np.arange(len(counts)), counts)
    return mul(scatter_add_rows(h, graph_ids, len(counts)), constant(1.0 / counts[:, None]))


def project(h: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """Two-map projection head, used only inside the graph-level loss."""
    return matmul(relu(matmul(h, w1)), w2)


def edge_pair_representation(h: Tensor, edges: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of the concatenated endpoint states, canonical u < v order."""
    left = gather_rows(h, edges[:, 0])
    right = gather_rows(h, edges[:, 1])
    return add(matmul(concat_cols(left, right), w), b)


def _helices(batch, params: dict[str, Tensor], cfg: EncoderConfig,
             line_layers: int) -> tuple[Tensor, Tensor | None]:
    """Run the graph helix for all cfg.depth layers and, in lockstep, the
    line helix for its first `line_layers`; return both helices' last states.

    Layer c looks up its own edge tables when own_edge_tables(cfg, c);
    otherwise it takes the other helix's input states to layer c-1 as edge
    attributes. With fusion on, graph layer c reads the output of line
    layer c - 2, so `line_layers` must be at least depth - 2.
    """
    _check_vocab(batch.node_feat, (cfg.atomic_vocab, cfg.chirality_vocab), "node")
    _check_vocab(batch.edge_feat, (cfg.bond_type_vocab, cfg.bond_direction_vocab), "edge")
    inc = Incidence(batch.edges, batch.num_nodes, cfg.hidden_dim)
    neg_deg = constant(-inc.degree[:, None])
    deg_less_one = constant(inc.degree[:, None] - 1.0)
    # line-node features are the source edge features, so the line helix's
    # node tables are bond tables and its edge tables atom tables
    h = embed_pair(batch.node_feat, params["graph.embed.atomic"], params["graph.embed.chirality"])
    e = None
    if line_layers or cfg.edge_fusion:
        e = embed_pair(batch.edge_feat, params["line.embed.bond_type"],
                       params["line.embed.bond_direction"])
    h_prev = e_prev = None
    for c in range(cfg.depth):
        line = c < line_layers
        if own_edge_tables(cfg, c):
            g_eattr = embed_pair(batch.edge_feat, params[f"graph.layer{c}.edge.bond_type"],
                                 params[f"graph.layer{c}.edge.bond_direction"])
            if line:
                l_eattr = embed_pair(batch.node_feat, params[f"line.layer{c}.edge.atomic"],
                                     params[f"line.layer{c}.edge.chirality"])
        else:
            g_eattr, l_eattr = e_prev, h_prev
        # node v sums B(B^T h + a) - D h: the far end's h plus a, per edge at v
        g_neighbours = add(incident_sum(add(endpoint_sum(h, inc), g_eattr), inc),
                           mul(h, neg_deg))
        if line:
            # line node (u, v) sums B^T t - 2 e, with t = B e + (deg - 1) x
            t = add(incident_sum(e, inc), mul(l_eattr, deg_less_one))
            l_neighbours = add(endpoint_sum(t, inc), scale(e, -2.0))
        h_prev, e_prev = h, e
        h = gin_layer(h, g_neighbours, params, f"graph.layer{c}")
        if line:
            e = gin_layer(e, l_neighbours, params, f"line.layer{c}")
    return h, e


def encode_batch(batch, params: dict[str, Tensor], cfg: EncoderConfig) -> BatchEncoding:
    """Run both helices over all layers of a batch and derive every
    representation the losses use."""
    h, e = _helices(batch, params, cfg, cfg.depth)
    graph_repr = readout(h, batch.node_offsets)
    line_graph_repr = readout(e, batch.edge_offsets)
    return BatchEncoding(
        node_embeddings=h,
        line_node_embeddings=e,
        graph_repr=graph_repr,
        z_graph=project(graph_repr, params["proj.w1"], params["proj.w2"]),
        z_line=project(line_graph_repr, params["proj.w1"], params["proj.w2"]),
        edge_pair=edge_pair_representation(h, batch.edges,
                                           params["edge_rep.w"], params["edge_rep.b"]),
    )


def embed_batch(batch, params: dict[str, Tensor], cfg: EncoderConfig) -> Tensor:
    """`encode_batch(batch, params, cfg).graph_repr`, bit for bit, from only
    the layers it reads: the graph helix and, with fusion on, the line
    helix's first depth - 2 layers."""
    line_layers = max(cfg.depth - 2, 0) if cfg.edge_fusion else 0
    h, _ = _helices(batch, params, cfg, line_layers)
    return readout(h, batch.node_offsets)
