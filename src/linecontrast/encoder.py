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
built once per batch; the line graph's own arcs are never built. Each
layer of each helix is one helix_layer call, which forms the neighbour
sum from B and applies the GIN MLP as one tape node. The graph helix's
neighbour sum is A h + B a, where A = B B^T - D is the adjacency and a
holds the edge attributes: each node sums, over its edges, the far end's
state plus the edge's attribute. The line graph's adjacency is
B^T B - 2I, so line node e = (u, v) neighbours the other edges at u and
at v, and the line edge to each carries the shared node's vector x. Its
neighbour sum is B^T t - 2 h_e with t = B h + (deg - 1) x.

Training reads both helices' final states (encode_batch). Embedding
returns only the graph helix's pooled output (embed_batch), and that
reads the line helix only through fusion: graph layer c reads the line
helix's input to layer c - 1, the output of line layer c - 2. So with
fusion on, embedding runs line layers 0..depth - 3 and no head but the
readout; with fusion off, it runs no line layer at all.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field, replace
from math import inf, sqrt

import numpy as np

from .autodiff import (
    FlatLayout,
    Incidence,
    Tensor,
    add,
    constant,
    gather_rows,
    helix_layer,
    matmul,
    relu,
    scale,
    scatter_add_rows,
)


class VocabOutOfRange(ValueError):
    pass


class ViewMismatch(ValueError):
    pass


class EmptyGraph(ValueError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder hyper-parameters and the loss settings, held nowhere else:
    the temperature tau of all three losses, and the weights alpha of the
    cross-graph and beta of the within-graph local loss.

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
                raise ValueError(f"{name} must be an int of at least {minimum}, "
                                 f"got {reprlib.repr(value)}")
        if type(self.edge_fusion) is not bool:
            raise ValueError(f"edge_fusion must be a bool, got {reprlib.repr(self.edge_fusion)}")
        # the comparisons are False for NaN, so NaN fails them too
        if not 0 < self.tau < inf:
            raise ValueError(f"tau must be positive and finite, got {reprlib.repr(self.tau)}")
        # the loss kernels scale the similarities by 1 / tau; the int 1
        # divides an int tau too large for a float without overflow
        if not 1 / self.tau < inf:
            raise ValueError(f"tau must be large enough for 1 / tau to be finite, "
                             f"got {reprlib.repr(self.tau)}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not 0 <= value < inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {reprlib.repr(value)}")

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

    Construction checks the arrays against the config's param_shapes
    (ShapeMismatch names the first array that is missing, unknown or
    misshaped) and copies them into `flat`, one float64 buffer in sorted
    name order (a checkpoint's data order), and `arrays` holds
    reshaped views into it; so an in-place update of `flat`, as Adam's, is
    an update of every array.
    """

    config: EncoderConfig
    seed: int
    arrays: dict[str, np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layout = FlatLayout(param_shapes(self.config))
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


def gin_layer(h: Tensor, attr: Tensor, inc: Incidence, line: bool,
              params: dict[str, Tensor], layer: str) -> Tensor:
    """One update of `layer` (a parameter prefix such as "graph.layer0"):
    relu(MLP(h_v + neighbours_v + self-loop vector)), where neighbours_v
    sums, over the neighbours w of v, h_w plus the attribute of the edge
    joining them, and the MLP is relu(x W1 + b1) W2 + b2. `line` picks the
    line graph's rule over the incidence matrix `inc` (see helix_layer).
    One helix_layer call, so one tape node per layer and helix."""
    return helix_layer(h, attr, inc, line, params[f"{layer}.self_loop"],
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
    return scale(scatter_add_rows(h, graph_ids, len(counts)), 1.0 / counts[:, None])


def project(h: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """Two-map projection head, used only inside the graph-level loss."""
    return matmul(relu(matmul(h, w1)), w2)


def edge_pair_representation(h: Tensor, edges: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of the concatenated endpoint states, canonical u < v order."""
    return add(matmul(gather_rows(h, edges), w), b)


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
        h_prev, e_prev = h, e
        h = gin_layer(h, g_eattr, inc, False, params, f"graph.layer{c}")
        if line:
            e = gin_layer(e, l_eattr, inc, True, params, f"line.layer{c}")
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
