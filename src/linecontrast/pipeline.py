"""Corpus ingestion, disjoint-union batching, the pre-training loop,
checkpointing, and metrics emission.

The contrastive views are static: the corpus is transformed to line graphs
exactly once before training (a module counter records calls so tests and
the bench harness can assert the one-time cost). Each training step runs on
its own tape; the last incomplete mini-batch of an epoch is dropped so the
batch losses never degenerate.
"""

from __future__ import annotations

import json
import logging
import math
import reprlib
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import chain

import numpy as np

from .autodiff import AdamState, Tape, ZeroNormRow, add, adam_step, scale
from .checkpoint import ConfigMismatch, load_checkpoint, save_checkpoint
from .encoder import (
    BatchEncoding,
    DualHelixParams,
    EncoderConfig,
    ViewMismatch,
    embed_batch,
    encode_batch,
)
from .graphs import (
    InvariantViolation,
    LineGraphView,
    MolecularGraph,
    graph_from_record,
    graph_to_record,
    to_line_graph,
)
from .losses import LossReport, NonFinite, combine, inter_local, intra_local, nt_xent

log = logging.getLogger("linecontrast")


class ParseError(ValueError):
    pass


_transform_calls = 0


def transform_call_count() -> int:
    """How many corpus transformations have run in this process."""
    return _transform_calls


def _pair_rows(pairs: list[tuple[int, int]]) -> np.ndarray:
    """An (n, 2) int64 array of n pairs, read as one flat stream."""
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    return flat.reshape(-1, 2)


@dataclass
class Batch:
    """Disjoint union of source graphs with row offsets.

    Line node k of the batch is source edge k, so the line views add no
    rows of their own: their structure follows from `edges`, and the
    encoder derives it there.
    """

    node_feat: np.ndarray      # sum(V) x 2 int
    edges: np.ndarray          # sum(E) x 2 global node ids
    edge_feat: np.ndarray      # sum(E) x 2 int
    node_offsets: np.ndarray   # N + 1
    edge_offsets: np.ndarray   # N + 1

    @property
    def num_nodes(self) -> int:
        return int(self.node_offsets[-1])

    @classmethod
    def build(cls, pairs: list[tuple[MolecularGraph, LineGraphView]]) -> "Batch":
        """Stack the graphs of `pairs` into one disjoint union.

        Each view must be the canonical line graph of its source graph:
        one line node per source edge, in source-edge order, and every
        line edge's origin a source node; ViewMismatch otherwise. The
        graphs' feature and edge tuples are extended into per-batch lists
        and read into arrays as one flat stream each; one numpy repeat of
        the node offsets moves every edge to global node ids.
        """
        if not pairs:
            raise ValueError("cannot batch zero graphs")
        node_feat, edges, edge_feat = [], [], []
        node_counts, edge_counts = [], []
        for g, view in pairs:
            lg = view.graph
            if lg.num_nodes != g.num_edges:
                raise ViewMismatch(
                    f"line view has {lg.num_nodes} nodes for {g.num_edges} source edges")
            if view.node_origin != tuple(range(g.num_edges)):
                raise ViewMismatch("line nodes are not in source-edge order")
            origin = view.edge_origin
            if origin and (min(origin) < 0 or max(origin) >= g.num_nodes):
                raise ViewMismatch("edge origin references a missing source node")
            node_feat.extend(g.node_features)
            edge_feat.extend(g.edge_features)
            edges.extend(g.edges)
            node_counts.append(g.num_nodes)
            edge_counts.append(g.num_edges)
        node_off = np.cumsum([0, *node_counts], dtype=np.int64)
        edge_off = np.cumsum([0, *edge_counts], dtype=np.int64)
        edges = _pair_rows(edges)
        edges += np.repeat(node_off[:-1], edge_counts)[:, None]
        return cls(
            node_feat=_pair_rows(node_feat),
            edges=edges,
            edge_feat=_pair_rows(edge_feat),
            node_offsets=node_off,
            edge_offsets=edge_off,
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if not 0 < self.learning_rate < math.inf:  # False for NaN too
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {reprlib.repr(self.seed)}")


def desk_train_config(**overrides) -> TrainConfig:
    """Desk-scale preset: batch 16, hidden 32, 20 epochs."""
    return replace(TrainConfig(), **overrides) if overrides else TrainConfig()


def full_train_config(**overrides) -> TrainConfig:
    """Full-scale preset: batch 256, hidden 300, 100 epochs, 5 layers."""
    cfg = TrainConfig(epochs=100, batch_size=256,
                      encoder=EncoderConfig(depth=5, hidden_dim=300, tau=0.1))
    return replace(cfg, **overrides) if overrides else cfg


# --- corpus I/O ---------------------------------------------------------------

def load_corpus(path) -> list[MolecularGraph]:
    """Read a JSONL corpus; malformed lines, invalid UTF-8 included, raise
    with their line number.

    Graphs without edges carry no contrastive signal; they are skipped and
    the count is reported through the logger.
    """
    graphs: list[MolecularGraph] = []
    zero_edge = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError) as err:  # not UTF-8/JSON, too long or deep
                raise ParseError(f"line {lineno}: {err}") from err
            try:
                g = graph_from_record(record)
            except InvariantViolation as err:
                raise InvariantViolation(f"line {lineno}: {err}") from err
            if g.num_edges == 0:
                zero_edge += 1
                continue
            graphs.append(g)
    if zero_edge:
        log.warning("rejected %d zero-edge graph(s) from %s", zero_edge, path)
    return graphs


def save_corpus(graphs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in graphs:
            fh.write(json.dumps(graph_to_record(g), separators=(",", ":")) + "\n")


def transform_corpus(corpus) -> list[tuple[MolecularGraph, LineGraphView]]:
    """Transform every graph once, preserving corpus order."""
    global _transform_calls
    _transform_calls += 1
    return [(g, to_line_graph(g)) for g in corpus]


# --- training ------------------------------------------------------------------

@dataclass
class PretrainResult:
    params: DualHelixParams
    optimizer: AdamState
    reports: list[LossReport]
    step: int = 0
    epochs_done: int = 0
    epoch_means: dict[int, float] = field(default_factory=dict)  # epoch -> mean l_total


def compute_step_losses(batch: Batch, enc: BatchEncoding, cfg: EncoderConfig):
    """Tape-level losses for one batch at cfg's tau, alpha and beta, with
    zero-weight short-circuiting.

    Returns (total tensor, report floats). Losses whose weight is zero are
    skipped entirely and reported as exact zeros. The report is checked
    before the weighted total goes on the tape, so a total that overflows
    raises NonFinite without a numpy warning.
    """
    l_graph, n_graph = nt_xent(enc.z_graph, enc.z_line, cfg.tau)
    l_inter, n_inter = None, 0
    if cfg.alpha > 0:
        l_inter, n_inter = inter_local(enc.edge_pair, enc.line_node_embeddings,
                                       batch.edge_offsets, cfg.tau)
    l_intra, n_intra = None, 0
    if cfg.beta > 0:
        l_intra, n_intra = intra_local(enc.edge_pair, enc.line_node_embeddings,
                                       batch.edge_offsets, cfg.tau)
    report = combine(l_graph.item(), 0.0 if l_intra is None else l_intra.item(),
                     0.0 if l_inter is None else l_inter.item(), cfg,
                     counts=(n_graph, n_intra, n_inter))
    total = l_graph
    for loss, weight in ((l_inter, cfg.alpha), (l_intra, cfg.beta)):
        if loss is not None:
            total = add(total, scale(loss, weight))
    return total, report


def train_step(params: DualHelixParams, opt: AdamState,
               batch: Batch) -> tuple[LossReport, tuple[float, float, float]]:
    """One optimisation step on one batch, on its own tape: encode, the
    losses at params.config's tau, alpha and beta, backward, the gradients
    gathered into `opt.grad` by one concatenate, and an in-place Adam
    update of `params.flat` (so of every view in `params.arrays`) and
    `opt`'s flat moments.

    Returns the step's LossReport and its (forward, backward, Adam) seconds.
    """
    start = time.perf_counter()
    tape = Tape()
    tensors = params.watched(tape)
    total, report = compute_step_losses(batch, encode_batch(batch, tensors, params.config),
                                        params.config)
    forward_end = time.perf_counter()
    tape.backward(total)
    grads = opt.layout.pack({name: tape.grad(t) for name, t in tensors.items()}, out=opt.grad)
    backward_end = time.perf_counter()
    adam_step(params.flat, grads, opt)
    return report, (forward_end - start, backward_end - forward_end,
                    time.perf_counter() - backward_end)


def pretrain(corpus, cfg: TrainConfig, *, metrics_path=None,
             init: PretrainResult | None = None) -> PretrainResult:
    """Run the pre-training loop and return the final parameters.

    Deterministic given the seed: initialization, the per-epoch shuffle
    (derived from seed and epoch), and every update are reproducible
    bit-for-bit. One LossReport is emitted per step; with a metrics path it
    is also written as one JSON object per line, to a file that a fresh run
    truncates and a resume (`init`) appends to.
    """
    if len(corpus) < cfg.batch_size:
        raise ValueError(f"corpus has {len(corpus)} graphs, batch needs {cfg.batch_size}")
    pairs = transform_corpus(corpus)
    if init is None:
        params = DualHelixParams.initialize(cfg.encoder, cfg.seed)
        opt = AdamState.for_params(params.arrays, learning_rate=cfg.learning_rate)
        step = 0
        first_epoch = 0
    else:
        if init.params.config != cfg.encoder:
            raise ConfigMismatch("checkpoint encoder config differs from the requested one")
        if init.optimizer.learning_rate != cfg.learning_rate:
            raise ConfigMismatch(f"checkpoint learning rate {init.optimizer.learning_rate!r} "
                                 f"differs from the requested {cfg.learning_rate!r}")
        if init.params.seed != cfg.seed:
            raise ConfigMismatch(f"checkpoint seed {init.params.seed} differs from the "
                                 f"requested {cfg.seed}")
        params, opt, step, first_epoch = init.params, init.optimizer, init.step, init.epochs_done
    reports: list[LossReport] = []
    epoch_means: dict[int, float] = {}

    metrics_fh = (open(metrics_path, "w" if init is None else "a", encoding="utf-8")
                  if metrics_path else None)
    try:
        for epoch in range(first_epoch, cfg.epochs):
            order = np.random.default_rng([cfg.seed, epoch]).permutation(len(pairs))
            n_batches = len(pairs) // cfg.batch_size  # drop the incomplete tail
            for b in range(n_batches):
                chunk = [pairs[i] for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
                batch = Batch.build(chunk)
                try:
                    report, _ = train_step(params, opt, batch)
                except (NonFinite, ZeroNormRow) as err:
                    raise type(err)(f"step {step}: {err}") from err
                reports.append(report)
                if metrics_fh is not None:
                    row = {"step": step, "epoch": epoch, **asdict(report)}
                    metrics_fh.write(json.dumps(row, separators=(",", ":")) + "\n")
                step += 1
            epoch_means[epoch] = float(np.mean([r.l_total for r in reports[-n_batches:]]))
            log.info("epoch %d done, mean total loss %.6f", epoch, epoch_means[epoch])
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    # a resume at or below the epochs already done trains nothing and must
    # not lower the count, or a later resume would repeat those epochs
    return PretrainResult(params=params, optimizer=opt, reports=reports,
                          step=step, epochs_done=max(cfg.epochs, first_epoch),
                          epoch_means=epoch_means)


def embed_corpus(corpus, params: DualHelixParams, batch_size: int = 64) -> np.ndarray:
    """Mean-pooled graph representations in corpus order.

    The corpus is transformed once per call and embedded in batches of
    `batch_size`. Each batch runs `embed_batch`, which computes the
    graph helix's pooled output and only the line layers that feed it
    through fusion; the line readout, the projection head and the
    edge-pair head are training-only. Rows equal
    `encode_batch(...).graph_repr` bit for bit, and batch composition
    cannot change them.
    """
    if not corpus:
        return np.zeros((0, params.config.hidden_dim))
    pairs = transform_corpus(corpus)
    rows = []
    tensors = params.as_constants()
    for start in range(0, len(pairs), batch_size):
        batch = Batch.build(pairs[start:start + batch_size])
        rows.append(embed_batch(batch, tensors, params.config).data)
    return np.concatenate(rows, axis=0)


# --- checkpoints ----------------------------------------------------------------

def save_training_checkpoint(path, result: PretrainResult) -> None:
    save_checkpoint(path, result.params, result.optimizer, result.step, result.epochs_done)


def load_training_checkpoint(path) -> PretrainResult:
    # called through this module's global, which perfbench's checkpoint.load timer patches
    params, opt, step, epochs_done = load_checkpoint(path)
    return PretrainResult(params=params, optimizer=opt, reports=[], step=step,
                          epochs_done=epochs_done)
