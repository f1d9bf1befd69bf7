"""Corpus ingestion, disjoint-union batching, the pre-training loop,
checkpointing, and metrics emission.

The contrastive views are static: the corpus is transformed to line graphs
exactly once before training (a module counter records calls so tests and
the bench harness can assert the one-time cost). Each training step runs on
its own tape; the last incomplete mini-batch of an epoch is dropped so the
batch losses never degenerate.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import reprlib
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import chain

import numpy as np

from .autodiff import AdamState, Tape, ZeroNormRow, add, adam_step
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
    edge_order,
    graph_from_record,
    graph_to_record,
    graphs_from_rows,
    line_graphs,
    to_line_graph,  # noqa: F401  (unused here; perfbench's tracer patches this name)
)
from .losses import (  # perfbench/hooks.py patches pipeline.inter_local and intra_local by name
    LossReport,
    NonFinite,
    combine,
    inter_local,  # noqa: F401
    intra_local,  # noqa: F401
    local_losses,
    nt_xent,
)

log = logging.getLogger("linecontrast")


class ParseError(ValueError):
    pass


_transform_calls = 0

# graphs per line_graphs call in transform_corpus. One call on a whole
# 5000-graph corpus raised the peak RSS of a process embedding it from 54.5 to
# 75 MB. At 256 graphs the chunk's ~1 MB of temporaries, freed at the top of
# the heap, were handed back to the system and faulted in again by the next
# chunk (8.9k minor faults per 10k graphs, against 3.5k at 128 or fewer).
TRANSFORM_CHUNK = 128

# bytes of whole lines per bulk parse in load_corpus (`readlines`' hint: a
# chunk ends with the line that reaches it). The parse's numpy temporaries
# come to about 28 times the chunk's bytes. On the 5000-graph embed corpus
# chunks of 24 KB or less loaded with about 90 minor faults, and chunks of
# 32 KB with 5.5k: past that size the freed temporaries were handed back to
# the system and faulted in again chunk after chunk.
LOAD_CHUNK = 16384


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
        order is checked by identity with `edge_order`'s shared tuple
        before equality, and every origin bound with one array pass per
        batch. The graphs' feature and edge tuples are extended into
        per-batch lists and read into arrays as one flat stream each; one
        numpy repeat of the node offsets moves every edge to global node
        ids.
        """
        if not pairs:
            raise ValueError("cannot batch zero graphs")
        node_feat, edges, edge_feat, origins = [], [], [], []
        node_counts, edge_counts, origin_counts = [], [], []
        for g, view in pairs:
            m = len(g.edges)
            if len(view.graph.node_features) != m:
                raise ViewMismatch(
                    f"line view has {len(view.graph.node_features)} nodes for {m} source edges")
            order = edge_order(m)
            if view.node_origin is not order and view.node_origin != order:
                raise ViewMismatch("line nodes are not in source-edge order")
            node_feat.extend(g.node_features)
            edge_feat.extend(g.edge_features)
            edges.extend(g.edges)
            origins.extend(view.edge_origin)
            node_counts.append(len(g.node_features))
            edge_counts.append(m)
            origin_counts.append(len(view.edge_origin))
        try:
            origin = np.fromiter(origins, dtype=np.int64, count=len(origins))
            # as unsigned, a negative origin is above every bound
            missing = (origin.view(np.uint64) >= np.repeat(
                np.array(node_counts, dtype=np.uint64), origin_counts)).any()
        except OverflowError:  # an origin beyond int64
            missing = True
        if missing:
            raise ViewMismatch("edge origin references a missing source node")
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
        for name, minimum in (("epochs", 1), ("batch_size", 2), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < minimum:  # a bool is an int to isinstance
                raise ValueError(f"{name} must be an int of at least {minimum}, "
                                 f"got {reprlib.repr(value)}")
        if not 0 < self.learning_rate < math.inf:  # False for NaN too
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")


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

    The file is read in chunks of whole lines of about LOAD_CHUNK bytes.
    A line in the compact form `save_corpus` writes takes the bulk path:
    the integers of a chunk's lines are parsed in one numpy pass, a line
    is taken only if re-rendering them in that form gives back its bytes
    (`_compact_rows`), and `graphs.graphs_from_rows` checks the graphs'
    invariants on the arrays and builds them. Every other line, and every
    line of a chunk whose arrays break an invariant, goes through
    `json.loads` and `graph_from_record` in file order, so the first bad
    line raises its usual message. A line holding nothing but JSON
    whitespace (space, tab, CR, LF) is blank and skipped; any other line
    that json refuses is a ParseError.

    Graphs without edges carry no contrastive signal; they are skipped and
    the count is reported through the logger.
    """
    graphs: list[MolecularGraph] = []
    zero_edge = 0
    lineno = 1
    with open(path, "rb") as fh:
        while lines := fh.readlines(LOAD_CHUNK):
            for g in _chunk_graphs(lines, lineno):
                if g.num_edges == 0:
                    zero_edge += 1
                else:
                    graphs.append(g)
            lineno += len(lines)
    if zero_edge:
        log.warning("rejected %d zero-edge graph(s) from %s", zero_edge, path)
    return graphs


def _chunk_graphs(lines: list[bytes], lineno: int) -> list[MolecularGraph]:
    """The graphs of consecutive corpus lines, the first of them numbered
    `lineno`, in order; blank lines give none."""
    taken, nodes, node_counts, edges, edge_counts = _compact_rows(lines)
    bulk = graphs_from_rows(nodes, node_counts, edges, edge_counts)
    if bulk is None:
        taken[:] = False
    elif taken.all():
        return bulk
    bulk = iter(bulk or ())
    out = []
    for i, (raw, fast) in enumerate(zip(lines, taken.tolist()), start=lineno):
        g = next(bulk) if fast else _record_graph(raw, i)
        if g is not None:
            out.append(g)
    return out


def _record_graph(raw: bytes, lineno: int) -> MolecularGraph | None:
    """One corpus line through `json.loads` and `graph_from_record`; None
    for a blank line."""
    try:
        line = raw.decode("utf-8")
        if not line.strip(" \t\r\n"):
            return None
        record = json.loads(line)
    except (ValueError, RecursionError) as err:  # not UTF-8/JSON, too long or deep
        raise ParseError(f"line {lineno}: {err}") from err
    try:
        return graph_from_record(record)
    except InvariantViolation as err:
        raise InvariantViolation(f"line {lineno}: {err}") from err


def save_corpus(graphs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in graphs:
            fh.write(_corpus_line(graph_to_record(g)))


def _corpus_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def _skeleton(n: int, m: int) -> bytes:
    """The line save_corpus writes for n node rows and m edge rows of
    zeros: any line it writes for them, with each integer written as 0."""
    return _corpus_line({"nodes": [[0, 0]] * n, "edges": [[0, 0, 0, 0]] * m}).encode()


# the skeletons of lines of up to 128 rows: at most 1024 of about 1 KB each
_small_skeleton = functools.lru_cache(maxsize=1024)(_skeleton)


_DIGITS_AS_ZERO = bytes.maketrans(b"0123456789", b"0" * 10)
_MAX_DIGITS = 18  # so no value nears int64's end


def _compact_rows(lines: list[bytes]):
    """The lines among `lines` that `save_corpus` could have written, parsed
    in one numpy pass.

    Each maximal run of ASCII digits is an integer, read from its digits.
    A line is taken only if re-rendering its integers in save_corpus's form
    gives back its bytes. Read from its own digits, an integer renders as
    its run exactly when the run has no leading zero (runs of more than
    _MAX_DIGITS digits are refused); the rest of the line must equal
    `_skeleton(n, m)` with each run written as 0, for the n node rows and
    m edge rows that its counts of integers (2n + 4m) and of "["
    (2 + n + m) give. So no line that `json.loads` would refuse, or read as
    another record, is taken.

    Returns (taken, nodes, node_counts, edges, edge_counts): a bool per
    line, and the taken lines' node rows (n x 2) and edge rows (m x 4) as
    int64 arrays, with their counts per taken line.
    """
    raw = b"".join(lines)
    text = np.frombuffer(raw, dtype=np.uint8)
    bounds = np.cumsum([0, *map(len, lines)])
    digit = text - np.uint8(ord("0")) < 10
    change = np.diff(digit.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    first, stop = np.flatnonzero(change == 1), np.flatnonzero(change == -1)
    length = stop - first
    lead = text[first] - np.uint8(ord("0"))
    values = lead.astype(np.int64)
    for k in range(1, min(int(length.max(initial=0)), _MAX_DIGITS)):
        more = text[np.minimum(first + k, len(text) - 1)] - np.uint8(ord("0"))
        values = np.where(length > k, values * 10 + more, values)

    count = np.diff(np.searchsorted(first, bounds))
    brackets = np.diff(np.searchsorted(np.flatnonzero(text == ord("[")), bounds))
    m = count // 2 - (brackets - 2)
    n = brackets - 2 - m
    line = np.repeat(np.arange(len(lines)), count)
    canonical = (length <= _MAX_DIGITS) & ((length == 1) | (lead != 0))
    taken = ((count % 2 == 0) & (m >= 0) & (n >= 0)
             & (np.bincount(line[~canonical], minlength=len(lines)) == 0))

    # each line with every run of digits written as one 0
    kept = np.ones(len(text), dtype=bool)
    kept[1:] = ~(digit[1:] & digit[:-1])
    skeleton = np.frombuffer(raw.translate(_DIGITS_AS_ZERO), dtype=np.uint8)[kept].tobytes()
    expected = [(_small_skeleton if a + b <= 128 else _skeleton)(a, b) if ok else b""
                for a, b, ok in zip(n.tolist(), m.tolist(), taken.tolist())]
    if skeleton != b"".join(expected):
        ends = np.cumsum(np.add.reduceat(kept, bounds[:-1], dtype=np.intp)).tolist()
        taken = np.array([skeleton[a:b] == e for a, b, e in zip([0, *ends], ends, expected)],
                         dtype=bool)

    node = np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count) < 2 * n[line]
    keep = taken[line]
    return (taken, values[keep & node].reshape(-1, 2), n[taken],
            values[keep & ~node].reshape(-1, 4), m[taken])


def transform_corpus(corpus) -> list[tuple[MolecularGraph, LineGraphView]]:
    """Transform every graph once, preserving corpus order: `line_graphs`
    on consecutive chunks of TRANSFORM_CHUNK graphs, so its numpy
    temporaries stay the size of one chunk whatever the corpus size."""
    global _transform_calls
    _transform_calls += 1
    corpus = list(corpus)
    views = []
    for start in range(0, len(corpus), TRANSFORM_CHUNK):
        views += line_graphs(corpus[start:start + TRANSFORM_CHUNK])
    return list(zip(corpus, views))


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

    Returns (total tensor, report floats). The two local losses come from
    one local_losses call; a loss whose weight is zero is skipped entirely
    and reported as an exact zero. The report is checked before the
    weighted total goes on the tape, so a total that overflows raises
    NonFinite without a numpy warning.
    """
    l_graph, n_graph = nt_xent(enc.z_graph, enc.z_line, cfg.tau)
    local, (l_inter, n_inter), (l_intra, n_intra) = local_losses(
        enc.edge_pair, enc.line_node_embeddings, batch.edge_offsets, cfg.tau, cfg.alpha, cfg.beta)
    report = combine(l_graph.item(), l_intra, l_inter, cfg, counts=(n_graph, n_intra, n_inter))
    return (l_graph if local is None else add(l_graph, local)), report


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
            log.info("epoch %d done, mean total loss %.6g", epoch, epoch_means[epoch])
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
    cannot change them. A `batch_size` that is not an int of at least 1
    raises ValueError before anything is transformed.
    """
    if type(batch_size) is not int or batch_size < 1:  # a bool is an int to isinstance
        raise ValueError(f"batch_size must be an int of at least 1, got {reprlib.repr(batch_size)}")
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
