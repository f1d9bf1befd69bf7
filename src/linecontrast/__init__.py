"""Contrastive pre-training of molecular graph encoders against their
line graphs: graph transformation, a dual message-passing encoder with
cross-view edge-attribute exchange, three contrastive losses, and a
reproducible training pipeline over a minimal reverse-mode tape."""

from .autodiff import AdamState, Tape, Tensor, adam_step
from .encoder import BatchEncoding, DualHelixParams, EncoderConfig, encode_batch
from .graphs import (
    EmptyEdgeSet,
    InvariantViolation,
    LineGraphView,
    MolecularGraph,
    make_graph,
    permute_nodes,
    to_line_graph,
)
from .losses import LossReport, combine, inter_local, intra_local, nt_xent
from .pipeline import (
    Batch,
    TrainConfig,
    desk_train_config,
    embed_corpus,
    load_corpus,
    full_train_config,
    pretrain,
    save_corpus,
    transform_corpus,
)
from .synth import make_hard_negative_pair, random_molecular_graph
from .wl import WlHash, wl_hash

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Tape", "Tensor", "adam_step",
    "BatchEncoding", "DualHelixParams", "EncoderConfig", "encode_batch",
    "EmptyEdgeSet", "InvariantViolation", "LineGraphView", "MolecularGraph",
    "make_graph", "permute_nodes", "to_line_graph",
    "LossReport", "combine", "inter_local", "intra_local", "nt_xent",
    "Batch", "TrainConfig", "desk_train_config", "embed_corpus", "load_corpus",
    "full_train_config", "pretrain", "save_corpus", "transform_corpus",
    "make_hard_negative_pair", "random_molecular_graph",
    "WlHash", "wl_hash",
    "__version__",
]
