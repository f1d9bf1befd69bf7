"""The three contrastive losses and their weighted combination.

All three follow the same per-anchor shape: minus the positive logit plus
a log-sum-exp over the anchor's negative logits, at temperature tau. The
positive never enters that denominator, as in GraphCL's loss (You et al.,
NeurIPS 2020), so the losses can be negative.

Each loss L2-normalises its two inputs and makes one call to a fused
kernel of autodiff, which checks the shapes and the similarities and
returns the mean over the anchors: per-anchor terms are averaged, not
summed, so the combination weights are independent of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import (
    NonFinite,
    Tensor,
    block_xent,
    gather_rows,  # noqa: F401  -- perfbench/hooks.py times losses.gather_rows
    group_xent,
    l2_normalize_rows,
)

if TYPE_CHECKING:
    from .encoder import EncoderConfig

cosine_sim = None  # perfbench/hooks.py patches losses.cosine_sim by name; nothing calls it


class BatchTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class LossReport:
    """Scalar losses for one training step plus anchor counts."""

    l_graph: float
    l_intra: float
    l_inter: float
    l_total: float
    graph_anchors: int
    intra_anchors: int
    inter_anchors: int


def nt_xent(z1: Tensor, z2: Tensor, tau: float) -> tuple[Tensor, int]:
    """Cross-view contrastive loss over graph representations.

    Evaluated in both directions (each view's rows anchor against the other
    view's negatives) and averaged over all 2N anchor terms. Negatives are
    the other rows only, so a batch needs two rows.
    """
    loss, k = group_xent(l2_normalize_rows(z1), l2_normalize_rows(z2),
                         np.arange(z1.shape[0]), tau)
    if loss is None:
        raise BatchTooSmall(f"need at least 2 rows, got {z1.shape[0]}")
    return loss, k


def intra_local(edge_repr: Tensor, line_repr: Tensor, edge_offsets: np.ndarray,
                tau: float) -> tuple[Tensor | None, int]:
    """Within-graph consensus between each edge's two-endpoint representation
    and the matching line-node state.

    Row i of both arguments refers to the same source edge. Negatives are
    drawn from the same graph only and anchors run one direction (edge
    representations against line-node states), averaged over the anchors.
    Graphs with a single edge contribute nothing; (None, 0) when no graph
    has two. Only the same-graph similarity blocks are formed, so the cost
    is the sum of squared graph edge counts, not E x E.
    """
    return block_xent(l2_normalize_rows(edge_repr), l2_normalize_rows(line_repr),
                      edge_offsets, tau)


def inter_local(edge_repr: Tensor, line_repr: Tensor, edge_offsets: np.ndarray,
                tau: float) -> tuple[Tensor, int]:
    """Cross-graph edge-level contrast targeting hard negative pairs.

    Each edge anchors its own line-node as the positive against all
    line-nodes of the other graphs in the batch; evaluated in both
    directions and averaged over all anchor terms.
    """
    sizes = np.diff(edge_offsets)
    loss, k = group_xent(l2_normalize_rows(edge_repr), l2_normalize_rows(line_repr),
                         np.repeat(np.arange(sizes.size), sizes), tau)
    if loss is None:
        raise BatchTooSmall(f"need edges in at least 2 graphs, got {np.count_nonzero(sizes)}")
    return loss, k


def combine(l_graph: float, l_intra: float, l_inter: float, cfg: EncoderConfig,
            counts: tuple[int, int, int] = (0, 0, 0)) -> LossReport:
    """Weighted total: graph loss + alpha * cross-graph + beta * within-graph.
    A large weight can overflow the total of finite losses, so it is checked
    too."""
    total = l_graph + cfg.alpha * l_inter + cfg.beta * l_intra
    for name, value in (("l_graph", l_graph), ("l_intra", l_intra), ("l_inter", l_inter),
                        ("l_total", total)):
        if not np.isfinite(value):
            raise NonFinite(f"{name} is not finite")
    return LossReport(
        l_graph=float(l_graph),
        l_intra=float(l_intra),
        l_inter=float(l_inter),
        l_total=float(total),
        graph_anchors=counts[0],
        intra_anchors=counts[1],
        inter_anchors=counts[2],
    )
