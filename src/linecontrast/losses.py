"""The three contrastive losses and their weighted combination.

All three follow the same per-anchor shape: minus the positive logit plus
a log-sum-exp over the anchor's negative logits, at temperature tau. The
positive never enters that denominator, as in GraphCL's loss (You et al.,
NeurIPS 2020), so the losses can be negative.

Per-anchor terms are averaged, not summed, so the combination weights are
independent of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import (
    NonFinite,
    Tensor,
    block_xent,
    check_finite,
    gather_rows,  # noqa: F401  -- perfbench/hooks.py times losses.gather_rows
    group_xent,
    l2_normalize_rows,
    scale,
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
    the other rows only.
    """
    if z1.shape != z2.shape:
        raise ValueError(f"view shapes differ: {z1.shape} vs {z2.shape}")
    n = z1.shape[0]
    if n < 2:
        raise BatchTooSmall(f"need at least 2 rows, got {n}")
    total, k = group_xent(l2_normalize_rows(z1), l2_normalize_rows(z2), np.arange(n), tau)
    return scale(total, 1.0 / k), k


def intra_local(edge_repr: Tensor, line_repr: Tensor, edge_offsets: np.ndarray,
                tau: float) -> tuple[Tensor | None, int]:
    """Within-graph consensus between each edge's two-endpoint representation
    and the matching line-node state.

    Row i of both arguments refers to the same source edge. Negatives are
    drawn from the same graph only and anchors run one direction (edge
    representations against line-node states). Graphs with a single edge
    contribute nothing. Only the same-graph similarity blocks are formed,
    so the cost is the sum of squared graph edge counts, not E x E.
    """
    if edge_repr.shape != line_repr.shape:
        raise ValueError(f"row-aligned inputs required: {edge_repr.shape} vs {line_repr.shape}")
    total, k = block_xent(l2_normalize_rows(edge_repr), l2_normalize_rows(line_repr),
                         edge_offsets, tau)
    if total is None:
        return None, 0
    loss = scale(total, 1.0 / k)
    check_finite(loss.data, "loss")
    return loss, k


def inter_local(edge_repr: Tensor, line_repr: Tensor, edge_offsets: np.ndarray,
                tau: float) -> tuple[Tensor, int]:
    """Cross-graph edge-level contrast targeting hard negative pairs.

    Each edge anchors its own line-node as the positive against all
    line-nodes of the other graphs in the batch; evaluated in both
    directions and averaged over all anchor terms.
    """
    if edge_repr.shape != line_repr.shape:
        raise ValueError(f"row-aligned inputs required: {edge_repr.shape} vs {line_repr.shape}")
    sizes = np.diff(edge_offsets)
    total, k = group_xent(l2_normalize_rows(edge_repr), l2_normalize_rows(line_repr),
                          np.repeat(np.arange(sizes.size), sizes), tau)
    if total is None:
        raise BatchTooSmall(f"need edges in at least 2 graphs, got {np.count_nonzero(sizes)}")
    return scale(total, 1.0 / k), k


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
