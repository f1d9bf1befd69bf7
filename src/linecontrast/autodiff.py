"""Dense 2-D float64 tensors with a recording tape for reverse-mode
gradients, plus an Adam optimizer over flat parameter buffers.

Values are matrices; vectors are stored as 1 x d or n x 1, scalars as
1 x 1. A Tape records primitive applications in execution order, which is
a topological order, so backward replays the record once in reverse,
popping each node as it runs it: a node's saved arrays are freed as soon
as its gradients have moved on, and the consumed tape takes no second
backward. A tape lives for a single training step.

Broadcasting is limited: the second operand of add may be a 1 x m row
against an n x m left operand, its gradient summed over the rows, and the
constant factor of scale may be a row, a column or a scalar. Everything
else is shape-strict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NotScalar(ValueError):
    pass


class DetachedTensor(ValueError):
    pass


class ZeroNormRow(ValueError):
    pass


class NonFinite(ArithmeticError):
    pass


def check_finite(data: np.ndarray, what: str) -> None:
    if not np.isfinite(data).all():
        raise NonFinite(f"{what} contains a non-finite value")


class Tensor:
    """A float64 matrix, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "slot")

    def __init__(self, data, tape: "Tape | None" = None, slot: int = -1):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeMismatch(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.tape = tape
        self.slot = slot

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise NotScalar(f"item() needs shape (1, 1), got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        tag = f" slot={self.slot}" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


def constant(data) -> Tensor:
    return Tensor(data)


@dataclass
class _Node:
    out_slot: int
    in_slots: tuple[int, ...]
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


class Tape:
    """Execution-ordered record of primitive applications, consumed by its
    one backward()."""

    def __init__(self):
        self._ops: list[_Node] = []
        self._next_slot = 0
        self._grads: dict[int, np.ndarray] | None = None

    def watch(self, data) -> Tensor:
        """Register a leaf (parameter or input) on this tape."""
        t = Tensor(data, tape=self, slot=self._next_slot)
        self._next_slot += 1
        return t

    def _record(self, out: np.ndarray, in_slots: tuple[int, ...], backward) -> Tensor:
        t = Tensor(out, tape=self, slot=self._next_slot)
        self._next_slot += 1
        self._ops.append(_Node(t.slot, in_slots, backward))
        return t

    def backward(self, loss: Tensor) -> None:
        """Populate gradients for every slot reachable from `loss`, popping
        each node off the record as it runs, so the record ends empty and a
        second call raises DetachedTensor."""
        if loss.tape is not self or loss.slot < 0:
            raise DetachedTensor("loss was not computed on this tape")
        if loss.shape != (1, 1):
            raise NotScalar(f"loss must have shape (1, 1), got {loss.shape}")
        if self._grads is not None:
            raise DetachedTensor("backward() has already consumed this tape")
        grads: dict[int, np.ndarray] = {loss.slot: np.ones((1, 1))}
        ops = self._ops
        while ops:
            node = ops.pop()
            g_out = grads.pop(node.out_slot, None)
            if g_out is None:
                continue
            for slot, g_in in zip(node.in_slots, node.backward(g_out)):
                if slot < 0 or g_in is None:
                    continue
                acc = grads.get(slot)
                grads[slot] = g_in if acc is None else acc + g_in
        self._grads = grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of backward()'s loss w.r.t. `t`; zeros if unreached."""
        if self._grads is None:
            raise DetachedTensor("backward() has not been run on this tape")
        if t.tape is not self or t.slot < 0:
            raise DetachedTensor("tensor does not belong to this tape")
        g = self._grads.get(t.slot)
        if g is None:
            return np.zeros(t.shape)
        return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise DetachedTensor("operands recorded on different tapes")
            tape = t.tape
    return tape


def _apply(tape: Tape | None, out: np.ndarray, ins: tuple[Tensor, ...], backward) -> Tensor:
    if tape is None:
        return Tensor(out)
    return tape._record(out, tuple(t.slot for t in ins), backward)


# --- primitives --------------------------------------------------------------

def add(a, b) -> Tensor:
    """a + b, with b of a's shape or a 1 x m row added to every row of a."""
    a, b = _as_tensor(a), _as_tensor(b)
    same = b.shape == a.shape
    if not same and b.shape != (1, a.shape[1]):
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")

    def backward(g):
        return g, g if same else g.sum(axis=0, keepdims=True)

    return _apply(_tape_of(a, b), a.data + b.data, (a, b), backward)


def scale(a, c) -> Tensor:
    """a times the constant c: a float, or a float64 array that broadcasts
    to a's n x m shape (1 x 1, a 1 x m row, an n x 1 column or n x m). c
    takes no gradient."""
    a = _as_tensor(a)
    if np.ndim(c) == 0:
        c = float(c)
    else:
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != 2 or any(k not in (1, n) for k, n in zip(c.shape, a.shape)):
            raise ShapeMismatch(f"scale: {a.shape} vs {c.shape}")

    def backward(g):
        return (g * c,)

    return _apply(_tape_of(a), a.data * c, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def backward(g):
        return g @ b_data.T, a_data.T @ g

    return _apply(_tape_of(a, b), a_data @ b_data, (a, b), backward)


def _flat_index(idx: np.ndarray, d: int) -> np.ndarray:
    """The (row, column) entries of rows idx of a d-wide matrix, flattened."""
    return (idx[:, None] * d + np.arange(d)).ravel()


def _sum_rows_into(x: np.ndarray, flat: np.ndarray, num_rows: int) -> np.ndarray:
    """out[r] = sum of the rows x[k] with idx[k] == r, as one bincount over
    flat = _flat_index(idx, d); each entry sums in index order."""
    d = x.shape[1]
    out = np.bincount(flat, weights=x.ravel(), minlength=num_rows * d)
    # bincount of an empty index yields integers, whatever the weights
    return out.astype(np.float64, copy=False).reshape(num_rows, d)


def gather_rows(x, rows) -> Tensor:
    """x[rows] for a 1-D index. An (n, k) index gives n x k*d, row r
    holding x[rows[r, 0]], ..., x[rows[r, k - 1]] side by side; its
    backward is still one bincount."""
    x = _as_tensor(x)
    idx = np.asarray(rows, dtype=np.int64)
    n, k = idx.shape if idx.ndim == 2 else (idx.size, 1)
    idx = idx.reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeMismatch(f"gather_rows: index outside 0..{x.shape[0] - 1}")
    num_rows, d = x.shape
    out = x.data[idx].reshape(n, k * d)

    def backward(g):
        return (_sum_rows_into(g.reshape(n * k, d), _flat_index(idx, d), num_rows),)

    return _apply(_tape_of(x), out, (x,), backward)


def scatter_add_rows(x, rows, num_rows: int) -> Tensor:
    """out[r] = sum of x rows k with rows[k] == r; the adjoint of gather_rows."""
    x = _as_tensor(x)
    idx = np.asarray(rows, dtype=np.int64).reshape(-1)
    if idx.size != x.shape[0]:
        raise ShapeMismatch(f"scatter_add_rows: {idx.size} indices for {x.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise ShapeMismatch(f"scatter_add_rows: index outside 0..{num_rows - 1}")
    out = _sum_rows_into(x.data, _flat_index(idx, x.shape[1]), num_rows)

    def backward(g):
        return (g[idx],)

    return _apply(_tape_of(x), out, (x,), backward)


class Incidence:
    """The V x E unsigned incidence matrix B of an edge list, for rows of
    one width: B[r, k] = 1 when node r is an endpoint of edge k.

    helix_layer reads it in forward and in backward. The endpoints are
    checked once here, and the flat (row, column) bincount index of B's 2E
    nonzeros at `width`, the far end of each of them and the degrees less
    one are formed once here.
    """

    def __init__(self, edges, num_nodes: int, width: int):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise ShapeMismatch(f"incidence: endpoint outside 0..{num_nodes - 1}")
        self.u = edges[:, 0]
        self.v = edges[:, 1]
        self.num_nodes = num_nodes
        self.num_edges = edges.shape[0]
        self.width = width
        ends = np.concatenate([self.u, self.v])
        self.degree = np.bincount(ends, minlength=num_nodes)
        self._flat = _flat_index(ends, width)
        self._other = np.concatenate([self.v, self.u])  # the far end of each of `ends`
        self._deg_less_one = self.degree[:, None] - 1.0

    def into_nodes(self, x: np.ndarray) -> np.ndarray:
        """B x; each node sums its u-side edges first, then its v-side ones."""
        return _sum_rows_into(np.concatenate([x, x]), self._flat, self.num_nodes)

    def endpoints(self, y: np.ndarray) -> np.ndarray:
        """B^T y: y[u] + y[v] for each edge (u, v)."""
        out = np.take(y, self.u, axis=0)
        out += np.take(y, self.v, axis=0)
        return out

    def adjacent(self, y: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        """A y + B a, with A = B B^T - D the adjacency: each node sums, over
        its edges, the far end's row of y plus the edge's row of a."""
        rows = np.take(y, self._other, axis=0)
        if a is not None:
            halves = rows.reshape(2, self.num_edges, rows.shape[1])  # a view
            halves += a
        return _sum_rows_into(rows, self._flat, self.num_nodes)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0.0

    def backward(g):
        return (g * mask,)

    return _apply(_tape_of(x), out, (x,), backward)


def helix_layer(h, attr, inc: Incidence, line: bool, self_loop, w1, b1, w2, b2) -> Tensor:
    """relu(relu((h + nbr + self_loop) @ w1 + b1) @ w2 + b2), one GIN layer
    update over the incidence matrix B of `inc`, as one tape node; nbr sums
    each row's neighbours plus the attribute of the joining edge.

    Graph rule: `h` is V x d, `attr` E x d, and nbr = A h + B attr with
    A = B B^T - D the adjacency. Line rule (`line`): `h` is E x d, one row
    per source edge, and `attr` V x d; the line graph's adjacency is
    B^T B - 2I and each line edge carries the source node its two edges
    share, so nbr = B^T (B h + (D - I) attr) - 2 h. d is `inc.width`.

    Forward works in place. When a tape records the call it keeps only the
    MLP input x and the outer mask as bools: keeping the output instead
    would hold every line-helix layer's output until backward, which
    nothing else does. Backward recomputes the hidden post-ReLU array z,
    and from it the inner mask, with forward's ops in forward's order, so
    every bit is the same; it costs one more x @ w1 and saves holding z,
    twice x's width, from forward to backward. An untaped call forms no
    mask. Backward never writes into its incoming gradient.
    """
    ins = tuple(_as_tensor(t) for t in (h, attr, self_loop, w1, b1, w2, b2))
    h, attr, self_loop, w1, b1, w2, b2 = ins
    rows, cols = (inc.num_edges, inc.num_nodes) if line else (inc.num_nodes, inc.num_edges)
    d = inc.width
    k, m = w1.shape[1], w2.shape[1]
    expected = ((rows, d), (cols, d), (1, d), (d, k), (1, k), (k, m), (1, m))
    if tuple(t.shape for t in ins) != expected:
        raise ShapeMismatch(f"helix_layer ({'line' if line else 'graph'} rule): h, attr, "
                            "self_loop, w1, b1, w2, b2 have shapes "
                            f"{', '.join(str(t.shape) for t in ins)}, expected "
                            f"{', '.join(map(str, expected))}")
    tape = _tape_of(*ins)
    h_data, w1_data, b1_data, w2_data = h.data, w1.data, b1.data, w2.data
    if line:
        t = inc.into_nodes(h_data)
        t += attr.data * inc._deg_less_one
        x = inc.endpoints(t)
        x -= 2.0 * h_data
    else:
        x = inc.adjacent(h_data, attr.data)
    x += h_data
    x += self_loop.data

    def hidden() -> np.ndarray:
        z = x @ w1_data
        z += b1_data
        return np.maximum(z, 0.0, out=z)

    out = hidden() @ w2_data
    out += b2.data
    np.maximum(out, 0.0, out=out)
    mask = out > 0.0 if tape is not None else None

    def backward(g):
        z = hidden()
        g2 = g * mask
        gz = g2 @ w2_data.T
        gz *= z > 0.0
        gx = gz @ w1_data.T
        if line:
            g_attr = inc.into_nodes(gx)
            g_h = inc.endpoints(g_attr)
            g_h -= gx
            g_attr *= inc._deg_less_one
        else:
            g_h = inc.adjacent(gx)
            g_h += gx
            g_attr = inc.endpoints(gx)
        return (g_h, g_attr, gx.sum(axis=0, keepdims=True),
                x.T @ gz, gz.sum(axis=0, keepdims=True),
                z.T @ g2, g2.sum(axis=0, keepdims=True))

    return _apply(tape, out, ins, backward)


def l2_normalize_rows(x) -> Tensor:
    """Each row divided by its L2 norm. Rows with norm below 1e-12 raise
    ZeroNormRow; a zero embedding signals an upstream bug."""
    x = _as_tensor(x)
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    small = norms < 1e-12
    if small.any():
        raise ZeroNormRow(f"row {int(np.flatnonzero(small)[0])} has near-zero norm")
    out = x.data / norms

    def backward(g):
        return ((g - out * (g * out).sum(axis=1, keepdims=True)) / norms,)

    return _apply(_tape_of(x), out, (x,), backward)


# --- fused contrastive cross-entropy -----------------------------------------
#
# group_xent contrasts the rows of a against the rows of b through the
# similarities s = a b^T, with the positives on the diagonal and the rows
# sorted into groups, in two terms. A row anchor i contributes
#     -s_ii / tau + logsumexp_{j in mask_i} s_ij / tau
# where the mask holds the negatives only, never the positive (the strict
# form of GraphCL's loss); anchors without negatives are dropped. Its
# gradient on s is (softmax over the masked row - onehot(i)) / tau.
#
# The cross term reads s in both directions, the negatives in the other
# groups: column j anchors the same way on s_jj against the rows of the
# other groups. The within term reads s one way, row i against the other
# columns of its own group, which sorted ids put in one window. The kernel
# never holds s whole: it walks row tiles of s twice, holding at most two
# tiles at a time. Every exp needs a shift that keeps it finite and
# normal. By Cauchy-Schwarz |s_ij| / tau <= B = max_i |a_i| max_j |b_j| / tau,
# so while the span 2B of the logits stays below SHARED_SHIFT_SPAN one
# shared shift, zero, is exact for the cross term: every exp lies within
# e^(+-B), about 1e(+-152), and so does every sum of them over fewer than
# 1e150 terms. On unit rows B = 1 / tau, 10 at tau = 0.1. Pass 1 then takes
# one exp per similarity and finishes each row's sum inside its tile while
# it accumulates the column sums; pass 2 walks the tiles in reverse order,
# so the last tile of pass 1 is reused from its buffer, and re-exps every
# other tile: two exps per similarity. A finite B also bounds every
# similarity, so only the exact path checks them. Beyond the span each row
# and each column takes its own exact max shift: pass 1 carries each
# column's max and sum across the tiles with the online softmax update
# (Milakov & Gimelshein, 2018), and pass 2 finishes each row's log-sum-exp
# inside its tile, three exps per similarity in all. Either way pass 2
# turns each tile into the cross term's gradient on s, P_row + P_col - 2 on
# the diagonal.
#
# The within term takes each tile's own-group entries compactly, one
# segment per row, by their flat positions in the tile (the same positions
# mask them for the cross term), never a copy of the own-group window:
# sum_g E_g^2 entries in all, where E_g is the size of group g. Pass 1
# finishes each row's log-sum-exp under its own exact max shift; pass 2
# reads the entries again (the reused last tile's from a stash of its
# segments) and adds (softmax - onehot), weighted against the cross term,
# into the same gradient tile: two exps per own-group entry. A zero weight
# skips its term; with alpha = 0 every tile is formed only over its rows'
# own groups' columns. Pass 2 carries each gradient tile to a and b with
# two GEMMs, and those two E x d arrays are all the tape keeps; backward
# scales them by g times the first term's weight over its anchor count,
# over tau.

TILE_ENTRIES = 1 << 18  # similarity entries per row tile of group_xent
SHARED_SHIFT_SPAN = 700.0  # logit span 2B below which the zero shift is exact


def group_xent(a, b, group_ids, tau: float, alpha: float = 1.0, beta: float = 0.0
               ) -> tuple[Tensor | None, tuple[float, int], tuple[float, int]]:
    """alpha times the mean contrastive cross-entropy of s = a @ b.T read in
    both directions against the other groups, plus beta times the mean of
    its rows read against their own groups.

    Rows of `a` and `b` are expected to be L2-normalised, so s holds cosine
    similarities, and `group_ids` gives each row's group in sorted order.
    Cross term: row i anchors with positive s_ii against the columns of
    other groups, column j with positive s_jj against the rows of other
    groups, 2n anchors for n rows in two groups or more. Within term: row i
    anchors against the other columns of its group; rows alone in their
    group drop out. A term whose weight is zero is skipped and has no
    anchors.

    Returns (alpha * cross mean + beta * within mean as a 1 x 1 tensor,
    (cross mean, cross anchors), (within mean, within anchors)); a term
    without anchors reads (0.0, 0), and the tensor is None when neither
    term has one. One tape node; it
    holds at most two row tiles of TILE_ENTRIES entries at a time. The
    cross term takes two exps per similarity under one shared shift while
    the row norms and tau bound the logits' span below SHARED_SHIFT_SPAN,
    and three under exact per-row and per-column shifts beyond it.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"group_xent: {a.shape} vs {b.shape}")
    n = a.shape[0]
    ids = np.asarray(group_ids).reshape(-1)
    if ids.size != n or (np.diff(ids) < 0).any():
        raise ShapeMismatch(f"group_xent: need {n} sorted group ids, got {ids.size}")
    # row i's own group is the column window first[i]:last[i]; its segment
    # of the compact own-group entries is seg[i]:seg[i + 1], where the
    # diagonal sits at own_diag[i]
    first = np.searchsorted(ids, ids, "left")
    last = np.searchsorted(ids, ids, "right")
    size = last - first
    seg = np.concatenate([[0], np.cumsum(size)])
    own_diag = seg[:-1] + np.arange(n) - first
    cross = alpha > 0 and n > 0 and ids[0] != ids[-1]
    kept = (size > 1) & (beta > 0)
    k_cross, k_within = 2 * n if cross else 0, int(np.count_nonzero(kept))
    if not (k_cross or k_within):
        return None, (0.0, 0), (0.0, 0)
    within = k_within > 0
    # the gradient tile is in units of the first term's weight over its
    # anchors; the within term enters it weighted against that unit
    unit = alpha * (1.0 / k_cross) if cross else beta * (1.0 / k_within)
    w_within = beta * (1.0 / k_within) / unit if within else 0.0
    a_data, b_data = a.data, b.data
    a_tau = a_data * (1.0 / tau)  # s / tau comes out of the matmul
    # B through np.linalg.norm, as l2_normalize_rows takes norms: an einsum
    # would skip the n x d temporary but raised a wide batch's peak RSS by
    # 1.6 MB. An inf or NaN B picks the exact path
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.linalg.norm(a_tau, axis=1).max() * np.linalg.norm(b_data, axis=1).max())
    shared = 2.0 * bound < SHARED_SHIFT_SPAN
    height = max(1, min(n, TILE_ENTRIES // n))
    tiles = [(r0, min(r0 + height, n)) for r0 in range(0, n, height)]
    # a tile of either buffer keeps rows n apart, whatever its width
    x_buf = np.empty((height, n))
    e_buf = np.empty((height, n))
    x_flat, e_flat = x_buf.reshape(-1), e_buf.reshape(-1)
    diag = np.empty(n)
    lse_own = np.empty(n)

    def logits(r0: int, r1: int, first_pass: bool):
        """The tile's s / tau, over every column with the cross term and
        over its rows' own groups alone without it; the flat positions of
        its own-group entries in either buffer, one segment per row; and
        with the within term those entries as read, the diagonal at -inf.
        With the cross term the own groups then read -inf, or under the
        shared shift the tile holds exps, 0 there. The first pass keeps the
        positives and, on the exact path, checks the tile."""
        lo = 0 if cross else int(first[r0])
        x = x_buf[:r1 - r0, :n if cross else int(last[r1 - 1]) - lo]
        np.matmul(a_tau[r0:r1], b_data[lo:lo + x.shape[1]].T, out=x)
        if first_pass:
            if not shared:
                check_finite(x, "similarity")
            t = np.arange(r1 - r0)
            diag[r0:r1] = x[t, r0 - lo + t]
        row_at = np.arange(r1 - r0) * n + first[r0:r1] - lo - seg[r0:r1]
        at = np.repeat(row_at, size[r0:r1]) + np.arange(seg[r0], seg[r1])
        own = None
        if within:
            own = x_flat[at]
            own[own_diag[r0:r1] - seg[r0]] = -np.inf
        if cross:
            x_flat[at] = -np.inf
            if shared:
                np.exp(x, out=x)
        return x, at, own

    # pass 1: each column's sum of exp, carried across the tiles, and each
    # row's within log-sum-exp under its own max shift
    col_sum = np.zeros(n)
    row_sum = np.empty(n)
    col_max = np.full(n, -np.inf)
    for r0, r1 in tiles:
        x, at, own = logits(r0, r1, True)
        if within:
            starts = seg[r0:r1] - seg[r0]
            top = np.maximum.reduceat(own, starts)
            top[np.isneginf(top)] = 0.0  # rows alone in their group
            e = own - np.repeat(top, size[r0:r1])
            np.exp(e, out=e)
            # +inf for a dropped row, so pass 2 exps its segment to 0
            lse_own[r0:r1] = np.log(np.add.reduceat(e, starts), out=np.full(r1 - r0, np.inf),
                                    where=kept[r0:r1]) + top
        if not cross:
            continue
        if shared:
            row_sum[r0:r1] = x.sum(axis=1)
            col_sum += x.sum(axis=0)
            continue
        e = e_buf[:r1 - r0]
        new_max = np.maximum(col_max, x.max(axis=0))
        # a column masked in every row so far has nothing to sum yet
        shift = np.where(np.isneginf(new_max), 0.0, new_max)
        col_sum *= np.exp(col_max - shift)
        np.subtract(x, shift, out=e)
        np.exp(e, out=e)
        col_sum += e.sum(axis=0)
        col_max = new_max
    if cross and shared:
        lse_row, lse_col = np.log(row_sum), np.log(col_sum)
        inv_row, inv_col = 1.0 / row_sum, 1.0 / col_sum
    elif cross:
        lse_row, lse_col = np.empty(n), np.log(col_sum) + col_max

    # pass 2: the gradient tile on s, carried to a and b; the exact shifts
    # also finish each row's cross log-sum-exp here
    ga = np.empty_like(a_data)
    gb_t = np.zeros((a.shape[1], n))
    for k, (r0, r1) in enumerate(reversed(tiles)):
        if k:  # the last tile of pass 1 is still in its buffer, with its stash
            x, at, own = logits(r0, r1, False)
        e = e_buf[:r1 - r0, :x.shape[1]]
        if not cross:
            e.fill(0.0)
        elif shared:
            np.copyto(e, inv_col)   # then add in place: cheaper than a broadcast add
            e += inv_row[r0:r1, None]
            e *= x
        else:
            row_max = x.max(axis=1, keepdims=True)
            np.subtract(x, row_max, out=e)
            np.exp(e, out=e)
            tile_sum = e.sum(axis=1, keepdims=True)
            lse_row[r0:r1] = np.log(tile_sum[:, 0]) + row_max[:, 0]
            e *= 1.0 / tile_sum
            x -= lse_col
            np.exp(x, out=x)
            e += x
        if cross:
            t = np.arange(r1 - r0)
            e[t, r0 + t] -= 2.0
        if within:
            own -= np.repeat(lse_own[r0:r1], size[r0:r1])
            np.exp(own, out=own)
            own[own_diag[r0:r1] - seg[r0]] -= kept[r0:r1]
            own *= w_within
            e_flat[at] += own
        lo = 0 if cross else int(first[r0])
        np.matmul(e, b_data[lo:lo + e.shape[1]], out=ga[r0:r1])
        gb_t[:, lo:lo + e.shape[1]] += a_data[r0:r1].T @ e
    mean_cross = mean_within = 0.0
    value = 0.0
    if cross:
        total = float((lse_row - diag).sum()) + float((lse_col - diag).sum())
        mean_cross = total * (1.0 / k_cross)
        value += alpha * mean_cross
    if within:
        mean_within = float((lse_own - diag)[kept].sum()) * (1.0 / k_within)
        value += beta * mean_within

    def backward(g):
        c = float(g[0, 0]) * unit / tau
        return ga * c, gb_t.T * c

    return (_apply(_tape_of(a, b), np.array([[value]]), (a, b), backward),
            (mean_cross, k_cross), (mean_within, k_within))


# --- Adam ---------------------------------------------------------------------

class FlatLayout:
    """Named array shapes packed in sorted name order into one flat float64
    buffer, the order of a checkpoint's data. `views` reshapes slices of a
    buffer into the named arrays; `pack` checks named arrays against the
    layout and concatenates them into a buffer."""

    __slots__ = ("names", "shapes", "size", "_bounds")

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.names = sorted(shapes)
        self.shapes = [tuple(shapes[name]) for name in self.names]
        # Python ints, so a huge stored shape cannot wrap the sizes round
        ends = list(accumulate(map(math.prod, self.shapes), initial=0))
        self.size = ends[-1]
        self._bounds = list(zip(ends[:-1], ends[1:]))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The named arrays as reshaped views that share `flat`'s memory."""
        return {name: flat[a:b].reshape(shape)
                for name, shape, (a, b) in zip(self.names, self.shapes, self._bounds)}

    def pack(self, arrays: dict[str, np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        """`arrays` concatenated in layout order into `out` (a new buffer when
        omitted). Every name and shape is checked before `out` is written;
        ShapeMismatch names the first array that is missing, unknown or
        misshaped."""
        if arrays.keys() != set(self.names):
            name = min(set(self.names).symmetric_difference(arrays))
            raise ShapeMismatch(f"array {name} is {'unknown' if name in arrays else 'missing'}")
        parts = [arrays[name] for name in self.names]
        for name, part, shape in zip(self.names, parts, self.shapes):
            if part.shape != shape:
                raise ShapeMismatch(f"array {name} has shape {part.shape}, expected {shape}")
        if out is None:
            out = np.empty(self.size)
        return np.concatenate(parts, axis=None, out=out)


# Adam's published defaults (Kingma & Ba, ICLR 2015); every run uses them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the largest gradient magnitude adam_step takes: its square is a quarter
# of the float64 maximum, so v and v_hat stay finite after rounding
_GRAD_LIMIT = math.sqrt(np.finfo(np.float64).max) / 2


def moment_limits(step: int) -> tuple[float, float]:
    """The largest |m| and v that `step` adam_step calls reach from zero
    moments: (1 - b^step) times _GRAD_LIMIT for m and its square for v,
    widened by 1e-9 for rounding. Moments within them keep the next step's
    bias-corrected m and v within _GRAD_LIMIT and its square, so finite."""
    widen = 1.0 + 1e-9
    return ((1.0 - ADAM_BETA1 ** step) * _GRAD_LIMIT * widen,
            (1.0 - ADAM_BETA2 ** step) * _GRAD_LIMIT ** 2 * widen)


@dataclass
class AdamState:
    """Adam moments as one flat buffer each, plus the shared step counter.

    `m` and `v` hold every moment in `layout` order, the order of the flat
    parameter buffer they update; omitted, they start at zero. `grad` is a
    flat buffer to gather a step's gradients into
    (`layout.pack(grads, out=state.grad)`); it and one more buffer of the
    same size are the update's scratch, so a step allocates nothing.
    """

    layout: FlatLayout
    learning_rate: float = 1e-3
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    grad: np.ndarray = field(init=False, repr=False)
    _scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        size = self.layout.size
        self.m = np.zeros(size) if self.m is None else self.m
        self.v = np.zeros(size) if self.v is None else self.v
        for name, buf in (("m", self.m), ("v", self.v)):
            if buf.shape != (size,) or buf.dtype != np.float64:
                raise ShapeMismatch(f"AdamState: {name} is {buf.dtype} {buf.shape}, "
                                    f"expected float64 ({size},)")
        self.grad = np.empty(size)
        self._scratch = np.empty(size)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray],
                   learning_rate: float = 1e-3) -> "AdamState":
        return cls(FlatLayout({name: p.shape for name, p in params.items()}),
                   learning_rate=learning_rate)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One Adam update with bias correction of the flat parameter buffer
    `params` by the flat gradient `grads`, both in `state.layout` order, in
    place and deterministic.

    Both sizes are checked before anything changes, and so is every
    gradient's magnitude: a failed step raises ShapeMismatch, or NonFinite
    for a gradient that is NaN or above _GRAD_LIMIT (where the second
    moment would overflow), and leaves parameters, moments and the step
    counter as they were. `grads` is then overwritten as scratch.
    Whole-buffer ufuncs compute, element by element and bit for bit as a
    per-array update would, m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p -= (lr m_hat) / (sqrt(v_hat) + eps), with b1, b2 and eps the ADAM_*
    constants. The step counter advances by one.
    """
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ShapeMismatch(f"adam_step: parameters {params.shape} and gradients "
                            f"{grads.shape} vs moments {state.m.shape}")
    g, s = grads, state._scratch
    worst = np.abs(g, out=s).max(initial=0.0)
    if not worst <= _GRAD_LIMIT:  # NaN fails the comparison
        raise NonFinite(f"adam_step: the second moment would overflow (largest "
                        f"|gradient| {worst:.3g}, limit {_GRAD_LIMIT:.3g})")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.m, state.v
    m *= b1
    np.multiply(g, 1.0 - b1, out=s)
    m += s
    v *= b2
    np.multiply(g, g, out=g)
    g *= 1.0 - b2
    v += g
    np.divide(v, 1.0 - b2 ** t, out=g)   # v_hat
    np.sqrt(g, out=g)
    g += ADAM_EPS
    np.divide(m, 1.0 - b1 ** t, out=s)   # m_hat
    s *= state.learning_rate
    s /= g
    params -= s
