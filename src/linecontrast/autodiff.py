"""Dense 2-D float64 tensors with a recording tape for reverse-mode
gradients, plus an Adam optimizer over flat parameter buffers.

Values are matrices; vectors are stored as 1 x d or n x 1, scalars as
1 x 1. A Tape records primitive applications in execution order, which is
a topological order, so backward replays the record once in reverse. A
tape is meant to live for a single training step and be discarded after
backward.

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
    """Execution-ordered record of primitive applications."""

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
        """Populate gradients for every slot reachable from `loss`."""
        if loss.tape is not self or loss.slot < 0:
            raise DetachedTensor("loss was not computed on this tape")
        if loss.shape != (1, 1):
            raise NotScalar(f"loss must have shape (1, 1), got {loss.shape}")
        grads: dict[int, np.ndarray] = {loss.slot: np.ones((1, 1))}
        for node in reversed(self._ops):
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
        """Gradient of the last backward() w.r.t. `t`; zeros if unreached."""
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

    Forward works in place and keeps the layer input, the hidden post-ReLU
    array (backward reads the inner mask from it) and, when a tape records
    the call, the outer mask as bools: keeping the output instead would
    hold every line-helix layer's output until backward, which nothing
    else does. An untaped call forms no mask. Backward never writes into
    its incoming gradient.
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
    h_data, w1_data, w2_data = h.data, w1.data, w2.data
    if line:
        t = inc.into_nodes(h_data)
        t += attr.data * inc._deg_less_one
        x = inc.endpoints(t)
        x -= 2.0 * h_data
    else:
        x = inc.adjacent(h_data, attr.data)
    x += h_data
    x += self_loop.data
    z = x @ w1_data
    z += b1.data
    np.maximum(z, 0.0, out=z)
    out = z @ w2_data
    out += b2.data
    np.maximum(out, 0.0, out=out)
    mask = out > 0.0 if tape is not None else None

    def backward(g):
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
# Both kernels contrast the rows of a against the rows of b through the
# similarities s = a b^T, with the positives on the diagonal and a set of
# negatives for each anchor. A row anchor i contributes
#     -s_ii / tau + logsumexp_{j in mask_i} s_ij / tau
# where the mask holds the negatives only, never the positive (the strict
# form of GraphCL's loss); anchors without negatives are dropped. Its
# gradient on s is (softmax over the masked row - onehot(i)) / tau.
#
# group_xent reads s = a b^T in both directions: column j anchors the same
# way on s_jj against the rows of the other groups. It never holds s whole.
# Pass 1 walks row tiles of s and carries each column's max and sum across
# tiles with the online softmax update (Milakov & Gimelshein, 2018). Pass 2
# walks the tiles in reverse order, so the last tile of pass 1 is reused
# from its buffer and an s that fits one tile is formed once. It finishes
# each row's log-sum-exp inside its tile and accumulates the gradients on
# a and b, which are all the tape keeps.
# Each row and each column takes its own exact max shift: one global shift
# would underflow every exp once tau is small. block_xent runs one
# direction per block, on one padded stack per power-of-two width. Both
# kernels follow one contract: forward forms the masked softmax once,
# turns (softmax - onehot) into the gradients on a and b, keeps only those
# two E x d arrays and records the mean over the k anchors; backward
# scales them by g / (k tau).

TILE_ENTRIES = 1 << 18  # similarity entries per row tile of group_xent


def group_xent(a, b, group_ids, tau: float) -> tuple[Tensor | None, int]:
    """Mean contrastive cross-entropy of s = a @ b.T read in both
    directions, with the negatives of each anchor in the other groups.

    Rows of `a` and `b` are expected to be L2-normalised, so s holds cosine
    similarities, and `group_ids` gives each row's group in sorted order.
    Row i anchors with positive s_ii against the columns of other groups;
    column j anchors with positive s_jj against the rows of other groups.
    Returns (mean over all 2E anchor terms as a 1 x 1 tensor, 2E), or
    (None, 0) when every row is in one group. One tape node; it holds at
    most two row tiles of TILE_ENTRIES entries at a time.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"group_xent: {a.shape} vs {b.shape}")
    n = a.shape[0]
    ids = np.asarray(group_ids).reshape(-1)
    if ids.size != n or (np.diff(ids) < 0).any():
        raise ShapeMismatch(f"group_xent: need {n} sorted group ids, got {ids.size}")
    if n == 0 or ids[0] == ids[-1]:
        return None, 0
    a_data, b_data = a.data, b.data
    a_tau = a_data * (1.0 / tau)  # s / tau comes out of the matmul
    height = max(1, min(n, TILE_ENTRIES // n))
    tiles = [(r0, min(r0 + height, n)) for r0 in range(0, n, height)]
    x_buf = np.empty((height, n))
    e_buf = np.empty((height, n))
    diag = np.empty(n)

    def logits(r0: int, r1: int, first_pass: bool) -> np.ndarray:
        """The tile's s / tau, -inf where a row meets its own group; the
        first pass checks it and keeps the positives."""
        x = x_buf[:r1 - r0]
        np.matmul(a_tau[r0:r1], b_data.T, out=x)
        if first_pass:
            check_finite(x, "similarity")
            t = np.arange(r1 - r0)
            diag[r0:r1] = x[t, r0 + t]
        # sorted ids put the tile's own-group columns in one window
        c0 = int(np.searchsorted(ids, ids[r0], "left"))
        c1 = int(np.searchsorted(ids, ids[r1 - 1], "right"))
        np.copyto(x[:, c0:c1], -np.inf, where=ids[r0:r1, None] == ids[None, c0:c1])
        return x

    # pass 1: each column's max and sum of exp, carried across the tiles
    col_max = np.full(n, -np.inf)
    col_sum = np.zeros(n)
    for r0, r1 in tiles:
        x = logits(r0, r1, True)
        e = e_buf[:r1 - r0]
        new_max = np.maximum(col_max, x.max(axis=0))
        # a column masked in every row so far has nothing to sum yet
        shift = np.where(np.isneginf(new_max), 0.0, new_max)
        col_sum *= np.exp(col_max - shift)
        np.subtract(x, shift, out=e)
        np.exp(e, out=e)
        col_sum += e.sum(axis=0)
        col_max = new_max
    lse_col = np.log(col_sum) + col_max

    # pass 2: each row's log-sum-exp within its tile, and the gradient on s,
    # P_row + P_col - 2 on the diagonal (times g / (k tau)), carried to a and b
    lse_row = np.empty(n)
    ga = np.empty_like(a_data)
    gb_t = np.zeros((a.shape[1], n))
    for k, (r0, r1) in enumerate(reversed(tiles)):
        x = x_buf[:r1 - r0] if k == 0 else logits(r0, r1, False)
        e = e_buf[:r1 - r0]
        row_max = x.max(axis=1, keepdims=True)
        np.subtract(x, row_max, out=e)
        np.exp(e, out=e)
        row_sum = e.sum(axis=1, keepdims=True)
        lse_row[r0:r1] = np.log(row_sum[:, 0]) + row_max[:, 0]
        e *= 1.0 / row_sum
        x -= lse_col
        np.exp(x, out=x)
        e += x
        t = np.arange(r1 - r0)
        e[t, r0 + t] -= 2.0
        np.matmul(e, b_data, out=ga[r0:r1])
        gb_t += a_data[r0:r1].T @ e
    total = float((lse_row - diag).sum()) + float((lse_col - diag).sum())
    k = 2 * n

    def backward(g):
        c = float(g[0, 0]) * (1.0 / k) / tau
        return ga * c, gb_t.T * c

    return _apply(_tape_of(a, b), np.array([[total * (1.0 / k)]]), (a, b), backward), k


def block_xent(a, b, offsets: np.ndarray, tau: float) -> tuple[Tensor | None, int]:
    """Mean one-direction contrastive cross-entropy of a @ b.T restricted
    to the diagonal blocks that `offsets` cuts out, without forming the
    off-block entries.

    Rows offsets[g]:offsets[g + 1] of `a` and `b` form block g; rows are
    expected to be L2-normalised, so the products are cosine similarities.
    Each row of `a` anchors against the rows of `b` in its own block. The
    blocks are padded into one stack per power of two, each block to the
    least power of two at or above its size, so padding stays within 4 x
    the sum of squared block sizes however skewed the sizes are. One
    batched matmul per stack gives its blocks' similarities; padding never
    enters a sum. Blocks of one row have no negatives and drop out.
    Returns (mean over the k kept anchors as a 1 x 1 tensor, k), or
    (None, 0) when no block has two rows. One tape node; the padded stacks
    are freed in forward and only the gradients on a and b are kept.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"block_xent: {a.shape} vs {b.shape}")
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != a.shape[0] or (sizes < 0).any():
        raise ShapeMismatch(f"block_xent: offsets do not cut {a.shape[0]} rows into blocks")
    block = np.repeat(np.arange(sizes.size), sizes)
    slot = np.arange(a.shape[0]) - offsets[block]
    # frexp's exponent of s - 1 is its bit length: 1 << it is the least
    # power of two >= s (1 for s = 1)
    widths = np.left_shift(1, np.frexp(sizes - 1)[1])
    total, k = 0.0, 0
    ga = np.empty_like(a.data)
    gb = np.empty_like(b.data)
    for width in sorted(set(widths.tolist())):
        stacked = widths == width
        rows = np.flatnonzero(stacked[block])
        i = (np.cumsum(stacked) - 1)[block[rows]]  # block within the stack
        j = slot[rows]
        n = sizes[stacked, None]
        a_pad = np.zeros((n.size, width, a.shape[1]))
        b_pad = np.zeros_like(a_pad)
        a_pad[i, j] = a.data[rows]
        b_pad[i, j] = b.data[rows]
        x = a_pad @ b_pad.transpose(0, 2, 1)  # similarities, worked on in place
        x *= 1.0 / tau
        check_finite(x, "similarity")
        valid = np.arange(width) < n
        keep = valid & (n > 1)
        d = np.arange(width)
        # an anchor sums over the other rows of its block
        masked = ~(valid[:, :, None] & valid[:, None, :])
        masked[:, d, d] = True
        pos = x[:, d, d][keep]
        np.copyto(x, -np.inf, where=masked)
        shift = x.max(axis=-1, keepdims=True)
        shift[np.isneginf(shift)] = 0.0  # padding rows and one-row blocks
        x -= shift
        np.exp(x, out=x)
        row_sum = x.sum(axis=-1, keepdims=True)
        total += float((np.log(row_sum[keep][:, 0]) + shift[keep][:, 0] - pos).sum())
        k += int(np.count_nonzero(keep))
        # softmax - onehot on the kept anchors, 0 on the dropped ones and padding
        x *= np.divide(1.0, row_sum, out=np.zeros_like(row_sum), where=keep[..., None])
        x[:, d, d] -= keep
        ga[rows] = (x @ b_pad)[i, j]
        gb[rows] = (x.transpose(0, 2, 1) @ a_pad)[i, j]
    if k == 0:
        return None, 0

    def backward(g):
        c = float(g[0, 0]) * (1.0 / k) / tau
        return ga * c, gb * c

    return _apply(_tape_of(a, b), np.array([[total * (1.0 / k)]]), (a, b), backward), k


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
