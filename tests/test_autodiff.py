import inspect

import numpy as np
import pytest

from linecontrast import autodiff as ad
from linecontrast import gradcheck
from linecontrast.autodiff import (
    AdamState,
    DetachedTensor,
    NonFinite,
    NotScalar,
    ShapeMismatch,
    Tape,
    Tensor,
    ZeroNormRow,
    adam_step,
)
from linecontrast.encoder import DualHelixParams, embed_batch, encode_batch
from linecontrast.gradcheck import (
    _INCIDENCE,
    _helix_layer_case,
    _primitive_cases,
    run_gradcheck,
)
from linecontrast.graphs import to_line_graph
from linecontrast.pipeline import Batch, compute_step_losses, desk_train_config
from linecontrast.synth import random_molecular_graph

from conftest import corrupted


def scalar_loss_sum_of_squares(tape, values):
    """A watched column x and x^T x, with x^T gathered from x's rows side
    by side."""
    x = tape.watch(values)
    return x, ad.matmul(ad.gather_rows(x, [np.arange(x.shape[0])]), x)


class TestTensorBasics:
    def test_scalar_and_vector_reshape(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0]).shape == (1, 2)

    def test_higher_rank_rejected(self):
        with pytest.raises(ShapeMismatch):
            Tensor(np.zeros((2, 2, 2)))

    def test_item_requires_scalar(self):
        with pytest.raises(NotScalar):
            Tensor([1.0, 2.0]).item()


class TestForward:
    def test_matmul_identity(self, rng):
        x = rng.standard_normal((2, 5))
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant(x))
        assert np.array_equal(out.data, x)

    def test_relu(self):
        out = ad.relu(ad.constant([-1.0, 2.0]))
        assert out.data.tolist() == [[0.0, 2.0]]

    def test_gather_rows(self, rng):
        m = rng.standard_normal((3, 4))
        out = ad.gather_rows(ad.constant(m), [2, 0])
        assert np.array_equal(out.data, m[[2, 0]])

    def test_gather_rows_by_pairs_sets_rows_side_by_side(self, rng):
        m = rng.standard_normal((3, 4))
        pairs = np.array([[2, 0], [1, 1], [0, 2]])
        out = ad.gather_rows(ad.constant(m), pairs)
        assert np.array_equal(out.data, np.hstack([m[pairs[:, 0]], m[pairs[:, 1]]]))
        assert ad.gather_rows(ad.constant(m), pairs[:0]).shape == (0, 8)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(3, 3\)"):
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 3))))

    def test_off_tape_equals_on_tape_bitwise(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 6))
        off = ad.relu(ad.matmul(ad.constant(a), ad.constant(b)))
        tape = Tape()
        on = ad.relu(ad.matmul(tape.watch(a), tape.watch(b)))
        assert np.array_equal(off.data, on.data)

    def test_deterministic_repetition(self, rng):
        a = rng.standard_normal((4, 4))
        runs = [ad.matmul(ad.l2_normalize_rows(ad.constant(a)), ad.constant(a)).data
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])


class TestL2NormalizeRows:
    def test_zero_norm_row_rejected(self):
        x = np.ones((3, 2))
        x[1] = 0.0
        with pytest.raises(ZeroNormRow, match="row 1"):
            ad.l2_normalize_rows(ad.constant(x))


class TestBackward:
    def test_sum_of_squares_gradient(self):
        tape = Tape()
        x, loss = scalar_loss_sum_of_squares(tape, np.array([[3.0], [-0.5]]))
        assert loss.item() == 9.25
        tape.backward(loss)
        assert np.array_equal(tape.grad(x), [[6.0], [-1.0]])

    def test_unreached_parameter_gets_zero(self):
        tape = Tape()
        used = tape.watch(np.array([[2.0]]))
        unused = tape.watch(np.array([[5.0]]))
        loss = ad.matmul(used, used)
        tape.backward(loss)
        assert np.array_equal(tape.grad(unused), np.zeros((1, 1)))

    def test_reused_operand_accumulates(self):
        tape = Tape()
        x = tape.watch(np.array([[2.0]]))
        loss = ad.add(ad.matmul(x, x), ad.scale(x, 3.0))  # x^2 + 3x
        tape.backward(loss)
        assert tape.grad(x)[0, 0] == pytest.approx(7.0, abs=1e-12)

    def test_not_scalar_rejected(self):
        tape = Tape()
        x = tape.watch(np.ones((2, 2)))
        with pytest.raises(NotScalar):
            tape.backward(ad.matmul(x, x))

    def test_detached_loss_rejected(self):
        tape = Tape()
        with pytest.raises(DetachedTensor):
            tape.backward(ad.constant(1.0))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(DetachedTensor):
            ad.add(t1.watch(np.ones((1, 1))), t2.watch(np.ones((1, 1))))

    def test_grad_before_backward_rejected(self):
        tape = Tape()
        x = tape.watch(np.ones((1, 1)))
        with pytest.raises(DetachedTensor):
            tape.grad(x)


class TestGatherScatterAdjoint:
    def test_gather_then_scatter_over_permutation_is_identity(self, rng):
        x = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        gathered = ad.gather_rows(ad.constant(x), perm)
        restored = ad.scatter_add_rows(gathered, perm, 6)
        assert np.array_equal(restored.data, x)

    def test_scatter_collisions_sum(self):
        x = ad.constant([[1.0], [2.0], [4.0]])
        out = ad.scatter_add_rows(x, [0, 0, 1], 2)
        assert out.data.tolist() == [[3.0], [4.0]]


def add_at_reference(x: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    out = np.zeros((num_rows, x.shape[1]))
    np.add.at(out, idx, x)
    return out


class TestRowScatterKernel:
    """The bincount row scatter behind scatter_add_rows and the backward of
    gather_rows, against a plain np.add.at reference."""

    @staticmethod
    def repeated_index(rng, size, num_rows):
        # draws from the lower rows only, so rows repeat and the top ones
        # receive nothing
        idx = rng.integers(0, num_rows - 3, size=size)
        assert len(np.unique(idx)) < size
        return idx

    @pytest.mark.parametrize("d", [1, 32])
    def test_scatter_forward_matches_add_at(self, rng, d):
        x = rng.standard_normal((40, d))
        idx = self.repeated_index(rng, 40, 12)
        out = ad.scatter_add_rows(ad.constant(x), idx, 12)
        assert out.shape == (12, d)
        assert np.abs(out.data - add_at_reference(x, idx, 12)).max() < 1e-12
        assert not out.data[9:].any()

    @pytest.mark.parametrize("d", [1, 32])
    def test_gather_gradient_matches_add_at(self, rng, d):
        x_val = rng.standard_normal((12, d))
        idx = self.repeated_index(rng, 40, 12)
        w = rng.standard_normal((40, d))
        tape = Tape()
        x = tape.watch(x_val)
        loss = ad.matmul(ad.matmul(ad.constant(np.ones((1, 40))),
                                   ad.scale(ad.gather_rows(x, idx), w)),
                         ad.constant(np.ones((d, 1))))
        tape.backward(loss)
        assert np.abs(tape.grad(x) - add_at_reference(w, idx, 12)).max() < 1e-12

    def test_empty_index_gives_zero_gradient(self, rng):
        tape = Tape()
        x = tape.watch(rng.standard_normal((5, 3)))
        picked = ad.gather_rows(x, np.zeros(0, dtype=np.int64))
        loss = ad.matmul(ad.matmul(ad.constant(np.ones((1, 0))), picked),
                         ad.constant(np.ones((3, 1))))
        tape.backward(loss)
        g = tape.grad(x)
        assert g.shape == (5, 3) and g.dtype == np.float64
        assert not g.any()


def dense_incidence(edges, num_nodes):
    b = np.zeros((num_nodes, len(edges)))
    for k, (u, v) in enumerate(edges):
        b[u, k] = b[v, k] = 1.0
    return b


def dense_neighbour_maps(edges, num_nodes, line):
    """The maps of helix_layer's neighbour sum on h and on attr: graph rule
    B B^T - D and B, line rule B^T B - 2I and B^T (D - I)."""
    b = dense_incidence(edges, num_nodes)
    deg = np.diag(b.sum(axis=1))
    if line:
        return b.T @ b - 2.0 * np.eye(len(edges)), b.T @ (deg - np.eye(num_nodes))
    return b @ b.T - deg, b


def weighted_sum(out, weights):
    return ad.matmul(ad.matmul(ad.constant(np.ones((1, out.shape[0]))),
                               ad.scale(out, weights)),
                     ad.constant(np.ones((out.shape[1], 1))))


class TestIncidenceSums:
    """helix_layer's neighbour sums against a dense incidence matrix B."""

    # node 0 meets three edges, node 5 none; edges (1, 2) and (2, 4) share node 2
    EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [2, 4]])
    V, D = 6, 4

    @pytest.mark.parametrize("edges", [EDGES, EDGES[:0]], ids=["graph", "no edges"])
    def test_values_and_gradients_match_dense_incidence(self, rng, edges):
        inc = ad.Incidence(edges, self.V, self.D)
        for line in (False, True):
            rows, cols = (len(edges), self.V) if line else (self.V, len(edges))
            h = rng.standard_normal((rows, self.D))
            attr = rng.standard_normal((cols, self.D))
            loop, w1, b1, w2, b2 = (rng.standard_normal(s) for s in
                                    ((1, self.D), (self.D, 8), (1, 8), (8, self.D), (1, self.D)))
            adj, attr_map = dense_neighbour_maps(edges, self.V, line)
            pre1 = (h + adj @ h + attr_map @ attr + loop) @ w1 + b1
            pre2 = np.maximum(pre1, 0.0) @ w2 + b2
            tape = Tape()
            h_t, attr_t = tape.watch(h), tape.watch(attr)
            out = ad.helix_layer(h_t, attr_t, inc, line, loop, w1, b1, w2, b2)
            assert out.data.dtype == np.float64 and out.shape == (rows, self.D)
            assert np.abs(out.data - np.maximum(pre2, 0.0)).max(initial=0) < 1e-12
            w = rng.standard_normal(out.shape)
            tape.backward(weighted_sum(out, w))
            gx = ((w * (pre2 > 0)) @ w2.T * (pre1 > 0)) @ w1.T
            assert np.abs(tape.grad(h_t) - (gx + adj.T @ gx)).max(initial=0) < 1e-12
            assert np.abs(tape.grad(attr_t) - attr_map.T @ gx).max(initial=0) < 1e-12
        assert np.array_equal(inc.degree, dense_incidence(edges, self.V).sum(axis=1))

    def test_adjoint_identity(self, rng):
        # the kernels helix_layer reads: B and B^T are adjoint, A is symmetric
        inc = ad.Incidence(self.EDGES, self.V, self.D)
        x = rng.standard_normal((len(self.EDGES), self.D))
        y = rng.standard_normal((self.V, self.D))
        y2 = rng.standard_normal((self.V, self.D))
        assert abs((inc.into_nodes(x) * y).sum() - (x * inc.endpoints(y)).sum()) < 1e-12
        assert abs((inc.adjacent(y) * y2).sum() - (y * inc.adjacent(y2)).sum()) < 1e-12

    @pytest.mark.parametrize("bad", [[0, 6], [-1, 2]])
    def test_endpoint_outside_nodes_rejected_at_construction(self, bad):
        with pytest.raises(ShapeMismatch, match="endpoint outside 0..5"):
            ad.Incidence(np.vstack([self.EDGES, [bad]]), self.V, self.D)

    def test_wrong_shaped_operand_rejected(self, rng):
        inc = ad.Incidence(self.EDGES, self.V, self.D)
        mlp = [rng.standard_normal(s) for s in ((1, 4), (4, 8), (1, 8), (8, 4), (1, 4))]
        nodes, edges = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
        with pytest.raises(ShapeMismatch, match="helix_layer .graph rule"):
            ad.helix_layer(edges, edges, inc, False, *mlp)  # h has edge rows
        with pytest.raises(ShapeMismatch, match="helix_layer .line rule"):
            ad.helix_layer(edges, edges, inc, True, *mlp)  # attr has edge rows
        with pytest.raises(ShapeMismatch, match="helix_layer"):
            ad.helix_layer(nodes[:, :3], edges[:, :3], ad.Incidence(self.EDGES, self.V, 3),
                           False, *mlp)  # width 3 against width-4 weights


class TestGinMlp:
    """helix_layer's GIN MLP and the tape node that records it."""

    NAMES = ("h", "attr", "self_loop", "w1", "b1", "w2", "b2")
    EDGES = np.array([[0, 1], [0, 2], [2, 3], [0, 3], [4, 5], [3, 5]])
    SHAPES = ((7, 4), (6, 4), (1, 4), (4, 8), (1, 8), (8, 4), (1, 4))

    def inc(self):
        return ad.Incidence(self.EDGES, 7, 4)  # node 6 meets no edge

    @staticmethod
    def generic(h, nbr, self_loop, w1, b1, w2, b2):
        x = ad.add(ad.add(h, nbr), self_loop)
        x = ad.relu(ad.add(ad.matmul(x, w1), b1))
        return ad.relu(ad.add(ad.matmul(x, w2), b2))

    def test_values_and_gradients_equal_the_composition_bitwise(self, rng):
        # helix_layer against the GIN update composed from add, matmul and
        # relu, fed the neighbour sum the Incidence kernels form; the
        # gradients of h and attr are the kernels' adjoints of the gradient
        # the composition sends into that sum
        inc = self.inc()
        for line in (False, True):
            shapes = list(self.SHAPES)
            if line:
                shapes[0], shapes[1] = shapes[1], shapes[0]
            h, attr, self_loop, w1, b1, w2, b2 = (rng.standard_normal(s) for s in shapes)
            if line:  # B^T (B h + (D - I) attr) - 2h
                t = inc.into_nodes(h)
                t += attr * (inc.degree[:, None] - 1.0)
                nbr = inc.endpoints(t) - 2.0 * h
            else:  # A h + B attr
                nbr = inc.adjacent(h, attr)
            pre1 = (h + nbr + self_loop) @ w1 + b1
            pre2 = np.maximum(pre1, 0.0) @ w2 + b2
            for pre in (pre1, pre2):  # units die and live in both halves
                assert (pre < 0).any() and (pre > 0).any()
            weights = rng.standard_normal(pre2.shape)

            tape = Tape()
            ins = [tape.watch(a) for a in (h, attr, self_loop, w1, b1, w2, b2)]
            out = ad.helix_layer(ins[0], ins[1], inc, line, *ins[2:])
            tape.backward(weighted_sum(out, weights))
            grads = [tape.grad(t) for t in ins]

            want_tape = Tape()
            want_ins = [want_tape.watch(a) for a in (h, nbr, self_loop, w1, b1, w2, b2)]
            want = self.generic(*want_ins)
            want_tape.backward(weighted_sum(want, weights))
            want_grads = [want_tape.grad(t) for t in want_ins]

            assert np.array_equal(out.data, want.data)
            for name, got, expected in zip(self.NAMES[2:], grads[2:], want_grads[2:]):
                assert np.array_equal(got, expected), name
            gx = want_grads[1]  # the gradient reaching the neighbour sum
            assert np.array_equal(want_grads[0], gx)  # and the layer input
            if line:
                gt = inc.into_nodes(gx)
                want_h, want_attr = inc.endpoints(gt) - gx, gt * (inc.degree[:, None] - 1.0)
            else:
                want_h, want_attr = gx + inc.adjacent(gx), inc.endpoints(gx)
            assert np.array_equal(grads[0], want_h)
            assert np.array_equal(grads[1], want_attr)

    def test_one_tape_node_whose_backward_leaves_its_gradient_alone(self, rng):
        for line in (False, True):
            shapes = list(self.SHAPES)
            if line:
                shapes[0], shapes[1] = shapes[1], shapes[0]
            arrays = [rng.standard_normal(s) for s in shapes]
            tape = Tape()
            out = ad.helix_layer(tape.watch(arrays[0]), tape.watch(arrays[1]), self.inc(),
                                 line, *(tape.watch(a) for a in arrays[2:]))
            assert len(tape._ops) == 1 and tape._ops[0].out_slot == out.slot
            untaped = ad.helix_layer(arrays[0], arrays[1], self.inc(), line, *arrays[2:])
            assert np.array_equal(out.data, untaped.data)
            g = rng.standard_normal(out.shape)
            kept = g.copy()
            grads = tape._ops[0].backward(g)
            assert np.array_equal(g, kept)
            assert [x.shape for x in grads] == shapes

    @pytest.mark.parametrize("which", range(7), ids=NAMES)
    def test_bad_shape_rejected(self, rng, which):
        arrays = [rng.standard_normal(s) for s in self.SHAPES]
        rows, cols = self.SHAPES[which]
        arrays[which] = rng.standard_normal((rows + 1, cols))
        with pytest.raises(ShapeMismatch, match="helix_layer"):
            ad.helix_layer(arrays[0], arrays[1], self.inc(), False, *arrays[2:])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gradcheck_case_clears_the_relu_kink(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        for line in (False, True):
            _, a = _helix_layer_case(rng, line)
            edges = np.stack([_INCIDENCE.u, _INCIDENCE.v], axis=1)
            adj, attr_map = dense_neighbour_maps(edges, _INCIDENCE.num_nodes, line)
            x = a["h"] + adj @ a["h"] + attr_map @ a["attr"] + a["self_loop"]
            pre1 = x @ a["w1"] + a["b1"]
            pre2 = np.maximum(pre1, 0.0) @ a["w2"] + a["b2"]
            for pre in (pre1, pre2):
                assert np.abs(pre).min() >= 1e-2
                assert (pre < 0).any() and (pre > 0).any()
        assert [r.passed for r in run_gradcheck(seed, components=["helix_layer"])] == [True]
        monkeypatch.setattr(gradcheck, "_analytic_grads", corrupted(gradcheck._analytic_grads))
        assert [r.passed for r in run_gradcheck(seed, components=["helix_layer"])] == [False]

    def test_desk_step_records_one_node_per_layer_and_helix(self):
        # 2 x depth helix_layer nodes: 48 tape nodes per training step and
        # 22 primitive calls per embedding batch, down from 108 and 65 when
        # the neighbour sums took five and six primitives of their own, from
        # 53 when the edge-pair head gathered each endpoint on its own and
        # concatenated them, and from 51 when each loss scaled its kernel's
        # sum by 1/k on a node of its own
        cfg = desk_train_config()
        graphs = [random_molecular_graph(i, (6, 24), 4) for i in range(cfg.batch_size)]
        batch = Batch.build([(g, to_line_graph(g)) for g in graphs])
        params = DualHelixParams.initialize(cfg.encoder, 0)
        tape = Tape()
        compute_step_losses(batch, encode_batch(batch, params.watched(tape), cfg.encoder),
                            cfg.encoder)
        assert len(tape._ops) == 48
        calls = []
        apply = ad._apply

        def counted(*args):
            calls.append(args[0])
            return apply(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(ad, "_apply", counted)
            embed_batch(batch, params.as_constants(), cfg.encoder)
        assert len(calls) == 22 and not any(calls)  # none of them taped


def test_every_primitive_has_a_gradcheck_component_of_its_name():
    # a public autodiff function that records through _apply is a primitive;
    # the gradient suite checks each of them, and nothing else, by name
    primitives = {name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and not name.startswith("_")
                  and fn.__module__ == ad.__name__ and "_apply(" in inspect.getsource(fn)}
    assert set(_primitive_cases(np.random.default_rng(0))) == primitives


def test_gradcheck_reports_the_margin_below_the_floor():
    # add's finite differences are exact up to rounding: every difference
    # sits below the absolute floor, so only max_abs_err shows it
    (result,) = run_gradcheck(0, components=["add"])
    assert result.passed and result.max_rel_err == 0.0
    assert 0.0 < result.max_abs_err < 1e-7


def two_direction_reference(a, b, ids, tau):
    """Plain numpy: the row log-sum-exp terms of s = a @ b.T with the
    other-group mask plus those of s.T, and the gradient of their sum with
    respect to a and b."""
    s = a @ b.T
    mask = ids[:, None] != ids[None, :]
    eye = np.eye(len(s), dtype=bool)
    total, count, grad = 0.0, 0, np.zeros_like(s)
    for m, t, flip in ((mask, s, False), (mask.T, s.T, True)):
        keep = m.any(axis=1)
        logits = np.where(m, t / tau, -np.inf)[keep]
        top = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - top).sum(axis=1)) + top[:, 0]
        total += float((lse - np.diag(t)[keep] / tau).sum())
        count += int(keep.sum())
        g = np.zeros_like(s)
        g[keep] = (np.exp(logits - lse[:, None]) - eye[keep]) / tau
        grad += g.T if flip else g
    return total, count, grad @ b, grad.T @ a


class TestMaskedXent:
    """The masked contrastive cross-entropy kernels: group_xent, which
    masks by group id, and block_xent."""

    def test_matches_two_direction_reference(self, rng):
        # groups of unequal size, rows not normalised: the kernel's rule
        # holds for any a and b
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        ids = np.array([0, 0, 1, 3, 3])
        tape = Tape()
        ta, tb = tape.watch(a), tape.watch(b)
        mean, count = ad.group_xent(ta, tb, ids, 0.5)
        tape.backward(mean)
        want_total, want_count, want_ga, want_gb = two_direction_reference(a, b, ids, 0.5)
        assert count == want_count == 10
        # the kernel returns the mean over its anchors, so its gradients
        # are the reference's over the count
        assert abs(mean.item() - want_total / count) < 1e-12
        assert np.abs(tape.grad(ta) - want_ga / count).max() < 1e-12
        assert np.abs(tape.grad(tb) - want_gb / count).max() < 1e-12

    def test_no_negatives_anywhere_gives_none(self):
        x = ad.constant(np.eye(3))
        assert ad.group_xent(x, x, np.array([2, 2, 2]), 0.5) == (None, 0)

    def test_group_ids_must_be_sorted(self):
        x = ad.constant(np.eye(3))
        with pytest.raises(ShapeMismatch):
            ad.group_xent(x, x, np.array([0, 1, 0]), 0.5)

    @pytest.mark.parametrize("kernel, layout", [
        (ad.group_xent, np.arange(3)),
        (ad.block_xent, np.array([0, 3])),
    ], ids=["group_xent", "block_xent"])
    def test_overflowing_scaled_similarity_raises(self, kernel, layout):
        # s = 16 on the diagonal, so s / tau overflows at tau = 1e-308 while
        # 1 / tau is finite
        x = ad.constant(4.0 * np.eye(3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite, match="similarity"):
                kernel(x, x, layout, 1e-308)

    def test_block_offsets_must_cover_the_rows(self):
        x = ad.constant(np.eye(3))
        with pytest.raises(ShapeMismatch):
            ad.block_xent(x, x, np.array([0, 2]), 0.5)


def flat_adam(arrays, learning_rate=1e-3):
    """An AdamState for `arrays`, their flat buffer and its per-name views."""
    state = AdamState.for_params(arrays, learning_rate=learning_rate)
    flat = state.layout.pack(arrays)
    return flat, state.layout.views(flat), state


def named_step(flat, grads, state):
    """One Adam step on named gradients, gathered as train_step does."""
    adam_step(flat, state.layout.pack(grads, out=state.grad), state)


def per_array_adam(params, grads, state):
    """The per-array Adam update, name by name in sorted order, on dicts of
    parameters and moments: the reference the flat update must equal."""
    state["step"] += 1
    t = state["step"]
    b1, b2, lr, eps = 0.9, 0.999, state["lr"], 1e-8
    for name in sorted(params):
        p, g, m, v = params[name], grads[name], state["m"][name], state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        flat, params, state = flat_adam({"w": np.array([[1.5, -2.0]])}, learning_rate=0.1)
        named_step(flat, {"w": np.zeros((1, 2))}, state)
        assert np.array_equal(params["w"], [[1.5, -2.0]])
        assert state.step == 1

    def test_hand_computed_scalar_step(self):
        # g=1, lr=0.1, defaults: m_hat = v_hat = 1, update = -0.1 / (1 + eps)
        flat, params, state = flat_adam({"w": np.array([[0.0]])}, learning_rate=0.1)
        named_step(flat, {"w": np.array([[1.0]])}, state)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert params["w"][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_two_runs_identical(self, rng):
        grads = [{"w": rng.standard_normal((3, 3))} for _ in range(4)]
        results = []
        for _ in range(2):
            flat, params, state = flat_adam({"w": np.zeros((3, 3))}, learning_rate=0.01)
            for g in grads:
                named_step(flat, g, state)
            results.append(params["w"].copy())
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        flat, _, state = flat_adam({"w": np.zeros((2, 2))})
        with pytest.raises(ShapeMismatch):
            named_step(flat, {"w": np.zeros((1, 2))}, state)

    @pytest.mark.parametrize("which", ["parameters", "gradients"])
    def test_flat_buffer_of_another_size_changes_nothing(self, which):
        flat, _, state = flat_adam({"w": np.zeros((2, 2))})
        grads = np.ones(4)
        args = (flat[:3], grads) if which == "parameters" else (flat, grads[:3])
        with pytest.raises(ShapeMismatch):
            adam_step(*args, state)
        assert not flat.any() and not state.m.any() and not state.v.any()
        assert state.step == 0

    @pytest.mark.parametrize("grads, name", [
        ({"a": np.ones((1, 2)), "b": np.ones((1, 2))}, "b"),
        ({"a": np.ones((1, 2))}, "b"),
        ({"a": np.ones((1, 2)), "b": np.ones((2, 2)), "c": np.ones((1, 1))}, "c"),
    ], ids=["misshaped", "missing", "unknown"])
    def test_failed_step_changes_nothing(self, grads, name):
        flat, params, state = flat_adam({"a": np.zeros((1, 2)), "b": np.zeros((2, 2))})
        named_step(flat, {"a": np.ones((1, 2)), "b": np.full((2, 2), -2.0)}, state)
        before = (flat.copy(), state.m.copy(), state.v.copy(), state.step)
        with pytest.raises(ShapeMismatch, match=f"array {name} "):
            named_step(flat, grads, state)
        assert np.array_equal(flat, before[0])
        assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
        assert state.step == before[3]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [1e200, -1e200, np.nan])
    def test_nan_or_too_large_gradient_changes_nothing(self, bad):
        flat, _, state = flat_adam({"a": np.zeros((1, 2)), "b": np.zeros((2, 2))})
        named_step(flat, {"a": np.ones((1, 2)), "b": np.full((2, 2), -2.0)}, state)
        before = (flat.copy(), state.m.copy(), state.v.copy(), state.step)
        with pytest.raises(NonFinite, match="adam_step: the second moment would overflow"):
            named_step(flat, {"a": np.ones((1, 2)), "b": np.array([[0.5, bad], [1.0, 1.0]])},
                       state)
        assert np.array_equal(flat, before[0])
        assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
        assert state.step == before[3]

    @pytest.mark.filterwarnings("error")
    def test_gradients_at_the_limit_keep_the_second_moment_finite(self):
        flat, _, state = flat_adam({"w": np.zeros((1, 2))})
        for _ in range(3):
            named_step(flat, {"w": np.array([[ad._GRAD_LIMIT, -ad._GRAD_LIMIT]])}, state)
        assert np.isfinite(state.v).all() and state.step == 3
        with pytest.raises(NonFinite):
            named_step(flat, {"w": np.array([[np.nextafter(ad._GRAD_LIMIT, np.inf), 0.0]])},
                       state)

    def test_flat_update_equals_the_per_array_update_bitwise(self, rng):
        shapes = {"w1": (4, 6), "b1": (1, 6), "w2": (6, 3), "b2": (1, 3),
                  "self_loop": (1, 4), "scalar": (1, 1), "table": (5, 4)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        flat, params, state = flat_adam(start, learning_rate=0.01)
        ref = {k: a.copy() for k, a in start.items()}
        ref_state = {"step": 0, "lr": 0.01,
                     "m": {k: np.zeros(s) for k, s in shapes.items()},
                     "v": {k: np.zeros(s) for k, s in shapes.items()}}
        for i in range(6):
            # gradients over several magnitudes, some exactly zero
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3, size=s)
                     * (rng.random(s) > 0.2) for k, s in shapes.items()}
            named_step(flat, grads, state)
            per_array_adam(ref, grads, ref_state)
            m, v = state.layout.views(state.m), state.layout.views(state.v)
            for k in shapes:
                assert np.array_equal(params[k], ref[k]), (i, k)
                assert np.array_equal(m[k], ref_state["m"][k]), (i, k)
                assert np.array_equal(v[k], ref_state["v"][k]), (i, k)
        assert state.step == ref_state["step"] == 6

    def test_views_and_moments_share_the_flat_buffers(self):
        flat, params, state = flat_adam({"b": np.zeros((2, 2)), "a": np.zeros((1, 3))})
        assert state.layout.names == ["a", "b"]
        m, v = state.layout.views(state.m), state.layout.views(state.v)
        for name in ("a", "b"):
            assert np.shares_memory(params[name], flat)
            assert np.shares_memory(m[name], state.m) and np.shares_memory(v[name], state.v)
        named_step(flat, {"a": np.ones((1, 3)), "b": np.ones((2, 2))}, state)
        assert np.array_equal(np.concatenate([params["a"].ravel(), params["b"].ravel()]), flat)
        assert (params["a"] != 0).all() and (m["b"] != 0).all()


class TestBroadcastRules:
    def test_add_row_broadcast(self):
        out = ad.add(ad.constant(np.zeros((2, 3))), ad.constant([[1.0, 2.0, 3.0]]))
        assert np.array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_add_col_operand_rejected(self):
        with pytest.raises(ShapeMismatch, match=r"add: \(2, 3\) vs \(2, 1\)"):
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.array([[1.0], [2.0]])))

    @pytest.mark.parametrize("c", [2.0, [[2.0]], [[1.0, 2.0, 3.0]], [[1.0], [2.0]],
                                   [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]],
                             ids=["float", "1 x 1", "row", "column", "full"])
    def test_scale_broadcasts_its_constant(self, rng, c):
        x = rng.standard_normal((2, 3))
        tape = Tape()
        xt = tape.watch(x)
        out = ad.scale(xt, np.asarray(c) if isinstance(c, list) else c)
        assert np.array_equal(out.data, x * np.asarray(c))
        g = rng.standard_normal((2, 3))
        (got,) = tape._ops[0].backward(g)
        assert np.array_equal(got, g * np.asarray(c))

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 3), (1, 2), (3, 1), (1, 1, 1)])
    def test_scale_constant_must_broadcast(self, shape):
        with pytest.raises(ShapeMismatch, match=r"scale: \(2, 3\) vs"):
            ad.scale(ad.constant(np.zeros((2, 3))), np.ones(shape))

    def test_row_needs_full_left_operand(self):
        with pytest.raises(ShapeMismatch):
            ad.add(ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((2, 3))))
