import numpy as np
import pytest

from linecontrast import autodiff as ad
from linecontrast.autodiff import (
    AdamState,
    DetachedTensor,
    NotScalar,
    ShapeMismatch,
    Tape,
    Tensor,
    ZeroNormRow,
    adam_step,
)
from linecontrast.gradcheck import _gin_mlp_case, run_gradcheck


def scalar_loss_sum_of_squares(tape, values):
    x = tape.watch(values)
    sq = ad.mul(x, x)
    return x, ad.matmul(ad.matmul(ad.constant(np.ones((1, sq.shape[0]))), sq),
                        ad.constant(np.ones((sq.shape[1], 1))))


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
        x, loss = scalar_loss_sum_of_squares(tape, np.array([[3.0]]))
        tape.backward(loss)
        assert tape.grad(x)[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_unreached_parameter_gets_zero(self):
        tape = Tape()
        used = tape.watch(np.array([[2.0]]))
        unused = tape.watch(np.array([[5.0]]))
        loss = ad.mul(used, used)
        tape.backward(loss)
        assert np.array_equal(tape.grad(unused), np.zeros((1, 1)))

    def test_reused_operand_accumulates(self):
        tape = Tape()
        x = tape.watch(np.array([[2.0]]))
        loss = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x
        tape.backward(loss)
        assert tape.grad(x)[0, 0] == pytest.approx(7.0, abs=1e-12)

    def test_not_scalar_rejected(self):
        tape = Tape()
        x = tape.watch(np.ones((2, 2)))
        with pytest.raises(NotScalar):
            tape.backward(ad.mul(x, x))

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
                                   ad.mul(ad.gather_rows(x, idx), ad.constant(w))),
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


class TestIncidenceSums:
    """incident_sum (B x) and endpoint_sum (B^T y) against a dense B."""

    # node 0 meets three edges, node 5 none; edges (1, 2) and (2, 4) share node 2
    EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [2, 4]])
    V, D = 6, 4

    def dense(self, edges=EDGES):
        b = np.zeros((self.V, len(edges)))
        for k, (u, v) in enumerate(edges):
            b[u, k] = b[v, k] = 1.0
        return b

    def grad_of(self, fn, value, inc, w):
        tape = Tape()
        x = tape.watch(value)
        out = fn(x, inc)
        loss = ad.matmul(ad.matmul(ad.constant(np.ones((1, out.shape[0]))),
                                   ad.mul(out, ad.constant(w))),
                         ad.constant(np.ones((out.shape[1], 1))))
        tape.backward(loss)
        return out.data, tape.grad(x)

    @pytest.mark.parametrize("edges", [EDGES, EDGES[:0]], ids=["graph", "no edges"])
    def test_values_and_gradients_match_dense_incidence(self, rng, edges):
        inc = ad.Incidence(edges, self.V, self.D)
        b = self.dense(edges)
        x = rng.standard_normal((len(edges), self.D))
        w_nodes = rng.standard_normal((self.V, self.D))
        out, grad = self.grad_of(ad.incident_sum, x, inc, w_nodes)
        assert out.dtype == np.float64 and out.shape == (self.V, self.D)
        assert np.abs(out - b @ x).max(initial=0) < 1e-12
        assert np.abs(grad - b.T @ w_nodes).max(initial=0) < 1e-12
        y = rng.standard_normal((self.V, self.D))
        w_edges = rng.standard_normal((len(edges), self.D))
        out, grad = self.grad_of(ad.endpoint_sum, y, inc, w_edges)
        assert out.shape == (len(edges), self.D)
        assert np.abs(out - b.T @ y).max(initial=0) < 1e-12
        assert np.abs(grad - b @ w_edges).max(initial=0) < 1e-12
        assert np.array_equal(inc.degree, b.sum(axis=1))

    def test_adjoint_identity(self, rng):
        inc = ad.Incidence(self.EDGES, self.V, self.D)
        x = rng.standard_normal((len(self.EDGES), self.D))
        y = rng.standard_normal((self.V, self.D))
        left = (ad.incident_sum(ad.constant(x), inc).data * y).sum()
        right = (x * ad.endpoint_sum(ad.constant(y), inc).data).sum()
        assert abs(left - right) < 1e-12

    @pytest.mark.parametrize("bad", [[0, 6], [-1, 2]])
    def test_endpoint_outside_nodes_rejected_at_construction(self, bad):
        with pytest.raises(ShapeMismatch, match="endpoint outside 0..5"):
            ad.Incidence(np.vstack([self.EDGES, [bad]]), self.V, self.D)

    def test_wrong_shaped_operand_rejected(self, rng):
        inc = ad.Incidence(self.EDGES, self.V, self.D)
        with pytest.raises(ShapeMismatch, match="incident_sum"):
            ad.incident_sum(ad.constant(rng.standard_normal((5, 3))), inc)  # width
        with pytest.raises(ShapeMismatch, match="incident_sum"):
            ad.incident_sum(ad.constant(rng.standard_normal((6, 4))), inc)  # rows
        with pytest.raises(ShapeMismatch, match="endpoint_sum"):
            ad.endpoint_sum(ad.constant(rng.standard_normal((5, 4))), inc)


class TestGinMlp:
    """gin_mlp against the same update composed from add, matmul and relu."""

    NAMES = ("h", "neighbours", "self_loop", "w1", "b1", "w2", "b2")
    SHAPES = ((7, 4), (7, 4), (1, 4), (4, 8), (1, 8), (8, 4), (1, 4))

    @staticmethod
    def generic(h, neighbours, self_loop, w1, b1, w2, b2):
        x = ad.add(ad.add(h, neighbours), self_loop)
        x = ad.relu(ad.add(ad.matmul(x, w1), b1))
        return ad.relu(ad.add(ad.matmul(x, w2), b2))

    def run(self, fn, arrays, weights):
        tape = Tape()
        ins = [tape.watch(a) for a in arrays]
        out = fn(*ins)
        loss = ad.matmul(ad.matmul(ad.constant(np.ones((1, out.shape[0]))),
                                   ad.mul(out, ad.constant(weights))),
                         ad.constant(np.ones((out.shape[1], 1))))
        tape.backward(loss)
        return out.data, [tape.grad(t) for t in ins]

    def test_values_and_gradients_equal_the_composition_bitwise(self, rng):
        arrays = [rng.standard_normal(s) for s in self.SHAPES]
        h, neighbours, self_loop, w1, b1, w2, b2 = arrays
        pre1 = (h + neighbours + self_loop) @ w1 + b1
        pre2 = np.maximum(pre1, 0.0) @ w2 + b2
        for pre in (pre1, pre2):  # units die and live in both halves
            assert (pre < 0).any() and (pre > 0).any()
        weights = rng.standard_normal((7, 4))
        out, grads = self.run(ad.gin_mlp, arrays, weights)
        want_out, want_grads = self.run(self.generic, arrays, weights)
        assert np.array_equal(out, want_out)
        for name, got, want in zip(self.NAMES, grads, want_grads):
            assert np.array_equal(got, want), name

    def test_one_tape_node_whose_backward_leaves_its_gradient_alone(self, rng):
        tape = Tape()
        out = ad.gin_mlp(*(tape.watch(rng.standard_normal(s)) for s in self.SHAPES))
        assert len(tape._ops) == 1 and tape._ops[0].out_slot == out.slot
        g = rng.standard_normal(out.shape)
        kept = g.copy()
        grads = tape._ops[0].backward(g)
        assert np.array_equal(g, kept)
        assert [x.shape for x in grads] == list(self.SHAPES)

    @pytest.mark.parametrize("which", range(7), ids=NAMES)
    def test_bad_shape_rejected(self, rng, which):
        arrays = [rng.standard_normal(s) for s in self.SHAPES]
        rows, cols = self.SHAPES[which]
        arrays[which] = rng.standard_normal((rows + 1, cols))
        with pytest.raises(ShapeMismatch, match="gin_mlp"):
            ad.gin_mlp(*arrays)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gradcheck_case_clears_the_relu_kink(self, seed):
        _, arrays = _gin_mlp_case(np.random.default_rng(seed))
        x = arrays["h"] + arrays["neighbours"] + arrays["self_loop"]
        pre1 = x @ arrays["w1"] + arrays["b1"]
        pre2 = np.maximum(pre1, 0.0) @ arrays["w2"] + arrays["b2"]
        for pre in (pre1, pre2):
            assert np.abs(pre).min() >= 1e-2
            assert (pre < 0).any() and (pre > 0).any()
        assert [r.passed for r in run_gradcheck(seed, components=["gin_mlp"])] == [True]
        assert [r.passed for r in run_gradcheck(seed, components=["gin_mlp"],
                                                inject_bug="gin_mlp")] == [False]


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
        total, count = ad.group_xent(ta, tb, ids, 0.5)
        tape.backward(total)
        want_total, want_count, want_ga, want_gb = two_direction_reference(a, b, ids, 0.5)
        assert count == want_count == 10
        assert abs(total.item() - want_total) < 1e-12
        assert np.abs(tape.grad(ta) - want_ga).max() < 1e-12
        assert np.abs(tape.grad(tb) - want_gb).max() < 1e-12

    def test_no_negatives_anywhere_gives_none(self):
        x = ad.constant(np.eye(3))
        assert ad.group_xent(x, x, np.array([2, 2, 2]), 0.5) == (None, 0)

    def test_group_ids_must_be_sorted(self):
        x = ad.constant(np.eye(3))
        with pytest.raises(ShapeMismatch):
            ad.group_xent(x, x, np.array([0, 1, 0]), 0.5)

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

    def test_add_col_broadcast_gradient_sums(self):
        tape = Tape()
        col = tape.watch(np.array([[1.0], [2.0]]))
        big = ad.add(ad.constant(np.zeros((2, 3))), col)
        loss = ad.matmul(ad.matmul(ad.constant(np.ones((1, 2))), big),
                         ad.constant(np.ones((3, 1))))
        tape.backward(loss)
        assert np.array_equal(tape.grad(col), [[3.0], [3.0]])

    def test_row_needs_full_left_operand(self):
        with pytest.raises(ShapeMismatch):
            ad.add(ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((2, 3))))
