import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from linecontrast import autodiff as ad
from linecontrast.autodiff import Tape, constant, group_xent
from linecontrast.encoder import EncoderConfig
from linecontrast.losses import (
    BatchTooSmall,
    LossReport,
    NonFinite,
    combine,
    inter_local,
    intra_local,
    local_losses,
    nt_xent,
)

TAU = 0.1


def loss_value(fn, *args, **kwargs):
    out, count = fn(*args, **kwargs)
    return out.item(), count


class TestNtXent:
    def test_matched_pairs_with_orthogonal_negatives(self):
        # positives similarity 1, the single negative similarity 0:
        # every anchor term is -log(e^10 / e^0) = -10
        z = constant(np.eye(2))
        value, count = loss_value(nt_xent, z, constant(np.eye(2)), TAU)
        assert count == 4
        assert value == pytest.approx(-10.0, abs=1e-9)

    def test_identical_embeddings_give_log_n_minus_1(self):
        for n in (2, 3, 5):
            z = constant(np.tile([[1.0, 2.0]], (n, 1)))
            value, _ = loss_value(nt_xent, z, z, TAU)
            assert value == pytest.approx(math.log(n - 1), abs=1e-9)

    def test_scale_invariance(self, rng):
        z1 = rng.standard_normal((4, 6))
        z2 = rng.standard_normal((4, 6))
        base, _ = loss_value(nt_xent, constant(z1), constant(z2), TAU)
        scaled, _ = loss_value(nt_xent, constant(5.0 * z1), constant(5.0 * z2), TAU)
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_batch_too_small(self):
        z = constant([[1.0, 0.0]])
        with pytest.raises(BatchTooSmall):
            nt_xent(z, z, TAU)

    def test_positive_never_in_denominator(self):
        # each denominator holds the one negative, e^0: term = -log(e^10 / 1).
        # A positive in the denominator would add e^10 to it and give
        # log1p(e^-10) instead
        z = constant(np.eye(2))
        value, _ = loss_value(nt_xent, z, z, TAU)
        assert value == pytest.approx(-10.0, abs=1e-9)

    def test_nan_similarity_raises(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(NonFinite):
            nt_xent(constant(bad), constant(np.ones((2, 2))), TAU)

    def test_directions_are_averaged(self, rng):
        # an asymmetric construction: swapping the views must not change
        # the loss because both directions are always included
        z1 = rng.standard_normal((3, 4))
        z2 = rng.standard_normal((3, 4))
        a, _ = loss_value(nt_xent, constant(z1), constant(z2), TAU)
        b, _ = loss_value(nt_xent, constant(z2), constant(z1), TAU)
        assert a == pytest.approx(b, abs=1e-12)


class TestIntraLocal:
    def test_two_orthonormal_edges(self):
        h = constant(np.eye(2))
        value, count = loss_value(intra_local, h, constant(np.eye(2)),
                                  np.array([0, 2]), TAU)
        assert count == 2
        assert value == pytest.approx(-10.0, abs=1e-9)

    def test_single_edge_graph_skipped(self):
        h = constant([[1.0, 0.0]])
        out, count = intra_local(h, h, np.array([0, 1]), TAU)
        assert out is None
        assert count == 0

    def test_single_edge_graphs_inside_batch_are_skipped(self):
        h = constant(np.eye(3))
        out, count = intra_local(h, h, np.array([0, 1, 3]), TAU)
        # only the two edges of the second graph contribute
        assert count == 2

    def test_nan_edge_representation_raises(self):
        e = np.eye(3)
        e[1, 0] = np.nan
        with pytest.raises(NonFinite, match="similarity"):
            intra_local(constant(e), constant(np.eye(3)), np.array([0, 1, 3]), TAU)

    def test_identical_duplicate_edges_give_zero(self):
        h = constant(np.tile([[2.0, 1.0]], (2, 1)))
        value, _ = loss_value(intra_local, h, h, np.array([0, 2]), TAU)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_negatives_stay_within_each_graph(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((5, 4))
        l = rng.standard_normal((5, 4))
        offsets = np.array([0, 3, 5])
        joint, count = loss_value(intra_local, constant(e), constant(l), offsets, TAU)
        # per-graph evaluation must agree with the batched one
        a, ka = loss_value(intra_local, constant(e[:3]), constant(l[:3]),
                           np.array([0, 3]), TAU)
        b, kb = loss_value(intra_local, constant(e[3:]), constant(l[3:]),
                           np.array([0, 2]), TAU)
        assert count == ka + kb == 5
        assert joint == pytest.approx((a * ka + b * kb) / (ka + kb), abs=1e-12)


class TestInterLocal:
    def test_orthogonal_across_graphs(self):
        # graph 1 has 2 edges, graph 2 has 3; positives aligned, all
        # cross-graph pairs orthogonal: term_i = -10 + log(k_i)
        h = constant(np.eye(5))
        value, count = loss_value(inter_local, h, h, np.array([0, 2, 5]), TAU)
        assert count == 10
        expected = (4 * (-10 + math.log(3)) + 6 * (-10 + math.log(2))) / 10
        assert value == pytest.approx(expected, abs=1e-9)

    def test_identical_embeddings_give_log_negative_count(self):
        h = constant(np.tile([[1.0, 1.0]], (4, 1)))
        value, _ = loss_value(inter_local, h, h, np.array([0, 2, 4]), TAU)
        assert value == pytest.approx(math.log(2), abs=1e-9)

    def test_needs_two_graphs(self):
        h = constant(np.eye(3))
        with pytest.raises(BatchTooSmall):
            inter_local(h, h, np.array([0, 3]), TAU)

    def test_needs_edges_in_two_graphs(self):
        h = constant(np.eye(3))
        with pytest.raises(BatchTooSmall, match="got 1"):
            inter_local(h, h, np.array([0, 3, 3]), TAU)

    def test_nan_edge_representation_raises(self):
        e = np.eye(3)
        e[1, 0] = np.nan
        with pytest.raises(NonFinite, match="similarity"):
            inter_local(constant(e), constant(np.eye(3)), np.array([0, 1, 3]), TAU)

    def test_single_edge_graphs_still_participate(self):
        h = constant(np.eye(2))
        value, count = loss_value(inter_local, h, h, np.array([0, 1, 2]), TAU)
        assert count == 4
        assert value == pytest.approx(-10.0, abs=1e-9)


class TestCombine:
    def test_zero_weights_reduce_to_graph_loss(self):
        cfg = EncoderConfig(alpha=0.0, beta=0.0)
        report = combine(1.25, 99.0, 47.0, cfg)
        assert report.l_total == pytest.approx(1.25, abs=1e-15)

    def test_unit_weights_sum_components(self):
        report = combine(1.0, 2.0, 3.0, EncoderConfig(alpha=1.0, beta=1.0))
        assert report.l_total == pytest.approx(6.0, abs=1e-15)

    def test_sweep_grid_weights(self):
        cfg = EncoderConfig(alpha=0.01, beta=100.0)
        report = combine(0.5, 0.25, 4.0, cfg)
        assert report.l_total == pytest.approx(0.5 + 0.01 * 4.0 + 100.0 * 0.25, abs=1e-12)

    def test_total_identity_holds(self):
        cfg = EncoderConfig(alpha=0.7, beta=1.3)
        report = combine(-0.4, 1.9, 0.3, cfg, counts=(4, 7, 14))
        assert abs(report.l_total - (report.l_graph + cfg.alpha * report.l_inter
                                     + cfg.beta * report.l_intra)) < 1e-12
        assert (report.graph_anchors, report.intra_anchors, report.inter_anchors) == (4, 7, 14)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            combine(float("nan"), 0.0, 0.0, EncoderConfig())

    def test_overflowing_weighted_total_rejected(self):
        # finite losses and finite weights whose weighted sum overflows
        with pytest.raises(NonFinite, match="l_total"):
            combine(0.0, 0.0, 2.0, EncoderConfig(alpha=1e308))
        with pytest.raises(NonFinite, match="l_total"):
            combine(0.0, -2.0, 0.0, EncoderConfig(beta=1e308))


class TestAnchorPermutationInvariance:
    def test_shuffling_graph_order_preserves_all_losses(self, rng):
        sizes = [3, 2, 4]
        blocks_e = [rng.standard_normal((s, 6)) for s in sizes]
        blocks_l = [rng.standard_normal((s, 6)) for s in sizes]
        z1 = rng.standard_normal((3, 6))
        z2 = rng.standard_normal((3, 6))

        def offsets_of(order):
            return np.concatenate([[0], np.cumsum([sizes[i] for i in order])])

        base_order = [0, 1, 2]
        shuffled = [2, 0, 1]
        values = {}
        for tag, order in (("base", base_order), ("shuffled", shuffled)):
            e = constant(np.concatenate([blocks_e[i] for i in order]))
            l = constant(np.concatenate([blocks_l[i] for i in order]))
            off = offsets_of(order)
            values[tag] = (
                loss_value(nt_xent, constant(z1[order]), constant(z2[order]), TAU)[0],
                loss_value(intra_local, e, l, off, TAU)[0],
                loss_value(inter_local, e, l, off, TAU)[0],
            )
        for a, b in zip(values["base"], values["shuffled"]):
            assert a == pytest.approx(b, abs=1e-10)


def _dense_oracle(a, b, neg_mask, tau, both_directions):
    """Plain-numpy reference: the full similarity matrix, a boolean mask and
    a row log-sum-exp. Returns (loss, anchors, grad wrt a, grad wrt b), with
    loss None when no anchor has a negative."""
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    an, bn = a / na, b / nb
    sims = an @ bn.T
    eye = np.eye(len(sims), dtype=bool)
    directions = [sims, sims.T] if both_directions else [sims]
    total, count, grads = 0.0, 0, []
    for s in directions:
        keep = neg_mask.any(axis=1)
        logits = np.where(neg_mask, s / tau, -np.inf)[keep]
        top = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - top).sum(axis=1)) + top[:, 0]
        total += float((lse - np.diag(s)[keep] / tau).sum())
        count += int(keep.sum())
        g = np.zeros_like(s)
        g[keep] = (np.exp(logits - lse[:, None]) - eye[keep]) / tau
        grads.append(g)
    if count == 0:
        return None, 0, None, None
    g_sims = grads[0] + (grads[1].T if both_directions else 0.0)
    g_sims /= count
    g_an, g_bn = g_sims @ bn, g_sims.T @ an
    g_a = (g_an - an * (g_an * an).sum(axis=1, keepdims=True)) / na
    g_b = (g_bn - bn * (g_bn * bn).sum(axis=1, keepdims=True)) / nb
    return total / count, count, g_a, g_b


class TestDenseOracle:
    """The fused kernels against a dense E x E evaluation of every loss."""

    @staticmethod
    def _random_offsets(rng, max_size=6):
        sizes = rng.integers(1, max_size + 1, size=rng.integers(2, 7))
        return np.concatenate([[0], np.cumsum(sizes)])

    @staticmethod
    def _tape_loss(fn, a, b, *args):
        tape = Tape()
        ta, tb = tape.watch(a), tape.watch(b)
        loss, count = fn(ta, tb, *args)
        if loss is None:
            return None, count, None, None
        tape.backward(loss)
        return loss.item(), count, tape.grad(ta), tape.grad(tb)

    def _assert_matches(self, got, want):
        assert got[1] == want[1]
        if want[0] is None:
            assert got[0] is None
            return
        assert abs(got[0] - want[0]) < 1e-12
        assert np.abs(got[2] - want[2]).max() < 1e-12
        assert np.abs(got[3] - want[3]).max() < 1e-12

    def test_local_losses_on_random_offsets(self, rng):
        for _ in range(10):
            offsets = self._random_offsets(rng)
            e = rng.standard_normal((offsets[-1], 5))
            l = rng.standard_normal((offsets[-1], 5))
            ids = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
            same = ids[:, None] == ids[None, :]
            self._assert_matches(
                self._tape_loss(intra_local, e, l, offsets, TAU),
                _dense_oracle(e, l, same & ~np.eye(len(ids), dtype=bool), TAU,
                              both_directions=False))
            self._assert_matches(
                self._tape_loss(inter_local, e, l, offsets, TAU),
                _dense_oracle(e, l, ~same, TAU, both_directions=True))

    def test_graph_loss_on_random_batches(self, rng):
        for n in (2, 3, 7):
            z1 = rng.standard_normal((n, 4))
            z2 = rng.standard_normal((n, 4))
            self._assert_matches(
                self._tape_loss(nt_xent, z1, z2, TAU),
                _dense_oracle(z1, z2, ~np.eye(n, dtype=bool), TAU, both_directions=True))

    def test_skewed_blocks_match_the_oracle_in_bounded_memory(self, rng):
        # one 300-edge graph among 127 two-edge graphs: padding every block
        # to the largest would hold 128 x 300 x 300 similarities (92 MB)
        sizes = [2] * 60 + [300] + [2] * 67
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        e = rng.standard_normal((offsets[-1], 32))
        l = rng.standard_normal((offsets[-1], 32))
        ids = np.repeat(np.arange(len(sizes)), sizes)
        want = _dense_oracle(e, l, (ids[:, None] == ids[None, :]) & ~np.eye(len(ids), dtype=bool),
                             TAU, both_directions=False)
        tracemalloc.start()
        try:
            got = self._tape_loss(intra_local, e, l, offsets, TAU)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self._assert_matches(got, want)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_all_single_edge_batch_has_no_within_graph_anchor(self, rng):
        e = rng.standard_normal((4, 3))
        l = rng.standard_normal((4, 3))
        assert intra_local(constant(e), constant(l), np.arange(5), TAU) == (None, 0)


class TestFusedLocalLosses:
    """local_losses: both local losses from one group_xent call, against
    the dense oracle's alpha * inter + beta * intra in every tiling."""

    @pytest.mark.parametrize("tau", [0.1, 1e-3])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.3, 2.0)])
    def test_matches_the_dense_oracle_in_every_tiling(self, rng, monkeypatch, alpha, beta, tau):
        for _ in range(4):
            # ragged graphs, one of them or more a single edge
            sizes = rng.integers(1, 6, size=rng.integers(3, 7))
            sizes[rng.integers(sizes.size)] = 1
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            n = int(offsets[-1])
            e = rng.standard_normal((n, 5))
            l = rng.standard_normal((n, 5))
            ids = np.repeat(np.arange(sizes.size), sizes)
            same = ids[:, None] == ids[None, :]
            inter = _dense_oracle(e, l, ~same, tau, both_directions=True)
            intra = _dense_oracle(e, l, same & ~np.eye(n, dtype=bool), tau, both_directions=False)
            terms = [(w, t) for w, t in ((alpha, inter), (beta, intra))
                     if w > 0 and t[0] is not None]
            want = (sum(w * t[0] for w, t in terms), sum(w * t[2] for w, t in terms),
                    sum(w * t[3] for w, t in terms))
            for rows in (1, 3, n):
                monkeypatch.setattr(ad, "TILE_ENTRIES", rows * n)
                tape = Tape()
                te, tl = tape.watch(e), tape.watch(l)
                loss, (l_inter, k_inter), (l_intra, k_intra) = local_losses(
                    te, tl, offsets, tau, alpha, beta)
                tape.backward(loss)
                assert (k_inter, k_intra) == (inter[1] if alpha else 0, intra[1] if beta else 0)
                assert abs(l_inter - (inter[0] if alpha else 0.0)) < 1e-12
                assert abs(l_intra - (intra[0] if beta else 0.0)) < 1e-12
                assert abs(loss.item() - want[0]) < 1e-12
                assert np.abs(tape.grad(te) - want[1]).max() < 1e-12
                assert np.abs(tape.grad(tl) - want[2]).max() < 1e-12

    def test_one_graph_without_the_cross_term_gives_exactly_minus_10(self):
        # the c06 construction: one graph of two orthonormal edges, every
        # within term -s_ii / tau + log e^0 = -10
        h = constant(np.eye(2))
        loss, inter, intra = local_losses(h, h, np.array([0, 2]), TAU, 0.0, 1.0)
        assert loss.item() == -10.0
        assert inter == (0.0, 0) and intra == (-10.0, 2)

    def test_edges_in_one_graph_need_no_cross_term(self, rng):
        e = constant(rng.standard_normal((3, 4)))
        l = constant(rng.standard_normal((3, 4)))
        offsets = np.array([0, 0, 3, 3])  # only the second graph has edges
        loss, inter, (_, k) = local_losses(e, l, offsets, TAU, 0.0, 1.0)
        assert inter == (0.0, 0) and k == 3
        assert loss.item() == loss_value(intra_local, e, l, offsets, TAU)[0]
        with pytest.raises(BatchTooSmall, match="got 1"):
            local_losses(e, l, offsets, TAU, 1.0, 1.0)

    def test_zero_weights_skip_the_kernel(self, rng):
        e = constant(rng.standard_normal((3, 4)))
        assert local_losses(e, e, np.array([0, 3]), TAU, 0.0, 0.0) == (None, (0.0, 0), (0.0, 0))


class TestMonotoneContrast:
    def test_raising_positive_similarity_lowers_the_term(self, rng):
        # a_0 = e_0 and b_0 turns from e_1 towards e_0, so the sweep moves
        # s_00 alone: the other rows of a avoid e_0 and e_1. The other rows
        # of b do not, so the row and the column that read the swept
        # positive see different denominators
        a = np.zeros((3, 5))
        a[0, 0] = 1.0
        a[1:, 2:] = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 5))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        previous = None
        for pos in (-0.5, 0.0, 0.4, 0.9, 1.0):
            b[0] = [pos, math.sqrt(1.0 - pos * pos), 0.0, 0.0, 0.0]
            total, (_, count), _ = group_xent(constant(a), constant(b), np.arange(3), TAU)
            assert count == 6  # three row and three column anchors
            if previous is not None:
                assert total.item() < previous
            previous = total.item()


class TestGroupXentTiles:
    """The tiled kernel in 1-row tiles, 3-row tiles and one tile."""

    # a first group of four rows: the first tile masks all of its columns,
    # so their online column max starts at -inf
    OFFSETS = np.array([0, 4, 5, 8, 15, 17, 23])

    @staticmethod
    def _in_tiles(monkeypatch, rows, fn, *args):
        monkeypatch.setattr(ad, "TILE_ENTRIES", rows * len(args[0]))
        return TestDenseOracle._tape_loss(fn, *args)

    @staticmethod
    def _assert_close(got, want, tau):
        assert got[1] == want[1]
        assert abs(got[0] - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
        assert np.abs(got[2] - want[2]).max() < 1e-12 / tau
        assert np.abs(got[3] - want[3]).max() < 1e-12 / tau

    # unit rows bound the logits' span by 2 / tau: 2 / 699 and 2 / 701 sit
    # either side of the shared shift's limit, where its exps reach e^(+-350)
    @pytest.mark.parametrize("tau", [
        0.1,
        pytest.param(2 / 699, id="span-699"),
        pytest.param(2 / 701, id="span-701"),
        1e-3,
    ])
    def test_tilings_agree_with_each_other_and_the_oracle(self, rng, monkeypatch, tau):
        e = rng.standard_normal((self.OFFSETS[-1], 5))
        l = rng.standard_normal((self.OFFSETS[-1], 5))
        ids = np.repeat(np.arange(len(self.OFFSETS) - 1), np.diff(self.OFFSETS))
        z1 = rng.standard_normal((12, 4))
        z2 = rng.standard_normal((12, 4))
        for fn, args, neg in (
            (inter_local, (e, l, self.OFFSETS, tau), ids[:, None] != ids[None, :]),
            (nt_xent, (z1, z2, tau), ~np.eye(12, dtype=bool)),
        ):
            want = _dense_oracle(args[0], args[1], neg, tau, both_directions=True)
            whole = self._in_tiles(monkeypatch, len(args[0]), fn, *args)
            self._assert_close(whole, want, tau)
            for rows in (1, 3):
                self._assert_close(self._in_tiles(monkeypatch, rows, fn, *args), whole, tau)

    def test_unit_rows_at_tau_0_1_take_two_exps_per_similarity(self, rng, monkeypatch):
        # the shared shift exps every similarity in pass 1 and every tile
        # but the last once more in pass 2; the exact per-row and per-column
        # shifts would take three exps per similarity
        n = int(self.OFFSETS[-1])
        ids = np.repeat(np.arange(len(self.OFFSETS) - 1), np.diff(self.OFFSETS))
        a, b = rng.standard_normal((2, n, 5))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        exp, entries = np.exp, []

        def counted_exp(x, *args, **kwargs):
            entries.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(ad, "TILE_ENTRIES", 3 * n)
        monkeypatch.setattr(ad.np, "exp", counted_exp)
        group_xent(constant(a), constant(b), ids, TAU)
        last_tile = n - 3 * ((n - 1) // 3)
        assert sum(entries) == 2 * n * n - last_tile * n

    def test_inter_local_never_holds_an_e_by_e_array(self, rng):
        offsets = np.arange(0, 2001, 20)  # 100 graphs of 20 edges
        tape = Tape()
        e = tape.watch(rng.standard_normal((2000, 32)))
        l = tape.watch(rng.standard_normal((2000, 32)))
        tracemalloc.start()
        try:
            loss, _ = inter_local(e, l, offsets, TAU)
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(tape.grad(e)).sum() > 0
        assert peak < 2000 * 2000 * 8, f"peak {peak / 2**20:.1f} MB"


class TestSmallTemperature:
    def test_inter_local_matches_dense_oracle_at_tau_1e_3(self, rng):
        # a single max shift over the whole matrix would underflow here
        tau = 1e-3
        offsets = np.array([0, 3, 4, 8, 10])
        e = rng.standard_normal((10, 5))
        l = rng.standard_normal((10, 5))
        ids = np.repeat(np.arange(4), np.diff(offsets))
        got = TestDenseOracle._tape_loss(inter_local, e, l, offsets, tau)
        want = _dense_oracle(e, l, ids[:, None] != ids[None, :], tau, both_directions=True)
        assert np.isfinite(got[0]) and got[1] == want[1]
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
        assert np.abs(got[2] - want[2]).max() < 1e-12 / tau
        assert np.abs(got[3] - want[3]).max() < 1e-12 / tau


class TestGradients:
    def test_losses_match_finite_differences(self):
        from linecontrast.gradcheck import run_gradcheck
        results = run_gradcheck(seed=3, components=["nt_xent", "intra_local", "inter_local"])
        assert all(r.passed for r in results), [(r.name, r.max_rel_err) for r in results]

    def test_loss_is_differentiable_end_to_end(self, rng):
        tape = Tape()
        z1 = tape.watch(rng.standard_normal((3, 5)))
        z2 = tape.watch(rng.standard_normal((3, 5)))
        loss, _ = nt_xent(z1, z2, TAU)
        tape.backward(loss)
        assert np.abs(tape.grad(z1)).sum() > 0
        assert np.abs(tape.grad(z2)).sum() > 0


class TestLossConfig:
    def test_rejects_bad_values(self):
        # the loss settings combine reads live on EncoderConfig: tau
        # positive, alpha and beta non-negative, all finite, and 1 / tau
        # finite too
        with pytest.raises(ValueError):
            EncoderConfig(tau=0.0)
        with pytest.raises(ValueError):
            EncoderConfig(alpha=-1.0)
        for name in ("tau", "alpha", "beta"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be .* finite, got {value}$"):
                    EncoderConfig(**{name: value})
        with pytest.raises(ValueError, match="^tau must be .* finite, got 1e-310$"):
            EncoderConfig(tau=1e-310)


class TestLossReport:
    def test_report_serializes(self):
        # a metrics.jsonl row is the report's asdict: plain JSON numbers
        # that read back into an equal report
        report = combine(np.float64(1.0), np.float64(2.0), np.float64(3.0), EncoderConfig(),
                         counts=(4, 5, 6))
        d = json.loads(json.dumps(asdict(report)))
        assert d["l_total"] == 6.0 and d["inter_anchors"] == 6
        assert LossReport(**d) == report
