import importlib
import json
import logging
import struct
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from linecontrast import autodiff, encoder, losses, pipeline
from linecontrast.autodiff import AdamState
from linecontrast.checkpoint import ConfigMismatch, load_checkpoint, save_checkpoint
from linecontrast.encoder import DualHelixParams, EncoderConfig, ViewMismatch, encode_batch
from linecontrast.graphs import InvariantViolation, LineGraphView, make_graph, permute_nodes, to_line_graph
from linecontrast.pipeline import (
    Batch,
    ParseError,
    TrainConfig,
    compute_step_losses,
    desk_train_config,
    embed_corpus,
    load_corpus,
    load_training_checkpoint,
    full_train_config,
    pretrain,
    save_corpus,
    save_training_checkpoint,
    train_step,
    transform_call_count,
    transform_corpus,
)
from linecontrast.synth import make_hard_negative_pair, random_molecular_graph

from conftest import (NON_INTEGER_RECORDS, line_edge_count, path3, read_checkpoint_tables,
                      single_edge, star, triangle, write_checkpoint_tables)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CFG = EncoderConfig(depth=2, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                    bond_type_vocab=4, bond_direction_vocab=3)


def small_corpus(n, seed=0, cfg=CFG):
    return [random_molecular_graph(seed + i, (5, 10), 4, vocab=cfg.vocab) for i in range(n)]


def tiny_train_config(**kw):
    defaults = dict(epochs=2, batch_size=4, seed=0, encoder=CFG)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestBatch:
    def test_offsets_partition_rows(self):
        graphs = small_corpus(3)
        batch = Batch.build([(g, to_line_graph(g)) for g in graphs])
        assert len(batch.node_offsets) - 1 == 3
        assert batch.num_nodes == sum(g.num_nodes for g in graphs)
        assert batch.edge_offsets[-1] == sum(g.num_edges for g in graphs)
        assert batch.node_offsets[0] == 0 and batch.node_offsets[-1] == batch.num_nodes

    def test_line_rows_align_with_edges(self):
        graphs = small_corpus(3)
        batch = Batch.build([(g, to_line_graph(g)) for g in graphs])
        for i, g in enumerate(graphs):
            rows = slice(batch.edge_offsets[i], batch.edge_offsets[i + 1])
            assert np.array_equal(batch.edges[rows] - batch.node_offsets[i], np.array(g.edges))
            assert np.array_equal(batch.edge_feat[rows], np.array(g.edge_features))

    def test_view_mismatch_wrong_view(self):
        g1, g2 = small_corpus(2)
        with pytest.raises(ViewMismatch):
            Batch.build([(g1, to_line_graph(g2))])

    def test_view_mismatch_reordered_line_nodes(self):
        g = triangle()
        view = to_line_graph(g)
        shuffled = LineGraphView(graph=view.graph, node_origin=(1, 0, 2),
                                 edge_origin=view.edge_origin)
        with pytest.raises(ViewMismatch, match="source-edge order"):
            Batch.build([(g, shuffled)])

    def test_view_mismatch_edge_origin_outside_graph(self):
        g = triangle()
        view = to_line_graph(g)
        dangling = LineGraphView(graph=view.graph, node_origin=view.node_origin,
                                 edge_origin=view.edge_origin[:-1] + (g.num_nodes,))
        with pytest.raises(ViewMismatch, match="missing source node"):
            Batch.build([(g, dangling)])

    def test_view_mismatch_negative_edge_origin(self):
        g = triangle()
        view = to_line_graph(g)
        negative = LineGraphView(graph=view.graph, node_origin=view.node_origin,
                                 edge_origin=(-1,) + view.edge_origin[1:])
        with pytest.raises(ViewMismatch, match="missing source node"):
            Batch.build([(g, negative)])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch.build([])


class TestCorpusIO:
    def test_round_trip_1000_random_graphs(self, tmp_path):
        corpus = [random_molecular_graph(i, (2, 20), 5) for i in range(1000)]
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_invariant_violation_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"nodes": [[0, 0], [0, 0]], "edges": [[0, 1, 0, 0]]})
        bad = json.dumps({"nodes": [[0, 0], [0, 0]], "edges": [[0, 2, 0, 0]]})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(InvariantViolation, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize("record, message", NON_INTEGER_RECORDS.values(),
                             ids=NON_INTEGER_RECORDS.keys())
    def test_non_integer_entry_names_line_and_row(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"nodes": [[0, 0], [0, 0]], "edges": [[0, 1, 0, 0]]})
        path.write_text(good + "\n" + record + "\n")
        with pytest.raises(InvariantViolation) as err:
            load_corpus(path)
        assert str(err.value) == f"line 2: {message}"

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nodes": [[0,0]], "edges": []}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_zero_edge_graphs_rejected_with_count(self, tmp_path, caplog):
        path = tmp_path / "mixed.jsonl"
        rows = [
            {"nodes": [[0, 0], [1, 0]], "edges": [[0, 1, 0, 0]]},
            {"nodes": [[0, 0]], "edges": []},
            {"nodes": [[2, 1], [1, 0]], "edges": []},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with caplog.at_level(logging.WARNING, logger="linecontrast"):
            corpus = load_corpus(path)
        assert len(corpus) == 1
        assert "2 zero-edge" in caplog.text


class TestTransformCorpus:
    def test_matches_per_graph_transformation(self):
        corpus = [triangle(), star(3), path3()]
        pairs = transform_corpus(corpus)
        assert [v for _, v in pairs] == [to_line_graph(g) for g in corpus]

    def test_repeated_transformation_identical(self):
        corpus = small_corpus(10)
        assert transform_corpus(corpus) == transform_corpus(corpus)

    def test_counter_increments_once_per_call(self):
        corpus = small_corpus(5)
        before = transform_call_count()
        transform_corpus(corpus)
        assert transform_call_count() == before + 1

    def test_line_edge_totals_match_counting_formula(self):
        corpus = [random_molecular_graph(i, (4, 18), 4) for i in range(2000)]
        pairs = transform_corpus(corpus)
        total = sum(view.graph.num_edges for _, view in pairs)
        assert total == sum(line_edge_count(g) for g in corpus)


class TestPretrain:
    def test_identical_pair_graph_loss_starts_at_zero(self):
        g = random_molecular_graph(3, (6, 8), 3, vocab=CFG.vocab)
        cfg = tiny_train_config(epochs=1, batch_size=2,
                                encoder=replace(CFG, alpha=0.0, beta=0.0))
        result = pretrain([g, g], cfg)
        assert result.reports[0].l_graph == pytest.approx(0.0, abs=1e-12)
        assert result.reports[0].l_intra == 0.0
        assert result.reports[0].l_inter == 0.0

    def test_corpus_smaller_than_batch_rejected(self):
        with pytest.raises(ValueError, match="corpus"):
            pretrain(small_corpus(3), tiny_train_config(batch_size=8))

    def test_transformation_happens_once(self):
        corpus = small_corpus(8)
        before = transform_call_count()
        pretrain(corpus, tiny_train_config(epochs=3))
        assert transform_call_count() == before + 1

    def test_incomplete_tail_batch_dropped(self):
        corpus = small_corpus(10)
        result = pretrain(corpus, tiny_train_config(epochs=1, batch_size=4))
        assert result.step == 2  # 10 // 4

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        corpus = small_corpus(12)
        paths = []
        for run in range(2):
            result = pretrain(corpus, tiny_train_config(epochs=2))
            path = tmp_path / f"run{run}.bin"
            save_training_checkpoint(path, result)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_log_appends_one_row_per_step(self, tmp_path):
        corpus = small_corpus(8)
        metrics = tmp_path / "metrics.jsonl"
        result = pretrain(corpus, tiny_train_config(epochs=2), metrics_path=metrics)
        rows = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert len(rows) == result.step
        assert rows[0]["step"] == 0 and rows[-1]["step"] == result.step - 1
        for row in rows:
            assert abs(row["l_total"] - (row["l_graph"] + row["l_inter"] + row["l_intra"])) < 1e-12

    def test_batch_order_invariance_at_step_zero(self, rng):
        graphs = small_corpus(6, seed=50)
        params = DualHelixParams.initialize(CFG, 0)
        values = []
        for order in (list(range(6)), [3, 1, 5, 0, 4, 2]):
            batch = Batch.build([(graphs[i], to_line_graph(graphs[i])) for i in order])
            enc = encode_batch(batch, params.as_constants(), CFG)
            _, report = compute_step_losses(batch, enc, CFG)
            values.append(report)
        assert values[0].l_graph == pytest.approx(values[1].l_graph, abs=1e-10)
        assert values[0].l_intra == pytest.approx(values[1].l_intra, abs=1e-10)
        assert values[0].l_inter == pytest.approx(values[1].l_inter, abs=1e-10)

    def test_resume_continues_step_numbering(self, tmp_path):
        corpus = small_corpus(16)
        ckpt = tmp_path / "ckpt.bin"
        first = pretrain(corpus, tiny_train_config(epochs=2, batch_size=8))
        save_training_checkpoint(ckpt, first)
        resumed = pretrain(corpus, tiny_train_config(epochs=4, batch_size=8),
                           init=load_training_checkpoint(ckpt))
        assert first.step == 4
        assert resumed.step == 8
        assert len(resumed.reports) == 4  # only the two new epochs ran
        assert resumed.epoch_means == {
            2: np.mean([r.l_total for r in resumed.reports[:2]]),
            3: np.mean([r.l_total for r in resumed.reports[2:]]),
        }
        straight = pretrain(corpus, tiny_train_config(epochs=4, batch_size=8))
        for name in straight.params.arrays:
            assert np.array_equal(straight.params.arrays[name],
                                  resumed.params.arrays[name])

    def test_resume_with_wrong_config_rejected(self, tmp_path):
        corpus = small_corpus(8)
        ckpt = tmp_path / "ckpt.bin"
        save_training_checkpoint(ckpt, pretrain(corpus, tiny_train_config(epochs=1)))
        other = replace(CFG, hidden_dim=16)
        with pytest.raises(ConfigMismatch):
            pretrain(corpus, tiny_train_config(encoder=other),
                     init=load_training_checkpoint(ckpt))


class TestTrainStep:
    def test_one_pretrain_step_equals_train_step(self):
        corpus = small_corpus(4)
        cfg = tiny_train_config(epochs=1)
        result = pretrain(corpus, cfg)
        params = DualHelixParams.initialize(CFG, cfg.seed)
        opt = AdamState.for_params(params.arrays, learning_rate=cfg.learning_rate)
        pairs = transform_corpus(corpus)
        # epoch 0's batch, in the order pretrain draws it
        order = np.random.default_rng([cfg.seed, 0]).permutation(4)
        report, seconds = train_step(params, opt, Batch.build([pairs[i] for i in order]))
        assert result.reports == [report]
        assert len(seconds) == 3 and min(seconds) >= 0
        assert opt.step == result.optimizer.step == 1
        assert np.array_equal(params.flat, result.params.flat)
        assert np.array_equal(opt.m, result.optimizer.m)
        assert np.array_equal(opt.v, result.optimizer.v)

    def test_benchmark_hooks_time_every_step_and_undo(self, monkeypatch):
        # perfbench measures the step by replacing module attributes; a step
        # that stopped calling them through pipeline's globals would go unseen
        monkeypatch.syspath_prepend(str(PERFBENCH))
        hooks = importlib.import_module("hooks")
        owners = (pipeline, pipeline.Batch, encoder, losses, autodiff, autodiff.Tape)
        before = [{k: v for k, v in vars(o).items() if k != "_transform_calls"}
                  for o in owners]
        clock, tracer, patches = hooks.StepClock(), hooks.Tracer(), hooks.Patches()
        clock.install(patches)
        tracer.set_step_mode("timed")
        try:
            result = pretrain(small_corpus(8), tiny_train_config(epochs=2))
        finally:
            tracer.remove()
            patches.undo()
        assert result.step == 4
        assert len(clock.starts) == len(clock.ends) == result.step
        assert tracer.counts["encoder.encode_batch"] == result.step
        assert tracer.counts["autodiff.adam_step"] == result.step
        # both helices of every layer go through the hooked name
        assert tracer.counts["encoder.gin_layer"] == 2 * CFG.depth * result.step
        for owner, saved in zip(owners, before):
            assert [k for k, v in saved.items() if vars(owner)[k] is not v] == []


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        result = pretrain(small_corpus(8), tiny_train_config(epochs=1))
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_training_checkpoint(a, result)
        save_training_checkpoint(b, load_training_checkpoint(a))
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_preserves_arrays_exactly(self, tmp_path):
        params = DualHelixParams.initialize(CFG, 3)
        opt = AdamState.for_params(params.arrays, learning_rate=0.02)
        opt.step = 7
        opt.m[:] = np.random.default_rng(0).standard_normal(opt.m.size)
        opt.v[:] = np.random.default_rng(1).random(opt.v.size)
        path = tmp_path / "raw.bin"
        save_checkpoint(path, params, opt, 11, 4)
        loaded, loaded_opt, step, epochs_done = load_checkpoint(path)
        assert (loaded.config, loaded.seed, step, epochs_done) == (CFG, 3, 11, 4)
        assert (loaded_opt.learning_rate, loaded_opt.step) == (0.02, 7)
        for k, v in params.arrays.items():
            assert np.array_equal(loaded.arrays[k], v)
        assert np.array_equal(loaded_opt.m, opt.m) and np.array_equal(loaded_opt.v, opt.v)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ConfigMismatch, match="version tag"):
            load_checkpoint(path)

    def test_truncated_data_rejected(self, tmp_path):
        params = DualHelixParams.initialize(CFG, 0)
        path = tmp_path / "full.bin"
        save_checkpoint(path, params, AdamState.for_params(params.arrays), 0, 0)
        clipped = path.read_bytes()[:-16]
        path.write_bytes(clipped)
        with pytest.raises(ConfigMismatch, match="truncated"):
            load_checkpoint(path)

    def test_header_holds_the_config_counters_and_table(self, tmp_path):
        params = DualHelixParams.initialize(CFG, 3)
        opt = AdamState.for_params(params.arrays, learning_rate=0.02)
        opt.step = 7
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, opt, 11, 4)
        header, arrays = read_checkpoint_tables(path)
        assert path.read_bytes()[:8] == b"LNCT0002"
        assert sorted(header) == ["config", "meta", "params"]
        assert header["config"] == asdict(CFG)
        assert header["meta"] == {"step": 11, "epochs_done": 4, "seed": 3, "adam_step": 7,
                                  "learning_rate": 0.02}
        assert len(arrays) == 3 * len(params.arrays)

    def test_version_1_file_names_both_tags(self, tmp_path):
        params = DualHelixParams.initialize(CFG, 0)
        path = tmp_path / "v1.bin"
        save_checkpoint(path, params, AdamState.for_params(params.arrays), 0, 0)
        path.write_bytes(b"LNCT0001" + path.read_bytes()[8:])
        with pytest.raises(ConfigMismatch) as err:
            load_checkpoint(path)
        assert str(err.value) == "bad version tag b'LNCT0001', expected b'LNCT0002'"

    def test_depth_the_table_cannot_hold_is_refused_before_its_layout(self, tmp_path):
        # the layout of depth 100000 would take hundreds of MB to build
        params = DualHelixParams.initialize(EncoderConfig(depth=1, hidden_dim=4), 0)
        path = tmp_path / "deep.bin"
        save_checkpoint(path, params, AdamState.for_params(params.arrays), 0, 0)
        header, arrays = read_checkpoint_tables(path)
        header["config"]["depth"] = 100_000
        write_checkpoint_tables(path, header, arrays)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigMismatch, match="of depth 100000"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_save_that_fails_part_way_leaves_the_old_file(self, tmp_path):
        params = DualHelixParams.initialize(CFG, 0)
        opt = AdamState.for_params(params.arrays)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, opt, 1, 1)
        old = path.read_bytes()

        class Unwritable:  # fails after the header and the first two buffers
            def astype(self, dtype):
                raise OSError("no space left on device")

        opt.v = Unwritable()
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(path, params, opt, 2, 2)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_missing_parameter_detected_on_training_load(self, tmp_path):
        result = pretrain(small_corpus(8), tiny_train_config(epochs=1))
        path = tmp_path / "partial.bin"
        save_training_checkpoint(path, result)
        header, arrays = read_checkpoint_tables(path)
        arrays.pop("model.proj.w1")
        write_checkpoint_tables(path, header, arrays)
        with pytest.raises(ConfigMismatch, match="proj.w1"):
            load_training_checkpoint(path)


def assert_flat(params, opt):
    """Each array and moment is a view into its flat buffer, and the views
    tile the buffer in sorted name order."""
    names = sorted(params.arrays)
    m, v = opt.layout.views(opt.m), opt.layout.views(opt.v)
    for views, flat in ((params.arrays, params.flat), (m, opt.m), (v, opt.v)):
        assert list(views) == names
        assert all(np.shares_memory(views[n], flat) for n in names)
        assert np.array_equal(np.concatenate([views[n].ravel() for n in names]), flat)


class TestFlatBuffers:
    def test_arrays_and_moments_stay_views_through_load_and_resume(self, tmp_path):
        params = DualHelixParams.initialize(CFG, 0)
        assert_flat(params, AdamState.for_params(params.arrays))
        first = pretrain(small_corpus(8), tiny_train_config(epochs=1))
        assert_flat(first.params, first.optimizer)
        ckpt = tmp_path / "ckpt.bin"
        save_training_checkpoint(ckpt, first)
        loaded = load_training_checkpoint(ckpt)
        assert_flat(loaded.params, loaded.optimizer)
        assert np.array_equal(loaded.params.flat, first.params.flat)
        assert np.array_equal(loaded.optimizer.m, first.optimizer.m)
        assert np.array_equal(loaded.optimizer.v, first.optimizer.v)
        resumed = pretrain(small_corpus(8), tiny_train_config(epochs=2), init=loaded)
        assert resumed.step == 4
        assert_flat(resumed.params, resumed.optimizer)

    def test_train_step_update_shows_through_the_arrays(self):
        corpus = small_corpus(4)
        params = DualHelixParams.initialize(CFG, 0)
        views = dict(params.arrays)
        before = {k: a.copy() for k, a in views.items()}
        opt = AdamState.for_params(params.arrays)
        train_step(params, opt, Batch.build(transform_corpus(corpus)))
        assert all(params.arrays[k] is views[k] for k in views)
        assert all(not np.array_equal(views[k], before[k]) for k in views)
        assert_flat(params, opt)

    def test_checkpoint_data_is_the_three_flat_buffers(self, tmp_path):
        result = pretrain(small_corpus(8), tiny_train_config(epochs=1))
        path = tmp_path / "ckpt.bin"
        save_training_checkpoint(path, result)
        raw = path.read_bytes()
        (size,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + size])
        names = sorted(result.params.arrays)
        assert header["params"] == [
            [prefix + n, list(result.params.arrays[n].shape)]
            for prefix in ("model.", "opt.m.", "opt.v.") for n in names]
        opt = result.optimizer
        assert raw[12 + size:] == b"".join(
            buf.astype("<f8").tobytes() for buf in (result.params.flat, opt.m, opt.v))


class TestEmbedCorpus:
    def test_single_graph_matches_direct_encoding(self):
        g = small_corpus(1)[0]
        params = DualHelixParams.initialize(CFG, 0)
        matrix = embed_corpus([g], params)
        enc = encode_batch(Batch.build([(g, to_line_graph(g))]), params.as_constants(), CFG)
        assert np.allclose(matrix, enc.graph_repr.data, atol=1e-12)

    def test_isomorphic_duplicates_embed_identically(self, rng):
        g = small_corpus(1, seed=9)[0]
        perm = rng.permutation(g.num_nodes).tolist()
        params = DualHelixParams.initialize(CFG, 1)
        matrix = embed_corpus([g, permute_nodes(g, perm)], params)
        assert np.allclose(matrix[0], matrix[1], atol=1e-10)

    def test_batching_does_not_change_rows(self):
        corpus = small_corpus(7, seed=70)
        params = DualHelixParams.initialize(CFG, 2)
        a = embed_corpus(corpus, params, batch_size=2)
        b = embed_corpus(corpus, params, batch_size=7)
        assert np.allclose(a, b, atol=1e-12)

    def test_empty_corpus(self):
        params = DualHelixParams.initialize(CFG, 0)
        assert embed_corpus([], params).shape == (0, CFG.hidden_dim)

    @staticmethod
    def _edge_case_corpus():
        # node 3 of the second graph is isolated; the third has one edge
        isolated = make_graph([[1, 0], [2, 1], [0, 2], [3, 0]], [(0, 1), (1, 2)],
                              [[1, 0], [2, 1]])
        return small_corpus(2, seed=40) + [isolated, single_edge()] + small_corpus(2, seed=50)

    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_rows_equal_the_training_forward_exactly(self, depth, fusion):
        cfg = replace(CFG, depth=depth, edge_fusion=fusion)
        corpus = self._edge_case_corpus()
        params = DualHelixParams.initialize(cfg, depth)
        rows = embed_corpus(corpus, params, batch_size=4)
        for start in (0, 4):
            batch = Batch.build(transform_corpus(corpus[start:start + 4]))
            enc = encode_batch(batch, params.as_constants(), cfg)
            assert np.array_equal(rows[start:start + 4], enc.graph_repr.data)

    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_runs_only_the_line_layers_the_graph_helix_reads(self, monkeypatch, depth,
                                                              fusion):
        # with fusion, graph layer c reads line layer c - 2; without, none
        layers = []
        gin_layer = encoder.gin_layer

        def counted(h, attr, inc, line, params, layer):
            layers.append(layer)
            assert line == layer.startswith("line.")
            return gin_layer(h, attr, inc, line, params, layer)

        monkeypatch.setattr(encoder, "gin_layer", counted)
        cfg = replace(CFG, depth=depth, edge_fusion=fusion)
        embed_corpus(self._edge_case_corpus(), DualHelixParams.initialize(cfg, 0))
        line = max(depth - 2, 0) if fusion else 0
        assert len(layers) == depth + line
        assert sorted(layers) == sorted([f"graph.layer{c}" for c in range(depth)]
                                        + [f"line.layer{c}" for c in range(line)])

    def test_benchmark_hooks_time_every_batch_and_undo(self, monkeypatch, tmp_path):
        # the embedding twin of TestTrainStep's hook test: perfbench starts a
        # step at each Batch.build, counts the encoder's gin_layer calls, and
        # times each checkpoint load through pipeline.load_checkpoint
        monkeypatch.syspath_prepend(str(PERFBENCH))
        hooks = importlib.import_module("hooks")
        owners = (pipeline, pipeline.Batch, encoder, losses, autodiff, autodiff.Tape)
        before = [{k: v for k, v in vars(o).items() if k != "_transform_calls"}
                  for o in owners]
        cfg = replace(CFG, depth=3)
        ckpt = tmp_path / "ckpt.bin"
        params = DualHelixParams.initialize(cfg, 0)
        save_training_checkpoint(ckpt, pipeline.PretrainResult(
            params=params, optimizer=AdamState.for_params(params.arrays), reports=[]))
        clock, tracer, patches = hooks.StepClock(), hooks.Tracer(), hooks.Patches()
        clock.install(patches)
        tracer.install_corpus_level()
        tracer.set_step_mode("timed")
        try:
            params = load_training_checkpoint(ckpt).params
            rows = embed_corpus(small_corpus(10), params, batch_size=3)
        finally:
            tracer.remove()
            patches.undo()
        assert len(tracer.per_call["checkpoint.load"]) == 1
        assert rows.shape == (10, cfg.hidden_dim)
        assert len(clock.starts) == 4
        assert tracer.counts["pipeline.transform_corpus"] == 1
        assert tracer.counts["encoder.gin_layer"] == 4 * (cfg.depth + max(cfg.depth - 2, 0))
        for owner, saved in zip(owners, before):
            assert [k for k, v in saved.items() if vars(owner)[k] is not v] == []

    def test_local_losses_change_what_embeddings_learn(self):
        # same seed, same corpus: training with and without the local
        # losses must drive the encoder to different embeddings of a
        # pooled-feature-identical pair
        corpus = small_corpus(12, seed=100)
        pair = make_hard_negative_pair(0, "same-structure", vocab=CFG.vocab)
        with_locals = replace(CFG, alpha=1.0, beta=1.0)
        without = replace(CFG, alpha=0.0, beta=0.0)
        rows = {}
        for tag, enc_cfg in (("with", with_locals), ("without", without)):
            result = pretrain(corpus, tiny_train_config(epochs=2, encoder=enc_cfg))
            rows[tag] = embed_corpus(list(pair), result.params)
        assert not np.allclose(rows["with"], rows["without"], atol=1e-6)


class TestPresets:
    def test_desk_preset(self):
        cfg = desk_train_config()
        assert cfg.batch_size == 16 and cfg.epochs == 20
        assert cfg.encoder.hidden_dim == 32 and cfg.encoder.depth == 5

    def test_full_scale_preset(self):
        cfg = full_train_config()
        assert cfg.batch_size == 256 and cfg.epochs == 100
        assert cfg.encoder.hidden_dim == 300 and cfg.encoder.depth == 5
        assert cfg.encoder.tau == pytest.approx(0.1)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        for bad in ({"learning_rate": float("nan")}, {"learning_rate": float("inf")},
                    {"seed": -1}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)
