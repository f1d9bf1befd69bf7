import argparse
import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from linecontrast.autodiff import AdamState
from linecontrast.cli import (
    _CONFIG_KEYS,
    build_parser,
    main,
    read_kv_config,
    resolve_train_config,
)
from linecontrast.encoder import DualHelixParams, EncoderConfig
from linecontrast.pipeline import (
    PretrainResult,
    TrainConfig,
    load_training_checkpoint,
    save_corpus,
    save_training_checkpoint,
)
from linecontrast.synth import random_molecular_graph

from conftest import NON_INTEGER_RECORDS, read_checkpoint_tables, write_checkpoint_tables

DATA = Path(__file__).parent / "data"


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_metrics(out_dir):
    """The rows of a run's metrics.jsonl, parsed as strict JSON: a NaN or
    Infinity in any line fails the read."""
    return [json.loads(line, parse_constant=_refuse_constant)
            for line in (out_dir / "metrics.jsonl").read_text().splitlines()]


def write_corpus(tmp_path, n=12, seed=0, name="corpus.jsonl"):
    path = tmp_path / name
    save_corpus([random_molecular_graph(seed + i, (5, 10), 4) for i in range(n)], path)
    return path


class TestTransformCommand:
    def test_fixtures_match_golden_byte_for_byte(self, tmp_path):
        out = tmp_path / "out.jsonl"
        code = main(["transform", "--in", str(DATA / "fixtures_corpus.jsonl"),
                     "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (DATA / "golden_line_graphs.jsonl").read_bytes()

    def test_golden_content_is_the_expected_line_graphs(self):
        # keeps the frozen golden honest: triangle stays a triangle, the
        # 3-star becomes a triangle through the hub, the path collapses
        # to a single line-edge through its middle node
        rows = [json.loads(line)
                for line in (DATA / "golden_line_graphs.jsonl").read_text().splitlines()]
        assert [r["edges"] for r in rows] == [
            [[0, 1, 0, 0], [0, 2, 1, 0], [1, 2, 2, 1]],
            [[0, 1, 0, 1], [0, 2, 0, 1], [1, 2, 0, 1]],
            [[0, 1, 1, 1]],
        ]
        assert rows[1]["edge_origin"] == [0, 0, 0]
        assert rows[2]["edge_origin"] == [1]

    def test_stats_line_printed(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        main(["transform", "--in", str(DATA / "fixtures_corpus.jsonl"), "--out", str(out)])
        text = capsys.readouterr().out
        assert "graphs=3" in text and "edges=8" in text and "line_edges=7" in text

    def test_empty_input_empty_output(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "out.jsonl"
        assert main(["transform", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert "graphs=0" in capsys.readouterr().out

    def test_invalid_corpus_exits_1(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"nodes":[[0,0]],"edges":[[0,5,0,0]]}\n')
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "o")]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("record, message", NON_INTEGER_RECORDS.values(),
                             ids=NON_INTEGER_RECORDS.keys())
    def test_non_integer_entry_exits_1_with_one_line(self, tmp_path, capsys, record, message):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"nodes":[[0,0],[0,0]],"edges":[[0,1,0,0]]}\n' + record + "\n")
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: line 2: {message}"]

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["transform", "--in", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")]) == 2


class TestPretrainCommand:
    def run_pretrain(self, tmp_path, corpus, *extra):
        out_dir = tmp_path / "run"
        args = ["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
                "--epochs", "1", "--batch-size", "4", "--hidden-dim", "16",
                "--depth", "2", "--seed", "1", *extra]
        return main(args), out_dir

    def test_writes_checkpoint_and_metrics(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        assert (out_dir / "checkpoint.bin").exists()
        rows = read_metrics(out_dir)
        assert len(rows) == 3  # 12 graphs / batch 4
        text = capsys.readouterr().out
        assert "epoch=0 mean_total_loss=" in text
        assert '"encoder.hidden_dim": 16' in text  # banner echoes resolved config

    def test_zero_weights_short_circuit_locals(self, tmp_path):
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus, "--alpha", "0", "--beta", "0")
        assert code == 0
        rows = read_metrics(out_dir)
        assert all(r["l_intra"] == 0.0 and r["l_inter"] == 0.0 for r in rows)
        assert all(r["intra_anchors"] == 0 and r["inter_anchors"] == 0 for r in rows)

    def test_resume_continues_step_numbering(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        capsys.readouterr()
        code = main(["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
                     "--epochs", "2", "--batch-size", "4", "--hidden-dim", "16",
                     "--depth", "2", "--seed", "1", "--resume"])
        assert code == 0
        state = load_training_checkpoint(out_dir / "checkpoint.bin")
        assert state.step == 6
        rows = read_metrics(out_dir)
        assert [r["step"] for r in rows] == list(range(6))
        labels = [l.split()[1] for l in capsys.readouterr().out.splitlines()
                  if l.startswith("[pretrain] epoch=")]
        assert labels == ["epoch=1"]  # the resumed epoch, numbered from the checkpoint

    def test_resume_below_epochs_done_keeps_the_count(self, tmp_path):
        corpus = write_corpus(tmp_path, n=8)

        def run(name, *epochs):
            out_dir = tmp_path / name
            for i, n in enumerate(epochs):
                assert main(["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
                             "--epochs", str(n), "--batch-size", "4", "--hidden-dim", "16",
                             "--depth", "2", "--seed", "1", *(["--resume"] if i else [])]) == 0
            return [(out_dir / f).read_bytes() for f in ("checkpoint.bin", "metrics.jsonl")]

        # the 2-epoch resume trains nothing and must not rewind the count
        assert run("chained", 3, 2, 4) == run("straight", 4)

    @pytest.mark.parametrize("kind", ["missing", "misshaped"])
    def test_resume_with_bad_optimizer_moments_exits_2(self, tmp_path, capsys, kind):
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        ckpt_path = out_dir / "checkpoint.bin"
        header, arrays = read_checkpoint_tables(ckpt_path)
        if kind == "missing":
            arrays = {k: a for k, a in arrays.items() if k.startswith("model.")}
        else:
            name = next(k for k in sorted(arrays) if k.startswith("opt.v."))
            arrays[name] = np.zeros((1, 1))
        write_checkpoint_tables(ckpt_path, header, arrays)
        capsys.readouterr()
        code = main(["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
                     "--epochs", "2", "--batch-size", "4", "--hidden-dim", "16",
                     "--depth", "2", "--seed", "1", "--resume"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_zero_norm_row_names_the_step(self, tmp_path, capsys):
        # a one-layer, width-4 encoder ends in a ReLU row of zeros at once
        corpus = write_corpus(tmp_path, n=8)
        code = main(["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                     "--depth", "1", "--hidden-dim", "4", "--batch-size", "4"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "step 0" in err[0]

    def test_resume_with_another_learning_rate_exits_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        kept = [(out_dir / f).read_bytes() for f in ("checkpoint.bin", "metrics.jsonl")]
        capsys.readouterr()
        code = main(["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
                     "--epochs", "2", "--batch-size", "4", "--hidden-dim", "16",
                     "--depth", "2", "--seed", "1", "--learning-rate", "0.5", "--resume"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "learning rate" in err[0]
        assert [(out_dir / f).read_bytes() for f in ("checkpoint.bin", "metrics.jsonl")] == kept

    def test_resume_with_another_seed_exits_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        kept = [(out_dir / f).read_bytes() for f in ("checkpoint.bin", "metrics.jsonl")]
        capsys.readouterr()
        # no --seed: the preset's seed 0, not the checkpoint's 1
        code = main(["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
                     "--epochs", "2", "--batch-size", "4", "--hidden-dim", "16",
                     "--depth", "2", "--resume"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
        assert [(out_dir / f).read_bytes() for f in ("checkpoint.bin", "metrics.jsonl")] == kept

    def test_checkpoint_with_unread_edge_tables_resumes_like_a_straight_run(self, tmp_path):
        # older checkpoints hold edge tables for every layer; with fusion on
        # the layers past the first never read them, so Adam left them at
        # their initial draws with zero moments
        corpus = write_corpus(tmp_path)
        code, old_dir = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        ckpt_path = old_dir / "checkpoint.bin"
        header, arrays = read_checkpoint_tables(ckpt_path)
        config = {**header["config"], "edge_fusion": False}
        del config["readout"]
        drawn = DualHelixParams.initialize(EncoderConfig(**config), 1).arrays
        unread = sorted(set(drawn) - {k.removeprefix("model.") for k in arrays})
        assert unread == ["graph.layer1.edge.bond_direction", "graph.layer1.edge.bond_type",
                          "line.layer1.edge.atomic", "line.layer1.edge.chirality"]
        for name in unread:
            arrays[f"model.{name}"] = drawn[name]
            arrays[f"opt.m.{name}"] = arrays[f"opt.v.{name}"] = np.zeros_like(drawn[name])
        write_checkpoint_tables(ckpt_path, header, arrays)
        straight_dir = tmp_path / "straight"
        for out_dir, extra in ((old_dir, ["--resume"]), (straight_dir, [])):
            assert main(["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
                         "--epochs", "2", "--batch-size", "4", "--hidden-dim", "16",
                         "--depth", "2", "--seed", "1", *extra]) == 0
        for name in ("checkpoint.bin", "metrics.jsonl"):
            assert (old_dir / name).read_bytes() == (straight_dir / name).read_bytes()

    @pytest.mark.parametrize("flags, config, names", [
        (["--alpha", "nan"], "", "alpha"),
        (["--tau", "inf"], "", "tau"),
        (["--beta", "inf"], "", "beta"),
        (["--learning-rate", "inf"], "", "learning_rate"),
        (["--seed", "-1"], "", "seed"),
        ([], "tau=nan\n", "tau"),
        ([], "seed=-2\n", "seed"),
        ([], "inclusive_denominator=true\n", "unknown key 'inclusive_denominator'"),
        ([], "shuffle=false\n", "unknown key 'shuffle'"),
        ([], "readout=mean\n", "unknown key 'readout'"),
    ], ids=["alpha nan", "tau inf", "beta inf", "learning rate inf", "seed negative",
            "config tau nan", "config seed negative", "config inclusive_denominator",
            "config shuffle", "config readout"])
    def test_bad_setting_exits_2_before_any_output(self, tmp_path, capsys, flags, config,
                                                    names):
        corpus = write_corpus(tmp_path, n=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out_dir = tmp_path / "run"
        code = main(["pretrain", "--corpus", str(corpus), "--config", str(cfg),
                     "--out", str(out_dir), "--batch-size", "4", *flags])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and names in err[0]
        assert captured.out == ""  # no banner
        assert not out_dir.exists()

    def test_overflowing_weighted_total_names_the_step(self, tmp_path, capsys):
        # finite losses, but alpha * l_inter overflows to an infinite total
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus, "--alpha", "1e308")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: step 0: l_total")
        assert read_metrics(out_dir) == []

    def test_resume_without_checkpoint_exits_2(self, tmp_path):
        corpus = write_corpus(tmp_path)
        code = main(["pretrain", "--corpus", str(corpus), "--out",
                     str(tmp_path / "fresh"), "--resume"])
        assert code == 2

    def test_config_file_applies_and_flags_override(self, tmp_path):
        corpus = write_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nepochs=1\nbatch_size=6\nhidden_dim=8\ndepth=2\nalpha=0\nbeta=0\n")
        out_dir = tmp_path / "run"
        code = main(["pretrain", "--corpus", str(corpus), "--config", str(cfg),
                     "--out", str(out_dir), "--batch-size", "4"])
        assert code == 0
        rows = read_metrics(out_dir)
        assert len(rows) == 3  # flag's batch 4 beat the file's 6

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rat=0.1\n")
        code = main(["pretrain", "--corpus", str(corpus), "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        assert "objective: max_rel_err=" in text and " max_abs_err=" in text
        assert "FAIL" not in text

    def test_injected_bug_fails_naming_component(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--inject-bug", "relu"]) == 1
        text = capsys.readouterr().out
        assert "relu: max_rel_err=" in text
        assert "FAILED components: relu" in text

    def test_unknown_component_exits_1(self):
        assert main(["gradcheck", "--inject-bug", "florp"]) == 1


class TestEmbedCommand:
    def test_embeds_match_pipeline(self, tmp_path):
        corpus = write_corpus(tmp_path, n=8)
        out_dir = tmp_path / "run"
        main(["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
              "--epochs", "1", "--batch-size", "4", "--hidden-dim", "16",
              "--depth", "2"])
        out = tmp_path / "emb.jsonl"
        code = main(["embed", "--corpus", str(corpus), "--ckpt",
                     str(out_dir / "checkpoint.bin"), "--out", str(out)])
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 8 and len(rows[0]) == 16
        from linecontrast.pipeline import embed_corpus, load_corpus
        state = load_training_checkpoint(out_dir / "checkpoint.bin")
        expected = embed_corpus(load_corpus(corpus), state.params)
        assert np.allclose(np.array(rows), expected, atol=1e-12)

    def test_corpus_integer_beyond_int64_exits_1_with_one_line(self, tmp_path, capsys):
        params = DualHelixParams.initialize(EncoderConfig(depth=1, hidden_dim=4), 0)
        ckpt = tmp_path / "checkpoint.bin"
        save_training_checkpoint(ckpt, PretrainResult(
            params=params, optimizer=AdamState.for_params(params.arrays), reports=[]))
        corpus = tmp_path / "big.jsonl"
        corpus.write_text('{"nodes":[[0,0],[0,0]],"edges":[[0,1,0,0]]}\n'
                          '{"nodes":[[9223372036854775808,0],[0,0]],"edges":[[0,1,0,0]]}\n')
        code = main(["embed", "--corpus", str(corpus), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: line 2: node 0: category index 9223372036854775808 is outside the "
            "int64 range"]

    def test_missing_checkpoint_exits_2(self, tmp_path):
        corpus = write_corpus(tmp_path, n=4)
        assert main(["embed", "--corpus", str(corpus), "--ckpt",
                     str(tmp_path / "none.bin"), "--out", str(tmp_path / "o")]) == 2


def _edited_header(edit):
    """A corruption that rewrites the JSON header through `edit`."""
    def corrupt(raw: bytes) -> bytes:
        (size,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + size])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + size:]
    return corrupt


def _negative_first_dimension(header):
    header["params"][0][1][0] = -1


CORRUPTIONS = {
    "cut in the header length": lambda raw: raw[:10],
    "cut in the header": lambda raw: raw[:40],
    "header length past the end": lambda raw: raw[:8] + b"\xff\xff\xff\xff" + raw[12:],
    "cut in the data": lambda raw: raw[:-16],
    "undecodable header": lambda raw: raw[:12] + b"\xff" + raw[13:],
    "header not JSON": lambda raw: raw[:12] + b"[" + raw[13:],
    "header without parameter table": _edited_header(lambda h: h.pop("params")),
    "parameter entry without shape": _edited_header(lambda h: h["params"][0].pop()),
    "negative dimension": _edited_header(_negative_first_dimension),
    "metadata not an object": _edited_header(lambda h: h.update(meta=[])),
    "adam metadata a list": _edited_header(lambda h: h["meta"].update(adam=[1, 2])),
    "adam rate a string": _edited_header(
        lambda h: h["meta"].update(adam={"learning_rate": "fast"})),
    "step null": _edited_header(lambda h: h["meta"].update(step=None)),
    "step a string": _edited_header(lambda h: h["meta"].update(step="x")),
    "seed null": _edited_header(lambda h: h["meta"].update(seed=None)),
    "adam beta1 one": _edited_header(lambda h: h["meta"]["adam"].update(beta1=1.0)),
    "adam beta1 half": _edited_header(lambda h: h["meta"]["adam"].update(beta1=0.5)),
    "adam rate negative": _edited_header(
        lambda h: h["meta"]["adam"].update(learning_rate=-1.0)),
    "adam rate zero": _edited_header(lambda h: h["meta"]["adam"].update(learning_rate=0.0)),
    "adam eps zero": _edited_header(lambda h: h["meta"]["adam"].update(eps=0.0)),
    "adam unknown key": _edited_header(lambda h: h["meta"].update(
        adam={"learning_rat": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8})),
    "trailing bytes": lambda raw: raw + b"\x00",
    "config tau NaN": _edited_header(lambda h: h["config"].update(tau=float("nan"))),
    "depth 2.5": _edited_header(lambda h: h["config"].update(depth=2.5)),
    "depth true": _edited_header(lambda h: h["config"].update(depth=True)),
    "edge_fusion yes": _edited_header(lambda h: h["config"].update(edge_fusion="yes")),
    "readout sum": _edited_header(lambda h: h["config"].update(readout="sum")),
    "seed -1": _edited_header(lambda h: h["meta"].update(seed=-1)),
}


class TestCorruptCheckpoint:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        params = DualHelixParams.initialize(EncoderConfig(depth=1, hidden_dim=4), 0)
        result = PretrainResult(params=params, reports=[],
                                optimizer=AdamState.for_params(params.arrays))
        path = tmp_path / "checkpoint.bin"
        save_training_checkpoint(path, result)
        return path

    def test_intact_checkpoint_embeds(self, tmp_path, checkpoint):
        corpus = write_corpus(tmp_path, n=3)
        assert main(["embed", "--corpus", str(corpus), "--ckpt", str(checkpoint),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_corrupt_checkpoint_exits_2_with_one_line(self, tmp_path, checkpoint, capsys,
                                                       kind):
        corpus = write_corpus(tmp_path, n=3)
        checkpoint.write_bytes(CORRUPTIONS[kind](checkpoint.read_bytes()))
        code = main(["embed", "--corpus", str(corpus), "--ckpt", str(checkpoint),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")


BAD_BENCH_FLAGS = {
    "zero steps": ["--mode", "train-step", "--steps", "0"],
    "fewer graphs than a batch": ["--mode", "train-step", "--graphs", "4", "--batch-size", "16"],
    "batch of one": ["--mode", "train-step", "--graphs", "4", "--batch-size", "1"],
    "negative seed": ["--mode", "train-step", "--seed", "-1"],
    "one size": ["--mode", "transform", "--sizes", "10"],
    "size zero": ["--mode", "transform", "--sizes", "0,10"],
    "repeated size": ["--mode", "transform", "--sizes", "10,10"],
    "size not an integer": ["--mode", "transform", "--sizes", "10,x"],
    "degree cap one": ["--mode", "transform", "--sizes", "10,20", "--degree-cap", "1"],
}


class TestBenchCommand:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", sorted(BAD_BENCH_FLAGS))
    def test_bad_flag_exits_2_with_one_line(self, capsys, kind):
        assert main(["bench", *BAD_BENCH_FLAGS[kind]]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_transform_mode_reports_exponent(self, capsys):
        assert main(["bench", "--mode", "transform", "--sizes", "60,120",
                     "--degree-cap", "4", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        assert "fitted_exponent=" in text

    def test_train_step_mode_reports_one_transform(self, capsys):
        assert main(["bench", "--mode", "train-step", "--graphs", "8",
                     "--batch-size", "4", "--steps", "2"]) == 0
        text = capsys.readouterr().out
        assert "transform_calls=1" in text
        assert "backward_seconds_mean=" in text
        rss = [line for line in text.splitlines() if "peak_rss_mb=" in line]
        assert len(rss) == 1 and float(rss[0].split("peak_rss_mb=")[1]) > 0


class TestConfigResolution:
    def test_presets(self):
        desk = resolve_train_config("desk", {}, {})
        full = resolve_train_config("full", {}, {})
        assert desk.batch_size == 16 and full.batch_size == 256
        assert full.encoder.hidden_dim == 300

    def test_file_then_flags_precedence(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("tau=0.5\nepochs=7\n")
        values = read_kv_config(cfg_file)
        cfg = resolve_train_config("desk", values, {"epochs": 9})
        assert cfg.encoder.tau == 0.5
        assert cfg.epochs == 9

    def test_bad_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("epochs=many\n")
        from linecontrast.cli import ConfigError
        with pytest.raises(ConfigError):
            resolve_train_config("desk", read_kv_config(cfg_file), {})

    def test_pretrain_flags_and_config_keys_agree(self):
        # cmd_pretrain reads its flags through _CONFIG_KEYS, so a setting
        # flag missing there, or cast differently, would be dropped or differ
        # from the same setting in a config file
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.type for a in subparsers.choices["pretrain"]._actions
                 if a.dest not in ("help", "corpus", "config", "out", "resume", "preset")}
        assert flags
        for dest, caster in flags.items():
            assert dest in _CONFIG_KEYS and _CONFIG_KEYS[dest][2] is caster, dest
        fields = {"train": {f.name for f in dataclasses.fields(TrainConfig)} - {"encoder"},
                  "encoder": {f.name for f in dataclasses.fields(EncoderConfig)}}
        for key, (section, name, _) in _CONFIG_KEYS.items():
            assert name in fields[section], key

    def test_shuffle_flag_is_unrecognized(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=8)
        with pytest.raises(SystemExit) as exited:
            main(["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                  "--shuffle", "false"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --shuffle" in capsys.readouterr().err

    def test_verbosity_env_is_honored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LINECONTRAST_LOG", "quiet")
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "o")]) == 0
