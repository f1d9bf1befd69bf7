import contextlib
import dataclasses
import functools
import hashlib
import importlib
import inspect
import io
import json
import logging
import pkgutil
import re
import struct
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linecontrast
from linecontrast import bench, cli, gradcheck
from linecontrast.autodiff import AdamState
from linecontrast.cli import main, read_kv_config, resolve_train_config
from linecontrast.encoder import DualHelixParams, EncoderConfig, param_shapes
from linecontrast.pipeline import (
    TRANSFORM_CHUNK,
    PretrainResult,
    TrainConfig,
    desk_train_config,
    full_train_config,
    load_training_checkpoint,
    save_corpus,
    save_training_checkpoint,
)
from linecontrast.synth import random_molecular_graph

from conftest import (
    NON_INTEGER_RECORDS,
    corrupted,
    read_checkpoint_tables,
    write_checkpoint_tables,
)

DATA = Path(__file__).parent / "data"


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_metrics(out_dir):
    """The rows of a run's metrics.jsonl, parsed as strict JSON: a NaN or
    Infinity in any line fails the read."""
    return [json.loads(line, parse_constant=_refuse_constant)
            for line in (out_dir / "metrics.jsonl").read_text().splitlines()]


# the settings: every TrainConfig field but `encoder`, then every
# EncoderConfig field, as (dataclass, field name)
SETTING_FIELDS = [(cls, f.name) for cls in (TrainConfig, EncoderConfig)
                  for f in dataclasses.fields(cls) if f.name != "encoder"]

# per setting, a config-file value that differs from the desk preset and a
# flag value that differs from the file's, as JSON text
SETTING_VALUES = {
    "epochs": ("3", "4"), "batch_size": ("6", "8"), "learning_rate": ("0.25", "0.5"),
    "seed": ("7", "9"), "depth": ("2", "3"), "hidden_dim": ("8", "12"),
    "atomic_vocab": ("7", "6"), "chirality_vocab": ("5", "6"),
    "bond_type_vocab": ("6", "7"), "bond_direction_vocab": ("4", "5"),
    "edge_fusion": ("false", "true"), "tau": ("0.5", "0.25"), "alpha": ("0.5", "0.75"),
    "beta": ("0.5", "0.75"),
}


def pretrain_banner(tmp_path, capsys, *extra) -> dict:
    """The resolved configuration `pretrain` echoes for `extra`; the corpus
    is empty, so the run stops with exit 1 right after its banner."""
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    code = main(["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "run"), *extra])
    out = capsys.readouterr().out.splitlines()
    assert code == 1 and len(out) == 1, out
    return json.loads(out[0].removeprefix("[pretrain] config: "))


def write_corpus(tmp_path, n=12, seed=0, name="corpus.jsonl"):
    path = tmp_path / name
    save_corpus([random_molecular_graph(seed + i, (5, 10), 4) for i in range(n)], path)
    return path


# corpus lines that json.loads refuses with an error other than a decode
# error, each with the start of the message that follows "line N: "
UNPARSABLE_LINES = {
    "200000 nested arrays": ("[" * 200_000,
                             "maximum recursion depth exceeded while decoding a JSON array"),
    "node entry of 5000 digits": ('{"nodes":[[' + "1" * 5000 + ',0],[0,0]],"edges":[[0,1,0,0]]}',
                                  "Exceeds the limit (4300 digits) for integer string "
                                  "conversion"),
}


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

    def test_corpus_of_several_chunks_matches_the_per_graph_transform(self, tmp_path, capsys):
        # 600 graphs span several transform chunks; the output file's sha256
        # and the stats line were recorded from the per-graph transform
        # that the bulk path replaced
        assert 600 > 2 * TRANSFORM_CHUNK
        src, out = tmp_path / "corpus.jsonl", tmp_path / "out.jsonl"
        save_corpus([random_molecular_graph(seed, (6, 24), 4) for seed in range(600)], src)
        assert main(["transform", "--in", str(src), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aff94d325c1337fcc8f4b114243f264c043dca897946108d5e6260d6d2875759")
        assert capsys.readouterr().out.splitlines()[-1] == (
            "[transform] graphs=600 edges=10545 line_edges=19361 mean_degree_blowup=1.761")

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

    def test_non_utf8_line_exits_1_with_one_line(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_bytes(b'{"nodes":[[0,0],[0,0]],"edges":[[0,1,0,0]]}\n'
                        b'{"nodes":[[0,0],[0,0]],"edges":[[0,1,0,\xff]]}\n')
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: line 2: 'utf-8' codec can't decode byte 0xff in position 39: "
            "invalid start byte"]

    @pytest.mark.parametrize("line, message", UNPARSABLE_LINES.values(),
                             ids=UNPARSABLE_LINES.keys())
    def test_unparsable_line_exits_1_with_one_line(self, tmp_path, capsys, line, message):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"nodes":[[0,0],[0,0]],"edges":[[0,1,0,0]]}\n' + line + "\n")
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: line 2: {message}"), err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["transform", "--in", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")]) == 2


# a JSON value of every type, for any position of a corpus record
_JSON_VALUES = st.recursive(
    st.one_of(st.integers(-3, 30), st.sampled_from([2**63, 2**64, -2**63, 10**30]),
              st.floats(), st.booleans(), st.none(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
_DEEP = "\x00deep\x00"  # stands for deep nesting until the record is serialised


@st.composite
def corpus_lines(draw) -> str:
    """A path graph's record with positions replaced by typed values or by
    nesting up to 200000 deep, then possibly cut short."""
    small = st.integers(0, 3)
    n = draw(st.integers(2, 5))
    record = {"nodes": [[draw(small), draw(small)] for _ in range(n)],
              "edges": [[i, i + 1, draw(small), draw(small)] for i in range(n - 1)]}
    holder = [record]
    slots = [(holder, 0), (record, "nodes"), (record, "edges")]
    for rows in (record["nodes"], record["edges"]):
        slots += [(rows, i) for i in range(len(rows))]
        slots += [(row, j) for row in rows for j in range(len(row))]
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(_JSON_VALUES | st.just(_DEEP))
    line = json.dumps(holder[0])
    depth = draw(st.integers(1, 200_000))
    closing = "]" * depth if draw(st.booleans()) else ""
    line = line.replace(json.dumps(_DEEP), "[" * depth + "0" + closing)
    return line[:draw(st.integers(0, len(line)))] if draw(st.booleans()) else line


@settings(max_examples=100, deadline=None)
@given(line=corpus_lines())
@example(line=UNPARSABLE_LINES["200000 nested arrays"][0])
@example(line=UNPARSABLE_LINES["node entry of 5000 digits"][0])
def test_any_corpus_line_exits_0_1_or_2_with_one_error_line_at_most(line):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "corpus.jsonl"
        src.write_text('{"nodes":[[0,0],[0,0]],"edges":[[0,1,0,0]]}\n' + line + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["transform", "--in", str(src), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not any(entry.startswith("error:") for entry in lines), lines


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

    @pytest.mark.parametrize("resume", [False, True], ids=["missing corpus",
                                                         "resume without checkpoint"])
    def test_unreadable_input_exits_2_and_leaves_no_out_dir(self, tmp_path, capsys, resume):
        # resuming, the corpus is fine and the output directory has no checkpoint
        corpus = write_corpus(tmp_path) if resume else tmp_path / "absent.jsonl"
        code, out_dir = self.run_pretrain(tmp_path, corpus, *(["--resume"] if resume else []))
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == ""  # no banner
        assert not out_dir.exists()

    def test_fresh_run_into_an_old_out_dir_starts_the_metrics_over(self, tmp_path):
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        once = (out_dir / "metrics.jsonl").read_bytes()
        code, _ = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        assert (out_dir / "metrics.jsonl").read_bytes() == once
        assert [r["step"] for r in read_metrics(out_dir)] == [0, 1, 2]

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

    # an edited first entry of the first second-moment (or first-moment)
    # array, with the start of the error line it must give after 3 steps
    UNREACHABLE_MOMENTS = {
        "negative second moment": ("opt.v.", -1.0, "v below 0 or above 1.35e+305"),
        "second moment 1e308": ("opt.v.", 1e308, "v below 0 or above 1.35e+305"),
        "first moment 1e300": ("opt.m.", 1e300, "|m| above 1.82e+153"),
    }

    @pytest.mark.parametrize("kind", ["missing", "misshaped", *UNREACHABLE_MOMENTS])
    def test_resume_with_bad_optimizer_moments_exits_2(self, tmp_path, capsys, kind):
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus)
        assert code == 0
        ckpt_path = out_dir / "checkpoint.bin"
        header, arrays = read_checkpoint_tables(ckpt_path)
        if kind == "missing":
            arrays = {k: a for k, a in arrays.items() if k.startswith("model.")}
        elif kind == "misshaped":
            name = next(k for k in sorted(arrays) if k.startswith("opt.v."))
            arrays[name] = np.zeros((1, 1))
        else:
            prefix, value, rule = self.UNREACHABLE_MOMENTS[kind]
            name = next(k for k in sorted(arrays) if k.startswith(prefix))
            arrays[name] = arrays[name].copy()
            arrays[name].flat[0] = value
        write_checkpoint_tables(ckpt_path, header, arrays)
        capsys.readouterr()
        code = main(["pretrain", "--corpus", str(corpus), "--out", str(out_dir),
                     "--epochs", "2", "--batch-size", "4", "--hidden-dim", "16",
                     "--depth", "2", "--seed", "1", "--resume"])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        if kind in self.UNREACHABLE_MOMENTS:
            assert err == [f"error: checkpoint data {name} holds {rule}, "
                           "which 3 Adam steps cannot reach"]
            assert captured.out == ""  # refused before the banner

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

    @pytest.mark.parametrize("flags, config, names", [
        (["--alpha", "nan"], "", "alpha"),
        (["--tau", "inf"], "", "tau"),
        (["--tau", "1e-310"], "", "tau must be large enough for 1 / tau to be finite"),
        (["--beta", "inf"], "", "beta"),
        (["--learning-rate", "inf"], "", "learning_rate"),
        (["--seed", "-1"], "", "seed"),
        (["--epochs", "many"], "", "flag --epochs: expected an int, got 'many'"),
        ([], "tau=nan\n", "tau"),
        ([], "seed=-2\n", "seed"),
        ([], "inclusive_denominator=true\n", "unknown key 'inclusive_denominator'"),
        ([], "shuffle=false\n", "unknown key 'shuffle'"),
        ([], "readout=mean\n", "unknown key 'readout'"),
        ([], "epochs=1\n# again\nepochs=2\n", "run.cfg:3: key 'epochs' repeats line 1"),
    ], ids=["alpha nan", "tau inf", "tau reciprocal overflows", "beta inf",
            "learning rate inf", "seed negative", "epochs not an int",
            "config tau nan", "config seed negative", "config inclusive_denominator",
            "config shuffle", "config readout", "config key repeated"])
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

    def test_non_utf8_config_exits_2_before_any_output(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs=1\nbatch_size=\xff4\n")
        out_dir = tmp_path / "run"
        code = main(["pretrain", "--corpus", str(corpus), "--config", str(cfg),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            f"error: {cfg}:2: 'utf-8' codec can't decode byte 0xff in position 11: "
            "invalid start byte"]
        assert captured.out == ""  # no banner
        assert not out_dir.exists()

    def test_bad_boolean_names_the_value_by_flag_and_by_config(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("edge_fusion=maybe\n")
        base = ["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "run")]
        assert main([*base, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config key edge_fusion: expected a boolean, got 'maybe'"]
        assert main([*base, "--edge-fusion", "maybe"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: flag --edge-fusion: expected a boolean, got 'maybe'"]

    def test_overflowing_weighted_total_names_the_step(self, tmp_path, capsys):
        # finite losses, but alpha * l_inter overflows to an infinite total
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus, "--alpha", "1e308")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: step 0: l_total")
        assert read_metrics(out_dir) == []

    @pytest.mark.filterwarnings("error")
    def test_gradient_that_would_overflow_adam_names_the_step(self, tmp_path, capsys):
        # finite losses near 1 / tau, but gradients of that order would
        # overflow Adam's second moment
        corpus = write_corpus(tmp_path)
        code, out_dir = self.run_pretrain(tmp_path, corpus, "--tau", "1e-300")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: step 0: adam_step: ")
        assert read_metrics(out_dir) == []
        assert not (out_dir / "checkpoint.bin").exists()

    def test_huge_epoch_mean_prints_a_short_line(self, tmp_path, capsys, caplog):
        # at tau 1e-150 the losses are near 1e150 and still finite; the
        # banner echoes the whole config, so only the lines after it count
        caplog.set_level(logging.INFO, logger="linecontrast")
        corpus = write_corpus(tmp_path)
        code, _ = self.run_pretrain(tmp_path, corpus, "--tau", "1e-150")
        banner, *out = capsys.readouterr().out.splitlines()
        assert code == 0 and banner.startswith("[pretrain] config: ")
        means = [float(line.split("mean_total_loss=")[1]) for line in out
                 if "mean_total_loss=" in line]
        assert len(means) == 1 and means[0] > 1e100
        logged = [r.getMessage() for r in caplog.records]
        assert any("mean total loss" in line for line in logged)
        assert all(len(line.encode()) < 300 for line in out + logged)

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
    # a few fast components stand in for the full suite, which c05 runs
    SUBSET = ["add", "relu", "nt_xent"]

    def gate(self, monkeypatch, corrupt=()):
        """Put a stand-in for run_gradcheck behind the CLI: it runs SUBSET
        one component at a time, those in `corrupt` on a corrupted analytic
        gradient. Returns the list of seeds the CLI passes it."""
        seeds = []
        run, exact = gradcheck.run_gradcheck, gradcheck._analytic_grads

        def subset(seed):
            seeds.append(seed)
            results = []
            for name in self.SUBSET:
                monkeypatch.setattr(gradcheck, "_analytic_grads",
                                    corrupted(exact) if name in corrupt else exact)
                results += run(seed, components=[name])
            return results

        monkeypatch.setattr(gradcheck, "run_gradcheck", subset)
        return seeds

    def test_default_run_passes(self, capsys, monkeypatch):
        seeds = self.gate(monkeypatch)
        assert main(["gradcheck"]) == 0
        assert seeds == [0]
        text = capsys.readouterr().out
        assert "nt_xent: max_rel_err=" in text and " max_abs_err=" in text
        assert "FAIL" not in text
        assert text.splitlines()[-1] == "[gradcheck] all 3 components within 0.0001"

    def test_injected_bug_fails_naming_component(self, capsys, monkeypatch):
        self.gate(monkeypatch, corrupt={"relu"})
        assert main(["gradcheck", "--seed", "0"]) == 1
        text = capsys.readouterr().out
        assert "relu: max_rel_err=" in text
        assert text.splitlines()[-1] == "[gradcheck] FAILED components: relu"


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


def _replaced_header(blob: bytes):
    """A corruption that puts `blob` in place of the JSON header."""
    def corrupt(raw: bytes) -> bytes:
        (size,) = struct.unpack("<I", raw[8:12])
        return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + size:]
    return corrupt


def _edited_header(edit):
    """A corruption that rewrites the JSON header through `edit`."""
    def corrupt(raw: bytes) -> bytes:
        (size,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + size])
        edit(header)
        return _replaced_header(json.dumps(header).encode("utf-8"))(raw)
    return corrupt


def _data_entry(buffer: int, value: float):
    """A corruption that sets the first float64 of data buffer `buffer`
    (0 the parameters, 1 and 2 Adam's m and v) to `value`."""
    def corrupt(raw: bytes) -> bytes:
        (size,) = struct.unpack("<I", raw[8:12])
        at = 12 + size + buffer * ((len(raw) - 12 - size) // 3)
        return raw[:at] + struct.pack("<d", value) + raw[at + 8:]
    return corrupt


def _negative_first_dimension(header):
    header["params"][0][1][0] = -1


def _hidden_dim_2_30_with_its_table(header):
    # only the data size can refuse it, and in int64 that size wraps negative
    header["config"]["hidden_dim"] = 2**30
    shapes = param_shapes(EncoderConfig(**header["config"]))
    header["params"] = [[prefix + name, list(shapes[name])]
                        for prefix in ("model.", "opt.m.", "opt.v.") for name in sorted(shapes)]


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
    # the version-1 "adam" sub-object and Adam's constants are unknown meta keys
    "adam metadata a list": _edited_header(lambda h: h["meta"].update(adam=[1, 2])),
    "adam rate a string": _edited_header(lambda h: h["meta"].update(learning_rate="fast")),
    "step null": _edited_header(lambda h: h["meta"].update(step=None)),
    "step a string": _edited_header(lambda h: h["meta"].update(step="x")),
    "seed null": _edited_header(lambda h: h["meta"].update(seed=None)),
    "adam beta1 one": _edited_header(lambda h: h["meta"].update(beta1=1.0)),
    "adam beta1 half": _edited_header(lambda h: h["meta"].update(beta1=0.5)),
    "adam rate negative": _edited_header(lambda h: h["meta"].update(learning_rate=-1.0)),
    "adam rate zero": _edited_header(lambda h: h["meta"].update(learning_rate=0.0)),
    "adam eps zero": _edited_header(lambda h: h["meta"].update(eps=0.0)),
    "adam unknown key": _edited_header(lambda h: h["meta"].update(learning_rat=0.01)),
    "learning_rate missing": _edited_header(lambda h: h["meta"].pop("learning_rate")),
    "learning_rate an int": _edited_header(lambda h: h["meta"].update(learning_rate=1)),
    "learning_rate NaN": _edited_header(
        lambda h: h["meta"].update(learning_rate=float("nan"))),
    "config key missing": _edited_header(lambda h: h["config"].pop("tau")),
    "unread edge table": _edited_header(
        lambda h: h["params"].append(["model.graph.layer1.edge.bond_type", [5, 4]])),
    "version 1 tag": lambda raw: b"LNCT0001" + raw[8:],
    "hidden_dim 2**30 with its table": _edited_header(_hidden_dim_2_30_with_its_table),
    "trailing bytes": lambda raw: raw + b"\x00",
    "config tau NaN": _edited_header(lambda h: h["config"].update(tau=float("nan"))),
    "config tau 1e-310": _edited_header(lambda h: h["config"].update(tau=1e-310)),
    "depth 2.5": _edited_header(lambda h: h["config"].update(depth=2.5)),
    "depth true": _edited_header(lambda h: h["config"].update(depth=True)),
    "edge_fusion yes": _edited_header(lambda h: h["config"].update(edge_fusion="yes")),
    "readout sum": _edited_header(lambda h: h["config"].update(readout="sum")),
    "seed -1": _edited_header(lambda h: h["meta"].update(seed=-1)),
    "header nested 100000 deep": _replaced_header(b"[" * 100_000 + b"]" * 100_000),
    "parameter NaN": _data_entry(0, float("nan")),
    "moment m -inf": _data_entry(1, -float("inf")),
    "moment v inf": _data_entry(2, float("inf")),
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

    @pytest.mark.parametrize("prefix", ["model.", "opt.m.", "opt.v."])
    def test_non_finite_data_names_its_array(self, tmp_path, checkpoint, capsys, prefix):
        header, arrays = read_checkpoint_tables(checkpoint)
        arrays = {k: a.copy() for k, a in arrays.items()}
        arrays[prefix + "graph.embed.atomic"][1, 2] = np.nan
        write_checkpoint_tables(checkpoint, header, arrays)
        corpus = write_corpus(tmp_path, n=3)
        assert main(["embed", "--corpus", str(corpus), "--ckpt", str(checkpoint),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: checkpoint data {prefix}graph.embed.atomic holds NaN or inf"]
        assert not (tmp_path / "o").exists()


@functools.cache
def _checkpoint_bytes() -> bytes:
    """An intact depth-1, width-4 checkpoint's bytes."""
    params = DualHelixParams.initialize(EncoderConfig(depth=1, hidden_dim=4), 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_training_checkpoint(path, PretrainResult(
            params=params, reports=[], optimizer=AdamState.for_params(params.arrays)))
        return path.read_bytes()


@st.composite
def checkpoint_files(draw) -> bytes:
    """An intact checkpoint cut short, with one byte flipped, or with up to
    three header entries (keys of the header, config or meta, a new key, or
    table entries) set to typed values, depths up to 1e9 among them."""
    raw = _checkpoint_bytes()
    kind = draw(st.sampled_from(["cut", "flip", "header"]))
    if kind == "cut":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1:]
    (size,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + size])
    slots = [(header, key) for key in (*header, "extra")]
    slots += [(header[section], key) for section in ("config", "meta")
              for key in (*header[section], "extra")]
    slots += [(header["params"], i) for i in range(len(header["params"]))]
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(_JSON_VALUES | st.integers(-2, 10**9))
    return _replaced_header(json.dumps(header).encode("utf-8"))(raw)


@settings(max_examples=100, deadline=None)
@given(raw=checkpoint_files())
@example(raw=CORRUPTIONS["version 1 tag"](_checkpoint_bytes()))
@example(raw=_edited_header(lambda h: h["config"].update(depth=10**9))(_checkpoint_bytes()))
def test_any_checkpoint_exits_0_1_or_2_with_one_error_line_at_most(raw):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "checkpoint.bin"
        ckpt.write_bytes(raw)
        corpus = write_corpus(Path(tmp), n=3)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["embed", "--corpus", str(corpus), "--ckpt", str(ckpt),
                         "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not any(entry.startswith("error:") for entry in lines), lines


LONG_VALUE_ROUTES = ["config line without =", "unknown config key", "config key tau",
                     "flag --edge-fusion", "flag --tau", "bench --sizes", "LINECONTRAST_LOG"]


@pytest.mark.parametrize("route", LONG_VALUE_ROUTES)
def test_a_long_value_gives_one_short_error_line(tmp_path, monkeypatch, capsys, route):
    long = "x" * 100_000
    cfg = tmp_path / "run.cfg"
    cfg.write_text({"config line without =": long, "unknown config key": long + "=1",
                    "config key tau": "tau=" + long}.get(route, "") + "\n")
    pretrain = ["pretrain", "--corpus", str(tmp_path / "absent.jsonl"), "--config", str(cfg),
                "--out", str(tmp_path / "run")]
    argv = {"flag --edge-fusion": [*pretrain, "--edge-fusion", long],
            "flag --tau": [*pretrain, "--tau", long],
            "bench --sizes": ["bench", "--mode", "transform", "--sizes", long]}.get(route, pretrain)
    if route == "LINECONTRAST_LOG":
        monkeypatch.setenv("LINECONTRAST_LOG", long)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert len(err[0].encode()) < 300, len(err[0].encode())


# text a setting might be given: numbers of every kind, near-booleans, and
# long runs of one character (digits among them)
_SETTING_TEXT = st.one_of(
    st.integers().map(str),
    st.builds(lambda sign, digit, n: sign + digit * n, st.sampled_from(["", "-"]),
              st.sampled_from("19"), st.integers(1, 6000)),
    st.floats().map(repr),
    st.sampled_from(["", " ", "true", "False", "yes", "maybe", "None", "[]", "1e999", "-0",
                     "0x10", "1_000", "1.5", "nan"]),
    st.text(st.characters(codec="utf-8"), max_size=40),
    st.builds(lambda c, n: c * n, st.characters(codec="utf-8"), st.integers(0, 100_000)),
)


@settings(max_examples=100, deadline=None)
@given(settings_given=st.lists(st.tuples(st.sampled_from(sorted(cli._CONFIG_KEYS)),
                                         _SETTING_TEXT, st.booleans()),
                               min_size=1, max_size=3))
def test_any_setting_exits_1_or_2_with_one_short_error_line(settings_given):
    # the corpus is missing, so a valid configuration stops at its load
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value, in_file in settings_given
                               if in_file), encoding="utf-8")
        flags = [f"--{key.replace('_', '-')}={value}" for key, value, in_file in settings_given
                 if not in_file]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["pretrain", "--corpus", str(Path(tmp) / "absent.jsonl"),
                         "--config", str(cfg), "--out", str(Path(tmp) / "run"), *flags])
    lines = err.getvalue().splitlines()
    assert code in (1, 2)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in err.getvalue()
    assert all(len(line.encode()) < 300 for line in lines), [len(x) for x in lines]


def test_every_package_exception_exits_with_one_error_line(monkeypatch, capsys):
    found = []
    for info in pkgutil.iter_modules(linecontrast.__path__):
        module = importlib.import_module(f"linecontrast.{info.name}")
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    assert {"ConfigError", "ConfigMismatch", "NonFinite", "ParseError"} <= {
        cls.__name__ for cls in found}
    for cls in found:
        def fail(args, cls=cls):
            raise cls("boom")
        monkeypatch.setattr(cli, "cmd_transform", fail)
        assert main(["transform", "--in", "x", "--out", "y"]) in (1, 2), cls
        assert capsys.readouterr().err.splitlines() == ["error: boom"], cls


# the diagnostic commands check their numbers before the banner
BAD_FLAGS = {
    "zero steps": ["bench", "--mode", "train-step", "--steps", "0"],
    "fewer graphs than a batch": ["bench", "--mode", "train-step", "--graphs", "4",
                                  "--batch-size", "16"],
    "batch of one": ["bench", "--mode", "train-step", "--graphs", "4", "--batch-size", "1"],
    "negative seed": ["bench", "--mode", "train-step", "--seed", "-1"],
    "one size": ["bench", "--mode", "transform", "--sizes", "10"],
    "size zero": ["bench", "--mode", "transform", "--sizes", "0,10"],
    "repeated size": ["bench", "--mode", "transform", "--sizes", "10,10"],
    "size not an integer": ["bench", "--mode", "transform", "--sizes", "10,x"],
    "gradcheck negative seed": ["gradcheck", "--seed", "-1"],
}


class TestBenchCommand:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", sorted(BAD_FLAGS))
    def test_bad_flag_exits_2_with_one_line(self, capsys, kind):
        assert main(BAD_FLAGS[kind]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_transform_mode_reports_exponent(self, capsys):
        assert main(["bench", "--mode", "transform", "--sizes", "60,120", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        assert "fitted_exponent=" in text

    def test_train_step_mode_reports_one_transform(self, capsys):
        assert main(["bench", "--mode", "train-step", "--graphs", "8",
                     "--batch-size", "4", "--steps", "2"]) == 0
        text = capsys.readouterr().out
        assert "transform_calls=1" in text
        for phase in ("build", "forward", "backward", "optimizer"):
            assert f"{phase}_seconds_mean=" in text
        rss = [line for line in text.splitlines() if "peak_rss_mb=" in line]
        assert len(rss) == 1 and float(rss[0].split("peak_rss_mb=")[1]) > 0

    @pytest.mark.parametrize("preset", ["desk", "full"])
    def test_train_step_mode_runs_the_preset_encoder(self, capsys, monkeypatch, preset):
        # the full preset's hidden 300 runs at a tiny size: 4 graphs, 1 step
        run = bench.bench_train_step
        encoders = []

        def recorded(**kwargs):
            encoders.append(kwargs["encoder"])
            return run(**kwargs)

        monkeypatch.setattr(bench, "bench_train_step", recorded)
        assert main(["bench", "--mode", "train-step", "--preset", preset, "--graphs", "4",
                     "--batch-size", "4", "--steps", "1"]) == 0
        banner, *lines = capsys.readouterr().out.splitlines()
        assert json.loads(banner.removeprefix("[bench] config: "))["preset"] == preset
        assert "[bench] steps=1" in lines
        want = desk_train_config() if preset == "desk" else full_train_config()
        assert encoders == [want.encoder]


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

    @pytest.mark.parametrize("cls, name", SETTING_FIELDS,
                             ids=[name for _, name in SETTING_FIELDS])
    def test_each_field_is_a_config_key_and_a_flag(self, tmp_path, capsys, cls, name):
        file_text, flag_text = SETTING_VALUES[name]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{name}={file_text}\n")
        flag = "--" + name.replace("_", "-")
        banner_key = name if cls is TrainConfig else f"encoder.{name}"
        kind = typing.get_type_hints(cls)[name]
        desk = resolve_train_config("desk", {}, {})
        preset = getattr(desk if cls is TrainConfig else desk.encoder, name)
        assert preset != json.loads(file_text) != json.loads(flag_text)
        for extra, expected in (([], preset),
                                (["--config", str(cfg_file)], json.loads(file_text)),
                                (["--config", str(cfg_file), flag, flag_text],
                                 json.loads(flag_text))):
            resolved = pretrain_banner(tmp_path, capsys, *extra)[banner_key]
            assert resolved == expected and type(resolved) is kind, extra

    def test_help_lists_one_flag_per_field(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["pretrain", "--help"])
        assert exited.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
        settings = [flag for flag in listed
                    if flag not in ("--help", "--corpus", "--config", "--out", "--resume",
                                    "--preset")]
        assert sorted(settings) == sorted("--" + name.replace("_", "-")
                                          for _, name in SETTING_FIELDS)

    def test_atomic_vocab_flag_reaches_the_encoder(self, tmp_path, capsys):
        # graphs whose atom indices all lie below 6
        path = tmp_path / "corpus.jsonl"
        save_corpus([random_molecular_graph(i, (5, 10), 4, (6, 4, 5, 3)) for i in range(8)],
                    path)
        out_dir = tmp_path / "run"
        assert main(["pretrain", "--corpus", str(path), "--out", str(out_dir),
                     "--epochs", "1", "--batch-size", "4", "--hidden-dim", "8", "--depth", "2",
                     "--atomic-vocab", "6"]) == 0
        banner = capsys.readouterr().out.splitlines()[0]
        assert json.loads(banner.removeprefix("[pretrain] config: "))["encoder.atomic_vocab"] == 6
        params = load_training_checkpoint(out_dir / "checkpoint.bin").params
        assert params.config.atomic_vocab == 6
        assert params.arrays["graph.embed.atomic"].shape[0] == 6

    def test_shuffle_flag_is_unrecognized(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=8)
        with pytest.raises(SystemExit) as exited:
            main(["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                  "--shuffle", "false"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --shuffle" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--tolerance", "inf"],
        ["embed", "--corpus", "x"],
        ["transform", "--in", "c.jsonl"],
        ["bench", "--mode", "probe"],
        ["bench", "--mode", "train-step", "--steps", "two"],
        [],
    ], ids=["unknown flag", "missing required flags",
            "missing required flag", "bad choice", "not an int", "no command"])
    def test_refused_command_line_prints_one_error_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("value", ["loud", "info ", "0"])
    def test_unknown_verbosity_env_exits_2_before_any_output(self, tmp_path, monkeypatch,
                                                             capsys, value):
        monkeypatch.setenv("LINECONTRAST_LOG", value)
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "o"
        assert main(["transform", "--in", str(src), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: LINECONTRAST_LOG")
        assert all(level in err[0] for level in ("quiet", "warning", "info", "debug"))
        assert repr(value) in err[0]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("value", ["Quiet", "DEBUG", ""])  # empty means unset
    def test_verbosity_env_ignores_case(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("LINECONTRAST_LOG", value)
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "o")]) == 0

    def test_verbosity_env_is_honored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LINECONTRAST_LOG", "quiet")
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "o")]) == 0
