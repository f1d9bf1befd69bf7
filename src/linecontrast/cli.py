"""Command-line surface: transform, pretrain, gradcheck, embed, bench.

Exit codes: 0 success, 1 validation or check failure, 2 I/O or config
error. Every TrainConfig field but `encoder`, and every EncoderConfig
field, is one config-file key and one `pretrain` flag (the key with
dashes); no other table lists them. Both give text that one table of
casters converts, and a value it rejects is a config error naming the key
or flag and what it expects. Every echoed value is cut to reprlib's short
form, so an error stays one short line. Training options resolve as
preset defaults, then config-file values, then explicit flags; a key
repeated in a config file is a config error. Every run banner echoes the
fully resolved configuration. The LINECONTRAST_LOG environment variable
(quiet, warning, info, debug; any other value is a config error) controls
verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import reprlib
import sys
import typing
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import gradcheck as gradcheck_mod
from .autodiff import NonFinite
from .checkpoint import ConfigMismatch
from .encoder import EncoderConfig
from .graphs import line_graph_to_record, to_line_graph
from .pipeline import (
    TrainConfig,
    desk_train_config,
    embed_corpus,
    load_corpus,
    load_training_checkpoint,
    full_train_config,
    pretrain,
    save_training_checkpoint,
)

log = logging.getLogger("linecontrast")


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("not a boolean")


# key -> (section, caster, what it expects), one per settable field, cast by
# its annotation
_CASTERS = {int: (int, "an int"), float: (float, "a float"), bool: (_parse_bool, "a boolean")}
_CONFIG_KEYS = {
    f.name: (section, *_CASTERS[typing.get_type_hints(cls)[f.name]])
    for section, cls in (("train", TrainConfig), ("encoder", EncoderConfig))
    for f in dataclasses.fields(cls) if f.name != "encoder"
}


def read_kv_config(path) -> dict[str, str]:
    """Flat UTF-8 key=value file; blank lines and # comments allowed."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as err:
                raise ConfigError(f"{path}:{lineno}: {err}") from err
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, "
                                  f"got {reprlib.repr(line)}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {reprlib.repr(key)}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                                  f"{first_line[key]}")
            values[key] = value.strip()
            first_line[key] = lineno
    return values


def resolve_train_config(preset: str, file_values: dict[str, str],
                         flag_values: dict[str, str | None]) -> TrainConfig:
    """The preset, then the file's values, then the flags given (None
    means not given); both routes' values are text, cast by one table."""
    base = desk_train_config() if preset == "desk" else full_train_config()
    sections = {"train": dataclasses.asdict(base)}
    sections["encoder"] = sections["train"].pop("encoder")
    given = [(f"config key {key}", key, raw) for key, raw in file_values.items()]
    given += [(f"flag --{key.replace('_', '-')}", key, raw)
              for key, raw in flag_values.items() if raw is not None]
    for source, key, raw in given:
        section, caster, expected = _CONFIG_KEYS[key]
        try:
            sections[section][key] = caster(raw)
        except ValueError as err:
            raise ConfigError(f"{source}: expected {expected}, got {reprlib.repr(raw)}") from err
    try:
        return TrainConfig(encoder=EncoderConfig(**sections["encoder"]), **sections["train"])
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _flat_config(cfg: TrainConfig) -> dict:
    flat = dataclasses.asdict(cfg)
    flat.update({f"encoder.{k}": v for k, v in flat.pop("encoder").items()})
    return flat


def _banner(command: str, cfg: TrainConfig | None = None, **extra) -> None:
    resolved = dict(extra)
    if cfg is not None:
        resolved.update(_flat_config(cfg))
    print(f"[{command}] config: " + json.dumps(resolved, sort_keys=True))


# --- commands -------------------------------------------------------------------

def cmd_transform(args) -> int:
    corpus = load_corpus(args.input)
    _banner("transform", input=str(args.input), output=str(args.output))
    total_edges = 0
    total_line_edges = 0
    blowups = []
    with open(args.output, "w", encoding="utf-8") as fh:
        for g in corpus:
            view = to_line_graph(g)
            fh.write(json.dumps(line_graph_to_record(view), separators=(",", ":")) + "\n")
            total_edges += g.num_edges
            total_line_edges += view.graph.num_edges
            blowups.append(view.graph.num_edges / g.num_edges)
    mean_blowup = float(np.mean(blowups)) if blowups else 0.0
    print(f"[transform] graphs={len(corpus)} edges={total_edges} "
          f"line_edges={total_line_edges} mean_degree_blowup={mean_blowup:.3f}")
    return 0


def cmd_pretrain(args) -> int:
    file_values = read_kv_config(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
    cfg = resolve_train_config(args.preset, file_values, flags)
    # every input is read before the banner and --out, so a bad one leaves
    # neither behind
    out_dir = Path(args.out)
    ckpt_path = out_dir / "checkpoint.bin"
    init = None
    if args.resume:
        if not ckpt_path.exists():
            raise ConfigError(f"--resume given but {ckpt_path} does not exist")
        init = load_training_checkpoint(ckpt_path)
    corpus = load_corpus(args.corpus)
    _banner("pretrain", cfg, corpus=str(args.corpus), out=str(args.out),
            resume=bool(args.resume))
    out_dir.mkdir(parents=True, exist_ok=True)
    result = pretrain(corpus, cfg, metrics_path=out_dir / "metrics.jsonl", init=init)
    save_training_checkpoint(ckpt_path, result)
    for epoch, mean in result.epoch_means.items():
        print(f"[pretrain] epoch={epoch} mean_total_loss={mean:.6f}")
    print(f"[pretrain] wrote {ckpt_path} and {out_dir / 'metrics.jsonl'} "
          f"(step={result.step})")
    return 0


def _at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, got {value}")


def cmd_gradcheck(args) -> int:
    _at_least("--seed", args.seed, 0)
    _banner("gradcheck", seed=args.seed)
    results = gradcheck_mod.run_gradcheck(seed=args.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[gradcheck] {r.name}: max_rel_err={r.max_rel_err:.3e} "
              f"max_abs_err={r.max_abs_err:.3e} {status}")
    if failed:
        print(f"[gradcheck] FAILED components: {', '.join(r.name for r in failed)}")
        return 1
    print(f"[gradcheck] all {len(results)} components within "
          f"{gradcheck_mod.DEFAULT_TOLERANCE:g}")
    return 0


def cmd_embed(args) -> int:
    _banner("embed", corpus=str(args.corpus), ckpt=str(args.ckpt), out=str(args.out))
    state = load_training_checkpoint(args.ckpt)
    corpus = load_corpus(args.corpus)
    matrix = embed_corpus(corpus, state.params)
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(json.dumps([float(x) for x in row]) + "\n")
    print(f"[embed] wrote {matrix.shape[0]} x {matrix.shape[1]} embeddings to {args.out}")
    return 0


def _bench_sizes(text: str) -> tuple[int, ...]:
    """Transform mode's corpus sizes: the exponent fit needs two distinct
    sizes or more, each of one graph or more."""
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, "
                          f"got {reprlib.repr(text)}") from None
    if len(set(sizes)) < 2 or min(sizes) < 1:
        raise ConfigError(f"--sizes needs at least two distinct sizes of at least 1, "
                          f"got {reprlib.repr(text)}")
    return sizes


def cmd_bench(args) -> int:
    _at_least("--seed", args.seed, 0)
    if args.mode == "transform":
        sizes = _bench_sizes(args.sizes)
        _banner("bench", mode=args.mode, sizes=list(sizes), seed=args.seed)
        report = bench_mod.bench_transform(graph_counts=sizes, seed=args.seed)
        for line in report.lines():
            print(f"[bench] {line}")
        return 0
    _at_least("--steps", args.steps, 1)
    _at_least("--batch-size", args.batch_size, 2)
    _at_least("--graphs", args.graphs, args.batch_size)
    _banner("bench", mode=args.mode, graphs=args.graphs, batch_size=args.batch_size,
            steps=args.steps, seed=args.seed)
    report = bench_mod.bench_train_step(n_graphs=args.graphs, batch_size=args.batch_size,
                                        steps=args.steps, seed=args.seed)
    for line in report.lines():
        print(f"[bench] {line}")
    return 0


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linecontrast",
        description="Contrastive pre-training of graph encoders against line graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="transform a corpus into line graphs")
    p.add_argument("--in", dest="input", required=True, help="input corpus JSONL")
    p.add_argument("--out", dest="output", required=True, help="output line-graph JSONL")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("pretrain", help="run the pre-training loop")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in the output directory")
    p.add_argument("--preset", choices=("desk", "full"), default="desk")
    for key in _CONFIG_KEYS:  # text, cast by resolve_train_config
        p.add_argument("--" + key.replace("_", "-"))
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("embed", help="embed a corpus with a trained checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("bench", help="timing harnesses")
    p.add_argument("--mode", choices=("transform", "train-step"), required=True)
    p.add_argument("--sizes", default="10000,20000,40000",
                   help="comma-separated corpus sizes for transform mode")
    p.add_argument("--graphs", type=int, default=48, help="corpus size for train-step mode")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=16)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


_LOG_LEVELS = {
    "quiet": logging.ERROR,
    "warning": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _configure_logging() -> None:
    raw = os.environ.get("LINECONTRAST_LOG") or "info"
    if raw.lower() not in _LOG_LEVELS:
        raise ConfigError(f"LINECONTRAST_LOG must be one of {', '.join(_LOG_LEVELS)} "
                          f"(any case), got {reprlib.repr(raw)}")
    logging.basicConfig(level=_LOG_LEVELS[raw.lower()],
                        format="%(levelname)s %(name)s: %(message)s")


# every other validation error of the package is a ValueError
_VALIDATION_ERRORS = (ValueError, NonFinite)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except (ConfigError, ConfigMismatch, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
