"""The checkpoint format, its one writer and its one reader.

Layout: the 8-byte version tag, a little-endian uint32 header length, a
JSON header with sorted keys, then raw little-endian float64 data, and
nothing after it. The header holds exactly "config", the EncoderConfig
fields; "meta", step, epochs_done, seed, adam_step and learning_rate; and
"params", the name/shape table of every parameter under "model.", then
"opt.m.", then "opt.v.", each in sorted name order. So the data is
DualHelixParams.flat, then AdamState.m and AdamState.v, and a round trip
is bit-exact. Errors echo stored values through reprlib, so stay short."""

from __future__ import annotations

import json
import math
import os
import reprlib
import struct
from dataclasses import asdict, fields

import numpy as np

from .autodiff import AdamState, FlatLayout
from .encoder import DualHelixParams, EncoderConfig, param_shapes

MAGIC = b"LNCT0002"
_PREFIXES = ("model.", "opt.m.", "opt.v.")  # params.flat, opt.m, opt.v
_CONFIG_KEYS = [f.name for f in fields(EncoderConfig)]
_COUNTERS = ("step", "epochs_done", "seed", "adam_step")


class ConfigMismatch(ValueError):
    pass


def _table(layout: FlatLayout) -> list[list]:
    return [[prefix + name, list(shape)] for prefix in _PREFIXES
            for name, shape in zip(layout.names, layout.shapes)]


def save_checkpoint(path, params: DualHelixParams, opt: AdamState, step: int,
                    epochs_done: int) -> None:
    """Write a sibling temporary file, then move it onto `path`, so a write
    that fails part-way leaves an older file at `path` intact."""
    header = {
        "config": asdict(params.config),
        "meta": {"step": step, "epochs_done": epochs_done, "seed": params.seed,
                 "adam_step": opt.step, "learning_rate": opt.learning_rate},
        "params": _table(opt.layout),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", len(blob)) + blob)
            fh.writelines(buf.astype("<f8").tobytes() for buf in (params.flat, opt.m, opt.v))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed
            os.remove(tmp)


def _read_exact(fh, size: int, end: int, what: str) -> bytes:
    """`size` bytes from `fh`, refused before reading if the file ends first at `end`."""
    if fh.tell() + size > end:
        raise ConfigMismatch(f"truncated {what}")
    return fh.read(size)


def _exact_keys(value, keys, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigMismatch(f"checkpoint {what} is not an object")
    if value.keys() != set(keys):
        key = min(value.keys() ^ set(keys))
        state = "has unknown" if key in value else "lacks"
        raise ConfigMismatch(f"checkpoint {what} {state} key {reprlib.repr(key)}")
    return value


def _check_header(header) -> tuple[EncoderConfig, FlatLayout, dict]:
    """The stored config, its layout and the meta counters and rate."""
    header = _exact_keys(header, ("config", "meta", "params"), "header")
    try:
        config = EncoderConfig(**_exact_keys(header["config"], _CONFIG_KEYS, "config"))
    except (TypeError, ValueError) as err:  # TypeError: a string tau, say, fails `<`
        raise ConfigMismatch(f"checkpoint config rejected: {err}") from err
    table = header["params"]
    # each layer has arrays under every prefix, so the file size bounds depth
    if type(table) is not list or 3 * config.depth > len(table):
        raise ConfigMismatch("checkpoint parameter table is not a list of at least 3 "
                             f"entries per layer of depth {config.depth}")
    layout = FlatLayout(param_shapes(config))
    expected = _table(layout)
    if table != expected:
        i = next((i for i, (a, b) in enumerate(zip(table, expected)) if a != b),
                 min(len(table), len(expected)))
        raise ConfigMismatch(f"checkpoint parameter table entry {i} is not the stored config's "
                             f"{expected[i] if i < len(expected) else 'end of table'}")
    meta = _exact_keys(header["meta"], (*_COUNTERS, "learning_rate"), "meta")
    for key in _COUNTERS:  # JSON true / false load as bools, which are ints to Python
        if type(meta[key]) is not int or meta[key] < 0:
            raise ConfigMismatch(f"checkpoint meta {key} is not an int >= 0: "
                                 f"{reprlib.repr(meta[key])}")
    rate = meta["learning_rate"]
    if type(rate) is not float or not 0 < rate < math.inf:  # NaN fails the comparison
        raise ConfigMismatch(f"checkpoint meta learning_rate is not a positive finite "
                             f"float: {reprlib.repr(rate)}")
    return config, layout, meta


def load_checkpoint(path) -> tuple[DualHelixParams, AdamState, int, int]:
    """The parameters, Adam's state, the step and the completed epochs,
    from one read of the data; ConfigMismatch, one line, for any file the
    module docstring does not describe or whose values fail a check,
    non-finite data included."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigMismatch(f"bad version tag {magic!r}, expected {MAGIC!r}")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, end, "header length"))
        blob = _read_exact(fh, header_len, end, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (ValueError, RecursionError) as err:  # undecodable, not JSON or too deep
            raise ConfigMismatch(f"unreadable checkpoint header: {err}") from err
        config, layout, meta = _check_header(header)
        raw = _read_exact(fh, 3 * 8 * layout.size, end, "parameter data")
        if fh.tell() != end:
            raise ConfigMismatch("trailing bytes after the last parameter")
    flat, m, v = np.frombuffer(raw, dtype="<f8").reshape(3, layout.size)
    for prefix, buf in zip(_PREFIXES, (flat, m, v)):
        if not np.isfinite(buf).all():
            name = next(n for n, a in layout.views(buf).items() if not np.isfinite(a).all())
            raise ConfigMismatch(f"checkpoint data {prefix}{name} holds NaN or inf")
    params = DualHelixParams(config=config, seed=meta["seed"], arrays=layout.views(flat))
    opt = AdamState(layout, learning_rate=meta["learning_rate"], step=meta["adam_step"],
                    m=m.astype(np.float64), v=v.astype(np.float64))
    return params, opt, meta["step"], meta["epochs_done"]
