"""The checkpoint format, its one writer and its one reader.

Layout: an 8-byte version tag, a little-endian uint32 header length, a JSON
header with sorted keys, then raw little-endian float64 data, and nothing
after it. The header holds the encoder "config", plus "readout": "mean", a
constant of the format; the "meta" counters (step, epochs_done, seed,
adam_step) and "adam", the learning rate beside Adam's fixed constants; and
the "params" name/shape table: every parameter under "model.", then
"opt.m.", then "opt.v.", each in sorted name order. So the data is
DualHelixParams.flat, then AdamState.m and AdamState.v, and a round trip is
bit-exact. The reader checks a file once and raises ConfigMismatch for a
cut, an unreadable header, a config the encoder rejects, a readout other
than "mean", a table entry missing or misshaped for the stored config,
trailing bytes, a counter that is not an int >= 0, or Adam values other
than a positive rate and the fixed constants. It skips, by offset, table
entries the config does not hold, such as the fusion-off edge tables that
older versions wrote.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict
from itertools import accumulate

import numpy as np

from .autodiff import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, FlatLayout
from .encoder import DualHelixParams, EncoderConfig, param_shapes

MAGIC = b"LNCT0001"
_READOUT = "mean"
_ADAM_CONSTANTS = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}
_PREFIXES = ("model.", "opt.m.", "opt.v.")  # params.flat, opt.m, opt.v


class ConfigMismatch(ValueError):
    pass


def save_checkpoint(path, params: DualHelixParams, opt: AdamState, step: int,
                    epochs_done: int) -> None:
    layout = opt.layout
    header = {
        "config": {**asdict(params.config), "readout": _READOUT},
        "meta": {
            "step": step,
            "epochs_done": epochs_done,
            "seed": params.seed,
            "adam": {"learning_rate": opt.learning_rate, **_ADAM_CONSTANTS},
            "adam_step": opt.step,
        },
        "params": [[prefix + name, list(shape)] for prefix in _PREFIXES
                   for name, shape in zip(layout.names, layout.shapes)],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for buf in (params.flat, opt.m, opt.v):
            fh.write(buf.astype("<f8").tobytes())


def _read_exact(fh, size: int, end: int, what: str) -> bytes:
    """`size` bytes from `fh`, refused before reading when the file ends at
    `end` first, so a corrupt length never sizes an allocation."""
    if fh.tell() + size > end:
        raise ConfigMismatch(f"truncated {what}")
    return fh.read(size)


def _parse_header(blob: bytes) -> dict:
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as err:  # undecodable bytes or not JSON
        raise ConfigMismatch(f"unreadable checkpoint header: {err}") from err
    if not isinstance(header, dict) or not {"config", "params"} <= header.keys():
        raise ConfigMismatch("checkpoint header lacks its config or parameter table")
    if not isinstance(header.get("meta", {}), dict):
        raise ConfigMismatch("checkpoint metadata is not an object")
    try:
        header["params"] = [(str(name), tuple(int(n) for n in shape))
                            for name, shape in header["params"]]
    except (TypeError, ValueError) as err:
        raise ConfigMismatch(f"checkpoint parameter table rejected: {err}") from err
    if any(n < 0 for _, shape in header["params"] for n in shape):
        raise ConfigMismatch("checkpoint parameter table has a negative dimension")
    return header


def _config(fields) -> EncoderConfig:
    try:
        fields = {**fields}  # TypeError unless an object
        readout = fields.pop("readout", _READOUT)
        if readout != _READOUT:
            raise ValueError(f"readout {readout!r} is not the fixed {_READOUT!r}")
        return EncoderConfig(**fields)
    except (TypeError, ValueError) as err:
        raise ConfigMismatch(f"checkpoint config rejected: {err}") from err


def _meta_int(meta: dict, key: str) -> int:
    """An int metadata field, 0 when absent; ConfigMismatch otherwise."""
    value = meta.get(key, 0)
    # JSON true / false load as bools, which are ints to Python
    if type(value) is not int or value < 0:
        raise ConfigMismatch(f"checkpoint metadata {key} is not an int >= 0: {value!r}")
    return value


def _meta_learning_rate(meta: dict) -> float:
    """The stored Adam rate, 1e-3 when absent, after checking `meta.adam`;
    ConfigMismatch otherwise."""
    adam = meta.get("adam", {})
    if not isinstance(adam, dict) or not all(
            type(x) is float and math.isfinite(x) for x in adam.values()):
        raise ConfigMismatch(f"checkpoint metadata adam is not an object of finite "
                             f"floats: {adam!r}")
    unknown = sorted(set(adam) - {"learning_rate", *_ADAM_CONSTANTS})
    if unknown:
        raise ConfigMismatch(f"checkpoint metadata adam has unknown key {unknown[0]!r}")
    rate = adam.get("learning_rate", 1e-3)
    if rate <= 0:  # trains uphill or not at all
        raise ConfigMismatch(f"checkpoint metadata adam.learning_rate is not > 0: {rate!r}")
    # adam_step uses only the constants, so other stored values cannot resume
    for key, value in _ADAM_CONSTANTS.items():
        if adam.get(key, value) != value:
            raise ConfigMismatch(f"checkpoint metadata adam.{key} is {adam[key]!r}, "
                                 f"not the fixed {value!r}")
    return rate


def load_checkpoint(path) -> tuple[DualHelixParams, AdamState, int, int]:
    """The parameters, Adam's state, the step and the completed epochs,
    from one read of the data; ConfigMismatch for a file that fails any
    check of the module docstring."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigMismatch(f"bad version tag {magic!r}, expected {MAGIC!r}")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, end, "header length"))
        header = _parse_header(_read_exact(fh, header_len, end, "header"))
        sizes = [math.prod(shape) for _, shape in header["params"]]
        raw = _read_exact(fh, 8 * sum(sizes), end, "parameter data")
        if fh.tell() != end:
            raise ConfigMismatch("trailing bytes after the last parameter")
    config = _config(header["config"])
    data = np.frombuffer(raw, dtype="<f8")
    table = {name: (start, shape) for (name, shape), start
             in zip(header["params"], accumulate(sizes, initial=0))}
    layout = FlatLayout(param_shapes(config))

    def arrays(prefix: str) -> dict[str, np.ndarray]:
        found = {}
        for name, shape in zip(layout.names, layout.shapes):
            start, stored = table.get(prefix + name, (0, None))
            if stored != shape:
                raise ConfigMismatch(f"array {prefix}{name} missing or misshaped "
                                     "for the stored config")
            found[name] = data[start:start + math.prod(shape)].reshape(shape)
        return found

    meta = header.get("meta", {})
    params = DualHelixParams(config=config, seed=_meta_int(meta, "seed"),
                             arrays=arrays("model."))
    opt = AdamState(layout, learning_rate=_meta_learning_rate(meta),
                    step=_meta_int(meta, "adam_step"),
                    m=layout.pack(arrays("opt.m.")), v=layout.pack(arrays("opt.v.")))
    return params, opt, _meta_int(meta, "step"), _meta_int(meta, "epochs_done")
