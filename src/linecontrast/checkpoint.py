"""Single-file checkpoint container.

Layout: an 8-byte version tag, a little-endian uint32 header length, a JSON
header (encoder config, metadata, and the name/shape table in sorted name
order), then the raw row-major little-endian float64 data of every array in
table order, and nothing after it. Save/load round-trips bit-exactly; a
file that is cut short, has an unreadable header or carries trailing bytes
is rejected with ConfigMismatch.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .encoder import EncoderConfig

MAGIC = b"LNCT0001"


class ConfigMismatch(ValueError):
    pass


@dataclass
class Checkpoint:
    config: EncoderConfig
    arrays: dict[str, np.ndarray]
    meta: dict


def save_checkpoint(path, config: EncoderConfig, arrays: dict[str, np.ndarray],
                    meta: dict | None = None) -> None:
    names = sorted(arrays)
    header = {
        "config": asdict(config),
        "meta": meta or {},
        "params": [[name, list(arrays[name].shape)] for name in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


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


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigMismatch(f"bad version tag {magic!r}, expected {MAGIC!r}")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, end, "header length"))
        header = _parse_header(_read_exact(fh, header_len, end, "header"))
        try:
            config = EncoderConfig(**header["config"])
        except (TypeError, ValueError) as err:
            raise ConfigMismatch(f"checkpoint config rejected: {err}") from err
        arrays: dict[str, np.ndarray] = {}
        for name, shape in header["params"]:
            count = int(np.prod(shape))
            raw = _read_exact(fh, count * 8, end, f"data for parameter {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if fh.tell() != end:
            raise ConfigMismatch("trailing bytes after the last parameter")
    return Checkpoint(config=config, arrays=arrays, meta=header.get("meta", {}))
